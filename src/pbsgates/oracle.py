"""Independent dense brute-force simulator used to cross-check the engine.

Everything here is deliberately separate from the sparse engine, which
pushes photons through the circuit one element at a time.  The oracle
instead composes the single-particle matrix ``U`` of the whole network (the
optical elements, then the rotation of each FS detector's mode) and reads
each many-body amplitude as a permanent (Scheel, quant-ph/0406127; Aaronson
& Arkhipov, arXiv:1011.3245):

    <T|W|S> = Perm(U[T, S]) / sqrt(prod t! * prod s!)

where ``U[T, S]`` repeats row t of ``U`` once per photon of the output
configuration T on it, and column s once per photon of the input S.
Permanents are evaluated by Glynn's formula, vectorised over the rows and,
in chunks of bounded size, over the input configurations.

``U`` is block-diagonal over the groups of modes that beam splitters couple,
so a circuit's basis is the product of the groups' photon-number sectors and
each amplitude factors into one permanent per group.  Only the columns of
the configurations that the declared inputs can hold are computed.  States
are dense vectors over that basis, and an outcome's probability is the
squared norm of the amplitudes whose detector counts match it.

Compiling and running a circuit needs numpy alone.  ``scipy.sparse`` is
loaded only when a sparse operator is first built
(:attr:`DenseCircuit.operator` and :func:`element_operator`).  Neither is on
the path of :meth:`DenseCircuit.run`; ``perfbench`` reads the first's
``nnz`` at each compile and times the second.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .circuit import CircuitSpec, OutcomePattern, is_1ao1, is_passive
from .errors import MissingOutput, ModeCollision, NonPhysicalInput, TruncationTooSmall
from .fock import POL_H, POL_V, BasisState, Slot
from .optics import (
    BASIS_FS,
    BASIS_HV,
    PbsElement,
    PolPhaseElement,
    RotatorElement,
)
from .record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    import scipy.sparse as sp

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# a†H -> (a†F - a†S)/sqrt(2), a†V -> (a†F + a†S)/sqrt(2); columns are (H, V),
# rows are (F, S).  After this rotation the numeric "H" slot holds the
# transmitted (F) component and the "V" slot the reflected (S) component.
_REBASE = np.array([[_INV_SQRT2, _INV_SQRT2], [-_INV_SQRT2, _INV_SQRT2]])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: A PBS's single-particle matrix over (in1 H, in1 V, in2 H, in2 V) onto the
#: same slots of (out1, out2): the HV one transmits H (in1 -> out1, in2 ->
#: out2) and reflects V (in1 -> out2, in2 -> out1); the FS one does the same
#: in the rotated basis of ``_REBASE``.
_HV_PBS = _read_only(np.eye(4)[[0, 3, 2, 1]])
_FS_PBS = _read_only(
    np.linalg.inv(np.kron(np.eye(2), _REBASE)) @ _HV_PBS @ np.kron(np.eye(2), _REBASE)
)

#: Most complex entries that one chunk of input columns may put in each
#: intermediate of :func:`_amplitudes`; a single column may need more.
_CHUNK_ENTRIES = 2**18

#: Most entries that a compile's ``images`` (complex, 64 MiB) or its basis
#: occupations (int64, one per slot) may hold: a basis whose dimension times
#: the larger of its support columns and its slots exceeds this is refused
#: before any sector is enumerated.
_MAX_IMAGE_ENTRIES = 2**22

#: The polarization of each declared mode in each term of each input kind,
#: in term order.  A qubit or a state declares one amplitude per term; a
#: Bell pair or the chi resource declares none and is the equal
#: superposition of its terms.  The engine keeps its own table of the kinds.
_INPUT_TERMS = {
    "qubit": ("H", "V"),
    "state": ("HH", "HV", "VH", "VV"),
    "bell": ("HH", "VV"),
    "chi": ("HHHH", "HHVV", "VVVH", "VVHV"),
}

@functools.cache
def _targets(total: int, parts: int) -> np.ndarray:
    """The sector of ``total`` photons on ``parts`` >= 1 slots as a read-only
    array: every row of counts, in lexicographic order, as the gaps between
    ``parts - 1`` bars among ``total + parts - 1`` places."""
    places = total + parts - 1
    count = math.comb(places, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(places), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),
    ).reshape(count, parts - 1)
    edges = np.hstack([np.full((count, 1), -1), bars, np.full((count, 1), places)])
    return _read_only(np.diff(edges, axis=1) - 1)


@functools.cache
def _sector_side(total: int, parts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of :func:`_amplitudes` for the sector ``_targets(total,
    parts)`` of ``total`` >= 1 photons on ``parts`` slots, read-only: the
    slot of each photon of each row, each row's sqrt(prod k!) over its counts
    k, and the rank table of :func:`_sector_rows`.

    The sector is in lexicographic order, so a row's rank counts, for each
    slot i, the rows that agree with it before slot i and hold fewer photons
    on it.  With c photons on slot i and a on the p = parts - 1 - i slots
    after it, those number C(a + c + p, p) - C(a + p, p), which the table
    holds at ``[a, c, i]``.  No entry exceeds the sector's length, so no sum
    overflows; entries with a + c > ``total``, which no row has, are never
    read.
    """
    occupations = _targets(total, parts)
    slots = np.arange(parts)
    photons = np.repeat(np.tile(slots, len(occupations)), occupations.ravel())
    factorial = np.cumprod(np.arange(total + 1, dtype=float).clip(1.0))
    roots = np.sqrt(factorial[occupations].prod(axis=1))
    binomials = np.array(
        [[math.comb(r + p, p) for p in range(parts - 1, -1, -1)] for r in range(total + 1)],
        dtype=np.int64,
    )
    counts = np.arange(total + 1)
    table = binomials[np.minimum(counts[:, None] + counts, total)] - binomials[:, None]
    return (
        _read_only(photons.reshape(-1, total)),
        _read_only(roots),
        _read_only(table),
    )


def _sector_rows(occupations: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The row of its sector that each row of ``occupations`` is, by the
    sector's rank ``table`` (see :func:`_sector_side`)."""
    after = len(table) - 1 - np.cumsum(occupations, axis=1)
    return table[after, occupations, np.arange(occupations.shape[1])].sum(axis=1)


class DenseBasis:
    """Enumerated occupation basis over a declared slot set.

    The default enumeration holds every configuration with total photon
    number up to ``n_max`` (dimension = number of multisets of size <= n_max
    over the slots), in a fixed deterministic order.  Explicit ``states``
    (rows of occupations) may hold at most ``n_max`` photons each.
    ``states`` as tuples and their ``index`` are built on first use.
    """

    def __init__(self, slots: list[Slot], n_max: int = 4, states=None):
        self.slots = list(slots)
        if states is None:
            states = np.concatenate([_targets(t, len(self.slots)) for t in range(n_max + 1)])
        self.occupations = np.array(states, dtype=np.int64).reshape(-1, len(self.slots))
        self.dim = len(self.occupations)
        self._slot_position = {slot: i for i, slot in enumerate(self.slots)}
        if self.dim and self.occupations.sum(axis=1).max() > n_max:
            raise ValueError(f"a state holds more than n_max={n_max} photons")

    @functools.cached_property
    def states(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.occupations.tolist()))

    @functools.cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {state: i for i, state in enumerate(self.states)}


def _single_particle_matrix(el) -> tuple[list[Slot], list[Slot], np.ndarray]:
    """(input slots, output slots, u) with a†(in_j) -> sum_i u[i,j] a†(out_i)."""
    if isinstance(el, PbsElement):
        ins = [(el.in1, POL_H), (el.in1, POL_V), (el.in2, POL_H), (el.in2, POL_V)]
        outs = [(el.out1, POL_H), (el.out1, POL_V), (el.out2, POL_H), (el.out2, POL_V)]
        return ins, outs, _HV_PBS if el.basis == BASIS_HV else _FS_PBS
    if isinstance(el, RotatorElement):
        theta = math.radians(el.angle_deg)
        u = np.array(
            [
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ]
        )
        return [(el.mode, POL_H), (el.mode, POL_V)], [
            (el.mode, POL_H),
            (el.mode, POL_V),
        ], u
    if isinstance(el, PolPhaseElement):
        phase = np.exp(1j * math.radians(el.phase_deg))
        slot = (el.mode, el.pol)
        return [slot], [slot], np.array([[phase]])
    raise TypeError(f"not an optical element: {el!r}")


def _embedded(position: dict[Slot, int], ins, outs, u: np.ndarray) -> np.ndarray:
    """The single-particle matrix over every slot of ``position`` of the map
    a†(ins[j]) -> sum_i u[i, j] a†(outs[i]), which leaves other slots alone."""
    matrix = np.eye(len(position), dtype=complex)
    cols = [position[s] for s in ins]
    matrix[:, cols] = 0.0
    matrix[np.ix_([position[s] for s in outs], cols)] = u
    return matrix


def _compose(position: dict[Slot, int], maps) -> np.ndarray:
    """The single-particle matrix over every slot of ``position`` of the maps
    (ins, outs, u), applied in order.  Each map writes exactly the slots it
    reads (``ins == outs``), so it updates only their rows."""
    matrix = np.eye(len(position), dtype=complex)
    for ins, _, u in maps:
        rows = [position[s] for s in ins]
        matrix[rows] = u @ matrix[rows]
    return matrix


@functools.cache
def _glynn(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Glynn's sign vectors for n x n permanents as the columns of an
    (n, 2**(n - 1)) array, the first sign always +1, and each vector's
    sign product over 2**(n - 1)."""
    deltas = np.array(
        [(1,) + rest for rest in itertools.product((1, -1), repeat=n - 1)],
        dtype=float,
    ).T
    return deltas, deltas.prod(axis=0) / 2 ** (n - 1)


def _amplitudes(u: np.ndarray, ins: np.ndarray) -> np.ndarray:
    """<T|W|S> for each output occupation T of the sector of ``n`` photons on
    the slots of ``u`` (a row of ``_targets(n, len(u))``) and input occupation
    S (a row of ``ins``, which holds at least one, each of ``n`` photons),
    where W is the many-body map of the single-particle matrix ``u``.

    By Glynn's formula, Perm(A) = sum over sign vectors d of prod(d) *
    prod over rows t of (A[t] . d), over 2**(n - 1).  The row sums of every
    output slot come from one stacked matrix product per chunk of input
    configurations, each chunk as large as ``_CHUNK_ENTRIES`` allows.

    Both sides' photon slots and sqrt-factorial products depend only on the
    sector, which holds every row of ``ins`` too: they are worked out once
    per sector (:func:`_sector_side`), and the input side is read at the
    rows of ``ins`` (:func:`_sector_rows`).  With one photon, the amplitudes
    are the entries of ``u`` themselves.
    """
    n = int(ins[0].sum())
    if n == 0:
        return np.ones((1, len(ins)), dtype=complex)
    photons, roots, table = _sector_side(n, len(u))
    amps = np.zeros((len(roots), len(ins)), dtype=complex)
    if n == 1:
        amps[:] = u[photons, ins.argmax(axis=1)]
        return amps
    rows = _sector_rows(ins, table)
    deltas, weights = _glynn(n)
    # Per column, ``sums`` holds (slots, signs) entries and ``products``
    # (outputs, signs); there are at least as many signs as photons.
    step = max(1, _CHUNK_ENTRIES // (max(u.shape[0], len(amps)) * len(weights)))
    for start in range(0, len(ins), step):
        chunk = slice(start, start + step)
        sums = u[:, photons[rows[chunk]]] @ deltas
        products = sums[photons[:, 0]]
        for k in range(1, n):
            products *= sums[photons[:, k]]
        amps[:, chunk] = products @ weights
    return amps / np.outer(roots, roots[rows])


def _expand_operator(
    basis: DenseBasis, ins: list[Slot], outs: list[Slot], u: np.ndarray
) -> sp.csr_matrix:
    """Many-body operator on ``basis`` of the single-particle map
    a†(ins[j]) -> sum_i u[i, j] a†(outs[i]), built one photon-number sector
    at a time.  An image with weight on a state that the basis lacks raises
    :class:`TruncationTooSmall`, naming that state's occupations."""
    import scipy.sparse as sp

    matrix = _embedded(basis._slot_position, ins, outs, u)
    totals = basis.occupations.sum(axis=1)
    entries = []
    for n in np.unique(totals).tolist():
        columns = np.flatnonzero(totals == n)
        targets = _targets(n, len(basis.slots))
        amps = _amplitudes(matrix, basis.occupations[columns])
        hit, which = np.nonzero(amps)
        found = np.array([basis.index.get(t, -1) for t in map(tuple, targets.tolist())])[hit]
        if (found < 0).any():
            state = tuple(targets[hit[np.argmin(found)]].tolist())
            raise TruncationTooSmall(f"operator image {state} outside basis")
        entries.append((amps[hit, which], found, columns[which]))
    vals, rows, cols = map(np.concatenate, zip(*entries))
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))


def element_operator(el, basis: DenseBasis) -> sp.csr_matrix:
    """Many-body operator of one optical element on ``basis``."""
    ins, outs, u = _single_particle_matrix(el)
    return _expand_operator(basis, ins, outs, u)


def _declaration_terms(decl) -> list[tuple[tuple[Slot, ...], complex]]:
    """One input declaration's terms as (slot of each photon, amplitude)."""
    terms = _INPUT_TERMS[decl.kind]
    amplitudes = decl.amplitudes or (1.0 / math.sqrt(len(terms)),) * len(terms)
    return [(tuple(zip(decl.modes, pols)), a) for pols, a in zip(terms, amplitudes)]


def _input_terms(spec: CircuitSpec, slots: list[Slot]) -> dict[tuple[int, ...], complex]:
    """The declared input as {occupation of ``slots``: amplitude}.

    Every term of the product of the declarations is kept, zero amplitudes
    too, so the keys are every configuration that declarations of these
    kinds on these modes can hold.  Declarations share no mode and put one
    photon on each of theirs, so no slot holds two photons and no term needs
    a bosonic factor.
    """
    position = {slot: i for i, slot in enumerate(slots)}
    terms: dict[tuple[int, ...], complex] = {(): 1.0 + 0j}
    for decl in spec.inputs:
        options = [(tuple(position[s] for s in held), a) for held, a in _declaration_terms(decl)]
        terms = {
            held + photons: amp * a for held, amp in terms.items() for photons, a in options
        }
    keys = [[0] * len(slots) for _ in terms]
    for key, held in zip(keys, terms):
        for i in held:
            key[i] = 1
    return dict(zip(map(tuple, keys), terms.values()))


class DenseRunResult(Record):
    __slots__ = _fields = ("outcomes", "rejected", "success_probability", "failure_probability")

    def __init__(
        self,
        outcomes: dict[OutcomePattern, tuple[float, dict[BasisState, complex]]],
        rejected: dict[OutcomePattern, float],
        success_probability: float,
        failure_probability: float,
    ):
        self.outcomes = outcomes
        self.rejected = rejected
        self.success_probability = success_probability
        self.failure_probability = failure_probability


class DenseCircuit:
    """Compiled dense pipeline for one circuit topology.

    Each element's own single-particle matrix acts on the physical slots of
    its input modes, and a polarizing beam splitter writes in place: its
    output modes are relabeled to those slots, which keeps the basis small.
    The basis is restricted to the exact photon-number sector of each group
    of modes coupled by a beam splitter.  A mode that an element, detector
    or output names but no photon occupies becomes a physical mode with no
    photons.  A spec was checked when it was built
    (:func:`circuit.validate`), so none is checked here.

    ``unitary`` is the network's single-particle matrix over the basis
    slots, and ``blocks`` the slice of slots of each coupled group.
    ``images`` is the network's many-body map as a dense array of shape
    (``basis.dim``, ``len(support)``); ``support`` maps each configuration
    that the declared inputs can hold to its column, and an input with
    weight elsewhere is refused.  A basis whose dimension times the larger of
    its support columns and its slots exceeds :data:`_MAX_IMAGE_ENTRIES`
    (2**22) is refused with ``ValueError`` before it is enumerated.
    ``operator`` is the same map as a CSR matrix, built on first read: a run
    never reads it, and it is the only step of a compiled circuit that
    imports scipy.  Outputs are reported by name.  As in the engine, a run
    may leave photons only on detected and output modes, so a correction on
    any other mode is left out.  Photons left there are refused: with ``ModeCollision`` if a PBS
    output wrote over their mode (no later element touches it, so they were
    on it then), else ``MissingOutput``.
    """

    def __init__(self, spec: CircuitSpec):
        self.spec = spec
        # Declarations share no mode and put one photon on each of theirs.
        per_mode = dict.fromkeys((m for decl in spec.inputs for m in decl.modes), 1)
        group_of = {mode: mode for mode in per_mode}

        def find(m):
            while group_of[m] != m:
                group_of[m] = group_of[group_of[m]]
                m = group_of[m]
            return m

        alias = {mode: mode for mode in per_mode}
        # Each physical mode that a PBS output wrote over, with that output.
        self._overwritten: dict[str, str] = {}

        def physical(mode):
            """The physical mode that holds ``mode``: a new, empty one if no
            photon is on it."""
            if mode not in alias:
                phys = mode
                while phys in per_mode:
                    phys += "'"
                per_mode[phys] = 0
                group_of[phys] = alias[mode] = phys
            return alias[mode]

        maps = []
        for el in spec.elements:
            ins, _, u = _single_particle_matrix(el)
            ins = [(physical(mode), pol) for mode, pol in ins]
            maps.append((ins, ins, u))
            if isinstance(el, PbsElement):
                p1, p2 = alias[el.in1], alias[el.in2]
                group_of[find(p1)] = find(p2)
                alias.pop(el.in1, None)
                alias.pop(el.in2, None)
                self._overwritten.update((alias[o], o) for o in (el.out1, el.out2) if o in alias)
                alias[el.out1] = p1
                alias[el.out2] = p2
        for mode in [det.mode for det in spec.detectors] + list(spec.outputs):
            physical(mode)
        self.alias = alias

        groups: dict[str, list[str]] = {}
        for mode in per_mode:
            groups.setdefault(find(mode), []).append(mode)
        slot_list: list[Slot] = []
        self.blocks: list[slice] = []
        sectors = []
        for root in sorted(groups):
            members = sorted(groups[root])
            gslots = [(m, pol) for m in members for pol in (POL_H, POL_V)]
            sectors.append((sum(per_mode[m] for m in members), len(gslots)))
            self.blocks.append(slice(len(slot_list), len(slot_list) + len(gslots)))
            slot_list.extend(gslots)
        dim = math.prod(math.comb(n + parts - 1, parts - 1) for n, parts in sectors)
        columns = math.prod(len(_INPUT_TERMS[decl.kind]) for decl in spec.inputs)
        n_slots = len(slot_list)
        if dim * max(columns, n_slots) > _MAX_IMAGE_ENTRIES:
            wide = f"{columns} support columns" if columns >= n_slots else f"{n_slots} slots"
            raise ValueError(
                f"dense basis of dimension {dim} with {wide} "
                f"exceeds the oracle's bound of {_MAX_IMAGE_ENTRIES} entries"
            )
        # The product of the groups' sectors, in itertools.product order.
        occupations = np.zeros((1, 0), dtype=np.int64)
        for n, parts in sectors:
            sector = _targets(n, parts)
            rows = np.repeat(occupations, len(sector), axis=0)
            occupations = np.hstack([rows, np.tile(sector, (len(occupations), 1))])
        self.basis = DenseBasis(slot_list, n_max=sum(per_mode.values()), states=occupations)

        position = self.basis._slot_position
        for det in spec.detectors:
            if det.basis == BASIS_FS:
                slots = [(alias[det.mode], POL_H), (alias[det.mode], POL_V)]
                maps.append((slots, slots, _REBASE))
        unitary = _compose(position, maps)
        outside = unitary.copy()
        for block in self.blocks:
            outside[block, block] = 0.0
        eye = np.eye(len(slot_list))
        # np.allclose's rule at atol 1e-10 and its default rtol 1e-5.
        close = abs(unitary.conj().T @ unitary - eye) <= 1e-10 + 1e-5 * eye
        if outside.any() or not close.all():
            raise ValueError(
                "the network's single-particle matrix is not unitary and "
                "block-diagonal over its coupled groups"
            )
        self.unitary = unitary

        # Each support column is the Kronecker product of its groups' images.
        self._input_terms = _input_terms(spec, slot_list)
        support = sorted(self._input_terms)
        self.support = {state: c for c, state in enumerate(support)}
        columns = np.array(support, dtype=np.int64).reshape(-1, len(slot_list))
        images = np.ones((1, len(columns)), dtype=complex)
        for block in self.blocks:
            # A support column holds at most one photon per slot, so its bits
            # on the slots that hold a photon in some column key its local
            # configuration: at most two per photon of the group.
            local = columns[:, block]
            held = np.flatnonzero(local.any(axis=0))
            keys = local[:, held] @ (1 << np.arange(len(held), dtype=np.int64))
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            amps = _amplitudes(unitary[block, block], local[first])
            images = (images[:, None, :] * amps[:, inverse.ravel()][None]).reshape(
                -1, len(columns)
            )
        self.images = images
        # The (transmitted, reflected) slot of each detector, in detector order.
        self._det_columns = [
            position[(alias[det.mode], pol)] for det in spec.detectors for pol in (POL_H, POL_V)
        ]
        # Reduced slots are the outputs' slots under their names, in sorted
        # order, which is the order of a BasisState's entries.
        reduced = self.reduced_slots = sorted((m, p) for m in spec.outputs for p in (POL_H, POL_V))
        self.kept = [position[(alias[m], pol)] for m, pol in reduced]
        self._empty_slots = np.ones(len(slot_list), dtype=bool)
        self._empty_slots[self._det_columns + self.kept] = False
        # Each reduced configuration's BasisState, built on first use.
        self._reduced_state = functools.cache(
            lambda counts: BasisState(tuple((s, n) for s, n in zip(reduced, counts) if n))
        )

        # Per rule with corrections: its detector, the side of that detector's
        # counts that fires it (0 transmitted, 1 reflected) and its
        # corrections on outputs as one matrix, applied once per photon
        # counted there.
        reduced_position = {slot: i for i, slot in enumerate(self.reduced_slots)}
        detectors = {det.label: (d, det.transmitted_pol) for d, det in enumerate(spec.detectors)}
        self._triggers = [
            (
                d,
                int(rule.pol != transmitted),
                _compose(reduced_position, [
                    _single_particle_matrix(c) for c in rule.corrections if c.mode in spec.outputs
                ]),
            )
            for rule in spec.rules
            if rule.corrections
            for d, transmitted in [detectors[rule.label]]
        ]

    @functools.cached_property
    def operator(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix(self.images)

    def input_vector(self, spec: CircuitSpec) -> np.ndarray:
        """Input amplitudes in ``support`` order, built directly from the
        declarations (the compiled spec's were built by the compile).  An
        input with weight on a configuration outside ``support`` raises
        ``ValueError``."""
        if spec is self.spec:
            terms = self._input_terms
        else:
            terms = _input_terms(spec, self.basis.slots)
        vec = np.zeros(len(self.support), dtype=complex)
        for state, amp in terms.items():
            if not amp:
                continue
            if state not in self.support:
                raise ValueError(
                    f"input configuration {state} is outside the compiled support"
                )
            vec[self.support[state]] = amp
        return vec

    def run(self, spec: CircuitSpec, passive: bool = False) -> DenseRunResult:
        """Outcome table of ``spec``'s input through the compiled circuit.

        A spec other than the compiled one must have the compiled spec's
        modes, elements, detectors, rules and outputs, and its inputs on the
        same modes; else ``ValueError`` names the field.  Its inputs may
        differ in amplitudes, and in kind as far as :meth:`input_vector`
        allows.  An input whose squared norm is not 1 to within 1e-9 raises
        :class:`NonPhysicalInput`, as in the engine.

        The output rows are grouped by detector pattern in numpy, by a stable
        sort over their count columns (a sort needs no key that could
        overflow), and each pattern's probability is summed in row order.
        Only an accepted pattern gets a bucket of its output terms, and each
        reduced configuration's :class:`BasisState` is built once per
        compile.
        """
        if spec is not self.spec:
            for field in ("modes", "elements", "detectors", "rules", "outputs"):
                if getattr(spec, field) != getattr(self.spec, field):
                    raise ValueError(f"spec {field} differ from the compiled spec's")
            if [d.modes for d in spec.inputs] != [d.modes for d in self.spec.inputs]:
                raise ValueError("spec inputs are on other modes than the compiled spec's")
        amplitudes = self.input_vector(spec)
        # The engine's rule: the input's squared norm is 1 to within 1e-9.
        # A real or imaginary part too large to square makes it inf, which
        # is refused too.
        parts = amplitudes.view(float)
        norm = float(np.vdot(parts, parts))
        if not abs(norm - 1.0) <= 1e-9:
            raise NonPhysicalInput(f"input squared norm is {norm!r}, expected 1")
        vec = self.images @ amplitudes
        # Amplitudes below 1e-12 (the engine's default tolerance) are rounding
        # noise, which the engine prunes: dropping them keeps noise from
        # making an outcome of its own, or a refusal.
        nonzero = np.flatnonzero(abs(vec) >= 1e-12)
        occupations = self.basis.occupations[nonzero]
        # Photons on a slot neither detected nor an output are refused; with
        # no such row, each (pattern, reduced) pair occurs once.
        held = occupations.any(axis=0) & self._empty_slots
        modes = {self.basis.slots[i][0] for i in np.flatnonzero(held)}
        for mode, out in self._overwritten.items():
            if mode in modes:
                raise ModeCollision(
                    f"PBS output {out!r} collides with a live mode that is not an input"
                )
        if modes:
            names = sorted(m for m, phys in self.alias.items() if phys in modes)
            raise MissingOutput(f"photons left on undetected non-output modes {names}")
        # Rows grouped by detector pattern, the patterns in sorted order; the
        # sort is stable, so each pattern keeps its rows in row order.
        counts = occupations[:, self._det_columns]
        order = np.lexsort(counts.T[::-1]) if counts.shape[1] else np.arange(len(counts))
        counts = counts[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (counts[1:] != counts[:-1]).any(axis=1)
        starts = np.flatnonzero(first).tolist()
        amps = vec[nonzero[order]].tolist()
        # Each pattern's probability, summed in row order.  Each row's share
        # is squared as a Python complex, which numpy's abs and square can
        # round otherwise.
        probs = np.bincount(np.cumsum(first) - 1, weights=[abs(a) ** 2 for a in amps]).tolist()
        reduced = occupations[order][:, self.kept].tolist()

        state = self._reduced_state
        outcomes = {}
        rejected = {}
        success = 0.0
        for c, start, end, prob in zip(
            counts[starts].tolist(), starts, starts[1:] + [len(order)], probs
        ):
            pattern = tuple(zip(c[::2], c[1::2]))
            accepted = is_passive(pattern) if passive else is_1ao1(pattern)
            if accepted and prob > 0.0:
                bucket = dict(zip(map(tuple, reduced[start:end]), amps[start:end]))
                corrected = self._apply_corrections(bucket, pattern)
                scale = 1.0 / math.sqrt(prob)
                terms = {state(red): amp * scale for red, amp in corrected.items() if amp}
                outcomes[pattern] = (prob, terms)
                success += prob
            else:
                rejected[pattern] = prob
        return DenseRunResult(
            outcomes=outcomes,
            rejected=rejected,
            success_probability=success,
            failure_probability=1.0 - success,
        )

    def _apply_corrections(self, bucket, pattern):
        """``bucket`` after the corrections that ``pattern`` fires, rule by
        rule in declared order; unchanged if it fires none."""
        matrix = None
        for det, side, rule_matrix in self._triggers:
            for _ in range(pattern[det][side]):
                matrix = rule_matrix if matrix is None else rule_matrix @ matrix
        if matrix is None:
            return bucket
        # Every state of one pattern's bucket holds the same number of photons.
        n = sum(next(iter(bucket)))
        targets = _targets(n, len(self.reduced_slots))
        amps = _amplitudes(matrix, np.array(list(bucket))) @ np.array(
            list(bucket.values())
        )
        return {tuple(t): amp for t, amp in zip(targets.tolist(), amps.tolist()) if amp}


def run_dense(spec: CircuitSpec, passive: bool = False) -> DenseRunResult:
    return DenseCircuit(spec).run(spec, passive=passive)
