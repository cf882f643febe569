"""Independent dense brute-force simulator used to cross-check the engine.

Everything here is deliberately separate from the sparse engine.  Element
unitaries come from explicit single-particle matrices and are expanded into
sparse many-body operators by the closed-form multinomial sum (Scheel,
quant-ph/0406127).  States are dense vectors over an explicitly enumerated
occupation basis, and an outcome's probability is the squared norm of the
amplitudes whose detector counts match it.

The expansion of a map depends only on the local occupation: the photons on
the slots it reads and those already on the slots it writes.  So each
operator is expanded once per local occupation, and one compiled circuit
shares the multinomial sums among all its operators that have the same
single-particle matrix, together with each input slot's list of ways to
distribute its photons, built once per compile.  Ways whose amplitude is
exactly zero are left out of those lists (a beam splitter's permutation
matrix leaves one way per photon), since every product holding one would be
dropped.  Every basis state has an integer key, its occupations read as
digits, and an expanded entry finds its row by adding an offset to the
column's key; operators are assembled column by column.  None of this
shares code with the engine's photon-by-photon slot transform.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .circuit import CircuitSpec, OutcomePattern, is_1ao1, is_passive, validate
from .errors import TruncationTooSmall
from .fock import POL_H, POL_V, BasisState, Slot
from .optics import (
    BASIS_FS,
    BASIS_HV,
    PbsElement,
    PolPhaseElement,
    RotatorElement,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# a†H -> (a†F - a†S)/sqrt(2), a†V -> (a†F + a†S)/sqrt(2); columns are (H, V),
# rows are (F, S).  After this rotation the numeric "H" slot holds the
# transmitted (F) component and the "V" slot the reflected (S) component.
_REBASE = np.array([[_INV_SQRT2, _INV_SQRT2], [-_INV_SQRT2, _INV_SQRT2]])


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _place_values(radix: int, digits: int) -> np.ndarray:
    """Place value of each of ``digits`` digits in ``radix``, the first digit
    most significant: int64 when every such number fits, Python ints if not."""
    dtype = np.int64 if radix**digits <= 2**63 else object
    return np.array([radix**i for i in reversed(range(digits))], dtype=dtype)


def _numbers(digits: np.ndarray, place_values: np.ndarray) -> np.ndarray:
    """The number each row of ``digits`` spells with these place values."""
    return (digits.astype(place_values.dtype) * place_values).sum(axis=1)


class DenseBasis:
    """Enumerated occupation basis over a declared slot set.

    The default enumeration holds every configuration with total photon
    number up to ``n_max`` (dimension = number of multisets of size <= n_max
    over the slots), in a fixed deterministic order.  Explicit ``states``
    may hold at most ``n_max`` photons each.

    Each state also has an integer key: its occupations read as the digits
    of a number in radix ``n_max + 1``, the first slot most significant.
    """

    def __init__(self, slots: list[Slot], n_max: int = 4, states=None):
        self.slots = list(slots)
        self.n_max = n_max
        if states is None:
            states = []
            for total in range(n_max + 1):
                states.extend(compositions(total, len(self.slots)))
        self.states: list[tuple[int, ...]] = list(states)
        self.index = {state: i for i, state in enumerate(self.states)}
        self.dim = len(self.states)
        self._slot_position = {slot: i for i, slot in enumerate(self.slots)}
        self.occupations = np.array(self.states, dtype=np.int64).reshape(
            self.dim, len(self.slots)
        )
        if self.dim and self.occupations.sum(axis=1).max() > n_max:
            raise ValueError(f"a state holds more than n_max={n_max} photons")
        self.place_values = _place_values(n_max + 1, len(self.slots))
        self.keys = _numbers(self.occupations, self.place_values)
        self._order = np.argsort(self.keys, kind="stable")
        self._sorted_keys = self.keys[self._order]

    def slot_index(self, slot: Slot) -> int:
        return self._slot_position[slot]

    def rows_of(self, keys: np.ndarray) -> np.ndarray:
        """The index of the state with each key; a key of no state is an error."""
        at = np.minimum(np.searchsorted(self._sorted_keys, keys), self.dim - 1)
        found = self._sorted_keys[at] == keys
        if not found.all():
            key = int(keys[np.argmin(found)])
            state = tuple(key // int(v) % (self.n_max + 1) for v in self.place_values)
            raise TruncationTooSmall(f"operator image {state} outside basis")
        return self._order[at]

    def basis_state(self, i: int) -> BasisState:
        return BasisState.from_dict(
            {slot: n for slot, n in zip(self.slots, self.states[i]) if n}
        )

    def vector_from_terms(self, terms: dict[BasisState, complex]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        for basis, amp in terms.items():
            occ = basis.as_dict()
            state = tuple(occ.pop(slot, 0) for slot in self.slots)
            if occ:
                raise TruncationTooSmall(f"slots not in basis: {sorted(occ)}")
            idx = self.index.get(state)
            if idx is None:
                raise TruncationTooSmall(f"state {state} outside basis")
            vec[idx] = amp
        return vec


def _single_particle_matrix(el) -> tuple[list[Slot], list[Slot], np.ndarray]:
    """(input slots, output slots, u) with a†(in_j) -> sum_i u[i,j] a†(out_i)."""
    if isinstance(el, PbsElement):
        ins = [(el.in1, POL_H), (el.in1, POL_V), (el.in2, POL_H), (el.in2, POL_V)]
        outs = [(el.out1, POL_H), (el.out1, POL_V), (el.out2, POL_H), (el.out2, POL_V)]
        # Transmitted pol: in1->out1, in2->out2; reflected: in1->out2, in2->out1.
        route = np.zeros((4, 4))
        route[0, 0] = route[3, 1] = route[2, 2] = route[1, 3] = 1.0
        if el.basis == BASIS_HV:
            return ins, outs, route
        both = np.kron(np.eye(2), _REBASE)
        return ins, outs, np.linalg.inv(both) @ route @ both
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


def _slot_options(
    u: np.ndarray, j: int, n_j: int, n_out: int, width: int
) -> list[tuple[int, complex]]:
    """Every way of distributing n_j photons of input slot j among the
    output slots, as (packed distribution, multinomial weight times
    prod_i u[i, j]**k_i).  A distribution's counts are packed ``width`` bits
    each, the first output slot most significant.

    Options whose value is exactly zero are left out: every product that
    holds one is zero, so :func:`_local_image` would drop it anyway.
    """
    if n_j == 0:
        return [(0, 1.0 + 0j)]
    options = []
    for dist in compositions(n_j, n_out):
        weight = math.factorial(n_j)
        amp = complex(1.0)
        packed = 0
        for i, k in enumerate(dist):
            weight //= math.factorial(k)
            amp *= u[i, j] ** k
            packed = (packed << width) | k
        value = weight * amp
        if value:
            options.append((packed, value))
    return options


def _local_image(
    counts: tuple[int, ...], u: np.ndarray, n_out: int, options: dict
) -> tuple[int, dict[tuple[int, ...], complex]]:
    """(prod n_j!, {output distribution: amplitude}) for ``counts`` photons
    on the input slots: every way of distributing each group of n_j photons
    among the output slots, with multinomial weights, summed by distribution.

    ``options`` keeps each input slot's :func:`_slot_options` by (slot,
    n_j, width), so that calls with the same matrix build each list once.
    """
    in_norm = math.prod(math.factorial(n) for n in counts)
    # Wide enough for any output count, so packed distributions add up.
    width = max(8, sum(counts).bit_length())
    per_slot = []
    for j, n_j in enumerate(counts):
        slot = options.get((j, n_j, width))
        if slot is None:
            slot = options[j, n_j, width] = _slot_options(u, j, n_j, n_out, width)
        per_slot.append(slot)
    accum: dict[int, complex] = {}
    for combo in itertools.product(*per_slot):
        packed = 0
        amp = complex(1.0)
        for part, a in combo:
            amp *= a
            packed += part
        if not amp:
            continue
        accum[packed] = accum.get(packed, 0j) + amp
    mask = (1 << width) - 1
    shifts = [width * i for i in reversed(range(n_out))]
    return in_norm, {
        tuple(packed >> shift & mask for shift in shifts): amp
        for packed, amp in accum.items()
    }


#: k! as a float for every k whose factorial is a finite float: the value
#: that ``math.factorial(k) / math.factorial(0)`` rounds to.
_FLOAT_FACTORIAL = [float(math.factorial(k)) for k in range(171)]


def _scaled(accum: dict, spect_out: list[int], in_norm: int) -> list[complex]:
    """Each amplitude of an image times its bosonic factor sqrt(out_norm /
    in_norm), out_norm counting the spectators already on the output slots."""
    values = []
    for dist, amp in accum.items():
        # sqrt factors for photons landing on already-occupied out slots
        out_norm = 1.0
        for s, k in zip(spect_out, dist):
            out_norm *= math.factorial(s + k) / math.factorial(s) if s else _FLOAT_FACTORIAL[k]
        values.append(amp * math.sqrt(out_norm / in_norm))
    return values


def _expand_operator(
    basis: DenseBasis,
    ins: list[Slot],
    outs: list[Slot],
    u: np.ndarray,
    images: dict | None = None,
) -> sp.csr_matrix:
    """Many-body operator for a single-particle map, by multinomial expansion.

    For an input configuration with n_j photons in slot j, the image is the
    sum over all ways of distributing each group of n_j photons among the
    output slots, with multinomial weights and bosonic sqrt(m!) factors.

    The image depends only on the local occupation: the photons on the
    input slots and the spectators already on the output slots.  It is
    worked out once per local occupation as (key offset, amplitude) pairs
    and placed on every state with that occupation; the row of each entry
    is the state whose key is the column's key plus the offset.
    ``images`` keeps, by matrix, the :func:`_local_image` results by input
    counts (with their bosonically scaled values when no spectator sits on
    the output slots) and the option lists they are built from, so
    operators that share it share them.
    """
    if images is None:
        images = {}
    in_idx = [basis.slot_index(s) for s in ins]
    out_idx = [basis.slot_index(s) for s in outs]
    spectators = basis.occupations.copy()
    spectators[:, in_idx] = 0
    local = np.concatenate(
        [basis.occupations[:, in_idx], spectators[:, out_idx]], axis=1
    )
    local_keys = _numbers(local, _place_values(basis.n_max + 1, local.shape[1]))
    _, representative, group = np.unique(
        local_keys, return_index=True, return_inverse=True
    )
    occupations = local[representative]

    matrix = (u.tobytes(), u.shape, u.dtype.str)
    known = images.get(matrix)
    if known is None:
        known = images[matrix] = ({}, {})
    by_counts, options = known
    dists, values, sizes = [], [], []
    for occupation in occupations.tolist():
        counts = tuple(occupation[: len(ins)])
        spect_out = occupation[len(ins):]
        image = by_counts.get(counts)
        if image is None:
            in_norm, accum = _local_image(counts, u, len(outs), options)
            image = by_counts[counts] = (
                in_norm,
                accum,
                _scaled(accum, [0] * len(outs), in_norm),
            )
        in_norm, accum, alone = image
        values.extend(_scaled(accum, spect_out, in_norm) if any(spect_out) else alone)
        dists.extend(accum)
        sizes.append(len(accum))

    # Each entry moves the photons off the input slots and puts ``dist`` on
    # the output slots, which adds this offset to the key.
    sizes = np.array(sizes)
    removed = _numbers(occupations[:, : len(ins)], basis.place_values[in_idx])
    dists = np.array(dists, dtype=np.int64).reshape(len(values), len(outs))
    offsets = _numbers(dists, basis.place_values[out_idx]) - np.repeat(removed, sizes)
    # Column c holds its group g's image: entries start[g] to start[g] + sizes[g].
    per_column = sizes[group]
    ends = np.cumsum(per_column)
    start = np.cumsum(sizes) - sizes
    entry = np.arange(ends[-1]) + np.repeat(start[group] - ends + per_column, per_column)
    rows = basis.rows_of(np.repeat(basis.keys, per_column) + offsets[entry])
    vals = np.array(values, dtype=complex)[entry]
    # Entries come column by column, each column's in image order.
    indptr = np.concatenate(([0], ends))
    return sp.csc_matrix((vals, rows, indptr), shape=(basis.dim, basis.dim)).tocsr()


def element_operator(el, basis: DenseBasis, images: dict | None = None) -> sp.csr_matrix:
    ins, outs, u = _single_particle_matrix(el)
    return _expand_operator(basis, ins, outs, u, images)


def element_matrix(el, basis: DenseBasis) -> np.ndarray:
    """Dense unitary of one optical element on the truncated basis."""
    return element_operator(el, basis).toarray()


def rebase_operator(
    mode: str, basis: DenseBasis, images: dict | None = None
) -> sp.csr_matrix:
    slots = [(mode, POL_H), (mode, POL_V)]
    return _expand_operator(basis, slots, slots, _REBASE, images)


@dataclass
class DenseRunResult:
    outcomes: dict[OutcomePattern, tuple[float, dict[BasisState, complex]]]
    rejected: dict[OutcomePattern, float]
    success_probability: float
    failure_probability: float


class DenseCircuit:
    """Compiled dense pipeline for one circuit topology.

    Polarizing beam splitters are applied in place: the physical slots of
    the input modes are kept and relabeled, which keeps the basis small.
    The basis is restricted to the exact photon-number sector of each group
    of modes coupled by a beam splitter.  A mode that an element, detector
    or correction names but no photon occupies becomes a physical mode with
    no photons.  A spec that breaks a rule of :func:`circuit.validate` is
    refused with the error that the engine raises for it.
    """

    def __init__(self, spec: CircuitSpec):
        validate(spec)
        self.spec = spec
        per_mode = self._input_photon_counts(spec)
        group_of = {mode: mode for mode in per_mode}

        def find(m):
            while group_of[m] != m:
                group_of[m] = group_of[group_of[m]]
                m = group_of[m]
            return m

        alias = {mode: mode for mode in per_mode}

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

        physical_elements = []
        for el in spec.elements:
            if isinstance(el, PbsElement):
                p1, p2 = physical(el.in1), physical(el.in2)
                group_of[find(p1)] = find(p2)
                physical_elements.append(PbsElement(p1, p2, p1, p2, el.basis))
                alias.pop(el.in1, None)
                alias.pop(el.in2, None)
                alias[el.out1] = p1
                alias[el.out2] = p2
            elif isinstance(el, RotatorElement):
                physical_elements.append(RotatorElement(physical(el.mode), el.angle_deg))
            else:
                physical_elements.append(
                    PolPhaseElement(physical(el.mode), el.pol, el.phase_deg)
                )
        for det in spec.detectors:
            physical(det.mode)
        for rule in spec.rules:
            for corr in rule.corrections:
                physical(corr.mode)
        self.alias = alias

        groups: dict[str, list[str]] = {}
        for mode in per_mode:
            groups.setdefault(find(mode), []).append(mode)
        slot_list: list[Slot] = []
        group_states = []
        for root in sorted(groups):
            members = sorted(groups[root])
            gslots = [(m, pol) for m in members for pol in (POL_H, POL_V)]
            count = sum(per_mode[m] for m in members)
            slot_list.extend(gslots)
            group_states.append(list(compositions(count, len(gslots))))
        states = [
            tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*group_states)
        ]
        total = sum(per_mode.values())
        self.basis = DenseBasis(slot_list, n_max=total, states=states)

        # Local images and option lists of every operator of this circuit,
        # by matrix (see _expand_operator).
        self._images: dict = {}
        operator = sp.identity(self.basis.dim, dtype=complex, format="csr")
        for el in physical_elements:
            operator = element_operator(el, self.basis, self._images) @ operator
        for det in spec.detectors:
            if det.basis == BASIS_FS:
                rebase = rebase_operator(alias[det.mode], self.basis, self._images)
                operator = rebase @ operator
        self.operator = operator
        self.det_slots = [
            (
                self.basis.slot_index((alias[det.mode], POL_H)),
                self.basis.slot_index((alias[det.mode], POL_V)),
            )
            for det in spec.detectors
        ]
        consumed = {i for pair in self.det_slots for i in pair}
        self.kept = [i for i in range(len(slot_list)) if i not in consumed]
        # Reduced slots are reported under logical output mode names.
        back = {phys: logical for logical, phys in alias.items()}
        self.reduced_slots = [
            (back[slot_list[i][0]], slot_list[i][1]) for i in self.kept
        ]
        # Correction bases by photon number and operators by (photon number,
        # element), built the first time an accepted pattern needs them.
        self._reduced_bases: dict[int, DenseBasis] = {}
        self._corrections: dict[tuple, sp.csr_matrix] = {}

    @staticmethod
    def _input_photon_counts(spec: CircuitSpec) -> dict[str, int]:
        counts: dict[str, int] = {}
        for decl in spec.inputs:
            for mode in decl.modes:
                counts[mode] = counts.get(mode, 0) + 1
        return counts

    def input_vector(self, spec: CircuitSpec) -> np.ndarray:
        """Dense input vector, built directly from the declarations."""
        terms: dict[tuple, complex] = {(): 1.0 + 0j}

        def product_with(options):
            nonlocal terms
            nxt: dict[tuple, complex] = {}
            for occ, amp in terms.items():
                for slots, a in options:
                    nxt[occ + slots] = nxt.get(occ + slots, 0j) + amp * a
            terms = nxt

        for decl in spec.inputs:
            if decl.kind == "qubit":
                (m,) = decl.modes
                a_h, a_v = decl.amplitudes
                product_with([(((m, POL_H),), a_h), (((m, POL_V),), a_v)])
            elif decl.kind == "state":
                m1, m2 = decl.modes
                pols = itertools.product((POL_H, POL_V), repeat=2)  # HH HV VH VV
                product_with(
                    [
                        (((m1, p1), (m2, p2)), a)
                        for (p1, p2), a in zip(pols, decl.amplitudes, strict=True)
                    ]
                )
            elif decl.kind == "bell":
                m1, m2 = decl.modes
                product_with(
                    [
                        (((m1, POL_H), (m2, POL_H)), _INV_SQRT2),
                        (((m1, POL_V), (m2, POL_V)), _INV_SQRT2),
                    ]
                )
            elif decl.kind == "chi":
                m1, m2, m3, m4 = decl.modes
                product_with(
                    [
                        (((m1, POL_H), (m4, POL_H), (m2, POL_H), (m3, POL_H)), 0.5),
                        (((m1, POL_H), (m4, POL_V), (m2, POL_H), (m3, POL_V)), 0.5),
                        (((m1, POL_V), (m4, POL_H), (m2, POL_V), (m3, POL_V)), 0.5),
                        (((m1, POL_V), (m4, POL_V), (m2, POL_V), (m3, POL_H)), 0.5),
                    ]
                )
            else:
                raise ValueError(f"unknown input kind: {decl.kind!r}")

        vec = np.zeros(self.basis.dim, dtype=complex)
        for occ_slots, amp in terms.items():
            occ: dict[Slot, int] = {}
            for slot in occ_slots:
                occ[slot] = occ.get(slot, 0) + 1
            state = tuple(occ.get(slot, 0) for slot in self.basis.slots)
            norm = math.prod(math.sqrt(math.factorial(n)) for n in occ.values())
            vec[self.basis.index[state]] += amp * norm
        return vec

    def run(self, spec: CircuitSpec, passive: bool = False) -> DenseRunResult:
        vec = self.operator @ self.input_vector(spec)
        branches: dict[OutcomePattern, dict[tuple, complex]] = {}
        for i, amp in enumerate(vec):
            if not amp:
                continue
            state = self.basis.states[i]
            pattern = tuple(
                (state[ti], state[ri]) for ti, ri in self.det_slots
            )
            reduced = tuple(state[k] for k in self.kept)
            bucket = branches.setdefault(pattern, {})
            bucket[reduced] = bucket.get(reduced, 0j) + amp

        outcomes = {}
        rejected = {}
        success = 0.0
        for pattern in sorted(branches):
            bucket = branches[pattern]
            prob = sum(abs(a) ** 2 for a in bucket.values())
            accepted = is_passive(pattern) if passive else is_1ao1(pattern)
            if accepted and prob > 0.0:
                corrected = self._apply_corrections(bucket, pattern)
                scale = 1.0 / math.sqrt(prob)
                terms = {
                    BasisState.from_dict(
                        {s: n for s, n in zip(self.reduced_slots, red) if n}
                    ): amp * scale
                    for red, amp in corrected.items()
                    if amp
                }
                outcomes[pattern] = (prob, terms)
                success += prob
            else:
                rejected[pattern] = rejected.get(pattern, 0.0) + prob
        return DenseRunResult(
            outcomes=outcomes,
            rejected=rejected,
            success_probability=success,
            failure_probability=1.0 - success,
        )

    def _apply_corrections(self, bucket, pattern):
        spec = self.spec
        fired: dict[str, list[str]] = {}
        for (ct, cr), det in zip(pattern, spec.detectors):
            pols = fired.setdefault(det.label, [])
            pols.extend([det.transmitted_pol] * ct)
            pols.extend([det.reflected_pol] * cr)
        elements = []
        for rule in spec.rules:
            times = fired.get(rule.label, []).count(rule.pol)
            for _ in range(times):
                for corr in rule.corrections:
                    if isinstance(corr, RotatorElement):
                        elements.append(RotatorElement(corr.mode, corr.angle_deg))
                    else:
                        elements.append(
                            PolPhaseElement(corr.mode, corr.pol, corr.phase_deg)
                        )
        if not elements:
            return bucket
        n_max = max(sum(red) for red in bucket)
        reduced_basis = self._reduced_bases.get(n_max)
        if reduced_basis is None:
            reduced_basis = self._reduced_bases[n_max] = DenseBasis(
                list(self.reduced_slots), n_max=n_max
            )
        vec = np.zeros(reduced_basis.dim, dtype=complex)
        for red, amp in bucket.items():
            vec[reduced_basis.index[red]] += amp
        for el in elements:
            op = self._corrections.get((n_max, el))
            if op is None:
                op = self._corrections[n_max, el] = element_operator(
                    el, reduced_basis, self._images
                )
            vec = op @ vec
        return {
            reduced_basis.states[i]: amp for i, amp in enumerate(vec) if amp
        }


def run_dense(spec: CircuitSpec, passive: bool = False) -> DenseRunResult:
    return DenseCircuit(spec).run(spec, passive=passive)
