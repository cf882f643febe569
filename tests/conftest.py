"""Shared fixtures, state builders and random-state helpers for the test suite."""

import itertools
import math
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pbsgates import circuit, fock, gates, oracle
from pbsgates.circuit import CircuitSpec, InputDecl
from pbsgates.errors import MissingOutput, ModeCollision, NonNormalized, NonPhysicalInput
from pbsgates.fock import (
    DEFAULT_TOLERANCE,
    FS_TO_HV,
    HV_TO_FS,
    POL_F,
    POL_H,
    POL_S,
    POL_V,
    BasisState,
    PhotonState,
    SlotIndex,
    inner_product,
)
from pbsgates.gates import QubitState, TwoQubitState


def circuit_path(name: str) -> str:
    return str(files("pbsgates").joinpath("circuits", f"{name}.circ"))


def readme_gate_examples() -> set[str]:
    """The arguments after ``pbsgates run --gate`` in each README example,
    without ``--output`` and its file."""
    prefix = "pbsgates run --gate "
    examples = set()
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith(prefix):
            args = line[len(prefix):].split()
            if "--output" in args:
                at = args.index("--output")
                del args[at:at + 2]
            examples.add(" ".join(args))
    return examples


#: Every shipped circuit, then every circuit under ``tests/circuits``.
CIRCUIT_FILES = [Path(circuit_path(name)) for name in gates.GATE_NAMES] + sorted(
    (Path(__file__).parent / "circuits").glob("*.circ")
)


def spec_fields(spec: CircuitSpec, **changes) -> SimpleNamespace:
    """``spec``'s six fields with ``changes``, unchecked: a spec that cannot be
    built can still be written out by :func:`dsl.format_circuit`, which reads
    only these attributes."""
    return SimpleNamespace(**{name: getattr(spec, name) for name in CircuitSpec._fields} | changes)


def random_qubit(rng: np.random.Generator) -> QubitState:
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec /= np.linalg.norm(vec)
    return QubitState(complex(vec[0]), complex(vec[1]))


def random_two_qubit(rng: np.random.Generator) -> TwoQubitState:
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    return TwoQubitState(*(complex(x) for x in vec))


def single(mode: str, pol: str, amp: complex = 1.0) -> PhotonState:
    return PhotonState({BasisState.from_dict({(mode, pol): 1}): amp})


def scaled(state: PhotonState, factor: complex) -> PhotonState:
    """``state`` times ``factor``, by the rule that ``circuit.settle`` runs."""
    return PhotonState.scaled_packed(
        state.packed_terms, *state.packing, state.tolerance, factor
    )


def ideal_cnot(state: TwoQubitState) -> TwoQubitState:
    """Target truth table: swap the VH and VV coefficients."""
    return TwoQubitState(state.a1, state.a2, state.a4, state.a3)


def declared_state(decl: InputDecl, tolerance: float) -> PhotonState:
    """One declaration's state on its own, pruned with ``tolerance``: its
    configurations (``circuit._declared_slots``) packed over an index of
    their own slots, with the amplitudes of ``circuit._declared_amplitudes``."""
    slots = circuit._declared_slots(decl.kind, decl.modes)
    index = SlotIndex(slot for term in slots for slot in term)
    cfgs = [index.pack(term, len(decl.modes)) for term in slots]
    terms = dict(zip(cfgs, circuit._declared_amplitudes(decl.kind, decl.amplitudes)))
    return PhotonState.packed(terms, index, len(decl.modes), tolerance)


# The four declared input kinds built term by term, as an independent
# reference for the states that ``compile`` binds: the terms come in the
# declared order and a qubit's amplitudes carry the arithmetic of creating
# each photon on the vacuum and superposing the two.


def qubit_state(
    mode: str, alpha: complex, beta: complex, tolerance: float = DEFAULT_TOLERANCE
) -> PhotonState:
    """alpha·H + beta·V on ``mode``."""
    h, v = (BasisState.from_dict({(mode, pol): 1}) for pol in (POL_H, POL_V))
    return PhotonState({h: (1 + 0j) * alpha, v: 0j + (1 + 0j) * beta}, tolerance)


def bell_phi_plus(m1: str, m2: str) -> PhotonState:
    """(H_m1 H_m2 + V_m1 V_m2)/sqrt(2)."""
    amp = 1.0 / math.sqrt(2.0)
    return PhotonState(
        {BasisState.from_dict({(m1, pol): 1, (m2, pol): 1}): amp for pol in (POL_H, POL_V)}
    )


def chi_state(
    m1: str, m2: str, m3: str, m4: str, tolerance: float = DEFAULT_TOLERANCE
) -> PhotonState:
    """Four-photon resource: (H1H4H2H3 + H1V4H2V3 + V1H4V2V3 + V1V4V2H3)/2."""
    terms = {}
    for p1, p4, p2, p3 in ("HHHH", "HVHV", "VHVV", "VVVH"):
        occupations = {(m1, p1): 1, (m4, p4): 1, (m2, p2): 1, (m3, p3): 1}
        terms[BasisState.from_dict(occupations)] = 0.5
    return PhotonState(terms, tolerance)


def two_qubit_input(
    m1: str, m2: str, amplitudes, tolerance: float = DEFAULT_TOLERANCE
) -> PhotonState:
    """One photon on each of ``m1`` and ``m2``; amplitudes of HH, HV, VH, VV."""
    pols = itertools.product((POL_H, POL_V), repeat=2)
    return PhotonState(
        {
            BasisState.from_dict({(m1, p1): 1, (m2, p2): 1}): amp
            for (p1, p2), amp in zip(pols, amplitudes, strict=True)
        },
        tolerance,
    )


def reference_compose_slot_maps(first, second):
    """The slot map of applying ``first`` then ``second``, composed entry by
    entry: each target's coefficient starts as ``0j`` and adds the product of
    every path to it, in path order.  A slot that only ``second`` maps keeps
    its entry."""
    out = {}
    for slot, targets in first.items():
        acc = {}
        for mid, c1 in targets:
            for target, c2 in second.get(mid, ((mid, 1.0 + 0j),)):
                acc[target] = acc.get(target, 0j) + c1 * c2
        out[slot] = tuple(acc.items())
    for slot, targets in second.items():
        if slot not in out:
            out[slot] = targets
    return out


def reference_fs_pbs_map(el):
    """An FS splitter's slot map as the composition of rebasing its inputs to
    F/S, routing F like H and S like V, and rebasing its outputs back."""
    to_fs = {**fock.rebase_map(el.in1, HV_TO_FS), **fock.rebase_map(el.in2, HV_TO_FS)}
    route = {
        (el.in1, POL_F): (((el.out1, POL_F), 1.0 + 0j),),
        (el.in2, POL_F): (((el.out2, POL_F), 1.0 + 0j),),
        (el.in1, POL_S): (((el.out2, POL_S), 1.0 + 0j),),
        (el.in2, POL_S): (((el.out1, POL_S), 1.0 + 0j),),
    }
    back = {**fock.rebase_map(el.out1, FS_TO_HV), **fock.rebase_map(el.out2, FS_TO_HV)}
    return reference_compose_slot_maps(reference_compose_slot_maps(to_fs, route), back)


def states_close(a: PhotonState, b: PhotonState, tol: float = 1e-10) -> bool:
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= tol for k in keys)


def accepted_bits(result):
    """Everything a run accepts, in a form that tells apart any two floats,
    signed zeros included."""
    return repr(
        (
            result.success_probability,
            result.failure_probability,
            [
                (pattern, probability, state.sorted_terms(), state.tolerance)
                for pattern, (probability, state) in sorted(result.outcomes.items())
            ],
        )
    )


def reference_sorted_terms(state: PhotonState) -> list[tuple[BasisState, complex]]:
    """The terms of ``state`` as :class:`BasisState` values in their own
    order: an independent reference for ``sorted_terms``, which sorts
    packed ``(position, count)`` fields instead.  Each configuration is
    unpacked field by field over the whole index."""
    index, photons = state.packing
    width = max(1, photons.bit_length())
    field = (1 << width) - 1
    terms = {}
    for cfg, amp in state.packed_terms.items():
        counts = [(slot, cfg >> pos * width & field) for pos, slot in enumerate(index.slots)]
        terms[BasisState(tuple((slot, n) for slot, n in counts if n))] = amp
    return sorted(terms.items(), key=lambda item: item[0])


def reference_repack(
    terms: dict[int, complex],
    src: SlotIndex,
    src_width: int,
    dst: SlotIndex,
    dst_width: int,
) -> dict[int, complex]:
    """``terms`` moved from one packing to another, in the same order, by a
    field loop of its own: an independent reference for ``fock._repack``,
    which decodes with ``fock._fields``.  A configuration with a slot that
    ``dst`` lacks, or a count too large for ``dst_width``, is dropped."""
    if src_width == dst_width and (
        src is dst or dst.slots[: len(src.slots)] == src.slots
    ):
        return terms  # every slot keeps its bits
    shifts = [
        None if (pos := dst.position.get(slot)) is None else pos * dst_width
        for slot in src.slots
    ]
    field = (1 << src_width) - 1
    out = {}
    for cfg, amp in terms.items():
        new = 0
        pos = 0
        while cfg:
            n = cfg & field
            if n:
                shift = shifts[pos]
                if shift is None or n >> dst_width:
                    break
                new |= n << shift
            cfg >>= src_width
            pos += 1
        else:
            out[new] = amp
    return out


def reference_one_photon_test(index: SlotIndex, photons: int, modes):
    """``fock.one_photon_test`` as it was written first: each mode's units are
    found by scanning every position of ``index``."""
    width = max(1, photons.bit_length())
    field = (1 << width) - 1
    mask = 0
    allowed = {0}
    for mode in modes:
        units = [1 << pos * width for (m, _), pos in index.position.items() if m == mode]
        for unit in units:
            mask |= field * unit
        allowed = {held + unit for held in allowed for unit in units}
    return mask, frozenset(allowed)


def float_bits(x) -> tuple[str, ...]:
    """A float's or a complex number's bits, signed zeros included."""
    z = complex(x)
    return (z.real.hex(), z.imag.hex()) if isinstance(x, complex) else (float(x).hex(),)


def state_bits(state: PhotonState | None):
    """A state's packing, tolerance and terms in their stored order, bit for bit."""
    if state is None:
        return None
    index, photons = state.packing
    terms = [(cfg, float_bits(amp)) for cfg, amp in state.packed_terms.items()]
    return index.slots, photons, float_bits(state.tolerance), terms


def reference_gate_call(name, amplitudes, target, passive, tolerance):
    """The bits of a warm ``gates._report(name, amplitudes, target, passive,
    tolerance)`` worked out plainly from the gate's response table: an
    independent reference for the table path.  A passive call takes the
    table's entries whose pattern ``circuit.is_passive`` accepts.

    The input is checked by the functions it shares with ``execute``.  Each
    column is weighted by the product of its amplitudes unless its input term
    is pruned; each accepted pattern's sum is packed with ``tolerance``
    over the plan's index (``PhotonState.packed``), its squared norm is its
    probability, and it is scaled by ``1 / sqrt(probability)``
    (:func:`scaled`).  The target is packed like the outputs and each
    outcome is scored as ``abs(inner_product(state, target)) ** 2``.  Raises
    what the call raises.
    """
    table = gates._responses(name)
    products = circuit.input_amplitudes(gates._bound_amplitudes(name, amplitudes))
    circuit.input_norm(products, tolerance)
    floor = tolerance or math.ulp(0.0)
    coefficients = []
    for column, position in zip(itertools.product(*amplitudes), table.inputs):
        coefficients.append(math.prod(column) if abs(products[position]) >= floor else 0.0)
    outcomes = {}
    success = 0.0
    lost = 0.0
    for pattern, responses in table.patterns:
        if passive and not circuit.is_passive(pattern):
            continue
        total = {}
        for k, terms in responses:
            if coefficients[k]:
                for cfg, amp in terms.items():
                    total[cfg] = total.get(cfg, 0j) + coefficients[k] * amp
        output = PhotonState.packed(total, table.plan.index, table.plan.photons, tolerance)
        # Each pattern's pruned norm, summed left to right as the engine
        # sums every squared norm, then added to the total.
        pruned = 0.0
        for cfg, amp in total.items():
            if cfg not in output.packed_terms:
                pruned += abs(amp) ** 2
        lost += pruned
        probability = output.norm_sq()
        if probability > 0.0:
            outcomes[pattern] = (probability, scaled(output, 1.0 / math.sqrt(probability)))
            success += probability
    if lost > 1e-9:
        raise NonPhysicalInput(
            f"amplitude tolerance {tolerance!r} prunes squared norm {lost!r} during the run"
        )
    fidelities = {}
    target_state = None
    if target is not None:
        amplitudes = circuit._declared_amplitudes(gates._GATES[name][0], target)
        terms = dict(zip(table.target, amplitudes))
        target_state = PhotonState.packed(terms, table.plan.index, table.plan.photons, tolerance)
        n2 = target_state.norm_sq()
        if abs(n2 - 1.0) > 1e-9:
            raise NonNormalized(f"second state squared norm is {n2!r}")
        for pattern, (_, state) in outcomes.items():
            fidelities[pattern] = abs(inner_product(state, target_state)) ** 2
    return (
        float_bits(success),
        float_bits(1.0 - success),
        [(pattern, float_bits(p), state_bits(state)) for pattern, (p, state) in outcomes.items()],
        [(pattern, float_bits(f)) for pattern, f in fidelities.items()],
        state_bits(target_state),
    )


def reference_table_inputs(name):
    """The ``inputs`` of ``gates._responses(name)`` found the long
    way: build each column's input state on the table's plan
    (``circuit.build_input_state``) and take the position in ``plan.inputs``
    of its least configuration."""
    plan = gates._responses(name).plan
    positions = {cfg: i for i, cfg in enumerate(plan.inputs)}
    declared = {decl.modes: decl for decl in gates._shipped_spec(name).inputs}
    sizes = [len(declared[modes].amplitudes) for modes in gates._GATES[name][1:]]
    inputs = []
    for column in itertools.product(*map(range, sizes)):
        units = tuple(tuple(float(i == j) for i in range(n)) for j, n in zip(column, sizes))
        state = circuit.build_input_state(gates._bound_spec(name, units), plan=plan)
        inputs.append(positions[min(state.packed_terms)])
    return tuple(inputs)


def passive_bits(result):
    """The outcomes of a run whose pattern ``circuit.is_passive`` accepts, in
    order: pattern, probability and state, bit for bit."""
    return [
        (pattern, float_bits(p), state_bits(state))
        for pattern, (p, state) in result.outcomes.items()
        if circuit.is_passive(pattern)
    ]


def report_call_bits(report):
    """A gate report in the form of :func:`reference_gate_call`."""
    result = report.result
    assert report.success_probability == result.success_probability
    return (
        float_bits(result.success_probability),
        float_bits(result.failure_probability),
        [(pattern, float_bits(p), state_bits(s)) for pattern, (p, s) in result.outcomes.items()],
        [(pattern, float_bits(f)) for pattern, f in report.fidelities.items()],
        state_bits(report.target),
    )


# Views of the dense oracle's basis and operators, built from what it keeps.


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``, in
    lexicographic order: the order of the oracle's sector rows."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def element_matrix(el, basis: oracle.DenseBasis) -> np.ndarray:
    """Dense unitary of one optical element on ``basis``."""
    return oracle.element_operator(el, basis).toarray()


def rebase_operator(mode: str, basis: oracle.DenseBasis):
    """The HV -> FS rotation of ``mode``, as a CSR matrix on ``basis``."""
    slots = [(mode, POL_H), (mode, POL_V)]
    return oracle._expand_operator(basis, slots, slots, oracle._REBASE)


def reference_dense_run(dense: oracle.DenseCircuit, passive: bool) -> oracle.DenseRunResult:
    """``dense.run(dense.spec, passive)`` as it was written before it grouped
    in numpy: a Python loop puts each output row into its pattern's bucket,
    every pattern gets a bucket, and every output term builds its own
    :class:`BasisState`.  Each pattern's probability is summed left to
    right, as ``fock.squared_norm`` sums (and the builtin ``sum`` did
    before Python 3.12)."""
    amplitudes = dense.input_vector(dense.spec)
    norm = float(np.sum(np.abs(amplitudes) ** 2))
    if not abs(norm - 1.0) <= 1e-9:
        raise NonPhysicalInput(f"input squared norm is {norm!r}, expected 1")
    vec = dense.images @ amplitudes
    nonzero = np.flatnonzero(abs(vec) >= 1e-12)
    occupations = dense.basis.occupations[nonzero]
    stray = occupations[:, dense._empty_slots].any(axis=1)
    held = occupations[stray].any(axis=0) & dense._empty_slots
    modes = {dense.basis.slots[i][0] for i in np.flatnonzero(held)}
    for mode, out in dense._overwritten.items():
        if mode in modes:
            raise ModeCollision(
                f"PBS output {out!r} collides with a live mode that is not an input"
            )
    if modes:
        names = sorted(m for m, phys in dense.alias.items() if phys in modes)
        raise MissingOutput(f"photons left on undetected non-output modes {names}")
    nonzero, occupations = nonzero[~stray], occupations[~stray]
    branches = {}
    for counts, reduced, amp in zip(
        occupations[:, dense._det_columns].tolist(),
        occupations[:, dense.kept].tolist(),
        vec[nonzero].tolist(),
    ):
        pattern = tuple(zip(counts[::2], counts[1::2]))
        branches.setdefault(pattern, {})[tuple(reduced)] = amp

    outcomes = {}
    rejected = {}
    success = 0.0
    for pattern in sorted(branches):
        bucket = branches[pattern]
        prob = 0.0
        for a in bucket.values():
            prob += abs(a) ** 2
        accepted = circuit.is_passive(pattern) if passive else circuit.is_1ao1(pattern)
        if accepted and prob > 0.0:
            corrected = dense._apply_corrections(bucket, pattern)
            scale = 1.0 / math.sqrt(prob)
            terms = {
                BasisState(tuple((s, n) for s, n in zip(dense.reduced_slots, red) if n)): amp
                * scale
                for red, amp in corrected.items()
                if amp
            }
            outcomes[pattern] = (prob, terms)
            success += prob
        else:
            rejected[pattern] = prob
    return oracle.DenseRunResult(outcomes, rejected, success, 1.0 - success)


def dense_bits(result: oracle.DenseRunResult):
    """A dense run's outcomes, rejected table, success and failure, in their
    stored order and bit for bit."""
    return (
        [
            (pattern, float_bits(prob), [(state.occ, float_bits(a)) for state, a in terms.items()])
            for pattern, (prob, terms) in result.outcomes.items()
        ],
        [(pattern, float_bits(prob)) for pattern, prob in result.rejected.items()],
        float_bits(result.success_probability),
        float_bits(result.failure_probability),
    )


def basis_state(basis: oracle.DenseBasis, i: int) -> BasisState:
    """State ``i`` of ``basis``."""
    return BasisState.from_dict(dict(zip(basis.slots, basis.states[i])))


def vector_from_terms(basis: oracle.DenseBasis, terms: dict[BasisState, complex]) -> np.ndarray:
    """``{BasisState: amplitude}`` as a vector over ``basis``; a term that
    it lacks raises ``KeyError``."""
    vec = np.zeros(basis.dim, dtype=complex)
    for state, amp in terms.items():
        occupations = dict(state.occ)
        row = tuple(occupations.pop(slot, 0) for slot in basis.slots)
        if occupations:
            raise KeyError(f"slots not in the basis: {sorted(occupations)}")
        vec[basis.index[row]] = amp
    return vec


def random_state(rng, modes=("x", "y"), max_photons=3) -> PhotonState:
    """Random non-normalized few-photon state over HV slots of ``modes``."""
    slots = [(m, p) for m in modes for p in (POL_H, POL_V)]
    terms = {}
    for _ in range(rng.integers(1, 5)):
        total = int(rng.integers(0, max_photons + 1))
        occ = {}
        for _ in range(total):
            slot = slots[rng.integers(len(slots))]
            occ[slot] = occ.get(slot, 0) + 1
        amp = complex(rng.normal(), rng.normal())
        key = BasisState.from_dict(occ)
        terms[key] = terms.get(key, 0j) + amp
    return PhotonState(terms, tolerance=0.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240815)
