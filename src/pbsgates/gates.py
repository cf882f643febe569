"""Built-in gates and fidelity metrics.

Each gate is the circuit file shipped with the package,
``circuits/<name>.circ``, with the caller's amplitudes bound to the inputs
on the gate's named modes, and every accepted outcome is scored against the
ideal target state on the circuit's outputs.  A gate is linear in each
bound input, so its first call runs the circuit once per basis input, with
feed-forward, and keeps each accepted pattern's outputs; every call weights
them with the caller's amplitudes.  A passive call takes only the passive
pattern's, the one pattern that a run without feed-forward accepts.
Catalog names (``parity_check``, ``destructive_cnot``, ``encoder``,
``cnot``, ``gc_cnot``, ``chi_via_cnot``) are stable identifiers used by the
CLI.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

from . import circuit, dsl, fock
# Unused here, but perfbench/tracing.py patches ``gates.execute`` by name.
from .circuit import CircuitSpec, GateResult, InputDecl, OutcomePattern, execute
from .errors import NonNormalized
from .fock import PhotonState
from .record import Frozen, Record


class QubitState(Frozen):
    """Single polarization qubit: alpha·H + beta·V."""

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: complex, beta: complex):
        _check_normalised("qubit", fock.squared_norm((alpha, beta)))
        self._set(alpha, beta)


class TwoQubitState(Frozen):
    """Coefficients of HH, HV, VH, VV."""

    __slots__ = _fields = ("a1", "a2", "a3", "a4")

    def __init__(self, a1: complex, a2: complex, a3: complex, a4: complex):
        _check_normalised("two-qubit", fock.squared_norm((a1, a2, a3, a4)))
        self._set(a1, a2, a3, a4)

    def __iter__(self):
        return iter((self.a1, self.a2, self.a3, self.a4))


class GateReport(Record):
    """One gate call's result and fidelities.  ``spec``, the shipped circuit
    with the call's ``amplitudes`` bound (:func:`_bound_spec`), is built on first read."""

    # No ``__slots__``: the cached ``spec`` is kept in the instance's dict.
    _fields = ("name", "amplitudes", "result", "target", "fidelities", "success_probability")

    def __init__(
        self,
        name: str,
        amplitudes: tuple[tuple[complex, ...], ...],
        result: GateResult,
        target: PhotonState | None,
        fidelities: dict[OutcomePattern, float],
        success_probability: float,
    ):
        self.name = name
        self.amplitudes = amplitudes
        self.result = result
        self.target = target
        self.fidelities = fidelities
        self.success_probability = success_probability

    @functools.cached_property
    def spec(self) -> CircuitSpec:
        return _bound_spec(self.name, self.amplitudes)


def _check_normalised(what: str, n2: float) -> None:
    if not abs(n2 - 1.0) <= fock.NORM_TOLERANCE:  # so that nan fails too
        raise NonNormalized(f"{what} squared norm is {n2!r}")


def fidelity(a: PhotonState, b: PhotonState) -> float:
    """|⟨a|b⟩|² of two states whose squared norms are each 1 to within 1e-9;
    :class:`NonNormalized` names the first that is not."""
    _check_normalised("first state", a.norm_sq())
    _check_normalised("second state", b.norm_sq())
    return abs(fock.inner_product(a, b)) ** 2


@functools.cache
def _shipped_spec(name: str) -> CircuitSpec:
    """The parsed ``circuits/<name>.circ`` shipped next to this module."""
    path = os.path.join(os.path.dirname(__file__), "circuits", f"{name}.circ")
    with open(path, encoding="utf-8") as handle:
        return dsl.parse_circuit(handle.read())


#: Gate -> the kind of its target, the ideal state on the shipped circuit's
#: outputs that :func:`_report` scores against; then the modes of each input
#: that a call binds, in the order in which the gate passes them to :func:`_report`.
_GATES = {
    "parity_check": ("qubit", ("2'",)),
    "destructive_cnot": ("qubit", ("3'",), ("b",)),
    "encoder": ("state", ("2'",)),
    "cnot": ("state", ("2'", "3'")),
    "gc_cnot": ("state", ("A", "B")),
    "chi_via_cnot": ("chi",),
}

#: The built-in gates, in the order of :data:`_GATES`.
GATE_NAMES = tuple(_GATES)


def _bound_amplitudes(name: str, amplitudes: tuple[tuple[complex, ...], ...]) -> list:
    """The kind and amplitudes of each input of the shipped ``name`` circuit:
    ``amplitudes`` on the declarations of :data:`_GATES`, the file's on the others."""
    bound = dict(zip(_GATES[name][1:], amplitudes))
    inputs = _shipped_spec(name).inputs
    return [(decl.kind, bound.get(decl.modes, decl.amplitudes)) for decl in inputs]


def _bound_spec(name: str, amplitudes: tuple[tuple[complex, ...], ...]) -> CircuitSpec:
    """The shipped ``name`` circuit with the inputs of :func:`_bound_amplitudes`."""
    shipped = _shipped_spec(name)
    inputs = tuple(
        InputDecl(kind, decl.modes, amps)
        for decl, (kind, amps) in zip(shipped.inputs, _bound_amplitudes(name, amplitudes))
    )
    return shipped._replace(inputs=inputs)


class _Responses(Frozen):
    """What one gate does, with feed-forward, to each of its input columns,
    and what a call in either mode needs besides the caller's amplitudes.

    A column binds one unit amplitude on each declaration of :data:`_GATES`;
    columns come in the order of ``itertools.product`` over the positions
    of those amplitudes.  The gate is linear in each bound declaration, so a
    call's unnormalised output on an accepted pattern is the sum over
    columns of the product of the caller's amplitudes at those positions
    times the column's output.  Every column's run returns (:func:`_responses`
    builds no other table), and packs its outputs over the plan's index for
    its photon number, as every run of the plan packs its states.
    """

    __slots__ = _fields = ("plan", "inputs", "patterns", "passive", "target")

    def __init__(
        self,
        # The compiled shipped circuit: a call binds its amplitudes on it.
        plan: circuit.CompiledCircuit,
        # Column -> the position in ``plan.inputs`` of one of its input terms.
        # They all have the same amplitude in a call's input (see
        # :func:`_responses`), so the input's pruning keeps all of them or none.
        inputs: tuple[int, ...],
        # Each pattern that some column accepts, in sorted order, with the
        # unnormalised, corrected output of each column that reaches it:
        # ``(column, {configuration: amplitude})``, packed as ``plan`` packs.
        patterns: tuple[tuple[OutcomePattern, tuple[tuple[int, dict[int, complex]], ...]], ...],
        # The entries of ``patterns`` whose pattern :func:`circuit.is_passive`
        # accepts, the same tuples in the same order: what a passive call reads.
        passive: tuple[tuple[OutcomePattern, tuple[tuple[int, dict[int, complex]], ...]], ...],
        # The configurations of the target on the shipped circuit's outputs, in
        # :func:`circuit._declared_slots` order, packed as ``plan`` packs.
        target: tuple[int, ...],
    ):
        self._set(plan, inputs, patterns, passive, target)


@functools.cache
def _responses(name: str) -> _Responses:
    """Compile the shipped ``name`` circuit once and run that plan once per
    column, exactly (tolerance 0), as :func:`execute` runs it with feed-forward.

    The build raises, and so does every call (a failed build is not
    cached), where a column's run raises, where the target's kind does not
    take one mode per output, or where a declaration that the gate does not
    bind has unequal amplitudes: within a column, input terms differ only in
    those amplitudes, which must be equal so that the input's pruning treats
    the column as one.
    """
    kind, *binds = _GATES[name]
    shipped = _shipped_spec(name)
    if len(shipped.outputs) != len(circuit.INPUT_FORMS[kind][0][0]):
        raise ValueError(f"{name}: a {kind} target does not fit the outputs {shipped.outputs}")
    for decl in shipped.inputs:
        if decl.modes not in binds:
            amplitudes = circuit._declared_amplitudes(decl.kind, decl.amplitudes)
            if len({amp for amp in amplitudes if amp}) != 1:
                raise ValueError(f"{name}: the input on {decl.modes} has unequal amplitudes")
    plan = circuit.compile(shipped)
    positions = {cfg: i for i, cfg in enumerate(plan.inputs)}
    declared = {decl.modes: decl for decl in shipped.inputs}
    sizes = [len(declared[modes].amplitudes) for modes in binds]
    inputs = []
    outputs: dict[OutcomePattern, list[tuple[int, dict[int, complex]]]] = {}
    for k, column in enumerate(itertools.product(*map(range, sizes))):
        units = tuple(tuple(float(i == j) for i in range(n)) for j, n in zip(column, sizes))
        # The least configuration of the column's input, as built at tolerance 0.
        products = circuit.input_amplitudes(_bound_amplitudes(name, units))
        inputs.append(positions[min(cfg for cfg, amp in zip(plan.inputs, products) if amp)])
        result = circuit._execute(plan, dict(zip(plan.inputs, products)), False, 0.0)
        for pattern, (probability, state) in result.outcomes.items():
            root = math.sqrt(probability)
            terms = {cfg: amp * root for cfg, amp in state.packed_terms.items()}
            outputs.setdefault(pattern, []).append((k, terms))
    patterns = tuple((pattern, tuple(outputs[pattern])) for pattern in sorted(outputs))
    return _Responses(
        plan=plan,
        inputs=tuple(inputs),
        patterns=patterns,
        passive=tuple(entry for entry in patterns if circuit.is_passive(entry[0])),
        target=tuple(
            plan.index.pack(term, plan.photons)
            for term in circuit._declared_slots(kind, shipped.outputs)
        ),
    )


def _report(
    name: str,
    amplitudes: tuple[tuple[complex, ...], ...],
    target: tuple[complex, ...] | None,
    passive: bool,
    tolerance: float,
) -> GateReport:
    """Answer a call of gate ``name`` from its response table and score it
    against ``target``.  A passive call reads the table's passive entries.

    ``amplitudes`` replace the file's on the declarations of :data:`_GATES`.
    The input is checked and pruned as :func:`execute` checks and prunes it
    (:func:`circuit.input_norm`): a column whose input terms it prunes adds
    nothing.  Each accepted pattern's summed output is pruned with
    ``tolerance`` once, where :func:`execute` prunes along the run, and
    normalised by :func:`circuit.settle`; a call whose pruning loses more
    than 1e-9 of squared norm is refused as a run that loses it.  The
    target, the ideal state of :data:`_GATES` with the amplitudes ``target``
    (``None`` for none), is packed like the outputs.  Each outcome is scored
    as :func:`fidelity` scores it, with the target's norm checked once and
    not the outputs', which are normalised.  A table that accepts nothing
    answers every call as a run that accepts nothing.
    """
    table = _responses(name)
    plan = table.plan
    products = circuit.input_amplitudes(_bound_amplitudes(name, amplitudes))
    circuit.input_norm(products, tolerance)
    floor = fock.prune_floor(tolerance)
    coefficients = [
        math.prod(column) if abs(products[position]) >= floor else 0.0
        for column, position in zip(itertools.product(*amplitudes), table.inputs)
    ]
    accepted = []
    lost = 0.0
    for pattern, responses in table.passive if passive else table.patterns:
        total: dict[int, complex] = {}
        for k, terms in responses:
            coefficient = coefficients[k]
            if coefficient:
                for cfg, amp in terms.items():
                    total[cfg] = total.get(cfg, 0j) + coefficient * amp
        pruned = {cfg: amp for cfg, amp in total.items() if abs(amp) >= floor}
        if len(pruned) < len(total):
            lost += fock.squared_norm(amp for cfg, amp in total.items() if cfg not in pruned)
        probability = fock.squared_norm(pruned.values())
        if probability > 0.0:
            accepted.append((pattern, probability, pruned))
    result = circuit.settle(
        plan,
        accepted,
        lambda: circuit._execute(
            plan._replace(drops=()), dict(zip(plan.inputs, products)), passive, tolerance
        ).rejected,
        tolerance,
        lost,
    )
    fidelities = {}
    target_state = None
    if target is not None:
        terms = dict(zip(table.target, circuit._declared_amplitudes(_GATES[name][0], target)))
        target_state = PhotonState.packed(terms, plan.index, plan.photons, tolerance)
        _check_normalised("second state", target_state.norm_sq())
        for pattern, (_, state) in result.outcomes.items():
            fidelities[pattern] = abs(fock.inner_product(state, target_state)) ** 2
    return GateReport(
        name=name,
        amplitudes=amplitudes,
        result=result,
        target=target_state,
        fidelities=fidelities,
        success_probability=result.success_probability,
    )


def parity_check(
    q: QubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Transfer the qubit from mode 2' to mode 2 when parities agree."""
    return _report("parity_check", ((q.alpha, q.beta),), (q.alpha, q.beta), passive, tolerance)


def destructive_cnot(
    target: QubitState,
    control: QubitState,
    passive: bool = False,
    tolerance: float = fock.DEFAULT_TOLERANCE,
) -> GateReport:
    """Flip the target qubit when the control photon is V-polarized.

    The control photon is consumed by the detection.  A fidelity target is
    only defined for computational-basis controls; superposed controls still
    run, with fidelities omitted.
    """
    bound = ((target.alpha, target.beta), (control.alpha, control.beta))
    ideal = None
    if abs(abs(control.alpha) - 1.0) <= 1e-12:
        ideal = (target.alpha, target.beta)
    elif abs(abs(control.beta) - 1.0) <= 1e-12:
        ideal = (target.beta, target.alpha)
    return _report("destructive_cnot", bound, ideal, passive, tolerance)


def encoder(
    q: QubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Copy the qubit's basis value onto modes 2 and b: aH+bV -> aHH+bVV."""
    target = (q.alpha, 0, 0, q.beta)
    return _report("encoder", ((q.alpha, q.beta),), target, passive, tolerance)


def cnot(
    state: TwoQubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Encoder + destructive-CNOT composition; control 2'->2, target 3'->3."""
    target = (state.a1, state.a2, state.a4, state.a3)  # VH and VV swapped
    return _report("cnot", (tuple(state),), target, passive, tolerance)


def gc_cnot(
    state: TwoQubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Teleportation-style gate consuming the four-photon chi resource."""
    target = (state.a1, state.a2, state.a4, state.a3)
    return _report("gc_cnot", (tuple(state),), target, passive, tolerance)


def chi_via_cnot(
    passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Produce chi constructively: composed CNOT across two Bell pairs."""
    return _report("chi_via_cnot", (), (), passive, tolerance)
