"""Built-in gates and fidelity metrics.

Each gate is the circuit file shipped with the package,
``circuits/<name>.circ``, with the caller's amplitudes bound to the inputs
on the gate's named modes, and every accepted outcome is scored against the
ideal target state.  A gate is linear in each bound input, so the first
call in each mode runs the circuit once per basis input and keeps each
accepted pattern's outputs; every call is answered by weighting those
outputs with the caller's amplitudes.  Catalog names (``parity_check``,
``destructive_cnot``, ``encoder``, ``cnot``, ``gc_cnot``, ``chi_via_cnot``)
are stable identifiers used by the CLI.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from importlib import resources

from . import circuit, dsl, fock
from .circuit import CircuitSpec, GateResult, InputDecl, OutcomePattern, declared_state, execute
from .errors import MissingOutput, ModeCollision, NonNormalized, PbsGatesError
from .fock import PhotonState


@dataclass(frozen=True)
class QubitState:
    """Single polarization qubit: alpha·H + beta·V."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        n2 = fock.squared_norm((self.alpha, self.beta))
        if not abs(n2 - 1.0) <= 1e-9:  # so that nan fails too
            raise NonNormalized(f"qubit squared norm is {n2!r}")


@dataclass(frozen=True)
class TwoQubitState:
    """Coefficients of HH, HV, VH, VV."""

    a1: complex
    a2: complex
    a3: complex
    a4: complex

    def __post_init__(self):
        n2 = fock.squared_norm(self)
        if not abs(n2 - 1.0) <= 1e-9:
            raise NonNormalized(f"two-qubit squared norm is {n2!r}")

    def __iter__(self):
        return iter((self.a1, self.a2, self.a3, self.a4))


@dataclass
class GateReport:
    name: str
    spec: CircuitSpec
    result: GateResult
    target: PhotonState | None
    fidelities: dict[OutcomePattern, float]
    success_probability: float


def ideal_cnot(state: TwoQubitState) -> TwoQubitState:
    """Target truth table: swap the VH and VV coefficients."""
    return TwoQubitState(state.a1, state.a2, state.a4, state.a3)


def fidelity(a: PhotonState, b: PhotonState) -> float:
    for name, st in (("first", a), ("second", b)):
        n2 = st.norm_sq()
        if abs(n2 - 1.0) > 1e-9:
            raise NonNormalized(f"{name} state squared norm is {n2!r}")
    return abs(fock.inner_product(a, b)) ** 2


@functools.cache
def _shipped_spec(name: str) -> CircuitSpec:
    """The parsed ``circuits/<name>.circ`` shipped with the package."""
    path = resources.files(__package__) / "circuits" / f"{name}.circ"
    return dsl.parse_circuit(path.read_text(encoding="utf-8"))


#: Gate -> the modes of each input declaration whose amplitudes a call
#: binds, in the order in which the gate passes them to :func:`_report`.
_BINDS = {
    "parity_check": (("2'",),),
    "destructive_cnot": (("3'",), ("b",)),
    "encoder": (("2'",),),
    "cnot": (("2'", "3'"),),
    "gc_cnot": (("A", "B"),),
    "chi_via_cnot": (),
}


def _bound_spec(name: str, amplitudes: tuple[tuple[complex, ...], ...]) -> CircuitSpec:
    """The shipped ``name`` circuit with ``amplitudes`` in place of the file's
    on the declarations of :data:`_BINDS`; the others keep the file's."""
    shipped = _shipped_spec(name)
    bound = dict(zip(_BINDS[name], amplitudes))
    inputs = tuple(
        InputDecl(decl.kind, decl.modes, bound.get(decl.modes, decl.amplitudes))
        for decl in shipped.inputs
    )
    return CircuitSpec(
        shipped.modes,
        inputs,
        shipped.elements,
        shipped.detectors,
        shipped.rules,
        shipped.outputs,
    )


@dataclass(frozen=True)
class _Responses:
    """What one gate does, in one mode, to each of its input columns.

    A column binds one unit amplitude on each declaration of :data:`_BINDS`;
    columns come in the order of ``itertools.product`` over the positions
    of those amplitudes.  The gate is linear in each bound declaration, so a
    call's unnormalised output on an accepted pattern is the sum over
    columns of the product of the caller's amplitudes at those positions
    times the column's output.
    """

    #: Column -> the refusal that its run raised.
    failures: dict[int, PbsGatesError]
    #: Column -> one configuration of its input terms.  They all have the
    #: same amplitude in a call's input (see :func:`_responses`), so the
    #: input's pruning keeps all of them or none.
    inputs: tuple[int, ...]
    #: Each pattern that some column accepts, in sorted order, with the
    #: unnormalised, corrected output of each column that reaches it:
    #: ``(column, {configuration: amplitude})``, packed as ``packing`` says.
    patterns: tuple[tuple[OutcomePattern, tuple[tuple[int, dict[int, complex]], ...]], ...]
    packing: tuple[fock.SlotIndex, int] | None


@functools.cache
def _responses(name: str, passive: bool) -> _Responses:
    """Run the shipped ``name`` circuit once per column, exactly (tolerance 0).

    A column whose run raises :class:`ModeCollision` or
    :class:`MissingOutput` keeps that error, to be raised by any call that
    gives the column a nonzero coefficient.

    Within a column, input terms differ only in the amplitudes of the
    declarations that the gate does not bind.  Those amplitudes must all be
    equal within each declaration, so that every term of a column has the
    same amplitude and the input's pruning treats the column as one.
    """
    shipped = _shipped_spec(name)
    for decl in shipped.inputs:
        if decl.modes not in _BINDS[name]:
            if len(set(declared_state(decl, 0.0).packed_terms.values())) != 1:
                raise ValueError(f"{name}: the input on {decl.modes} has unequal amplitudes")
    declared = {decl.modes: decl for decl in shipped.inputs}
    sizes = [len(declared[modes].amplitudes) for modes in _BINDS[name]]
    failures = {}
    inputs = []
    outputs: dict[OutcomePattern, list[tuple[int, dict[int, complex]]]] = {}
    packings = {}
    for k, column in enumerate(itertools.product(*map(range, sizes))):
        units = tuple(tuple(float(i == j) for i in range(n)) for j, n in zip(column, sizes))
        spec = _bound_spec(name, units)
        inputs.append(min(circuit.build_input_state(spec).packed_terms))
        try:
            result = execute(spec, passive=passive, tolerance=0.0)
        except (ModeCollision, MissingOutput) as exc:
            failures[k] = exc
            continue
        for pattern, (probability, state) in result.outcomes.items():
            index, photons = state.packing
            packings[index.slots, photons] = state.packing
            root = math.sqrt(probability)
            terms = {cfg: amp * root for cfg, amp in state.packed_terms.items()}
            outputs.setdefault(pattern, []).append((k, terms))
    if len(packings) > 1:
        raise ValueError(f"{name}: the columns' outputs are packed over different indexes")
    return _Responses(
        failures=failures,
        inputs=tuple(inputs),
        patterns=tuple((pattern, tuple(outputs[pattern])) for pattern in sorted(outputs)),
        packing=next(iter(packings.values()), None),
    )


def _respond(
    name: str, amplitudes: tuple[tuple[complex, ...], ...], passive: bool, tolerance: float
) -> tuple[CircuitSpec, GateResult]:
    """The bound spec, and its result from the response table.

    The input is checked and pruned as :func:`execute` checks and prunes it,
    and a column whose input terms that pruning removes adds nothing.  Each
    accepted pattern's output is summed from the columns, then pruned with
    ``tolerance`` and normalised (:func:`circuit.settle`); if that pruning
    loses more than 1e-9 of squared norm in all, the call is refused as a
    run that loses it.  Where :func:`execute` prunes each state along the
    run, this prunes the outputs once, so the two differ by more than
    rounding only if some amplitude inside the run falls below ``tolerance``.
    """
    spec = _bound_spec(name, amplitudes)
    plan = circuit.compile(spec)
    state, _ = circuit.checked_input(spec, plan, tolerance)
    kept = state.packed_terms
    table = _responses(name, passive)
    coefficients = [
        math.prod(column) if cfg in kept else 0.0
        for column, cfg in zip(itertools.product(*amplitudes), table.inputs)
    ]
    for k, error in table.failures.items():
        if coefficients[k]:
            raise copy.copy(error)
    accepted = []
    lost = 0.0
    for pattern, responses in table.patterns:
        total: dict[int, complex] = {}
        for k, terms in responses:
            coefficient = coefficients[k]
            if coefficient:
                for cfg, amp in terms.items():
                    total[cfg] = total.get(cfg, 0j) + coefficient * amp
        output = PhotonState.packed(total, *table.packing, tolerance)
        pruned = output.packed_terms
        if len(pruned) < len(total):
            lost += sum(abs(amp) ** 2 for cfg, amp in total.items() if cfg not in pruned)
        probability = output.norm_sq()
        if probability > 0.0:
            accepted.append((pattern, probability, output))
    result = circuit.settle(
        accepted,
        lambda: circuit._execute(spec, plan, passive, tolerance, drop=False).rejected,
        tolerance,
        lambda success: lost,
    )
    return spec, result


def _report(
    name: str,
    amplitudes: tuple[tuple[complex, ...], ...],
    target: InputDecl | None,
    passive: bool,
    tolerance: float,
) -> GateReport:
    """Answer a call of gate ``name`` and score it against ``target``.

    ``amplitudes`` replace the file's on the declarations of :data:`_BINDS`.
    The outputs are pruned with ``tolerance`` (see :func:`_respond`), and so
    is ``target``, the declared ideal output state, packed like the outputs.
    """
    spec, result = _respond(name, amplitudes, passive, tolerance)
    fidelities = {}
    target_state = None
    if target is not None:
        outputs = [state for _, state in result.outcomes.values()]
        target_state = declared_state(target, tolerance, like=outputs[0] if outputs else None)
        for pattern, (_, state) in result.outcomes.items():
            fidelities[pattern] = fidelity(state, target_state)
    return GateReport(
        name=name,
        spec=spec,
        result=result,
        target=target_state,
        fidelities=fidelities,
        success_probability=result.success_probability,
    )


def parity_check(
    q: QubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Transfer the qubit from mode 2' to mode 2 when parities agree."""
    target = InputDecl("qubit", ("2",), (q.alpha, q.beta))
    return _report("parity_check", ((q.alpha, q.beta),), target, passive, tolerance)


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
        ideal = InputDecl("qubit", ("3",), (target.alpha, target.beta))
    elif abs(abs(control.beta) - 1.0) <= 1e-12:
        ideal = InputDecl("qubit", ("3",), (target.beta, target.alpha))
    return _report("destructive_cnot", bound, ideal, passive, tolerance)


def encoder(
    q: QubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Copy the qubit's basis value onto modes 2 and b: aH+bV -> aHH+bVV."""
    target = InputDecl("state", ("2", "b"), (q.alpha, 0, 0, q.beta))
    return _report("encoder", ((q.alpha, q.beta),), target, passive, tolerance)


def cnot(
    state: TwoQubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Encoder + destructive-CNOT composition; control 2'->2, target 3'->3."""
    target = InputDecl("state", ("2", "3"), tuple(ideal_cnot(state)))
    return _report("cnot", (tuple(state),), target, passive, tolerance)


def gc_cnot(
    state: TwoQubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Teleportation-style gate consuming the four-photon chi resource."""
    target = InputDecl("state", ("2", "3"), tuple(ideal_cnot(state)))
    return _report("gc_cnot", (tuple(state),), target, passive, tolerance)


def chi_via_cnot(
    passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Produce chi constructively: composed CNOT across two Bell pairs."""
    target = InputDecl("chi", ("1", "2", "3", "4"))
    return _report("chi_via_cnot", (), target, passive, tolerance)


GATE_NAMES = (
    "parity_check",
    "destructive_cnot",
    "encoder",
    "cnot",
    "gc_cnot",
    "chi_via_cnot",
)
