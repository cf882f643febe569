"""Built-in gates and fidelity metrics.

Each gate runs the circuit file shipped with the package,
``circuits/<name>.circ``, with the caller's amplitudes bound to the inputs
on the gate's named modes, and scores every accepted outcome against the
ideal target state.  Catalog names (``parity_check``, ``destructive_cnot``,
``encoder``, ``cnot``, ``gc_cnot``, ``chi_via_cnot``) are stable identifiers
used by the CLI.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from . import dsl, fock
from .circuit import CircuitSpec, GateResult, InputDecl, OutcomePattern, declared_state, execute
from .errors import NonNormalized
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


def _report(
    name: str,
    bound: dict[tuple[str, ...], tuple[complex, ...]],
    target: InputDecl | None,
    passive: bool,
    tolerance: float,
) -> GateReport:
    """Run the shipped ``name`` circuit and score it against ``target``.

    ``bound`` maps the modes of an input declaration to the amplitudes that
    replace the file's; the other declarations keep the file's values.  The
    run prunes with ``tolerance``, and so does ``target``, the declared
    ideal output state, packed like the outputs.
    """
    shipped = _shipped_spec(name)
    inputs = tuple(
        InputDecl(decl.kind, decl.modes, bound.get(decl.modes, decl.amplitudes))
        for decl in shipped.inputs
    )
    spec = CircuitSpec(
        shipped.modes,
        inputs,
        shipped.elements,
        shipped.detectors,
        shipped.rules,
        shipped.outputs,
    )
    result = execute(spec, passive=passive, tolerance=tolerance)
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
    bound = {("2'",): (q.alpha, q.beta)}
    target = InputDecl("qubit", ("2",), (q.alpha, q.beta))
    return _report("parity_check", bound, target, passive, tolerance)


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
    bound = {
        ("3'",): (target.alpha, target.beta),
        ("b",): (control.alpha, control.beta),
    }
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
    return _report("encoder", {("2'",): (q.alpha, q.beta)}, target, passive, tolerance)


def cnot(
    state: TwoQubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Encoder + destructive-CNOT composition; control 2'->2, target 3'->3."""
    bound = {("2'", "3'"): tuple(state)}
    target = InputDecl("state", ("2", "3"), tuple(ideal_cnot(state)))
    return _report("cnot", bound, target, passive, tolerance)


def gc_cnot(
    state: TwoQubitState, passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Teleportation-style gate consuming the four-photon chi resource."""
    bound = {("A", "B"): tuple(state)}
    target = InputDecl("state", ("2", "3"), tuple(ideal_cnot(state)))
    return _report("gc_cnot", bound, target, passive, tolerance)


def chi_via_cnot(
    passive: bool = False, tolerance: float = fock.DEFAULT_TOLERANCE
) -> GateReport:
    """Produce chi constructively: composed CNOT across two Bell pairs."""
    target = InputDecl("chi", ("1", "2", "3", "4"))
    return _report("chi_via_cnot", {}, target, passive, tolerance)


GATE_NAMES = (
    "parity_check",
    "destructive_cnot",
    "encoder",
    "cnot",
    "gc_cnot",
    "chi_via_cnot",
)
