"""Circuit model: specs, detectors, post-selection, and feed-forward.

Execution builds the declared input state, applies the optical elements in
order, rebases every detected mode into its detector's splitting basis, and
exhaustively enumerates joint photon-count outcomes on the detected modes.
Probabilities are exact branch norms; nothing is sampled.  The elements,
rebases and corrections of a spec are compiled once per structure
(:func:`compile`), so runs that differ only in their inputs share them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import fock, optics
from .errors import MissingOutput, NonPhysicalInput, UndeclaredMode
from .fock import POL_F, POL_H, POL_S, POL_V, PhotonState
from .optics import BASIS_FS, BASIS_HV, OpticalElement

#: Per detector, photon counts in the (transmitted, reflected) polarization
#: of the detector basis; patterns are ordered like the declared detectors.
OutcomePattern = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DetectorSpec:
    """Polarization-sensitive detector: a splitting basis plus two counters."""

    mode: str
    basis: str
    label: str

    @property
    def transmitted_pol(self) -> str:
        return POL_H if self.basis == BASIS_HV else POL_F

    @property
    def reflected_pol(self) -> str:
        return POL_V if self.basis == BASIS_HV else POL_S


@dataclass(frozen=True)
class FeedForwardRule:
    """Corrections triggered when ``label`` fires a photon of ``pol``."""

    label: str
    pol: str
    corrections: tuple[OpticalElement, ...]


@dataclass(frozen=True)
class InputDecl:
    kind: str  # "qubit" | "bell" | "chi" | "state" (two-qubit: HH, HV, VH, VV)
    modes: tuple[str, ...]
    amplitudes: tuple[complex, ...] = ()


@dataclass(frozen=True)
class CircuitSpec:
    modes: tuple[str, ...]
    inputs: tuple[InputDecl, ...]
    elements: tuple[OpticalElement, ...]
    detectors: tuple[DetectorSpec, ...]
    rules: tuple[FeedForwardRule, ...] = ()
    outputs: tuple[str, ...] = ()


@dataclass
class GateResult:
    """Exhaustive outcome table of one circuit execution.

    ``outcomes`` maps each accepted pattern to its probability and the
    corrected conditional state (normalized to 1).  ``rejected`` keeps the
    probability of every other pattern so that totals can be audited.
    """

    outcomes: dict[OutcomePattern, tuple[float, PhotonState]]
    rejected: dict[OutcomePattern, float]
    success_probability: float
    failure_probability: float


def is_1ao1(pattern: OutcomePattern) -> bool:
    return all(ct + cr == 1 for ct, cr in pattern)


def is_passive(pattern: OutcomePattern) -> bool:
    """True when every detector fired exactly one transmitted-pol photon."""
    return all((ct, cr) == (1, 0) for ct, cr in pattern)


def pattern_name(pattern: OutcomePattern, detectors: tuple[DetectorSpec, ...]) -> str:
    parts = []
    for (ct, cr), det in zip(pattern, detectors):
        if ct + cr == 1:
            pol = det.transmitted_pol if ct else det.reflected_pol
            parts.append(f"{pol}_{det.label}")
        else:
            parts.append(f"{det.label}[{ct}{det.transmitted_pol},{cr}{det.reflected_pol}]")
    return " ".join(parts) if parts else "-"


def build_input_state(spec: CircuitSpec) -> PhotonState:
    """The declared input, built exactly: nothing is pruned."""
    from .gates import bell_phi_plus, chi_state, qubit_state, two_qubit_input

    state = fock.vacuum(0.0)
    for decl in spec.inputs:
        if decl.kind == "qubit":
            part = qubit_state(decl.modes[0], *decl.amplitudes, tolerance=0.0)
        elif decl.kind == "bell":
            part = bell_phi_plus(*decl.modes)
        elif decl.kind == "chi":
            part = chi_state(*decl.modes)
        elif decl.kind == "state":
            part = two_qubit_input(*decl.modes, decl.amplitudes, tolerance=0.0)
        else:
            raise ValueError(f"unknown input kind: {decl.kind!r}")
        state = fock.tensor(state, part)
    return state


def enumerate_outcomes(
    state: PhotonState, detectors: tuple[DetectorSpec, ...]
) -> dict[OutcomePattern, PhotonState]:
    """Partition a state by joint photon counts on the detected modes.

    The detected modes must already be expressed in each detector's basis.
    Every detected mode is consumed: branch states carry only the remaining
    slots.  Branch norms sum to the input norm.
    """
    return fock.split_counts(
        state,
        tuple(
            ((det.mode, det.transmitted_pol), (det.mode, det.reflected_pol))
            for det in detectors
        ),
    )


#: One optical element ready to run: the modes that must be empty when it
#: acts (see :func:`optics.collision_modes`) and its slot map.
Step = tuple[tuple[str, ...], fock.SlotMap | fock.IndexedMap]


def _step(el: OpticalElement) -> Step:
    return optics.collision_modes(el), optics.slot_map(el)


def _run_steps(state: PhotonState, steps: tuple[Step, ...]) -> PhotonState:
    for guarded, slot_map in steps:
        optics.check_collisions(state, guarded)
        state = fock.transform_slots(state, slot_map)
    return state


def apply_feedforward(
    branch: PhotonState,
    pattern: OutcomePattern,
    detectors: tuple[DetectorSpec, ...],
    rules: tuple[FeedForwardRule, ...],
    compiled: tuple[tuple[Step, ...], ...] | None = None,
) -> PhotonState:
    """Apply every triggered rule's corrections, in declared order.

    Rules for distinct detectors compose independently: each fired detector
    triggers its own rule once, so e.g. a pi phase triggered twice is the
    identity.  ``compiled``, when given, holds each rule's corrections as
    compiled steps (:attr:`CompiledCircuit.corrections`).
    """
    if compiled is None:
        compiled = tuple(tuple(map(_step, rule.corrections)) for rule in rules)
    fired: dict[str, list[str]] = {}
    for (ct, cr), det in zip(pattern, detectors):
        pols = fired.setdefault(det.label, [])
        pols.extend([det.transmitted_pol] * ct)
        pols.extend([det.reflected_pol] * cr)
    state = branch
    for i, rule in enumerate(rules):
        times = fired.get(rule.label, []).count(rule.pol)
        for _ in range(times):
            state = _run_steps(state, compiled[i])
    return state


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit's structure as integer-indexed slot maps over one slot index.

    Built by :func:`compile`; it depends on the modes, elements, detectors
    and rules of a spec, never on its inputs.
    """

    index: fock.SlotIndex
    elements: tuple[Step, ...]
    #: HV -> FS rebase of each FS detector's mode, in detector order.
    rebases: tuple[fock.IndexedMap, ...]
    #: The corrections of each rule, in rule order.
    corrections: tuple[tuple[Step, ...], ...]


#: Compiled circuits kept by :func:`compile`: enough for the built-in gates
#: and a few circuit files alternating with them.
_PLAN_CACHE_SIZE = 16


def compile(spec: CircuitSpec) -> CompiledCircuit:
    """Check a spec's structure and compile it, once per distinct structure.

    The slot index covers every polarization label of each declared mode
    (and of any mode an element touches).  Calls that differ only in their
    input declarations share one compiled circuit.
    """
    return _compile(spec.modes, spec.elements, spec.detectors, spec.rules)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _compile(modes, elements, detectors, rules) -> CompiledCircuit:
    for det in detectors:
        if det.mode not in modes:
            raise UndeclaredMode(f"detector on undeclared mode {det.mode!r}")
    elements = tuple(map(_step, elements))
    corrections = tuple(tuple(map(_step, rule.corrections)) for rule in rules)
    every_step = [*elements, *(step for rule_steps in corrections for step in rule_steps)]
    touched = {mode for _, m in every_step for mode, _ in fock.map_slots(m)}
    index = fock.slot_index(
        (mode, pol) for mode in {*modes, *touched} for pol in (POL_F, POL_H, POL_S, POL_V)
    )

    def indexed(steps: tuple[Step, ...]) -> tuple[Step, ...]:
        return tuple((guarded, fock.IndexedMap(m, index)) for guarded, m in steps)

    return CompiledCircuit(
        index=index,
        elements=indexed(elements),
        rebases=tuple(
            fock.IndexedMap(fock.rebase_map(det.mode, fock.HV_TO_FS), index)
            for det in detectors
            if det.basis == BASIS_FS
        ),
        corrections=tuple(map(indexed, corrections)),
    )


def execute(
    spec: CircuitSpec,
    passive: bool = False,
    tolerance: float = fock.DEFAULT_TOLERANCE,
) -> GateResult:
    """Run a circuit and return its exhaustive outcome table.

    ``passive`` restricts acceptance to the pattern needing no correction:
    every detector firing exactly one transmitted-pol photon.  The default
    accepts every one-and-only-one pattern and applies feed-forward.

    Every state of the run drops amplitudes below ``tolerance``.  The input's
    normalization is checked on the declared amplitudes, before pruning; if
    pruning then removes more than rounding noise, of the input or during the
    run, that is an error too.  So are photons left by the elements on a mode
    that is neither detected nor declared as an output.
    """
    state = build_input_state(spec)
    norm = state.norm_sq()
    if abs(norm - 1.0) > 1e-9:
        raise NonPhysicalInput(f"input squared norm is {norm!r}, expected 1")
    state = state.with_tolerance(tolerance)
    kept = state.norm_sq()
    if abs(kept - 1.0) > 1e-9:
        raise NonPhysicalInput(
            f"amplitude tolerance {tolerance!r} prunes squared norm "
            f"{norm - kept!r} of the input"
        )

    plan = compile(spec)
    state = _run_steps(state.reindexed(plan.index), plan.elements)
    stray = state.modes() - {det.mode for det in spec.detectors} - set(spec.outputs)
    if stray:
        raise MissingOutput(f"photons left on undetected non-output modes {sorted(stray)}")
    for rebase in plan.rebases:
        state = fock.transform_slots(state, rebase)

    branches = enumerate_outcomes(state, spec.detectors)
    outcomes: dict[OutcomePattern, tuple[float, PhotonState]] = {}
    rejected: dict[OutcomePattern, float] = {}
    success = 0.0
    for pattern in sorted(branches):
        branch = branches[pattern]
        probability = branch.norm_sq()
        accepted = is_passive(pattern) if passive else is_1ao1(pattern)
        if accepted and probability > 0.0:
            corrected = apply_feedforward(
                branch, pattern, spec.detectors, spec.rules, plan.corrections
            )
            outcomes[pattern] = (probability, corrected.scaled(1.0 / math.sqrt(probability)))
            success += probability
        else:
            rejected[pattern] = rejected.get(pattern, 0.0) + probability
    lost = kept - success - sum(rejected.values())
    if lost > 1e-9:
        raise NonPhysicalInput(
            f"amplitude tolerance {tolerance!r} prunes squared norm {lost!r} during the run"
        )
    return GateResult(
        outcomes=outcomes,
        rejected=rejected,
        success_probability=success,
        failure_probability=1.0 - success,
    )
