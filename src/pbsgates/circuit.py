"""Circuit model: specs, detectors, post-selection, and feed-forward.

Execution builds the declared input state, applies the optical elements in
order, rebases every detected mode into its detector's splitting basis, and
exhaustively enumerates joint photon-count outcomes on the detected modes.
Probabilities are exact branch norms; nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fock, optics
from .errors import NonPhysicalInput, UndeclaredMode
from .fock import POL_F, POL_H, POL_S, POL_V, BasisState, PhotonState
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


def build_input_state(
    spec: CircuitSpec, tolerance: float | None = None
) -> PhotonState:
    from .gates import bell_phi_plus, chi_state, qubit_state, two_qubit_input

    state = fock.vacuum(tolerance)
    for decl in spec.inputs:
        if decl.kind == "qubit":
            part = qubit_state(decl.modes[0], *decl.amplitudes, tolerance=tolerance)
        elif decl.kind == "bell":
            part = bell_phi_plus(*decl.modes, tolerance=tolerance)
        elif decl.kind == "chi":
            part = chi_state(*decl.modes, tolerance=tolerance)
        elif decl.kind == "state":
            part = two_qubit_input(*decl.modes, decl.amplitudes, tolerance=tolerance)
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
    branches: dict[OutcomePattern, dict[BasisState, complex]] = {}
    det_slots = set()
    for det in detectors:
        det_slots.add((det.mode, det.transmitted_pol))
        det_slots.add((det.mode, det.reflected_pol))
    for basis, amp in state.terms.items():
        pattern = tuple(
            (
                basis.count((det.mode, det.transmitted_pol)),
                basis.count((det.mode, det.reflected_pol)),
            )
            for det in detectors
        )
        rest = BasisState.from_dict(
            {slot: n for slot, n in basis.occ if slot not in det_slots}
        )
        bucket = branches.setdefault(pattern, {})
        bucket[rest] = bucket.get(rest, 0j) + amp
    return {
        pattern: PhotonState(terms, state.tolerance)
        for pattern, terms in branches.items()
    }


def apply_feedforward(
    branch: PhotonState,
    pattern: OutcomePattern,
    detectors: tuple[DetectorSpec, ...],
    rules: tuple[FeedForwardRule, ...],
) -> PhotonState:
    """Apply every triggered rule's corrections, in declared order.

    Rules for distinct detectors compose independently: each fired detector
    triggers its own rule once, so e.g. a pi phase triggered twice is the
    identity.
    """
    fired: dict[str, list[str]] = {}
    for (ct, cr), det in zip(pattern, detectors):
        pols = fired.setdefault(det.label, [])
        pols.extend([det.transmitted_pol] * ct)
        pols.extend([det.reflected_pol] * cr)
    state = branch
    for rule in rules:
        times = fired.get(rule.label, []).count(rule.pol)
        for _ in range(times):
            for correction in rule.corrections:
                state = optics.apply_element(state, correction)
    return state


def execute(
    spec: CircuitSpec,
    passive: bool = False,
    tolerance: float | None = None,
) -> GateResult:
    """Run a circuit and return its exhaustive outcome table.

    ``passive`` restricts acceptance to the pattern needing no correction:
    every detector firing exactly one transmitted-pol photon.  The default
    accepts every one-and-only-one pattern and applies feed-forward.
    """
    state = build_input_state(spec, tolerance)
    norm = state.norm_sq()
    if abs(norm - 1.0) > 1e-9:
        raise NonPhysicalInput(f"input squared norm is {norm!r}, expected 1")

    for el in spec.elements:
        state = optics.apply_element(state, el)

    for det in spec.detectors:
        if det.mode not in spec.modes:
            raise UndeclaredMode(f"detector on undeclared mode {det.mode!r}")
        if det.basis == BASIS_FS:
            state = fock.rebase_polarization(state, det.mode, fock.HV_TO_FS)

    branches = enumerate_outcomes(state, spec.detectors)
    outcomes: dict[OutcomePattern, tuple[float, PhotonState]] = {}
    rejected: dict[OutcomePattern, float] = {}
    success = 0.0
    for pattern in sorted(branches):
        branch = branches[pattern]
        probability = branch.norm_sq()
        accepted = is_passive(pattern) if passive else is_1ao1(pattern)
        if accepted and probability > 0.0:
            corrected = apply_feedforward(branch, pattern, spec.detectors, spec.rules)
            outcomes[pattern] = (probability, corrected.scaled(1.0 / math.sqrt(probability)))
            success += probability
        else:
            rejected[pattern] = rejected.get(pattern, 0.0) + probability
    return GateResult(
        outcomes=outcomes,
        rejected=rejected,
        success_probability=success,
        failure_probability=1.0 - success,
    )
