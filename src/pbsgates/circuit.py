"""Circuit model: specs, detectors, post-selection, and feed-forward.

Execution builds the declared input state, applies the optical elements and
then each FS detector's rebase in order, and exhaustively enumerates joint
photon-count outcomes on the detected modes.  Probabilities are exact branch
norms; nothing is sampled.  A :class:`CircuitSpec` is checked once, when
it is built (:func:`validate`), so every spec is valid.  Each run compiles
its spec (:func:`compile`) into packed input configurations, one list of
element steps (the rebases last), the detectors and the slot maps of the
corrections.
The plan depends on the spec's structure alone, so a caller that runs one
structure on many input amplitudes (the gate calls of :mod:`gates`) keeps
one plan and binds only the amplitudes.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re

from . import fock, optics
from .errors import (
    CircuitSyntaxError,
    DetectedModeReuse,
    MissingOutput,
    NonPhysicalInput,
    OverlappingModes,
    UndeclaredMode,
)
from .fock import POL_F, POL_H, POL_S, POL_V, PhotonState, Slot
from .optics import (
    BASIS_FS,
    BASIS_HV,
    OpticalElement,
    PbsElement,
    PolPhaseElement,
    RotatorElement,
)
from .record import Frozen

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Collection, NoReturn, Sequence

#: Per detector, photon counts in the (transmitted, reflected) polarization
#: of the detector basis; patterns are ordered like the declared detectors.
OutcomePattern = tuple[tuple[int, int], ...]


class DetectorSpec(Frozen):
    """Polarization-sensitive detector: a splitting basis plus two counters."""

    __slots__ = _fields = ("mode", "basis", "label")

    def __init__(self, mode: str, basis: str, label: str):
        if basis not in (BASIS_HV, BASIS_FS):
            raise ValueError(f"unknown detector basis: {basis!r}")
        self._set(mode, basis, label)

    @property
    def transmitted_pol(self) -> str:
        return POL_H if self.basis == BASIS_HV else POL_F

    @property
    def reflected_pol(self) -> str:
        return POL_V if self.basis == BASIS_HV else POL_S


class FeedForwardRule(Frozen):
    """Corrections triggered when ``label`` fires a photon of ``pol``."""

    __slots__ = _fields = ("label", "pol", "corrections")

    def __init__(self, label: str, pol: str, corrections: tuple[OpticalElement, ...]):
        self._set(label, pol, tuple(corrections))


class InputDecl(Frozen):
    __slots__ = _fields = ("kind", "modes", "amplitudes")

    def __init__(
        self,
        kind: str,  # "qubit" | "bell" | "chi" | "state" (two-qubit: HH, HV, VH, VV)
        modes: tuple[str, ...],
        amplitudes: tuple[complex, ...] = (),
    ):
        self._set(kind, tuple(modes), tuple(amplitudes))


class CircuitSpec(Frozen):
    """A circuit, checked when it is built: :func:`validate` raises the
    first rule that its fields break.  Its fields, and the sequences of its
    inputs and rules, are tuples, so it cannot change after the check."""

    __slots__ = _fields = ("modes", "inputs", "elements", "detectors", "rules", "outputs")

    def __init__(
        self,
        modes: tuple[str, ...],
        inputs: tuple[InputDecl, ...],
        elements: tuple[OpticalElement, ...],
        detectors: tuple[DetectorSpec, ...],
        rules: tuple[FeedForwardRule, ...] = (),
        outputs: tuple[str, ...] = (),
    ):
        self._set(*map(tuple, (modes, inputs, elements, detectors, rules, outputs)))
        validate(self)


class GateResult:
    """Exhaustive outcome table of one circuit execution.

    ``outcomes`` maps each accepted pattern to its probability and the
    corrected conditional state (normalized to 1).  ``rejected`` gives the
    probability of every other pattern, so that totals can be audited.  A
    run that drops unacceptable terms (see :func:`execute`) no longer knows
    it, so it is worked out on first read, by one run of the same compiled
    circuit that drops nothing: the table, and any error, are the ones such
    a run gives.
    """

    def __init__(
        self,
        outcomes: dict[OutcomePattern, tuple[float, PhotonState]],
        rejected: dict[OutcomePattern, float] | Callable[[], dict[OutcomePattern, float]],
        success_probability: float,
        failure_probability: float,
    ):
        self.outcomes = outcomes
        #: The table, or the function that works it out.
        self._rejected = rejected
        self.success_probability = success_probability
        self.failure_probability = failure_probability

    @property
    def rejected(self) -> dict[OutcomePattern, float]:
        if callable(self._rejected):
            self._rejected = self._rejected()
        return self._rejected


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


_ONE = 1.0 + 0j
#: Input kind -> (each term's polarizations, one photon per declared mode in
#: mode order, in term order; the names of the complex amplitudes it
#: declares).  A kind that declares none is the equal superposition of its terms.
INPUT_FORMS = {
    "qubit": (("H", "V"), ("aH", "aV")),
    "state": (("HH", "HV", "VH", "VV"), ("HH", "HV", "VH", "VV")),
    "bell": (("HH", "VV"), ()),
    "chi": (("HHHH", "HHVV", "VVVH", "VVHV"), ()),
}


def _declared_slots(kind: str, modes: tuple[str, ...]) -> tuple[tuple[Slot, ...], ...]:
    """Each term's occupied slots, in :data:`INPUT_FORMS` term order: sums
    over a state run in that order, so it fixes result bits."""
    return tuple(tuple(zip(modes, pols)) for pols in INPUT_FORMS[kind][0])


def _declared_amplitudes(kind: str, amplitudes: tuple[complex, ...]) -> tuple[complex, ...]:
    """The amplitude of each term of a ``kind`` declaration of ``amplitudes``, in
    :func:`_declared_slots` order: a qubit's are ``(1+0j)*alpha`` and ``0j + (1+0j)*beta``,
    the products of creating each photon on the vacuum and superposing; a state's
    are the declared values made complex, and a fixed kind's ``1/sqrt(terms)``."""
    terms, names = INPUT_FORMS[kind]
    if not names:
        return (complex(1.0 / math.sqrt(len(terms))),) * len(terms)
    if kind == "qubit":
        alpha, beta = amplitudes
        return (_ONE * alpha, 0j + _ONE * beta)
    return tuple(map(complex, amplitudes))


def input_amplitudes(declarations: Sequence[tuple]) -> list[complex]:
    """The amplitude of each configuration of :attr:`CompiledCircuit.inputs`,
    in that order, with each input declaration's ``(kind, amplitudes)`` bound,
    in spec order: the product that the tensor product of the declarations
    computes.  Starting from the vacuum's ``1+0j``, each declaration in order
    multiplies in one of its amplitudes (:func:`_declared_amplitudes`) as
    ``0j + product * amplitude``, so a product with a zero factor is an exact
    zero.  A non-finite amplitude raises :class:`NonPhysicalInput`: gate calls
    bind theirs on a kept plan, with no spec built to check them.
    """
    values = [_declared_amplitudes(*decl) for decl in declarations]
    if not all(cmath.isfinite(amp) for amps in values for amp in amps):
        bad = next(a for _, amps in declarations for a in amps if not cmath.isfinite(a))
        raise NonPhysicalInput(f"input amplitude {bad!r} is not finite")
    products = [_ONE]
    for amps in values:
        products = [0j + p * a for p in products for a in amps]
    return products


def input_norm(amplitudes: Collection[complex], tolerance: float) -> float:
    """The squared norm of an input with ``amplitudes``, after the terms below
    ``tolerance`` are pruned, as :meth:`PhotonState.packed` prunes them.

    Raises :func:`fock.prune_floor`'s :class:`ValueError` for a negative
    ``tolerance``.  Raises :class:`NonPhysicalInput` unless the squared norm
    before pruning (exact zeros aside) is 1 to within 1e-9, and again if
    pruning removes more than 1e-9 of it.  Both sums run in the order of
    ``amplitudes``, which is read twice.
    """
    floor = fock.prune_floor(tolerance)
    norm = fock.squared_norm(amp for amp in amplitudes if amp)
    if not abs(norm - 1.0) <= fock.NORM_TOLERANCE:
        raise NonPhysicalInput(f"input squared norm is {norm!r}, expected 1")
    kept = fock.squared_norm(amp for amp in amplitudes if abs(amp) >= floor)
    if abs(kept - 1.0) > fock.NORM_TOLERANCE:
        raise NonPhysicalInput(
            f"amplitude tolerance {tolerance!r} prunes squared norm "
            f"{norm - kept!r} of the input"
        )
    return kept


def build_input_state(spec: CircuitSpec, *, plan: CompiledCircuit | None = None) -> PhotonState:
    """The declared input, built exactly: only exact zeros are pruned.

    The amplitudes (:func:`input_amplitudes`) are bound onto the
    configurations compiled in ``plan`` (by default ``compile(spec)``), so
    the state is packed over the plan's index.  Terms come in the order of
    the declarations' tensor product: the first declaration's terms
    outermost, each in :func:`_declared_slots` order.  Pruning at tolerance
    0 drops the terms that the tensor product dropped along the way.
    """
    if plan is None:
        plan = compile(spec)
    declarations = [(decl.kind, decl.amplitudes) for decl in spec.inputs]
    terms = dict(zip(plan.inputs, input_amplitudes(declarations)))
    return PhotonState.packed(terms, plan.index, plan.photons, 0.0)


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
Step = tuple[tuple[str, ...], fock.IndexedMap]


def _run_steps(state: PhotonState, steps: tuple[Step, ...]) -> PhotonState:
    for guarded, slot_map in steps:
        optics.check_collisions(state, guarded)
        state = fock.transform_slots(state, slot_map)
    return state


def apply_feedforward(
    branch: PhotonState, pattern: OutcomePattern, compiled: CompiledCircuit
) -> PhotonState:
    """Apply every triggered rule's corrections, in declared order.

    Each rule of :attr:`CompiledCircuit.corrections` runs its slot maps once
    per photon that ``pattern`` counts on its side of its detector, so rules
    for distinct detectors compose independently and e.g. a pi phase
    triggered twice is the identity.  Corrections are rotators and phase
    plates (:func:`validate`), which write only the mode they read, so no
    collision is checked.
    """
    state = branch
    for detector, side, maps in compiled.corrections:
        for _ in range(pattern[detector][side]):
            for slot_map in maps:
                state = fock.transform_slots(state, slot_map)
    return state


def _element_modes(el: OpticalElement) -> tuple[str, ...]:
    return (el.in1, el.in2, el.out1, el.out2) if isinstance(el, PbsElement) else (el.mode,)


#: A mode name or detector label is one token of the circuit language: not
#: empty, and free of whitespace (which ends tokens and lines), ``#`` (which
#: starts a comment) and ``;`` (which separates corrections).
NAME = re.compile(r"[^\s#;]+")


def validate(spec: CircuitSpec) -> None:
    """Raise the first rule ``spec`` breaks, checking entries in spec order.
    Every :class:`CircuitSpec` runs this when it is built.

    Every mode named is declared, and declared once; mode names and labels
    are single tokens (:data:`NAME`).  Each input is of a kind in
    :data:`INPUT_FORMS`, with that kind's numbers of modes and amplitudes;
    amplitudes, angles and phases are finite.
    No two inputs share a mode; no two detectors share a mode or a label.
    A rule's label is a detector's and its pol one of that detector's basis
    pols.  Corrections are rotators or phase plates, none on a detected
    mode, and no output is on a detected mode either; outputs are non-empty
    and distinct.
    The error's ``entry`` is ``(field, index, name, k)``: the spec field,
    the entry, the name at fault and its place ``k`` among the entry's
    names, so that a name repeated within an entry is told apart.  A name
    that shares its entry with others of another role has a field of its
    own: ``"labels"`` for a detector's label, indexed by detector, and
    ``"triggers"`` and ``"corrections"`` for a rule's pol and correction
    modes, indexed by rule.  An entry's names are an input's modes, a PBS's
    ports (``in1 in2 out1 out2``), the mode of each of a rule's
    corrections, or else its one name.
    """
    declared: set[str] = set()
    sourced: set[str] = set()
    detected: set[str] = set()
    labels: set[str] = set()
    listed: set[str] = set()

    def refuse(error: type, message: str, field: str, i: int, name: str, k: int) -> NoReturn:
        raise error(message.format(name), entry=(field, i, name, k))

    def check_declared(field: str, i: int, mode: str, k: int):
        if mode not in declared:
            refuse(UndeclaredMode, "mode {!r} is not declared", field, i, mode, k)

    def once(seen: set[str], error: type, message: str, field: str, i: int, name: str, k: int):
        if name in seen:
            refuse(error, message, field, i, name, k)
        seen.add(name)

    def check_name(field: str, i: int, name: str):
        if not NAME.fullmatch(name):
            refuse(CircuitSyntaxError, "name {!r} is not one token", field, i, name, 0)

    def check_finite(field: str, i: int, el: OpticalElement, k: int):
        if not math.isfinite(getattr(el, "angle_deg", getattr(el, "phase_deg", 0))):
            message = "angle or phase on {!r} is not finite"
            refuse(CircuitSyntaxError, message, field, i, el.mode, k)

    for i, mode in enumerate(spec.modes):
        check_name("modes", i, mode)
        once(declared, CircuitSyntaxError, "mode {!r} declared twice", "modes", i, mode, 0)
    for i, decl in enumerate(spec.inputs):
        entry = ("inputs", i, next(iter(decl.modes), None), 0)
        terms, names = INPUT_FORMS.get(decl.kind, ((), ()))
        if not terms:
            raise CircuitSyntaxError(f"unknown input kind {decl.kind!r}", entry=entry)
        if (len(decl.modes), len(decl.amplitudes)) != (len(terms[0]), len(names)):
            shape = f"{len(terms[0])} mode(s) and {len(names)} amplitude(s)"
            raise CircuitSyntaxError(f"a {decl.kind} input takes {shape}", entry=entry)
        if not all(map(cmath.isfinite, decl.amplitudes)):
            message = f"input amplitudes {decl.amplitudes} not finite"
            raise CircuitSyntaxError(message, entry=entry)
        for k, mode in enumerate(decl.modes):
            check_declared("inputs", i, mode, k)
            once(sourced, OverlappingModes, "mode {!r} has two inputs", "inputs", i, mode, k)
    for i, el in enumerate(spec.elements):
        for k, mode in enumerate(_element_modes(el)):
            check_declared("elements", i, mode, k)
        check_finite("elements", i, el, 0)
    for i, det in enumerate(spec.detectors):
        check_declared("detectors", i, det.mode, 0)
        message = "mode {!r} has two detectors"
        once(detected, DetectedModeReuse, message, "detectors", i, det.mode, 0)
        check_name("labels", i, det.label)
        once(labels, CircuitSyntaxError, "label {!r} declared twice", "labels", i, det.label, 0)
    by_label = {det.label: det for det in spec.detectors}
    for i, rule in enumerate(spec.rules):
        det = by_label.get(rule.label)
        if det is None:
            refuse(UndeclaredMode, "no detector is labelled {!r}", "rules", i, rule.label, 0)
        if rule.pol not in (det.transmitted_pol, det.reflected_pol):
            message = "trigger {!r} is not in the basis"
            refuse(CircuitSyntaxError, message, "triggers", i, rule.pol, 0)
        for k, el in enumerate(rule.corrections):
            if not isinstance(el, (RotatorElement, PolPhaseElement)):
                message = f"correction {el!r} is not a rotator or phase plate"
                entry = ("corrections", i, _element_modes(el)[0], k)
                raise CircuitSyntaxError(message, entry=entry)
            for mode in _element_modes(el):
                check_declared("corrections", i, mode, k)
                if mode in detected:
                    message = "corrects detected mode {!r}"
                    refuse(DetectedModeReuse, message, "corrections", i, mode, k)
            check_finite("corrections", i, el, k)
    if not spec.outputs:
        raise MissingOutput("circuit declares no output modes")
    for i, mode in enumerate(spec.outputs):
        check_declared("outputs", i, mode, 0)
        once(listed, CircuitSyntaxError, "output mode {!r} listed twice", "outputs", i, mode, 0)
        if mode in detected:
            refuse(DetectedModeReuse, "output on detected mode {!r}", "outputs", i, mode, 0)


class CompiledCircuit(Frozen):
    """A circuit's structure as packed configurations and compiled slot maps,
    all for one packing: over ``index`` for up to ``photons`` photons, as
    every state of a run is packed.

    Built by :func:`compile`; it depends on the modes, elements, detectors,
    rules and outputs of a spec and on the kind, modes and amplitude count
    of each input declaration, never on the amplitudes' values.
    """

    __slots__ = _fields = (
        "index", "photons", "inputs", "elements", "detectors", "exits", "corrections", "drops"
    )

    def __init__(
        self,
        index: fock.SlotIndex,
        # Photon number of the input: states of a run are packed for it.
        photons: int,
        # Each configuration of the input, packed, in the order of the
        # declarations' tensor product (``itertools.product`` of their terms):
        # the earlier a declaration, the slower its term varies.
        inputs: tuple[int, ...],
        # The :data:`Step` of each element, in spec order, and then the
        # unguarded HV -> FS rebase of each FS detector's mode, in detector
        # order: every map that runs before the count.
        elements: tuple[Step, ...],
        # The spec's detectors, whose counts make the outcome patterns.
        detectors: tuple[DetectorSpec, ...],
        # The modes that a run may leave photons on: the detected ones and
        # the outputs.
        exits: frozenset[str],
        # ``(detector, side, maps)`` of each rule, in rule order: the index
        # of the rule's detector, the side of its counts that fires the rule
        # (0 transmitted, 1 reflected) and the slot map of each correction.
        corrections: tuple[tuple[int, int, tuple[fock.IndexedMap, ...]], ...],
        # ``(point, mask, allowed)`` for each point of the element list where
        # detected modes become final, in order: point ``k`` comes after the
        # first ``k`` elements, and a term there that fails
        # :func:`fock.one_photon_test` on those modes can no longer be
        # accepted (see :func:`final_modes`).  Empty when dropping such terms
        # could change a refusal.
        drops: tuple[tuple[int, int, frozenset[int]], ...],
    ):
        self._set(index, photons, inputs, elements, detectors, exits, corrections, drops)


def final_modes(spec: CircuitSpec) -> tuple[tuple[str, ...], ...] | None:
    """For each point ``k`` of the element list, from 0 to ``len(elements)``:
    the detected modes, in detector order, that become final there.  Element
    ``k - 1`` is the last PBS to touch them; at point 0 are those that no
    PBS touches.

    Only a PBS moves photons between modes, so a term with a count other
    than one on such a mode can no longer be accepted, in either mode of
    :func:`execute`.  ``None`` when dropping such terms could change a
    refusal: when a PBS may write onto a live mode other than its inputs
    (:func:`optics.collision_modes`), or a photon may end on a mode that is
    neither detected nor an output.  A mode may be live once an input
    declares it, until a PBS reads it; a PBS that reads a live mode makes
    both its outputs live.
    """
    live = {mode for decl in spec.inputs for mode in decl.modes}
    last = {det.mode: 0 for det in spec.detectors}
    for k, el in enumerate(spec.elements, 1):
        if not isinstance(el, PbsElement):
            continue
        if live.intersection(optics.collision_modes(el)):
            return None
        inputs = {el.in1, el.in2}
        if live & inputs:
            live = live - inputs | {el.out1, el.out2}
        for mode in _element_modes(el):
            if mode in last:
                last[mode] = k
    if live - set(last) - set(spec.outputs):
        return None
    points: list[tuple[str, ...]] = [()] * (len(spec.elements) + 1)
    for mode, k in last.items():
        points[k] += (mode,)
    return tuple(points)


def compile(spec: CircuitSpec) -> CompiledCircuit:
    """Compile a spec, which was checked when it was built.

    The slot index covers every polarization label of each declared mode.
    The result serves any run of a spec of the same structure: one that
    differs only in its input amplitudes.
    """
    parts = [_declared_slots(decl.kind, decl.modes) for decl in spec.inputs]
    index = fock.SlotIndex((m, pol) for m in spec.modes for pol in (POL_F, POL_H, POL_S, POL_V))

    photons = sum(len(part[0]) for part in parts)

    def maps(chain: tuple[OpticalElement, ...]) -> tuple[fock.IndexedMap, ...]:
        return tuple(fock.IndexedMap(optics.slot_map(el), index, photons) for el in chain)

    detectors = {det.label: (d, det.transmitted_pol) for d, det in enumerate(spec.detectors)}

    def correction(rule: FeedForwardRule) -> tuple[int, int, tuple[fock.IndexedMap, ...]]:
        d, transmitted = detectors[rule.label]
        return d, int(rule.pol != transmitted), maps(rule.corrections)

    return CompiledCircuit(
        index=index,
        photons=photons,
        inputs=tuple(
            index.pack([slot for term in terms for slot in term], photons)
            for terms in itertools.product(*parts)
        ),
        elements=tuple(zip(map(optics.collision_modes, spec.elements), maps(spec.elements)))
        + tuple(
            ((), fock.IndexedMap(fock.rebase_map(det.mode, fock.HV_TO_FS), index, photons))
            for det in spec.detectors
            if det.basis == BASIS_FS
        ),
        detectors=spec.detectors,
        exits=frozenset(det.mode for det in spec.detectors).union(spec.outputs),
        corrections=tuple(map(correction, spec.rules)),
        drops=tuple(
            (k, *fock.one_photon_test(index, photons, modes))
            for k, modes in enumerate(final_modes(spec) or ())
            if modes
        ),
    )


def _run_elements(state: PhotonState, plan: CompiledCircuit) -> tuple[PhotonState, float]:
    """``state`` through the plan's elements, without the terms that can no
    longer be accepted, dropped at each point of :attr:`CompiledCircuit.drops`;
    and the squared norm dropped."""
    dropped = 0.0
    done = 0
    for point, mask, allowed in plan.drops:
        state = _run_steps(state, plan.elements[done:point])
        done = point
        state, norm = fock.keep_matching(state, mask, allowed)
        dropped += norm
    return _run_steps(state, plan.elements[done:]), dropped


def execute(
    spec: CircuitSpec,
    passive: bool = False,
    tolerance: float = fock.DEFAULT_TOLERANCE,
) -> GateResult:
    """Run a circuit and return its exhaustive outcome table.  The spec was
    checked when it was built, so the run only compiles it.

    ``passive`` restricts acceptance to the pattern needing no correction:
    every detector firing exactly one transmitted-pol photon.  The default
    accepts every one-and-only-one pattern and applies feed-forward.

    Every state of the run drops amplitudes below ``tolerance``.  The input's
    normalization is checked on the declared amplitudes, before pruning; if
    pruning then removes more than rounding noise, of the input or during the
    run, that is an error too.  So are photons left by the elements on a mode
    that is neither detected nor declared as an output.

    Once no later PBS touches a detected mode, a term with a photon count
    other than one there can never be accepted, so the run drops it and
    counts its squared norm as dropped, not as pruned
    (:attr:`CompiledCircuit.drops`).  Every accepted probability and state,
    and the success probability, keep the bits that a run without the drop
    gives.  Where :func:`final_modes` cannot prove that the drop changes no
    refusal, nothing is dropped.  When the plan drops terms, ``rejected`` is
    worked out when it is first read (see :class:`GateResult`).
    """
    plan = compile(spec)
    return _execute(plan, build_input_state(spec, plan=plan).packed_terms, passive, tolerance)


def _execute(
    plan: CompiledCircuit, terms: dict[int, complex], passive: bool, tolerance: float
) -> GateResult:
    """:func:`execute` on ``plan`` with the input ``terms``: the amplitude of
    each configuration of ``plan.inputs``, in that order, exact zeros allowed.
    The plan without :attr:`CompiledCircuit.drops` gives the complete ``rejected``."""
    kept = input_norm(terms.values(), tolerance)
    state = PhotonState.packed(terms, plan.index, plan.photons, tolerance)
    state, dropped = _run_elements(state, plan)
    stray = state.modes() - plan.exits
    if stray:
        raise MissingOutput(f"photons left on undetected non-output modes {sorted(stray)}")

    branches = enumerate_outcomes(state, plan.detectors)
    accepted = []
    success = rejected_total = 0.0
    rejected: dict[OutcomePattern, float] = {}
    for pattern in sorted(branches):
        branch = branches[pattern]
        probability = branch.norm_sq()
        if (is_passive(pattern) if passive else is_1ao1(pattern)) and probability > 0.0:
            corrected = apply_feedforward(branch, pattern, plan)
            accepted.append((pattern, probability, corrected.packed_terms))
            success += probability
        else:
            rejected[pattern] = probability
            rejected_total += probability
    return settle(
        plan,
        accepted,
        (
            (lambda: _execute(plan._replace(drops=()), terms, passive, tolerance).rejected)
            if plan.drops
            else rejected
        ),
        tolerance,
        kept - success - rejected_total - dropped,
    )


def settle(
    plan: CompiledCircuit,
    accepted: list[tuple[OutcomePattern, float, dict[int, complex]]],
    rejected: dict[OutcomePattern, float] | Callable[[], dict[OutcomePattern, float]],
    tolerance: float,
    pruned: float,
) -> GateResult:
    """The result of a run of ``plan`` that accepts ``accepted``: each
    pattern, in order, with its probability (positive) and its corrected
    state, not yet normalised, as its terms, pruned with ``tolerance`` and
    packed as every state of the run is, over ``plan.index`` for
    ``plan.photons``.  Each outcome's state is built once, normalised.

    ``pruned`` is the squared norm that pruning removed during the run; more
    than 1e-9 of it raises :class:`NonPhysicalInput`.
    """
    outcomes: dict[OutcomePattern, tuple[float, PhotonState]] = {}
    success = 0.0
    for pattern, probability, terms in accepted:
        factor = 1.0 / math.sqrt(probability)
        state = PhotonState.scaled_packed(terms, plan.index, plan.photons, tolerance, factor)
        outcomes[pattern] = (probability, state)
        success += probability
    if pruned > fock.NORM_TOLERANCE:
        raise NonPhysicalInput(
            f"amplitude tolerance {tolerance!r} prunes squared norm {pruned!r} during the run"
        )
    return GateResult(
        outcomes=outcomes,
        rejected=rejected,
        success_probability=success,
        failure_probability=1.0 - success,
    )
