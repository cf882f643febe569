"""Circuit-model tests: enumeration, post-selection, feed-forward."""

import math

import pytest

from pbsgates import circuit, dsl, fock, optics
from pbsgates.circuit import (
    CircuitSpec,
    DetectorSpec,
    FeedForwardRule,
    InputDecl,
    apply_feedforward,
    build_input_state,
    enumerate_outcomes,
    execute,
    is_1ao1,
    is_passive,
    pattern_name,
)
from pbsgates.errors import CircuitSyntaxError, NonPhysicalInput
from pbsgates.fock import POL_F, POL_H, POL_S, POL_V, BasisState, PhotonState
from pbsgates.gates import GATE_NAMES, QubitState, parity_check
from pbsgates.optics import BASIS_FS, BASIS_HV, PbsElement, PolPhaseElement, RotatorElement

from conftest import circuit_path, random_qubit, random_state, states_close


def test_pattern_predicates():
    assert is_1ao1(((1, 0), (0, 1)))
    assert not is_1ao1(((2, 0), (0, 1)))
    assert not is_1ao1(((0, 0),))
    assert is_passive(((1, 0), (1, 0)))
    assert not is_passive(((0, 1),))


def test_pattern_name_formats():
    dets = (DetectorSpec("c", BASIS_FS, "c"), DetectorSpec("d", BASIS_HV, "d"))
    assert pattern_name(((1, 0), (0, 1)), dets) == "F_c V_d"
    assert pattern_name(((2, 0), (1, 0)), dets) == "c[2F,0S] H_d"
    assert pattern_name((), ()) == "-"


def test_build_input_state_combines_declarations():
    spec = CircuitSpec(
        modes=("m", "a", "b"),
        inputs=(
            InputDecl("qubit", ("m",), (0.6, 0.8)),
            InputDecl("bell", ("a", "b")),
        ),
        elements=(),
        detectors=(),
        outputs=("m",),
    )
    state = build_input_state(spec)
    assert abs(state.norm_sq() - 1.0) < 1e-12
    key = BasisState.from_dict({("m", POL_H): 1, ("a", POL_H): 1, ("b", POL_H): 1})
    assert abs(state.amplitude(key) - 0.6 / math.sqrt(2)) < 1e-12


def test_build_input_state_two_qubit_order():
    amps = (0.5, 0.5j, -0.5, 0.5)
    spec = CircuitSpec(
        modes=("m", "n"),
        inputs=(InputDecl("state", ("m", "n"), amps),),
        elements=(),
        detectors=(),
        outputs=("m", "n"),
    )
    state = build_input_state(spec)
    pols = ((POL_H, POL_H), (POL_H, POL_V), (POL_V, POL_H), (POL_V, POL_V))
    for amp, (pm, pn) in zip(amps, pols):
        key = BasisState.from_dict({("m", pm): 1, ("n", pn): 1})
        assert state.amplitude(key) == amp


def test_build_input_state_unknown_kind():
    spec = CircuitSpec(
        modes=("m",),
        inputs=(InputDecl("pair", ("m",)),),
        elements=(),
        detectors=(),
        outputs=("m",),
    )
    with pytest.raises(CircuitSyntaxError, match="unknown input kind 'pair'"):
        build_input_state(spec)


def test_enumerate_outcomes_partitions_norm(rng):
    detectors = (DetectorSpec("x", BASIS_HV, "x"),)
    for _ in range(200):
        st = random_state(rng)
        branches = enumerate_outcomes(st, detectors)
        total = sum(b.norm_sq() for b in branches.values())
        assert abs(total - st.norm_sq()) < 1e-9
        for branch in branches.values():
            assert "x" not in branch.modes()


def test_enumerate_outcomes_consumes_only_detected_mode():
    st = PhotonState(
        {BasisState.from_dict({("x", POL_H): 1, ("y", POL_V): 2}): 1.0}
    )
    branches = enumerate_outcomes(st, (DetectorSpec("x", BASIS_HV, "x"),))
    assert set(branches) == {((1, 0),)}
    remaining = branches[((1, 0),)]
    assert abs(remaining.amplitude(BasisState.from_dict({("y", POL_V): 2})) - 1.0) < 1e-12


def test_feedforward_applies_once_per_firing():
    spec = CircuitSpec(
        modes=("m", "c"),
        inputs=(),
        elements=(),
        detectors=(DetectorSpec("c", BASIS_HV, "c"),),
        rules=(FeedForwardRule("c", POL_V, (PolPhaseElement("m", POL_H, 180.0),)),),
        outputs=("m",),
    )
    compiled = circuit.compile(spec)

    def fire(branch, pattern):
        return apply_feedforward(branch, pattern, compiled)

    branch = PhotonState({BasisState.from_dict({("m", POL_H): 1}): 1.0})
    out = fire(branch, ((0, 1),))
    assert abs(out.amplitude(BasisState.from_dict({("m", POL_H): 1})) + 1.0) < 1e-12
    assert states_close(branch, fire(branch, ((1, 0),)))
    assert states_close(branch, fire(branch, ((0, 2),)))


def test_compile_resolves_each_rule_to_its_detector_and_side():
    # An HV and an FS detector with rules on both sides of each, S included;
    # two rules on label "fs" fire, in declared order, on an S count there.
    rotate = RotatorElement("m", 30.0)
    phase = PolPhaseElement("m", POL_H, 90.0)
    spec = CircuitSpec(
        modes=("m", "c", "d"),
        inputs=(),
        elements=(),
        detectors=(DetectorSpec("c", BASIS_HV, "hv"), DetectorSpec("d", BASIS_FS, "fs")),
        rules=(
            FeedForwardRule("fs", POL_S, (rotate,)),
            FeedForwardRule("hv", POL_V, (phase,)),
            FeedForwardRule("fs", POL_F, (phase, phase)),
            FeedForwardRule("hv", POL_H, (rotate,)),
            FeedForwardRule("fs", POL_S, (phase,)),
        ),
        outputs=("m",),
    )
    compiled = circuit.compile(spec)
    found = [
        (d, side, [m.slot_map for m in maps]) for d, side, maps in compiled.corrections
    ]
    rotated, shifted = optics.slot_map(rotate), optics.slot_map(phase)
    assert found == [
        (1, 1, [rotated]),
        (0, 1, [shifted]),
        (1, 0, [shifted, shifted]),
        (0, 0, [rotated]),
        (1, 1, [shifted]),
    ]
    branch = PhotonState({BasisState.from_dict({("m", POL_H): 1}): 1.0})
    expected = optics.apply_element(optics.apply_element(branch, rotate), phase)
    assert states_close(apply_feedforward(branch, ((0, 0), (0, 1)), compiled), expected)
    swapped = optics.apply_element(optics.apply_element(branch, phase), rotate)
    assert not states_close(expected, swapped)


@pytest.mark.parametrize("name", GATE_NAMES)
def test_every_compiled_correction_is_a_plain_slot_map(name):
    # A rule's corrections compile to slot maps alone, with no collision guard.
    with open(circuit_path(name), encoding="utf-8") as handle:
        compiled = circuit.compile(dsl.parse_circuit(handle.read()))
    for _, _, maps in compiled.corrections:
        assert maps and all(type(m) is fock.IndexedMap for m in maps)


@pytest.mark.parametrize("name", GATE_NAMES)
def test_each_fs_rebase_is_an_unguarded_element_step_after_the_spec_elements(name):
    # The plan keeps one list of maps before the count: the spec's elements,
    # then each FS detector's rebase in detector order, with no guard.
    with open(circuit_path(name), encoding="utf-8") as handle:
        spec = dsl.parse_circuit(handle.read())
    compiled = circuit.compile(spec)
    assert "rebases" not in circuit.CompiledCircuit._fields
    fs_modes = [det.mode for det in spec.detectors if det.basis == BASIS_FS]
    steps = len(spec.elements)
    assert [m.slot_map for _, m in compiled.elements[:steps]] == [
        optics.slot_map(el) for el in spec.elements
    ]
    assert [(guard, m.slot_map) for guard, m in compiled.elements[steps:]] == [
        ((), fock.rebase_map(mode, fock.HV_TO_FS)) for mode in fs_modes
    ]


def test_feed_forward_makes_no_collision_check(monkeypatch):
    # Corrections are rotators and phase plates (``validate``), which write
    # only the mode they read; element steps still check their guards.
    rotate, phase = RotatorElement("m", 30.0), PolPhaseElement("m", POL_V, 90.0)
    spec = CircuitSpec(
        modes=("m", "c"),
        inputs=(),
        elements=(PbsElement("m", "c", "m", "c"),),
        detectors=(DetectorSpec("c", BASIS_HV, "c"),),
        rules=(FeedForwardRule("c", POL_V, (rotate, phase)), FeedForwardRule("c", POL_H, (phase,))),
        outputs=("m",),
    )
    compiled = circuit.compile(spec)
    checked = []
    original = optics.check_collisions

    def counted(state, modes):
        checked.append(modes)
        return original(state, modes)

    monkeypatch.setattr(optics, "check_collisions", counted)
    branch = PhotonState({BasisState.from_dict({("m", POL_H): 1}): 1.0})
    out = apply_feedforward(branch, ((1, 2),), compiled)
    assert checked == []
    # Rule order: the V rule twice (two reflected counts), then the H rule.
    expected = branch
    for el in (rotate, phase, rotate, phase, phase):
        expected = fock.transform_slots(expected, optics.slot_map(el))
    assert states_close(out, expected)
    circuit._run_steps(branch, compiled.elements)
    assert checked == [()]


def test_execute_rejects_unnormalized_input():
    spec = CircuitSpec(
        modes=("m", "n"),
        inputs=(InputDecl("state", ("m", "n"), (2.0, 0.0, 0.0, 0.0)),),
        elements=(),
        detectors=(),
        outputs=("m", "n"),
    )
    with pytest.raises(NonPhysicalInput):
        execute(spec)


def test_execute_refuses_an_amplitude_too_large_to_square():
    # abs(1e200) ** 2 overflows; the input check refuses it instead of crashing.
    spec = CircuitSpec(
        modes=("m",),
        inputs=(InputDecl("qubit", ("m",), (0.6, 1e200)),),
        elements=(),
        detectors=(),
        outputs=("m",),
    )
    with pytest.raises(NonPhysicalInput, match="input squared norm is inf"):
        execute(spec)


def test_execute_tolerance_argument_prunes():
    spec = CircuitSpec(
        modes=("m",),
        inputs=(InputDecl("qubit", ("m",), (1.0, 1e-9)),),
        elements=(),
        detectors=(),
        outputs=("m",),
    )
    v = BasisState.from_dict({("m", POL_V): 1})
    for tolerance, kept in ((fock.DEFAULT_TOLERANCE, 1e-9), (1e-6, 0.0)):
        [(_, state)] = execute(spec, tolerance=tolerance).outcomes.values()
        assert state.amplitude(v) == kept
        assert state.tolerance == tolerance


def test_probability_completeness(rng):
    for _ in range(20):
        report = parity_check(random_qubit(rng))
        result = report.result
        total = result.success_probability + sum(result.rejected.values())
        assert abs(total - 1.0) < 1e-12
        assert abs(
            result.success_probability + result.failure_probability - 1.0
        ) < 1e-12
        for probability, state in result.outcomes.values():
            assert probability > 0.0
            assert abs(state.norm_sq() - 1.0) < 1e-9


def test_passive_outcomes_are_subset(rng):
    q = random_qubit(rng)
    full = parity_check(q).result
    passive = parity_check(q, passive=True).result
    assert set(passive.outcomes) <= set(full.outcomes)
    assert passive.success_probability <= full.success_probability + 1e-12
    for pattern in passive.outcomes:
        assert is_passive(pattern)


def test_fs_detection_equals_manual_rebase():
    # Declaring an FS detector must match rebasing the mode by hand and then
    # counting in HV: the engine's rebase step is the only difference.
    q = QubitState(0.6, 0.8)
    spec_fs = parity_check(q).spec
    state = build_input_state(spec_fs)
    from pbsgates import optics

    for el in spec_fs.elements:
        state = optics.apply_element(state, el)
    manual = fock.rebase_polarization(state, "c", fock.HV_TO_FS)
    branches = enumerate_outcomes(manual, spec_fs.detectors)
    result = execute(spec_fs)
    for pattern, (probability, _) in result.outcomes.items():
        assert abs(branches[pattern].norm_sq() - probability) < 1e-12
    for pattern, probability in result.rejected.items():
        if probability > 1e-12:
            assert abs(branches[pattern].norm_sq() - probability) < 1e-12


def test_rejected_patterns_not_1ao1():
    result = parity_check(QubitState(0.6, 0.8)).result
    for pattern, probability in result.rejected.items():
        if probability > 1e-12:
            assert not is_1ao1(pattern)
