"""Dropping terms that can no longer be accepted: the drop changes no
accepted bit and no refusal, and ``rejected`` stays the complete table."""

import contextlib
import io
import math
import random

import pytest

from pbsgates import circuit, cli, gates
from pbsgates.circuit import (
    CircuitSpec,
    DetectorSpec,
    FeedForwardRule,
    InputDecl,
    compile,
    execute,
    final_modes,
)
from pbsgates.errors import MissingOutput, ModeCollision, NonPhysicalInput
from pbsgates.fock import DEFAULT_TOLERANCE, POL_H, POL_V
from pbsgates.gates import GATE_NAMES, QubitState, TwoQubitState
from pbsgates.optics import (
    BASIS_FS,
    BASIS_HV,
    PbsElement,
    PolPhaseElement,
    RotatorElement,
)

from conftest import accepted_bits, circuit_path, passive_bits

GATE_CALLS = {
    "parity_check": lambda passive: gates.parity_check(QubitState(0.6, 0.8j), passive),
    "destructive_cnot": lambda passive: gates.destructive_cnot(
        QubitState(0.6, 0.8), QubitState(0.8, 0.6j), passive
    ),
    "encoder": lambda passive: gates.encoder(QubitState(0.8, -0.6), passive),
    "cnot": lambda passive: gates.cnot(TwoQubitState(0.5, 0.5j, -0.5, 0.5), passive),
    "gc_cnot": lambda passive: gates.gc_cnot(TwoQubitState(0.5, -0.5, 0.5j, 0.5), passive),
    "chi_via_cnot": lambda passive: gates.chi_via_cnot(passive),
}

#: Photons of each input kind.
PHOTONS = {"qubit": 1, "state": 2, "bell": 2, "chi": 4}


def drop_off(spec, passive, tolerance=DEFAULT_TOLERANCE):
    """The run that keeps every term to the end."""
    return circuit._execute(spec, compile(spec), passive, tolerance, drop=False)


def random_amplitudes(rng, n):
    values = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(v) ** 2 for v in values))
    return tuple(v / norm for v in values)


def random_spec(rng: random.Random) -> CircuitSpec:
    """A valid spec on 3-7 modes with 1-4 photons and 1-5 elements.

    PBS outputs mostly land on the PBS's own inputs, and otherwise on any
    mode; outputs are all undetected modes, or now and then only some of
    them.  So most specs run, and some raise ``ModeCollision`` or
    ``MissingOutput``.
    """
    modes = tuple(f"m{i}" for i in range(rng.randint(3, 7)))
    free = list(modes)
    rng.shuffle(free)
    inputs = []
    photons = rng.randint(1, min(4, len(modes)))
    while photons:
        kind = rng.choice([k for k, n in PHOTONS.items() if n <= photons])
        taken = tuple(free.pop() for _ in range(PHOTONS[kind]))
        amplitudes = {"qubit": 2, "state": 4}.get(kind, 0)
        inputs.append(InputDecl(kind, taken, random_amplitudes(rng, amplitudes)))
        photons -= PHOTONS[kind]
    elements = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.6:
            in1, in2 = rng.sample(modes, 2)
            outs = (in1, in2) if rng.random() < 0.5 else (in2, in1)
            if rng.random() < 0.3:
                outs = tuple(rng.sample(modes, 2))
            elements.append(PbsElement(in1, in2, *outs, rng.choice((BASIS_HV, BASIS_FS))))
        elif roll < 0.8:
            elements.append(RotatorElement(rng.choice(modes), rng.uniform(-180, 180)))
        else:
            pol = rng.choice((POL_H, POL_V))
            elements.append(PolPhaseElement(rng.choice(modes), pol, rng.uniform(-180, 180)))
    detected = rng.sample(modes, rng.randint(1, len(modes) - 1))
    detectors = tuple(
        DetectorSpec(mode, rng.choice((BASIS_HV, BASIS_FS)), f"d{mode}") for mode in detected
    )
    outputs = [mode for mode in modes if mode not in detected]
    if rng.random() < 0.2:
        outputs = rng.sample(outputs, rng.randint(1, len(outputs)))
    rules = tuple(
        FeedForwardRule(
            det.label,
            det.reflected_pol,
            (
                rng.choice(
                    (
                        RotatorElement(rng.choice(outputs), 90.0),
                        PolPhaseElement(rng.choice(outputs), POL_H, 180.0),
                    )
                ),
            ),
        )
        for det in detectors
        if rng.random() < 0.5
    )
    return CircuitSpec(modes, tuple(inputs), tuple(elements), detectors, rules, tuple(outputs))


def outcome(run):
    """``run()``'s result, or the class and message of the error it raised."""
    try:
        return run()
    except (ModeCollision, MissingOutput, NonPhysicalInput) as exc:
        return type(exc), str(exc)


RANDOM_SPECS = [random_spec(random.Random(f"drop:{seed}")) for seed in range(200)]


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("name", GATE_NAMES)
def test_drop_keeps_accepted_bits_on_shipped_gates(name, passive):
    # The gate call answers from its response table; the engine runs the
    # spec that the call bound.
    report = GATE_CALLS[name](passive)
    spec = report.spec
    assert compile(spec).drops, "every shipped gate drops terms"
    result = execute(spec, passive)
    reference = drop_off(spec, passive)
    assert accepted_bits(result) == accepted_bits(reference)
    assert result.rejected == reference.rejected
    assert report.result.rejected == reference.rejected
    total = result.success_probability + sum(result.rejected.values())
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("passive", [False, True])
def test_drop_keeps_accepted_bits_and_refusals_on_random_specs(passive):
    ran = refused = dropping = 0
    for spec in RANDOM_SPECS:
        if final_modes(spec) is None:
            assert compile(spec).drops == ()
        dropping += bool(compile(spec).drops)
        result = outcome(lambda: execute(spec, passive))
        reference = outcome(lambda: drop_off(spec, passive))
        if isinstance(reference, tuple):
            assert result == reference
            refused += 1
            continue
        ran += 1
        assert accepted_bits(result) == accepted_bits(reference)
        assert result.rejected == reference.rejected
        total = result.success_probability + sum(result.rejected.values())
        assert abs(total - 1.0) < 1e-12
    # The sample exercises both paths, and the drop on most runs.
    assert ran > 100 and refused > 10 and dropping > 100


def transmitted_rules(spec):
    """``spec`` with each rule triggered by its detector's transmitted pol,
    so that it fires on the passive pattern."""
    pols = {det.label: det.transmitted_pol for det in spec.detectors}
    return spec._replace(rules=tuple(rule._replace(pol=pols[rule.label]) for rule in spec.rules))


PREMISE_SPECS = [random_spec(random.Random(f"passive:{seed}")) for seed in range(300)]
PREMISE_SPECS += [transmitted_rules(spec) for spec in PREMISE_SPECS if spec.rules]


def test_a_passive_run_is_the_feed_forward_run_on_the_passive_pattern():
    # A gate answers both modes from one table of feed-forward runs: a run
    # applies feed-forward to every pattern it accepts, and a passive run
    # accepts only the passive pattern, so it gives that pattern's outcome
    # bit for bit, or raises the same class.
    ran = refused = reached = 0
    for spec in PREMISE_SPECS:
        ours = outcome(lambda: execute(spec, passive=True))
        full = outcome(lambda: execute(spec))
        if isinstance(full, tuple):
            assert isinstance(ours, tuple) and ours[0] is full[0], (spec, ours, full)
            refused += 1
            continue
        ran += 1
        reached += bool(passive_bits(full))
        assert passive_bits(ours) == passive_bits(full), spec
        assert len(ours.outcomes) == len(passive_bits(ours))
    assert ran > 250 and refused > 100 and reached > 80


def test_a_pbs_onto_a_live_mode_turns_the_drop_off():
    # The V term leaves ``a`` empty, so once ``a`` is final it could be
    # dropped; but its photon on ``b`` is what the second PBS collides with.
    spec = CircuitSpec(
        modes=("a", "b", "x", "y"),
        inputs=(InputDecl("qubit", ("a",), (0.6, 0.8)), InputDecl("qubit", ("x",), (1, 0))),
        elements=(PbsElement("a", "b", "a", "b"), PbsElement("x", "y", "b", "y")),
        detectors=(DetectorSpec("a", BASIS_HV, "A"),),
        outputs=("b", "y"),
    )
    assert final_modes(spec) is None
    assert compile(spec).drops == ()
    for passive in (False, True):
        with pytest.raises(ModeCollision):
            execute(spec, passive)


def test_a_stray_photon_turns_the_drop_off():
    # The V photon ends on ``s``, neither detected nor an output, in the
    # term that leaves the detected mode ``a`` empty.
    spec = CircuitSpec(
        modes=("a", "b", "s"),
        inputs=(InputDecl("qubit", ("a",), (0.6, 0.8)),),
        elements=(PbsElement("a", "b", "a", "s"),),
        detectors=(DetectorSpec("a", BASIS_HV, "A"),),
        outputs=("b",),
    )
    assert final_modes(spec) is None
    assert compile(spec).drops == ()
    for passive in (False, True):
        with pytest.raises(MissingOutput):
            execute(spec, passive)


def test_final_modes_places_each_detected_mode_after_its_last_pbs():
    spec = gates.gc_cnot(TwoQubitState(1, 0, 0, 0)).spec
    assert final_modes(spec) == ((), ("p", "q"), ("m", "n"))
    spec = gates.parity_check(QubitState(1, 0)).spec
    assert final_modes(spec)[0] == ()
    untouched = CircuitSpec(
        modes=("a", "b"),
        inputs=(InputDecl("bell", ("a", "b")),),
        elements=(RotatorElement("a", 45.0),),
        detectors=(DetectorSpec("a", BASIS_HV, "A"),),
        outputs=("b",),
    )
    assert final_modes(untouched) == (("a",), ())


@pytest.mark.parametrize("passive, success", [(False, 1 / 4), (True, 1 / 16)])
def test_chi_via_cnot_at_a_coarse_tolerance_runs_but_its_rejected_table_refuses(
    passive, success
):
    # Without the drop, pruning at 0.1 loses 3/8 of the norm in terms that
    # are never accepted, and the run is refused.  The drop removes those
    # terms before they are pruned, so the run gives the paper's number;
    # the complete rejected table still needs the run without the drop,
    # which is refused as before.
    report = gates.chi_via_cnot(passive=passive, tolerance=0.1)
    assert abs(report.success_probability - success) < 1e-12
    for _ in range(2):
        with pytest.raises(NonPhysicalInput, match="prunes squared norm 0.375.* during the run"):
            report.result.rejected


def test_rejected_is_worked_out_only_when_read(monkeypatch, tmp_path):
    runs = []
    original = circuit._execute

    def counting(spec, plan, passive, tolerance, drop):
        runs.append(drop)
        return original(spec, plan, passive, tolerance, drop)

    monkeypatch.setattr(circuit, "_execute", counting)
    report_path = str(tmp_path / "report.json")
    for name in GATE_NAMES:
        for passive in (False, True):
            GATE_CALLS[name](passive)
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in (
            ["--gate", "cnot", "--two-qubit", "1", *["0"] * 7],
            ["--gate", "chi_via_cnot", "--passive"],
            ["--circuit", circuit_path("gc_cnot")],
        ):
            assert cli.main(["run", *argv, "--output", report_path]) == 0
    result = execute(gates.cnot(TwoQubitState(1, 0, 0, 0)).spec)
    assert runs and all(runs)

    runs.clear()
    table = result.rejected
    assert runs == [False]
    assert result.rejected is table
    assert runs == [False]
