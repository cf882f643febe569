"""Gate calls answered from cached per-pattern responses: they agree with the
engine, run no engine once warm, and keep the engine's refusals."""

import itertools
import math

import numpy as np
import pytest

from pbsgates import circuit, dsl, gates
from pbsgates.circuit import execute
from pbsgates.errors import MissingOutput, ModeCollision, NonNormalized, NonPhysicalInput
from pbsgates.gates import GATE_NAMES, QubitState, TwoQubitState, fidelity

from conftest import accepted_bits, random_qubit, random_two_qubit

H = QubitState(1.0, 0.0)
V = QubitState(0.0, 1.0)


def draw_args(name, rng, i):
    """Arguments for call ``i`` of gate ``name``: random qubits or two-qubit
    states; destructive_cnot alternates H, V and random controls."""
    if name in ("parity_check", "encoder"):
        return (random_qubit(rng),)
    if name == "destructive_cnot":
        return (random_qubit(rng), (H, V, random_qubit(rng))[i % 3])
    if name in ("cnot", "gc_cnot"):
        return (random_two_qubit(rng),)
    return ()


def bound_amplitudes(args):
    """The amplitudes that a gate called with ``args`` binds."""
    return tuple(tuple(a) if isinstance(a, TwoQubitState) else (a.alpha, a.beta) for a in args)


def assert_agrees_with_the_engine(report, passive, tolerance):
    engine = execute(report.spec, passive, tolerance)
    assert list(report.result.outcomes) == list(engine.outcomes)
    assert abs(report.success_probability - engine.success_probability) <= 1e-14
    assert abs(report.result.failure_probability - engine.failure_probability) <= 1e-14
    for pattern, (probability, state) in engine.outcomes.items():
        p, ours = report.result.outcomes[pattern]
        assert abs(p - probability) <= 1e-14
        assert ours.tolerance == state.tolerance
        for basis in set(ours.terms) | set(state.terms):
            assert abs(ours.amplitude(basis) - state.amplitude(basis)) <= 1e-14
        # A call scores its outputs without checking their norms: they must be
        # normalised, and each fidelity must be the one gates.fidelity gives.
        assert abs(ours.norm_sq() - 1.0) <= 1e-12
        if report.target is not None:
            assert abs(report.fidelities[pattern] - fidelity(state, report.target)) <= 1e-14
            assert report.fidelities[pattern] == fidelity(ours, report.target)
    assert bool(report.fidelities) == (report.target is not None)


@pytest.mark.parametrize("tolerance", [1e-12, 0.0, 1e-10])
@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("name", GATE_NAMES)
def test_gate_calls_agree_with_the_engine(name, passive, tolerance):
    rng = np.random.default_rng(list(map(ord, name)))
    calls = 1 if name == "chi_via_cnot" else 50
    for i in range(calls):
        report = getattr(gates, name)(*draw_args(name, rng, i), passive, tolerance)
        assert_agrees_with_the_engine(report, passive, tolerance)


#: Inputs that each have a term below 1e-10, which the engine prunes before
#: the run.  destructive_cnot's four columns meet on two outputs, so a pruned
#: column that still counted would move the H,H column's output by about 4e-11.
SMALL = 9e-6
TINY_TERMS = {
    "parity_check": (QubitState(math.sqrt(1 - 1e-20), 1e-10),),
    "destructive_cnot": (QubitState(math.sqrt(1 - SMALL**2), SMALL),) * 2,
    "encoder": (QubitState(math.sqrt(1 - 1e-20), 1e-10),),
    "cnot": (TwoQubitState(math.sqrt(1 - 2 * SMALL**2 - 1e-20), SMALL, SMALL, 1e-10),),
    "gc_cnot": (TwoQubitState(math.sqrt(1 - 2 * SMALL**2 - 1e-20), SMALL, SMALL, 1e-10),),
}


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("name", sorted(TINY_TERMS))
def test_a_column_pruned_from_the_input_adds_nothing(name, passive):
    report = getattr(gates, name)(*TINY_TERMS[name], passive, tolerance=1e-10)
    declared = circuit.build_input_state(report.spec)
    assert len(declared.with_tolerance(1e-10).terms) < len(declared.terms)
    assert_agrees_with_the_engine(report, passive, 1e-10)


def test_warm_calls_run_no_engine(monkeypatch):
    runs = []
    builds = []
    original_run, original_execute = circuit._execute, gates.execute

    def counted(calls, original):
        return lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)

    monkeypatch.setattr(circuit, "_execute", counted(runs, original_run))
    monkeypatch.setattr(gates, "execute", counted(builds, original_execute))
    gates._responses.cache_clear()
    gates.cnot(TwoQubitState(0.5, 0.5, 0.5, 0.5))
    # One engine run per column of the table that the first call built.
    assert len(builds) == len(runs) == 4
    for name in GATE_NAMES:
        for passive in (False, True):
            getattr(gates, name)(*draw_args(name, np.random.default_rng(1), 0), passive)
    runs.clear()
    builds.clear()
    rng = np.random.default_rng(50)
    calls = itertools.cycle(itertools.product(GATE_NAMES, (False, True)))
    for i, (name, passive) in enumerate(itertools.islice(calls, 50)):
        getattr(gates, name)(*draw_args(name, rng, i), passive)
    assert runs == [] and builds == []


def test_a_warm_call_builds_its_spec_only_when_it_is_read(monkeypatch):
    rng = np.random.default_rng(21)
    calls = [
        (name, passive, draw_args(name, rng, i))
        for i, (name, passive) in enumerate(itertools.product(GATE_NAMES, (False, True)))
    ]
    for name, passive, args in calls:
        getattr(gates, name)(*args, passive)
    builds = []
    original = gates._bound_spec
    monkeypatch.setattr(gates, "_bound_spec", lambda *args: builds.append(args) or original(*args))
    reports = [getattr(gates, name)(*args, passive) for name, passive, args in calls]
    assert builds == []
    for report, (name, passive, args) in zip(reports, calls):
        builds.clear()
        spec = report.spec
        assert report.spec is spec
        assert len(builds) == 1
        assert spec == original(name, bound_amplitudes(args))
        assert report.result.rejected == execute(spec, passive).rejected


def test_a_target_that_the_tolerance_denormalises_is_refused():
    # The tolerance prunes the target's 1e-4 term, 1e-8 of its squared norm.
    target = (math.sqrt(1 - 1e-8), 1e-4)
    with pytest.raises(NonNormalized, match="second state squared norm"):
        gates._report("parity_check", ((1.0, 0.0),), target, False, 1e-3)


def report_bits(report):
    """A gate report's accepted outcomes, fidelities and target, bit for bit."""
    target = None if report.target is None else report.target.sorted_terms()
    return accepted_bits(report.result) + repr((sorted(report.fidelities.items()), target))


def test_warm_calls_build_no_plan_input_or_target(monkeypatch):
    rng = np.random.default_rng(19)
    calls = [
        (name, passive, draw_args(name, rng, i))
        for i, (name, passive) in enumerate(itertools.product(GATE_NAMES, (False, True)))
    ]
    for name, passive, args in calls:
        getattr(gates, name)(*args, passive)
    before = [report_bits(getattr(gates, name)(*args, passive)) for name, passive, args in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm gate call rebuilt what its table holds")

    for attr in ("compile", "build_input_state", "declared_state"):
        monkeypatch.setattr(circuit, attr, refuse)
    after = [report_bits(getattr(gates, name)(*args, passive)) for name, passive, args in calls]
    assert after == before


#: Inputs that each have a term of amplitude 5e-4 (squared norm 2.5e-7), which
#: a tolerance of 1e-3 prunes from the input.
COARSE = 5e-4
PRUNED_TERMS = {
    "parity_check": (QubitState(math.sqrt(1 - COARSE**2), COARSE),),
    "destructive_cnot": (QubitState(COARSE, math.sqrt(1 - COARSE**2)), H),
    "encoder": (QubitState(COARSE, math.sqrt(1 - COARSE**2)),),
    "cnot": (TwoQubitState(0.6, COARSE, math.sqrt(0.64 - COARSE**2), 0.0),),
    "gc_cnot": (TwoQubitState(0.0, 0.8, COARSE, math.sqrt(0.36 - COARSE**2)),),
}


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("name", sorted(PRUNED_TERMS))
def test_an_input_prune_is_refused_with_the_engines_message(name, passive):
    args = PRUNED_TERMS[name]
    with pytest.raises(NonPhysicalInput) as engine:
        execute(gates._bound_spec(name, bound_amplitudes(args)), passive, 1e-3)
    with pytest.raises(NonPhysicalInput) as ours:
        getattr(gates, name)(*args, passive, tolerance=1e-3)
    assert "of the input" in str(engine.value)
    assert str(ours.value) == str(engine.value)


@pytest.mark.parametrize("passive", [False, True])
def test_a_tolerance_that_prunes_every_output_is_refused_during_the_run(passive):
    message = "tolerance 0.5 prunes squared norm .* during the run"
    with pytest.raises(NonPhysicalInput, match=message):
        gates.gc_cnot(TwoQubitState(1, 0, 0, 0), passive, tolerance=0.5)


@pytest.mark.parametrize("passive, success", [(False, 1 / 2), (True, 1 / 4)])
def test_destructive_cnot_at_a_coarse_tolerance_runs_but_its_rejected_table_refuses(
    passive, success
):
    # The engine prunes 0.01 of squared norm on its way to the outputs and
    # refuses the run; the summed outputs lose nothing at 0.1.  The complete
    # rejected table is still the engine's, so reading it refuses.
    report = gates.destructive_cnot(QubitState(0.6, 0.8), H, passive, tolerance=0.1)
    assert abs(report.success_probability - success) < 1e-12
    assert all(abs(f - 1.0) < 1e-12 for f in report.fidelities.values())
    with pytest.raises(NonPhysicalInput, match=r"prunes squared norm 0\.0100.* during the run"):
        report.result.rejected


def test_input_checks_are_the_engines():
    # Two qubits that each pass their own check, but not their product.
    almost = QubitState(1.0 + 4e-10, 0.0)
    spec = gates._bound_spec("destructive_cnot", ((almost.alpha, 0.0),) * 2)
    with pytest.raises(NonPhysicalInput) as engine:
        execute(spec)
    with pytest.raises(NonPhysicalInput) as ours:
        gates.destructive_cnot(almost, almost)
    assert str(ours.value) == str(engine.value)
    with pytest.raises(NonPhysicalInput, match="prunes squared norm .* of the input"):
        gates.parity_check(QubitState(0.6, 0.8), tolerance=0.7)


#: Circuits whose V column is refused: bound on the modes of destructive_cnot
#: (``3'`` and ``b``), with the refusal that a V photon on ``3'`` meets.
REFUSING = {
    ModeCollision: """
        mode 3'
        mode m
        mode b
        mode y
        input qubit 3' 1 0 0 0
        input qubit b 1 0 0 0
        pbs hv 3' m 3' m
        pbs hv b y m y
        detect hv 3' as x
        output m y
    """,
    MissingOutput: """
        mode 3'
        mode b
        mode s
        input qubit 3' 1 0 0 0
        input qubit b 1 0 0 0
        pbs hv 3' s 3' s
        detect hv 3' as x
        output b
    """,
}


@pytest.fixture
def fresh_tables():
    gates._responses.cache_clear()
    yield
    gates._responses.cache_clear()


@pytest.mark.parametrize("error", sorted(REFUSING, key=lambda e: e.__name__))
def test_a_refused_column_refuses_every_call_that_reaches_it(error, monkeypatch, fresh_tables):
    spec = dsl.parse_circuit(REFUSING[error])
    monkeypatch.setattr(gates, "_shipped_spec", lambda name: spec)
    table = gates._responses("destructive_cnot", False)
    assert sorted(table.failures) == [2, 3]  # the columns with V on 3'
    report = gates.destructive_cnot(H, QubitState(0.6, 0.8))
    assert abs(report.success_probability - 1.0) < 1e-12
    assert_agrees_with_the_engine(report, False, 1e-12)
    for _ in range(2):
        with pytest.raises(error) as ours:
            gates.destructive_cnot(QubitState(0.6, 0.8), H)
    with pytest.raises(error) as engine:
        execute(gates._bound_spec("destructive_cnot", ((0.6, 0.8), (1.0, 0.0))))
    assert str(ours.value) == str(engine.value)
