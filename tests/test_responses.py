"""Gate calls answered from cached per-pattern responses: they agree with the
engine, run no engine once warm, keep the engine's refusals, and keep the
bits of the table arithmetic written out plainly (``reference_gate_call``)."""

import itertools
import math
import random
import re

import numpy as np
import pytest

from pbsgates import circuit, dsl, fock, gates
from pbsgates.circuit import execute
from pbsgates.errors import (
    MissingOutput,
    ModeCollision,
    NonNormalized,
    NonPhysicalInput,
    PbsGatesError,
)
from pbsgates.gates import GATE_NAMES, QubitState, TwoQubitState, fidelity

from conftest import (
    accepted_bits,
    random_qubit,
    random_two_qubit,
    reference_gate_call,
    report_call_bits,
)

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


#: Gate -> the input columns of its table: one run of the shipped circuit each.
COLUMNS = {
    "parity_check": 2,
    "destructive_cnot": 4,
    "encoder": 2,
    "cnot": 4,
    "gc_cnot": 4,
    "chi_via_cnot": 1,
}


def test_warm_calls_run_no_engine(monkeypatch):
    runs = []
    compiles = []
    original_run, original_compile = circuit._execute, circuit.compile

    def counted(calls, original):
        return lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)

    monkeypatch.setattr(circuit, "_execute", counted(runs, original_run))
    monkeypatch.setattr(circuit, "compile", counted(compiles, original_compile))
    gates._responses.cache_clear()
    rng = np.random.default_rng(1)
    for name in GATE_NAMES:
        for passive in (False, True):
            runs.clear()
            compiles.clear()
            getattr(gates, name)(*draw_args(name, rng, 0), passive)
            # The first call compiles the shipped circuit once and runs that
            # plan once per column of the table it builds.
            assert len(compiles) == 1, (name, passive)
            assert len(runs) == COLUMNS[name], (name, passive)
            assert all(run[1] is gates._responses(name, passive).plan for run in runs)
    runs.clear()
    compiles.clear()
    rng = np.random.default_rng(50)
    calls = itertools.cycle(itertools.product(GATE_NAMES, (False, True)))
    for i, (name, passive) in enumerate(itertools.islice(calls, 50)):
        getattr(gates, name)(*draw_args(name, rng, i), passive)
    assert runs == [] and compiles == []


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
def test_a_refused_column_refuses_every_call_of_its_gate(error, monkeypatch, fresh_tables):
    spec = dsl.parse_circuit(REFUSING[error])
    monkeypatch.setattr(gates, "_shipped_spec", lambda name: spec)
    # Column 2, V on 3' and H on b, is the first that the table build runs
    # and that fails.  The first call gives it zero weight, and a failed
    # build is not kept, so the second round fails again.
    column = gates._bound_spec("destructive_cnot", ((0.0, 1.0), (1.0, 0.0)))
    calls = [(H, QubitState(0.6, 0.8)), (QubitState(0.6, 0.8), H)]
    for passive in (False, True, False):
        with pytest.raises(error) as engine:
            execute(column, passive=passive, tolerance=0.0)
        for target, control in calls:
            with pytest.raises(error) as ours:
                gates.destructive_cnot(target, control, passive)
            assert str(ours.value) == str(engine.value)


UNEQUAL = """
    mode 3'
    mode b
    mode c
    input qubit 3' 1 0 0 0
    input qubit b 1 0 0 0
    input qubit c 0.6 0 0.8 0
    detect hv c as x
    output 3' b
"""


def test_an_unbound_input_of_unequal_amplitudes_refuses_every_call(monkeypatch, fresh_tables):
    spec = dsl.parse_circuit(UNEQUAL)
    monkeypatch.setattr(gates, "_shipped_spec", lambda name: spec)
    message = re.escape("destructive_cnot: the input on ('c',) has unequal amplitudes")
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            gates.destructive_cnot(H, H)


#: destructive_cnot's inputs and outputs with a detector that never fires:
#: no column accepts anything, so no output gives the table an index.
ACCEPTS_NOTHING = """
    mode 3'
    mode b
    mode x
    input qubit 3' 1 0 0 0
    input qubit b 1 0 0 0
    detect hv x as d
    output 3' b
"""


def test_outputs_not_packed_over_exactly_one_index_refuse_every_call(monkeypatch, fresh_tables):
    message = "parity_check: the columns' outputs are not packed over exactly one index"
    original = circuit._execute
    columns = []

    def widened(spec, *args, **kwargs):
        # The second of each build's two columns packs its outputs wider.
        result = original(spec, *args, **kwargs)
        columns.append(spec)
        if len(columns) % 2 == 0:
            for pattern, (p, state) in result.outcomes.items():
                result.outcomes[pattern] = (p, state.reindexed(fock.SlotIndex([("z", "H")])))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(circuit, "_execute", widened)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                gates.parity_check(H)
    spec = dsl.parse_circuit(ACCEPTS_NOTHING)
    monkeypatch.setattr(gates, "_shipped_spec", lambda name: spec)
    for passive in (False, True):
        with pytest.raises(ValueError, match=message.replace("parity_check", "destructive_cnot")):
            gates.destructive_cnot(H, H, passive)


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("name", GATE_NAMES)
def test_every_shipped_table_builds_with_its_target_over_its_own_index(name, passive):
    table = gates._responses(name, passive)
    assert table.patterns
    index, photons = table.packing
    _, target_index, target_photons = table.target
    assert target_index is index and target_photons == photons


#: Values that the bit guard puts on some components: exact and signed zeros.
ZEROS = (0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
#: Magnitudes that the bit guard gives some components: each falls below some
#: tolerance of the guard, and 1e-4 is a prune of 1e-8, which 1e-3 refuses.
SMALLS = (1e-13, 3e-11, 2e-6, 1e-4)


def draw_components(rnd, n, small=None):
    """``n`` normalised amplitudes, some of them zero, signed zero or small;
    with ``small``, the first has that magnitude."""
    values = [complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(n)]
    kinds = [rnd.choice("zzsbbbb") for _ in range(n)]
    kinds[rnd.randrange(1 if small else 0, n)] = "b"
    if small:
        kinds[0] = "s"
    pruned = 0.0
    for i, kind in enumerate(kinds):
        if kind == "z":
            values[i] = rnd.choice(ZEROS)
        elif kind == "s":
            values[i] *= (small if small and i == 0 else rnd.choice(SMALLS)) / abs(values[i])
            pruned += abs(values[i]) ** 2
    big = math.sqrt(sum(abs(v) ** 2 for v, kind in zip(values, kinds) if kind == "b"))
    scale = math.sqrt(1.0 - pruned) / big
    return [v * scale if kind == "b" else v for v, kind in zip(values, kinds)]


def draw_guard_args(name, rnd, small=None):
    """Arguments for a gate call of the bit guard, as :func:`draw_args`, with
    zeros and small components (the first one of magnitude ``small``, if
    given); destructive_cnot's control is often H or V up to a phase, so
    that it has a target."""
    if name in ("parity_check", "encoder"):
        return (QubitState(*draw_components(rnd, 2, small)),)
    if name == "destructive_cnot":
        phase = rnd.choice((1.0, -1.0, 1j, complex(0.6, 0.8)))
        zero = rnd.choice(ZEROS)
        control = rnd.choice(
            (QubitState(phase, zero), QubitState(zero, phase), QubitState(*draw_components(rnd, 2)))
        )
        return (QubitState(*draw_components(rnd, 2, small)), control)
    if name in ("cnot", "gc_cnot"):
        return (TwoQubitState(*draw_components(rnd, 4, small)),)
    return ()


def ideal_target(name, args):
    """The fidelity target that gate ``name`` called with ``args`` scores against."""
    if name == "destructive_cnot":
        target, control = args
        if abs(abs(control.alpha) - 1.0) <= 1e-12:
            return (target.alpha, target.beta)
        if abs(abs(control.beta) - 1.0) <= 1e-12:
            return (target.beta, target.alpha)
        return None
    if name in ("parity_check", "encoder"):
        (q,) = args
        return (q.alpha, q.beta) if name == "parity_check" else (q.alpha, 0, 0, q.beta)
    if name in ("cnot", "gc_cnot"):
        return tuple(gates.ideal_cnot(args[0]))
    return ()


def outcome_of(call):
    """What ``call()`` gives, or the class and message of what it raises."""
    try:
        return call()
    except PbsGatesError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tolerance", [0.0, 1e-12, 1e-10, 1e-3])
@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("name", GATE_NAMES)
def test_warm_calls_keep_the_bits_of_the_plain_table_arithmetic(name, passive, tolerance):
    rnd = random.Random(f"{name} {passive} {tolerance}")
    calls = 2 if name == "chi_via_cnot" else 16
    refused = 0
    for i in range(calls):
        # The first call has a component of 1e-4, which 1e-3 prunes and refuses.
        args = draw_guard_args(name, rnd, 1e-4 if i == 0 else None)
        amplitudes = bound_amplitudes(args)
        expected = outcome_of(
            lambda: reference_gate_call(
                name, amplitudes, ideal_target(name, args), passive, tolerance
            )
        )
        ours = outcome_of(
            lambda: report_call_bits(getattr(gates, name)(*args, passive, tolerance))
        )
        assert ours == expected
        refused += isinstance(expected[0], type)
    assert (refused > 0) == (tolerance == 1e-3 and name != "chi_via_cnot")


#: Calls that the table path refuses: ``(name, amplitudes, target, tolerance)``.
REFUSED_CALLS = [
    ("destructive_cnot", ((1.0 + 4e-10, 0.0),) * 2, None, 0.0),  # the input's norm
    ("parity_check", ((0.6, 0.8),), (0.6, 0.8), 0.7),  # a prune of the input
    ("gc_cnot", ((1.0, 0.0, 0.0, 0.0),), (1.0, 0.0, 0.0, 0.0), 0.5),  # a prune in the run
    ("parity_check", ((1.0, 0.0),), (math.sqrt(1 - 1e-8), 1e-4), 1e-3),  # the target's norm
    ("encoder", ((0.6, 0.8),), (0.6, 0.0, 0.0, 0.7), 0.0),  # the target's norm
]


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("call", REFUSED_CALLS, ids=lambda call: call[0])
def test_a_refused_call_raises_what_the_plain_table_arithmetic_raises(call, passive):
    name, amplitudes, target, tolerance = call
    expected = outcome_of(
        lambda: reference_gate_call(name, amplitudes, target, passive, tolerance)
    )
    ours = outcome_of(
        lambda: report_call_bits(gates._report(name, amplitudes, target, passive, tolerance))
    )
    assert isinstance(expected[0], type)
    assert ours == expected


def test_a_warm_call_builds_one_state_per_accepted_outcome_and_one_target(monkeypatch):
    rnd = random.Random(22)
    calls = [
        (name, passive, draw_guard_args(name, rnd))
        for name, passive in itertools.product(GATE_NAMES, (False, True))
        for _ in range(5)
    ]
    for name, passive, args in calls:
        getattr(gates, name)(*args, passive)
    builds = []
    original = fock.PhotonState._unpruned.__func__

    def counted(cls, *args):
        builds.append(args)
        return original(cls, *args)

    monkeypatch.setattr(fock.PhotonState, "_unpruned", classmethod(counted))
    for name, passive, args in calls:
        builds.clear()
        report = getattr(gates, name)(*args, passive)
        assert len(builds) == len(report.result.outcomes) + (report.target is not None)


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("tolerance", [-1e-300, -1e-12, -1.0, -math.inf])
def test_a_negative_tolerance_is_refused_by_the_engine_and_by_a_gate_call(tolerance, passive):
    # A negative tolerance would prune nothing, not even the exact zeros that
    # every other tolerance drops.
    state = TwoQubitState(1, 0, 0, 0)
    spec = gates.cnot(state).spec
    message = re.escape(f"amplitude tolerance {tolerance!r} is negative")
    with pytest.raises(ValueError, match=message):
        execute(spec, passive, tolerance)
    with pytest.raises(ValueError, match=message):
        gates.cnot(state, passive, tolerance)


def test_tolerance_negative_zero_prunes_as_zero_and_nan_or_one_is_refused():
    state = TwoQubitState(1, 0, 0, 0)
    spec = gates.cnot(state).spec
    runs = (lambda t: execute(spec, tolerance=t), lambda t: gates.cnot(state, tolerance=t).result)
    for run in runs:
        zero, negative = run(0.0), run(-0.0)
        for result in (zero, negative):
            assert sum(s.num_terms() for _, s in result.outcomes.values()) == 6
            assert len(result.rejected) == 11
        assert [
            (pattern, probability, state.sorted_terms())
            for pattern, (probability, state) in negative.outcomes.items()
        ] == [
            (pattern, probability, state.sorted_terms())
            for pattern, (probability, state) in zero.outcomes.items()
        ]
        with pytest.raises(ValueError, match="amplitude tolerance nan is negative or nan"):
            run(math.nan)
        with pytest.raises(NonPhysicalInput, match="of the input"):
            run(1.0)


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("name", GATE_NAMES)
def test_gate_calls_agree_with_the_engine_at_random_tolerances(name, passive):
    rnd = random.Random(f"tolerances {name} {passive}")
    rng = np.random.default_rng(list(map(ord, name)) + [passive])
    draws = 2 if name == "chi_via_cnot" else 11
    tolerances = [0.0] + [10 ** rnd.uniform(-16, -10) for _ in range(draws)]
    for i, tolerance in enumerate(tolerances):
        report = getattr(gates, name)(*draw_args(name, rng, i), passive, tolerance)
        assert_agrees_with_the_engine(report, passive, tolerance)
