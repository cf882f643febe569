"""Gate-level behavior: success probabilities, truth tables, fidelities."""

import importlib
import math
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pbsgates
from pbsgates import circuit, cli, gates
from pbsgates.errors import NonNormalized
from pbsgates.gates import QubitState, TwoQubitState, fidelity

from conftest import (
    bell_phi_plus,
    chi_state,
    ideal_cnot,
    qubit_state,
    random_qubit,
    random_two_qubit,
    scaled,
    two_qubit_input,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)

H = QubitState(1.0, 0.0)
V = QubitState(0.0, 1.0)

BASIS_2Q = {
    "HH": TwoQubitState(1.0, 0.0, 0.0, 0.0),
    "HV": TwoQubitState(0.0, 1.0, 0.0, 0.0),
    "VH": TwoQubitState(0.0, 0.0, 1.0, 0.0),
    "VV": TwoQubitState(0.0, 0.0, 0.0, 1.0),
}


def test_state_validation():
    with pytest.raises(NonNormalized):
        QubitState(1.0, 1.0)
    with pytest.raises(NonNormalized):
        TwoQubitState(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(NonNormalized):
        fidelity(scaled(qubit_state("m", 0.6, 0.8), 2.0), qubit_state("m", 1.0, 0.0))


def test_states_with_an_amplitude_too_large_to_square_are_not_normalized():
    with pytest.raises(NonNormalized, match="inf"):
        QubitState(1e200, 0.0)
    with pytest.raises(NonNormalized, match="inf"):
        TwoQubitState(0.6, 0.0, 0.0, complex(1e300, 1e300))


def test_states_with_a_nan_amplitude_are_not_normalized():
    for amplitudes in ((math.nan, 0.0), (1.0, complex(0.0, math.nan))):
        with pytest.raises(NonNormalized, match="nan"):
            QubitState(*amplitudes)
    with pytest.raises(NonNormalized, match="nan"):
        TwoQubitState(math.nan, 0.0, 0.0, 0.0)


def test_fidelity_basic_values():
    h = qubit_state("m", 1.0, 0.0)
    v = qubit_state("m", 0.0, 1.0)
    assert abs(fidelity(h, h) - 1.0) < 1e-12
    assert abs(fidelity(h, v)) < 1e-12
    assert abs(fidelity(scaled(h, 1j), h) - 1.0) < 1e-12  # global phase invariant


def test_ideal_cnot_truth_table_and_involution():
    assert ideal_cnot(BASIS_2Q["HH"]) == BASIS_2Q["HH"]
    assert ideal_cnot(BASIS_2Q["VH"]) == BASIS_2Q["VV"]
    assert ideal_cnot(BASIS_2Q["VV"]) == BASIS_2Q["VH"]
    state = TwoQubitState(0.5, 0.5, 0.5, 0.5)
    assert ideal_cnot(ideal_cnot(state)) == state


def test_parity_check_success_and_fidelity(rng):
    for _ in range(100):
        q = random_qubit(rng)
        report = gates.parity_check(q)
        assert abs(report.success_probability - 0.5) < 1e-12
        assert all(abs(f - 1.0) < 1e-12 for f in report.fidelities.values())
        passive = gates.parity_check(q, passive=True)
        assert abs(passive.success_probability - 0.25) < 1e-12


def test_destructive_cnot_truth_table():
    for target_name, target in (("H", H), ("V", V)):
        for control_name, control in (("H", H), ("V", V)):
            report = gates.destructive_cnot(target, control)
            assert abs(report.success_probability - 0.5) < 1e-12
            assert all(abs(f - 1.0) < 1e-12 for f in report.fidelities.values()), (
                target_name,
                control_name,
            )


def test_destructive_cnot_flip_targets(rng):
    for _ in range(50):
        t = random_qubit(rng)
        flipped = gates.destructive_cnot(t, V)
        swap = qubit_state("3", t.beta, t.alpha)
        for _, out in flipped.result.outcomes.values():
            assert abs(fidelity(out, swap) - 1.0) < 1e-12
        kept = gates.destructive_cnot(t, H)
        same = qubit_state("3", t.alpha, t.beta)
        for _, out in kept.result.outcomes.values():
            assert abs(fidelity(out, same) - 1.0) < 1e-12
        assert abs(flipped.success_probability - 0.5) < 1e-12
        assert abs(
            gates.destructive_cnot(t, V, passive=True).success_probability - 0.25
        ) < 1e-12


def test_destructive_cnot_superposed_control_runs():
    control = QubitState(SQRT_HALF, SQRT_HALF)
    report = gates.destructive_cnot(H, control)
    assert report.target is None
    assert not report.fidelities
    total = report.success_probability + sum(report.result.rejected.values())
    assert abs(total - 1.0) < 1e-12


def test_encoder_output(rng):
    for _ in range(50):
        q = random_qubit(rng)
        report = gates.encoder(q)
        assert abs(report.success_probability - 0.5) < 1e-12
        assert all(abs(f - 1.0) < 1e-12 for f in report.fidelities.values())


def test_encoder_plus_input_gives_bell():
    report = gates.encoder(QubitState(SQRT_HALF, SQRT_HALF))
    _, state = next(iter(report.result.outcomes.values()))
    assert abs(fidelity(state, bell_phi_plus("2", "b")) - 1.0) < 1e-12


def test_cnot_basis_inputs():
    for name, state in BASIS_2Q.items():
        report = gates.cnot(state)
        assert abs(report.success_probability - 0.25) < 1e-12, name
        assert len(report.result.outcomes) == 4
        for probability, _ in report.result.outcomes.values():
            assert abs(probability - 1 / 16) < 1e-12
        assert all(abs(f - 1.0) < 1e-12 for f in report.fidelities.values()), name


def test_cnot_superpositions(rng):
    for _ in range(25):
        state = random_two_qubit(rng)
        report = gates.cnot(state)
        assert abs(report.success_probability - 0.25) < 1e-12
        target = two_qubit_input("2", "3", ideal_cnot(state))
        for pattern, (_, out) in report.result.outcomes.items():
            assert abs(fidelity(out, target) - 1.0) < 1e-12
        assert abs(
            gates.cnot(state, passive=True).success_probability - 1 / 16
        ) < 1e-12


def test_gc_cnot_sixteen_uniform_branches(rng):
    for _ in range(5):
        state = random_two_qubit(rng)
        report = gates.gc_cnot(state)
        assert abs(report.success_probability - 0.25) < 1e-12
        assert len(report.result.outcomes) == 16
        for probability, _ in report.result.outcomes.values():
            assert abs(probability - 1 / 64) < 1e-12
        assert all(abs(f - 1.0) < 1e-12 for f in report.fidelities.values())


def test_gc_cnot_passive():
    state = TwoQubitState(0.5, 0.5, 0.5, 0.5)
    report = gates.gc_cnot(state, passive=True)
    assert abs(report.success_probability - 1 / 64) < 1e-12
    assert len(report.result.outcomes) == 1


def test_chi_via_cnot_reproduces_chi():
    report = gates.chi_via_cnot()
    assert abs(report.success_probability - 0.25) < 1e-12
    target = chi_state("1", "2", "3", "4")
    for _, state in report.result.outcomes.values():
        assert abs(fidelity(state, target) - 1.0) < 1e-12


def test_cnot_equals_gc_cnot_branchwise(rng):
    # Two very different constructions of the same logical gate must agree
    # on every accepted branch's conditional output.
    for _ in range(5):
        state = random_two_qubit(rng)
        a = gates.cnot(state)
        b = gates.gc_cnot(state)
        outs_a = [st for _, st in a.result.outcomes.values()]
        outs_b = [st for _, st in b.result.outcomes.values()]
        for x in outs_a:
            for y in outs_b:
                assert abs(fidelity(x, y) - 1.0) < 1e-12


#: One call per gate for the README table, with feed-forward or passive.
TABLE_CALLS = {
    "parity_check": lambda passive: gates.parity_check(QubitState(0.6, 0.8), passive),
    "destructive_cnot": lambda passive: gates.destructive_cnot(QubitState(0.6, 0.8), V, passive),
    "encoder": lambda passive: gates.encoder(QubitState(0.6, 0.8), passive),
    "cnot": lambda passive: gates.cnot(BASIS_2Q["VH"], passive),
    "gc_cnot": lambda passive: gates.gc_cnot(BASIS_2Q["VH"], passive),
    "chi_via_cnot": lambda passive: gates.chi_via_cnot(passive),
}


def readme_gate_table():
    """Gate name -> (feed-forward, passive) success cells of the README table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            rows[cells[0].strip("`")] = (cells[2], cells[3])
    return rows


def test_every_gate_table_names_the_built_in_gates():
    # perfbench's gate_sweep draws its block mix in this order.
    order = ("parity_check", "destructive_cnot", "encoder", "cnot", "gc_cnot", "chi_via_cnot")
    assert gates.GATE_NAMES == tuple(gates._GATES) == order
    assert all(entry[0] in circuit.INPUT_FORMS for entry in gates._GATES.values())
    assert sorted(cli._GATE_OPTIONS) == sorted(gates.GATE_NAMES)
    assert all(callable(getattr(gates, name)) for name in gates.GATE_NAMES)


#: A backticked dotted name in README, with the arguments of a call, if any,
#: left out: ``circuit.settle`` or ``circuit.validate(spec)``.
README_NAME = re.compile(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\([^`]*\))?`")


def test_every_dotted_pbsgates_name_in_the_readme_resolves():
    # A name resolves from its first part: the package, one of its modules
    # or a class that one defines.  Other names, such as ``report.spec``,
    # are instances' attributes, not the package's.
    modules = {
        info.name: importlib.import_module(f"pbsgates.{info.name}")
        for info in pkgutil.iter_modules(pbsgates.__path__)
    }
    roots = {"pbsgates": pbsgates, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                roots[name] = value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = [name for name in README_NAME.findall(readme) if name.split(".")[0] in roots]
    unresolved = []
    for name in names:
        first, *rest = name.split(".")
        value = roots[first]
        for attr in rest:
            value = getattr(value, attr, None)
        if value is None:
            unresolved.append(name)
    assert len(names) > 20 and unresolved == []


def test_readme_gate_table_matches_the_gates():
    table = readme_gate_table()
    assert sorted(table) == sorted(gates.GATE_NAMES)
    for name, cells in table.items():
        for passive, cell in zip((False, True), cells):
            success = TABLE_CALLS[name](passive).success_probability
            assert abs(success - float(Fraction(cell))) < 1e-12, (name, passive, cell)
