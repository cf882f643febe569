"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.  Tolerances: probabilities and fidelities within 1e-12 of
their exact rational values; engine-vs-oracle amplitudes within 1e-10.
"""

from pbsgates import dsl, fock, gates, optics
from pbsgates.errors import CircuitError
from pbsgates.gates import QubitState, TwoQubitState, fidelity
from pbsgates.optics import PolPhaseElement
from pbsgates.oracle import DenseCircuit

from conftest import (
    chi_state,
    ideal_cnot,
    qubit_state,
    random_qubit,
    random_state,
    random_two_qubit,
    states_close,
    two_qubit_input,
)

PROB_TOL = 1e-12
FID_TOL = 1e-12
AMP_TOL = 1e-10

H = QubitState(1.0, 0.0)
V = QubitState(0.0, 1.0)


def verdict(num, description, ok):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_parity_check(rng):
    ok = True
    for _ in range(100):
        q = random_qubit(rng)
        report = gates.parity_check(q)
        ok &= abs(report.success_probability - 0.5) < PROB_TOL
        ok &= all(abs(f - 1.0) < FID_TOL for f in report.fidelities.values())
        passive = gates.parity_check(q, passive=True)
        ok &= abs(passive.success_probability - 0.25) < PROB_TOL
    verdict(
        1,
        "parity check: success 1/2 (1/4 passive), output fidelity 1, "
        "100 random qubits",
        ok,
    )


def test_criterion_2_destructive_cnot(rng):
    ok = True
    for _ in range(100):
        t = random_qubit(rng)
        flip = gates.destructive_cnot(t, V)
        keep = gates.destructive_cnot(t, H)
        ok &= abs(flip.success_probability - 0.5) < PROB_TOL
        ok &= abs(keep.success_probability - 0.5) < PROB_TOL
        ok &= abs(
            gates.destructive_cnot(t, V, passive=True).success_probability - 0.25
        ) < PROB_TOL
        swap = qubit_state("3", t.beta, t.alpha)
        same = qubit_state("3", t.alpha, t.beta)
        ok &= all(
            abs(fidelity(out, swap) - 1.0) < FID_TOL
            for _, out in flip.result.outcomes.values()
        )
        ok &= all(
            abs(fidelity(out, same) - 1.0) < FID_TOL
            for _, out in keep.result.outcomes.values()
        )
    verdict(
        2,
        "destructive CNOT: control V flips / H preserves, success 1/2 "
        "(1/4 passive), 100 random targets",
        ok,
    )


def test_criterion_3_encoder(rng):
    ok = True
    for _ in range(100):
        q = random_qubit(rng)
        report = gates.encoder(q)
        ok &= abs(report.success_probability - 0.5) < PROB_TOL
        ok &= all(abs(f - 1.0) < FID_TOL for f in report.fidelities.values())
    verdict(3, "encoder: output aHH+bVV with fidelity 1, success 1/2", ok)


def test_criterion_4_composed_cnot(rng):
    ok = True
    for _ in range(100):
        state = random_two_qubit(rng)
        report = gates.cnot(state)
        ok &= abs(report.success_probability - 0.25) < PROB_TOL
        ok &= len(report.result.outcomes) == 4
        ok &= all(
            abs(p - 1 / 16) < PROB_TOL
            for p, _ in report.result.outcomes.values()
        )
        ok &= all(abs(f - 1.0) < FID_TOL for f in report.fidelities.values())
        ok &= abs(report.result.failure_probability - 0.75) < PROB_TOL
    ok &= abs(
        gates.cnot(TwoQubitState(1.0, 0.0, 0.0, 0.0), passive=True).success_probability
        - 1 / 16
    ) < PROB_TOL
    verdict(
        4,
        "composed CNOT: success 1/4 (1/16 passive), 4 patterns at 1/16, "
        "fidelity 1 on 100 random inputs, failure weight 3/4",
        ok,
    )


def test_criterion_5_gc_cnot(rng):
    ok = True
    for _ in range(20):
        state = random_two_qubit(rng)
        report = gates.gc_cnot(state)
        ok &= len(report.result.outcomes) == 16
        ok &= all(
            sum(pair) == 1 for pattern in report.result.outcomes for pair in pattern
        )
        ok &= all(
            abs(p - 1 / 64) < PROB_TOL
            for p, _ in report.result.outcomes.values()
        )
        ok &= abs(report.success_probability - 0.25) < PROB_TOL
        target = two_qubit_input("2", "3", ideal_cnot(state))
        ok &= all(
            abs(fidelity(out, target) - 1.0) < FID_TOL
            for _, out in report.result.outcomes.values()
        )
    verdict(
        5,
        "GC CNOT: 16 one-and-only-one patterns at 1/64, corrected outputs "
        "all equal the ideal target, total success 1/4",
        ok,
    )


def test_criterion_6_chi_consistency():
    report = gates.chi_via_cnot()
    target = chi_state("1", "2", "3", "4")
    ok = abs(report.success_probability - 0.25) < PROB_TOL
    ok &= all(
        abs(fidelity(out, target) - 1.0) < FID_TOL
        for _, out in report.result.outcomes.values()
    )
    verdict(6, "chi via composed CNOT: fidelity 1 to chi, success 1/4", ok)


def _engines_agree(result, dense):
    if set(result.outcomes) != set(dense.outcomes):
        return False
    if abs(result.success_probability - dense.success_probability) >= PROB_TOL:
        return False
    for pattern, (probability, state) in result.outcomes.items():
        d_prob, d_terms = dense.outcomes[pattern]
        if abs(probability - d_prob) >= PROB_TOL:
            return False
        for key in set(state.terms) | set(d_terms):
            if abs(state.amplitude(key) - d_terms.get(key, 0j)) >= AMP_TOL:
                return False
    return True


def test_criterion_7_oracle_equivalence(rng):
    ok = True
    compiled = {}

    def check(report):
        dense = compiled.setdefault(report.name, DenseCircuit(report.spec))
        return _engines_agree(report.result, dense.run(report.spec))

    for _ in range(25):
        ok &= check(gates.parity_check(random_qubit(rng)))
        ok &= check(gates.destructive_cnot(random_qubit(rng), random_qubit(rng)))
        ok &= check(gates.encoder(random_qubit(rng)))
        ok &= check(gates.cnot(random_two_qubit(rng)))
        ok &= check(gates.gc_cnot(random_two_qubit(rng)))
    ok &= check(gates.chi_via_cnot())
    verdict(
        7,
        "sparse engine vs dense oracle: amplitudes within 1e-10 and "
        "probabilities within 1e-12, all gates, 25 random inputs each",
        ok,
    )


def test_criterion_8_property_suites(rng):
    from test_optics import random_element

    ok = True
    # Element unitarity, 1000 random (state, element) pairs.
    for _ in range(1000):
        st = random_state(rng)
        out = optics.apply_element(st, random_element(rng))
        ok &= abs(out.norm_sq() - st.norm_sq()) < 1e-9
    # Outcome-probability completeness across all gates.
    for report in (
        gates.parity_check(random_qubit(rng)),
        gates.destructive_cnot(random_qubit(rng), random_qubit(rng)),
        gates.encoder(random_qubit(rng)),
        gates.cnot(random_two_qubit(rng)),
        gates.gc_cnot(random_two_qubit(rng)),
        gates.chi_via_cnot(),
    ):
        total = report.success_probability + sum(report.result.rejected.values())
        ok &= abs(total - 1.0) < PROB_TOL
    # Rebase round-trip identity and pi-phase involution, 1000 cases each.
    for _ in range(1000):
        st = random_state(rng)
        back = fock.rebase_polarization(
            fock.rebase_polarization(st, "x", fock.HV_TO_FS), "x", fock.FS_TO_HV
        )
        ok &= states_close(st, back, tol=1e-10)
    flip = PolPhaseElement("x", fock.POL_H, 180.0)
    for _ in range(1000):
        st = random_state(rng)
        twice = optics.apply_element(optics.apply_element(st, flip), flip)
        ok &= states_close(st, twice, tol=1e-10)
    # Parser round-trip on shipped circuits plus 1000-case mutation fuzz.
    from conftest import circuit_path
    from test_dsl import VALID

    for name in gates.GATE_NAMES:
        with open(circuit_path(name), encoding="utf-8") as handle:
            spec = dsl.parse_circuit(handle.read())
        ok &= dsl.parse_circuit(dsl.format_circuit(spec)) == spec
    lines = VALID.splitlines()
    for _ in range(1000):
        mutated = list(lines)
        idx = int(rng.integers(len(mutated)))
        op = rng.integers(3)
        if op == 0:
            del mutated[idx]
        elif op == 1:
            mutated.insert(idx, mutated[int(rng.integers(len(lines)))])
        else:
            mutated[idx] = mutated[idx].replace(" ", "  ").swapcase()
        try:
            dsl.parse_circuit("\n".join(mutated))
        except CircuitError:
            pass
        except Exception:  # noqa: BLE001 - the property under test
            ok = False
    verdict(
        8,
        "property suites: unitarity, completeness, rebase round-trip, "
        "pi-phase involution, parser round-trip and fuzz (>=1000 cases each)",
        ok,
    )
