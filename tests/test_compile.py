"""Compiled circuits and packed configurations: edge cases of the engine."""

import math

import pytest

from pbsgates import circuit, dsl, fock, gates
from pbsgates.circuit import (
    CircuitSpec,
    DetectorSpec,
    FeedForwardRule,
    InputDecl,
    build_input_state,
    enumerate_outcomes,
    execute,
)
from pbsgates.errors import DetectedModeReuse, ModeCollision, OverlappingModes, UndeclaredMode
from pbsgates.fock import POL_H, POL_V, BasisState, PhotonState
from pbsgates.optics import BASIS_HV, PbsElement, RotatorElement, apply_element

from conftest import (
    bell_phi_plus,
    chi_state,
    circuit_path,
    ideal_cnot,
    qubit_state,
    random_qubit,
    random_two_qubit,
    two_qubit_input,
)


def occupation(state) -> dict[str, complex]:
    return {basis.key_string(): amp for basis, amp in state.sorted_terms()}


def test_sixteen_photons_in_one_slot():
    # A fixed 4-bit count per slot would overflow at 16: the field width
    # follows the photon number.
    state = PhotonState({BasisState.from_dict({("a", POL_H): 16}): 1.0})
    assert occupation(state) == {"a:H:16": 1.0}
    # a -> V on a -> (PBS reflects V) d -> H on d -> (PBS transmits H) f.
    for el in (
        RotatorElement("a", 90.0),
        PbsElement("a", "b", "c", "d"),
        RotatorElement("d", 90.0),
        PbsElement("d", "e", "f", "g"),
    ):
        state = apply_element(state, el)
    assert occupation(state) == {"f:H:16": pytest.approx(1.0)}
    branches = enumerate_outcomes(state, (DetectorSpec("f", BASIS_HV, "f"),))
    assert set(branches) == {((16, 0),)}
    assert branches[((16, 0),)].norm_sq() == pytest.approx(1.0)


def test_sixteen_photons_split_binomially():
    # (cos a†H + sin a†V)^16 / sqrt(16!) has amplitude
    # sqrt(C(16, k)) cos^k sin^(16-k) on |k H, 16-k V>.
    state = fock.PhotonState({BasisState.from_dict({("a", POL_H): 16}): 1.0}, 0.0)
    angle = 30.0
    out = apply_element(state, RotatorElement("a", angle))
    c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
    assert out.num_terms() == 17
    for k in range(17):
        basis = BasisState.from_dict({("a", POL_H): k, ("a", POL_V): 16 - k})
        expected = math.sqrt(math.comb(16, k)) * c**k * s ** (16 - k)
        assert out.amplitude(basis) == pytest.approx(expected, abs=1e-12)
    assert out.norm_sq() == pytest.approx(1.0)


def _spec(elements, inputs=("x", "u")):
    return CircuitSpec(
        modes=("x", "y", "u", "w", "p", "q"),
        inputs=tuple(InputDecl("qubit", (m,), (1.0, 0.0)) for m in inputs),
        elements=elements,
        detectors=(),
        outputs=("x", "y", "u", "w", "p", "q"),
    )


def test_pbs_into_a_live_non_input_mode_raises_from_execute():
    with pytest.raises(ModeCollision):
        execute(_spec((PbsElement("x", "y", "u", "w"),)))
    # Only photons present when the PBS acts count: once u's photon has
    # moved on to p, the same PBS may write onto u.
    result = execute(_spec((PbsElement("u", "q", "p", "y"), PbsElement("x", "w", "u", "q"))))
    (probability, state), = result.outcomes.values()
    assert probability == pytest.approx(1.0)
    assert occupation(state) == {"p:H:1,u:H:1": pytest.approx(1.0)}


def test_in_place_pbs_is_allowed_in_execute():
    result = execute(_spec((PbsElement("x", "u", "x", "u"),)))
    (_, state), = result.outcomes.values()
    assert occupation(state) == {"u:H:1,x:H:1": pytest.approx(1.0)}


def test_detector_on_an_undeclared_mode_is_rejected_by_compile():
    spec = CircuitSpec(
        modes=("x",),
        inputs=(),
        elements=(),
        detectors=(DetectorSpec("z", BASIS_HV, "z"),),
        outputs=("x",),
    )
    with pytest.raises(UndeclaredMode):
        circuit.compile(spec)


def fingerprint(result) -> tuple:
    return (
        tuple(
            (pattern, p, tuple((b.key_string(), a) for b, a in s.sorted_terms()))
            for pattern, (p, s) in sorted(result.outcomes.items())
        ),
        tuple(sorted(result.rejected.items())),
        result.success_probability,
        result.failure_probability,
    )


@pytest.mark.parametrize("name", ["parity_check", "cnot", "gc_cnot"])
def test_cached_plan_gives_the_uncached_result(name, rng):
    draw = random_qubit if name == "parity_check" else random_two_qubit
    inputs = [draw(rng) for _ in range(4)]
    # The gate's table keeps its plan, whose slot maps have run every column
    # with feed-forward; execute compiles a fresh one.
    for i, x in enumerate(inputs):
        passive = i % 2 == 1
        spec = getattr(gates, name)(x, passive).spec
        plan = gates._responses(name).plan
        warm = circuit._execute(spec, plan, passive, fock.DEFAULT_TOLERANCE, drop=True)
        assert fingerprint(execute(spec, passive)) == fingerprint(warm)


def parity_check_spec() -> CircuitSpec:
    with open(circuit_path("parity_check"), encoding="utf-8") as handle:
        return dsl.parse_circuit(handle.read())


def test_input_on_an_undeclared_mode_is_rejected_by_compile():
    spec = parity_check_spec()
    qubit, ancilla = spec.inputs
    spec = spec._replace(
        inputs=(qubit, ancilla._replace(modes=("z",))), outputs=("2", "z")
    )
    with pytest.raises(UndeclaredMode, match="'z'"):
        execute(spec)


def test_two_detectors_on_one_mode_are_rejected_by_compile():
    spec = parity_check_spec()
    (det,) = spec.detectors
    spec = spec._replace(detectors=(det, DetectorSpec(det.mode, BASIS_HV, "c2")))
    with pytest.raises(DetectedModeReuse, match="'c'"):
        execute(spec)


def test_rule_on_an_undeclared_label_is_rejected_by_compile():
    spec = parity_check_spec()
    (rule,) = spec.rules
    spec = spec._replace(rules=(rule, rule._replace(label="nobody")))
    with pytest.raises(UndeclaredMode, match="'nobody'"):
        execute(spec)


def test_inputs_sharing_a_mode_are_rejected_by_compile():
    spec = parity_check_spec()
    qubit, ancilla = spec.inputs
    spec = spec._replace(inputs=(qubit, ancilla._replace(modes=qubit.modes)))
    with pytest.raises(OverlappingModes):
        execute(spec)


@pytest.mark.parametrize("where", ["rotator", "pbs", "correction"])
def test_elements_and_corrections_on_undeclared_modes_are_rejected_by_compile(where):
    # Valid with the empty mode "c" in place of "zz"; the parser rejects the
    # same text with the same class.
    base = CircuitSpec(
        modes=("a", "b", "c"),
        inputs=(
            InputDecl("qubit", ("a",), (0.6, 0.8)),
            InputDecl("qubit", ("b",), (1.0, 0.0)),
        ),
        elements=(),
        detectors=(DetectorSpec("b", BASIS_HV, "d"),),
        outputs=("a", "c"),
    )
    spec = {
        "rotator": base._replace(elements=(RotatorElement("zz", 30.0),)),
        "pbs": base._replace(elements=(PbsElement("a", "b", "a", "zz"),)),
        "correction": base._replace(
            rules=(FeedForwardRule("d", POL_V, (RotatorElement("zz", 90.0),)),)
        ),
    }[where]
    execute(dsl.parse_circuit(dsl.format_circuit(spec).replace("zz", "c")))
    with pytest.raises(UndeclaredMode, match="'zz'"):
        execute(spec)
    with pytest.raises(UndeclaredMode, match="'zz'"):
        dsl.parse_circuit(dsl.format_circuit(spec))


def test_correction_on_a_detected_mode_is_rejected_by_compile():
    spec = parity_check_spec()
    (det,) = spec.detectors
    (rule,) = spec.rules
    spec = spec._replace(rules=(rule._replace(corrections=(RotatorElement(det.mode, 90.0),)),))
    with pytest.raises(DetectedModeReuse, match="'c'"):
        execute(spec)
    with pytest.raises(DetectedModeReuse, match="'c'"):
        dsl.parse_circuit(dsl.format_circuit(spec))


def reference_input_state(spec: CircuitSpec) -> PhotonState:
    """The input as a chain of tensors from the vacuum, one per declaration."""
    state = PhotonState({BasisState(): 1.0}, 0.0)
    for decl in spec.inputs:
        if decl.kind == "qubit":
            part = qubit_state(decl.modes[0], *decl.amplitudes, tolerance=0.0)
        elif decl.kind == "bell":
            part = bell_phi_plus(*decl.modes)
        elif decl.kind == "chi":
            part = chi_state(*decl.modes)
        else:
            part = two_qubit_input(*decl.modes, decl.amplitudes, tolerance=0.0)
        state = fock.tensor(state, part)
    return state


def reference_target(name: str, args: tuple, tolerance: float) -> PhotonState | None:
    """Each gate's fidelity target, built term by term."""
    if name == "parity_check":
        (q,) = args
        return qubit_state("2", q.alpha, q.beta, tolerance)
    if name == "destructive_cnot":
        t, c = args
        if abs(abs(c.alpha) - 1.0) <= 1e-12:
            return qubit_state("3", t.alpha, t.beta, tolerance)
        if abs(abs(c.beta) - 1.0) <= 1e-12:
            return qubit_state("3", t.beta, t.alpha, tolerance)
        return None
    if name == "encoder":
        (q,) = args
        return two_qubit_input("2", "b", (q.alpha, 0, 0, q.beta), tolerance)
    if name in ("cnot", "gc_cnot"):
        (s,) = args
        return two_qubit_input("2", "3", ideal_cnot(s), tolerance)
    return chi_state("1", "2", "3", "4", tolerance)


def bits(state: PhotonState) -> tuple:
    """Every term, in the state's own order and sorted, with its exact bits."""

    def exact(terms):
        return [(b.key_string(), a.real.hex(), a.imag.hex()) for b, a in terms]

    return exact(state.terms.items()), exact(state.sorted_terms()), state.tolerance


#: Amplitudes with exact zeros and negative zeros in every position.
QUBITS = [
    gates.QubitState(1.0, 0.0),
    gates.QubitState(0, 1),
    gates.QubitState(-0.0, -1.0),
    gates.QubitState(complex(-0.0, -0.0), complex(0.0, -1.0)),
    gates.QubitState(0.0, complex(-0.0, 1.0)),
    gates.QubitState(complex(-0.0, 0.6), complex(-0.8, -0.0)),
    gates.QubitState(-0.6, 0.8j),
]
TWO_QUBITS = [
    gates.TwoQubitState(1.0, 0.0, 0.0, 0.0),
    gates.TwoQubitState(0, 0, complex(-0.0, 1.0), 0),
    gates.TwoQubitState(-0.5, complex(-0.0, -0.5), 0.5j, complex(0.5, -0.0)),
]


def gate_calls(rng):
    qubits = QUBITS + [random_qubit(rng) for _ in range(6)]
    two_qubits = TWO_QUBITS + [random_two_qubit(rng) for _ in range(6)]
    controls = [gates.QubitState(1.0, 0.0), gates.QubitState(0.0, -1.0), qubits[-1]]
    yield from (("parity_check", (q,)) for q in qubits)
    yield from (("encoder", (q,)) for q in qubits)
    yield from (("destructive_cnot", (q, c)) for q in qubits for c in controls)
    yield from (("cnot", (s,)) for s in two_qubits)
    yield from (("gc_cnot", (s,)) for s in two_qubits)
    yield "chi_via_cnot", ()


@pytest.mark.parametrize("tolerance", [fock.DEFAULT_TOLERANCE, 0.0])
def test_bound_inputs_and_targets_match_the_tensor_chain_bit_for_bit(tolerance, rng):
    kinds = set()
    for name, args in gate_calls(rng):
        report = getattr(gates, name)(*args, tolerance=tolerance)
        kinds.update(decl.kind for decl in report.spec.inputs)
        assert bits(build_input_state(report.spec)) == bits(reference_input_state(report.spec))
        target = reference_target(name, args, tolerance)
        if target is None:
            assert report.target is None and report.fidelities == {}
            continue
        assert bits(report.target) == bits(target)
        assert report.fidelities == {
            pattern: gates.fidelity(state, target)
            for pattern, (_, state) in report.result.outcomes.items()
        }
    assert kinds == {"qubit", "bell", "chi", "state"}


def test_targets_are_packed_like_the_outputs():
    report = gates.cnot(gates.TwoQubitState(0.5, 0.5, 0.5, 0.5))
    for _, state in report.result.outcomes.values():
        assert state.packing == report.target.packing


def test_warm_gate_calls_build_no_basis_states_and_no_tensors(monkeypatch):
    calls = {"from_dict": 0, "tensor": 0}
    from_dict, tensor = BasisState.from_dict, fock.tensor

    def counting_from_dict(occupations):
        calls["from_dict"] += 1
        return from_dict(occupations)

    def counting_tensor(a, b):
        calls["tensor"] += 1
        return tensor(a, b)

    q, s = gates.QubitState(0.6, 0.8), gates.TwoQubitState(0.5, 0.5, 0.5, 0.5)
    gates.parity_check(q), gates.cnot(s)
    monkeypatch.setattr(BasisState, "from_dict", staticmethod(counting_from_dict))
    monkeypatch.setattr(fock, "tensor", counting_tensor)
    for i in range(50):
        gates.parity_check(q, passive=i % 2 == 1)
        gates.cnot(s, passive=i % 2 == 1)
    assert calls == {"from_dict": 0, "tensor": 0}
