"""Compiled circuits and packed configurations: edge cases of the engine."""

import math

import pytest

from pbsgates import circuit, fock, gates
from pbsgates.circuit import CircuitSpec, DetectorSpec, InputDecl, enumerate_outcomes, execute
from pbsgates.errors import ModeCollision, UndeclaredMode
from pbsgates.fock import POL_H, POL_V, BasisState
from pbsgates.optics import BASIS_HV, PbsElement, RotatorElement, apply_element

from conftest import random_qubit, random_two_qubit


def occupation(state) -> dict[str, complex]:
    return {basis.key_string(): amp for basis, amp in state.sorted_terms()}


def test_sixteen_photons_in_one_slot():
    # A fixed 4-bit count per slot would overflow at 16: the field width
    # follows the photon number as photons are created.
    state = fock.vacuum()
    for n in range(1, 17):
        state = fock.create(state, ("a", POL_H))
        assert occupation(state) == {f"a:H:{n}": pytest.approx(math.sqrt(math.factorial(n)))}
    state = state.normalized()
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
    warm = [getattr(gates, name)(x, passive=i % 2 == 1) for i, x in enumerate(inputs)]
    for i, report in enumerate(warm):
        circuit._compile.cache_clear()
        cold = execute(report.spec, passive=i % 2 == 1)
        assert fingerprint(cold) == fingerprint(report.result)


def test_the_six_gates_share_the_plan_cache():
    circuit._compile.cache_clear()
    q, t = gates.QubitState(0.6, 0.8), gates.TwoQubitState(0.5, 0.5, 0.5, 0.5)
    calls = {
        "parity_check": (q,),
        "destructive_cnot": (q, gates.QubitState(1.0, 0.0)),
        "encoder": (q,),
        "cnot": (t,),
        "gc_cnot": (t,),
        "chi_via_cnot": (),
    }
    for _ in range(2):
        for name, args in calls.items():
            getattr(gates, name)(*args)
    info = circuit._compile.cache_info()
    assert (info.misses, info.hits) == (6, 6)
