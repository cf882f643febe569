"""Unit tests for sparse Fock states and slot transforms."""

import math

import pytest

from pbsgates import fock
from pbsgates.errors import OverlappingModes
from pbsgates.fock import (
    FS_TO_HV,
    HV_TO_FS,
    POL_F,
    POL_H,
    POL_S,
    POL_V,
    BasisState,
    PhotonState,
)

from conftest import random_state, single, states_close

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_basis_state_canonical_order_and_zero_drop():
    a = BasisState.from_dict({("m", POL_H): 1, ("n", POL_V): 2, ("z", POL_H): 0})
    b = BasisState.from_dict({("n", POL_V): 2, ("m", POL_H): 1})
    assert a == b
    assert a.total_photons == 3
    assert a.count(("z", POL_H)) == 0
    assert a.modes() == {"m", "n"}
    assert a.key_string() == "m:H:1,n:V:2"


def test_basis_state_rejects_negative_occupation():
    with pytest.raises(ValueError):
        BasisState.from_dict({("m", POL_H): -1})


def test_vacuum_is_normalized_single_term():
    vac = fock.vacuum()
    assert vac.num_terms() == 1
    assert vac.amplitude(fock.VACUUM) == 1.0
    assert math.isclose(vac.norm_sq(), 1.0)


def test_create_bosonic_sqrt_factors():
    state = fock.vacuum()
    slot = ("m", POL_H)
    for n in range(1, 5):
        state = fock.create(state, slot)
        expected = math.sqrt(math.factorial(n))
        basis = BasisState.from_dict({slot: n})
        assert abs(state.amplitude(basis) - expected) < 1e-12


def test_superpose_is_linear():
    h = single("m", POL_H)
    v = single("m", POL_V)
    st = fock.superpose(h, 0.6, v, 0.8j)
    assert abs(st.amplitude(BasisState.from_dict({("m", POL_H): 1})) - 0.6) < 1e-12
    assert abs(st.amplitude(BasisState.from_dict({("m", POL_V): 1})) - 0.8j) < 1e-12
    assert math.isclose(st.norm_sq(), 1.0)


def test_tensor_disjoint_modes():
    st = fock.tensor(single("m", POL_H, 0.5), single("n", POL_V, 2.0))
    key = BasisState.from_dict({("m", POL_H): 1, ("n", POL_V): 1})
    assert abs(st.amplitude(key) - 1.0) < 1e-12


def test_tensor_rejects_shared_modes():
    with pytest.raises(OverlappingModes):
        fock.tensor(single("m", POL_H), single("m", POL_V))


def test_inner_product_conjugate_linear_in_first():
    a = single("m", POL_H, 1j)
    b = single("m", POL_H, 1.0)
    assert abs(fock.inner_product(a, b) - (-1j)) < 1e-12
    assert abs(fock.inner_product(b, a) - 1j) < 1e-12
    assert fock.inner_product(single("m", POL_H), single("m", POL_V)) == 0


def test_pruning_respects_tolerance():
    small = PhotonState({BasisState.from_dict({("m", POL_H): 1}): 1e-15})
    assert small.is_zero()
    kept = PhotonState({BasisState.from_dict({("m", POL_H): 1}): 1e-15}, tolerance=0.0)
    assert not kept.is_zero()


def test_exact_zeros_pruned_at_tolerance_zero():
    from pbsgates.gates import TwoQubitState, cnot, qubit_state

    h, v = (BasisState.from_dict({("m", pol): 1}) for pol in (POL_H, POL_V))
    built = PhotonState({h: 1.0, v: 0.0}, tolerance=0.0)
    assert built.terms == {h: 1.0}
    assert qubit_state("m", 1, 0, 0.0).num_terms() == 1
    assert fock.superpose(built, 1.0, built, -1.0).is_zero()
    report = cnot(TwoQubitState(1, 0, 0, 0), tolerance=0.0)
    for _, state in report.result.outcomes.values():
        assert all(state.terms.values())


def test_rebase_single_photon_amplitudes():
    st = fock.rebase_polarization(single("m", POL_H), "m", HV_TO_FS)
    assert abs(st.amplitude(BasisState.from_dict({("m", POL_F): 1})) - SQRT_HALF) < 1e-12
    assert (
        abs(st.amplitude(BasisState.from_dict({("m", POL_S): 1})) + SQRT_HALF) < 1e-12
    )
    st = fock.rebase_polarization(single("m", POL_V), "m", HV_TO_FS)
    assert abs(st.amplitude(BasisState.from_dict({("m", POL_F): 1})) - SQRT_HALF) < 1e-12
    assert (
        abs(st.amplitude(BasisState.from_dict({("m", POL_S): 1})) - SQRT_HALF) < 1e-12
    )


def test_rebase_round_trip_fuzz(rng):
    for _ in range(1000):
        st = random_state(rng)
        back = fock.rebase_polarization(
            fock.rebase_polarization(st, "x", HV_TO_FS), "x", FS_TO_HV
        )
        assert states_close(st, back, tol=1e-10)


def test_rebase_preserves_norm_fuzz(rng):
    for _ in range(1000):
        st = random_state(rng)
        out = fock.rebase_polarization(st, "x", HV_TO_FS)
        assert abs(out.norm_sq() - st.norm_sq()) < 1e-9


def test_rebase_two_photons_same_slot():
    # Two H photons: (a†H)² = ((a†F - a†S)/sqrt2)² = (F² - 2FS + S²)/2.
    st = fock.create(fock.create(fock.vacuum(), ("m", POL_H)), ("m", POL_H))
    out = fock.rebase_polarization(st, "m", HV_TO_FS)
    ff = BasisState.from_dict({("m", POL_F): 2})
    fs = BasisState.from_dict({("m", POL_F): 1, ("m", POL_S): 1})
    ss = BasisState.from_dict({("m", POL_S): 2})
    assert abs(out.amplitude(ff) - SQRT_HALF) < 1e-12
    assert abs(out.amplitude(fs) + 1.0) < 1e-12
    assert abs(out.amplitude(ss) - SQRT_HALF) < 1e-12
    assert abs(out.norm_sq() - st.norm_sq()) < 1e-12


def test_compose_slot_maps_matches_sequential(rng):
    first = fock.rebase_map("x", HV_TO_FS)
    second = fock.rebase_map("x", FS_TO_HV)
    composed = fock.compose_slot_maps(first, second)
    for _ in range(200):
        st = random_state(rng)
        sequential = fock.transform_slots(fock.transform_slots(st, first), second)
        at_once = fock.transform_slots(st, composed)
        assert states_close(sequential, at_once, tol=1e-10)


def test_normalized_and_scaled():
    st = single("m", POL_H, 2.0)
    assert math.isclose(st.normalized().norm_sq(), 1.0)
    assert math.isclose(st.scaled(0.5).norm_sq(), 1.0)
    with pytest.raises(ValueError):
        PhotonState({}).normalized()
