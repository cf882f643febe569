"""Unit tests for optical elements: routing, unitarity, involutions."""

import math

import pytest

from pbsgates import fock, optics
from pbsgates.errors import ModeCollision
from pbsgates.fock import POL_F, POL_H, POL_V, BasisState, PhotonState
from pbsgates.optics import (
    BASIS_FS,
    BASIS_HV,
    PbsElement,
    PolPhaseElement,
    RotatorElement,
    apply_element,
)
from conftest import (
    float_bits,
    qubit_state,
    random_state,
    reference_fs_pbs_map,
    single,
    states_close,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)

HV_PBS = PbsElement("x", "y", "u", "w", BASIS_HV)
FS_PBS = PbsElement("x", "y", "u", "w", BASIS_FS)


def amp(state, **occ):
    key = BasisState.from_dict(
        {(mode, pol): n for (mode, pol), n in occ.items()}
    )
    return state.amplitude(key)


def one(state, mode, pol):
    return state.amplitude(BasisState.from_dict({(mode, pol): 1}))


def test_pbs_rejects_duplicate_ports():
    with pytest.raises(ValueError):
        PbsElement("x", "x", "u", "w")
    with pytest.raises(ValueError):
        PbsElement("x", "y", "u", "u")
    with pytest.raises(ValueError):
        PbsElement("x", "y", "u", "w", "diag")


def test_hv_pbs_routes_single_photons():
    # Transmitted H: in1->out1, in2->out2; reflected V: in1->out2, in2->out1.
    cases = [
        (("x", POL_H), ("u", POL_H)),
        (("y", POL_H), ("w", POL_H)),
        (("x", POL_V), ("w", POL_V)),
        (("y", POL_V), ("u", POL_V)),
    ]
    for (in_mode, pol), (out_mode, out_pol) in cases:
        out = apply_element(single(in_mode, pol), HV_PBS)
        assert abs(one(out, out_mode, out_pol) - 1.0) < 1e-12
        assert out.num_terms() == 1


def test_hv_pbs_two_photon_routing():
    hh = fock.tensor(single("x", POL_H), single("y", POL_H))
    out = apply_element(hh, HV_PBS)
    key = BasisState.from_dict({("u", POL_H): 1, ("w", POL_H): 1})
    assert abs(out.amplitude(key) - 1.0) < 1e-12

    vv = fock.tensor(single("x", POL_V), single("y", POL_V))
    out = apply_element(vv, HV_PBS)
    key = BasisState.from_dict({("u", POL_V): 1, ("w", POL_V): 1})
    assert abs(out.amplitude(key) - 1.0) < 1e-12

    hv = BasisState.from_dict({("x", POL_H): 1, ("x", POL_V): 1})
    hv_same_port = PhotonState({hv: 1.0})
    out = apply_element(hv_same_port, HV_PBS)
    key = BasisState.from_dict({("u", POL_H): 1, ("w", POL_V): 1})
    assert abs(out.amplitude(key) - 1.0) < 1e-12


def test_hv_pbs_opposite_polarizations_bunch():
    # H on in1 and V on in2 both exit out1: a one-and-only-one pattern on the
    # outputs is impossible, which is exactly what post-selection rejects.
    st = fock.tensor(single("x", POL_H), single("y", POL_V))
    out = apply_element(st, HV_PBS)
    key = BasisState.from_dict({("u", POL_H): 1, ("u", POL_V): 1})
    assert abs(out.amplitude(key) - 1.0) < 1e-12


def test_fs_pbs_transmits_f_and_reflects_s():
    f_in = qubit_state("x", SQRT_HALF, SQRT_HALF)
    out = apply_element(f_in, FS_PBS)
    assert abs(one(out, "u", POL_H) - SQRT_HALF) < 1e-12
    assert abs(one(out, "u", POL_V) - SQRT_HALF) < 1e-12
    assert abs(one(out, "w", POL_H)) < 1e-12

    s_in = qubit_state("x", -SQRT_HALF, SQRT_HALF)
    out = apply_element(s_in, FS_PBS)
    assert abs(one(out, "w", POL_V) - SQRT_HALF) < 1e-12
    assert abs(one(out, "w", POL_H) + SQRT_HALF) < 1e-12
    assert abs(one(out, "u", POL_H)) < 1e-12


def test_fs_pbs_single_h_photon_splits_four_ways():
    out = apply_element(single("x", POL_H), FS_PBS)
    assert abs(one(out, "u", POL_H) - 0.5) < 1e-12
    assert abs(one(out, "u", POL_V) - 0.5) < 1e-12
    assert abs(one(out, "w", POL_H) - 0.5) < 1e-12
    assert abs(one(out, "w", POL_V) + 0.5) < 1e-12


@pytest.mark.parametrize("ports", [("x", "y", "u", "w"), ("x", "y", "x", "y"), ("y", "x", "x", "y")])
def test_fs_pbs_map_reads_its_hv_input_slots_with_the_composed_coefficients(ports):
    # Written directly, an FS splitter's map has a source for each H/V slot
    # of its inputs and no other; each source's targets are those of the
    # composition of rebase, F/S routing and rebase back, in order, bit for bit.
    el = PbsElement(*ports, BASIS_FS)
    direct = optics.slot_map(el)
    composed = reference_fs_pbs_map(el)
    assert set(direct) == {(port, pol) for port in ports[:2] for pol in (POL_H, POL_V)}
    for source, targets in direct.items():
        assert [(t, float_bits(c)) for t, c in targets] == [
            (t, float_bits(c)) for t, c in composed[source]
        ]
    index = fock.SlotIndex((mode, pol) for mode in ports for pol in "FHSV")
    assert len(fock.IndexedMap(direct, index, 2).moves) == 4


@pytest.mark.parametrize("basis", [BASIS_HV, BASIS_FS])
@pytest.mark.parametrize("outputs", [("u", "w"), ("x", "y")])
def test_an_f_labelled_photon_on_an_input_port_stays_where_it_is(basis, outputs):
    # A splitter's map reads only the H/V slots of its inputs; F and S
    # labels appear only inside detector rebases.
    st = single("x", POL_F, complex(0.6, -0.8))
    out = apply_element(st, PbsElement("x", "y", *outputs, basis))
    assert [(b, float_bits(a)) for b, a in out.sorted_terms()] == [
        (b, float_bits(a)) for b, a in st.sorted_terms()
    ]


def test_rotator_basis_action():
    el = RotatorElement("x", 90.0)
    out = apply_element(single("x", POL_H), el)
    assert abs(one(out, "x", POL_V) - 1.0) < 1e-12
    out = apply_element(single("x", POL_V), el)
    assert abs(one(out, "x", POL_H) + 1.0) < 1e-12


def test_pol_phase_flips_only_target_slot():
    el = PolPhaseElement("x", POL_H, 180.0)
    st = qubit_state("x", 0.6, 0.8)
    out = apply_element(st, el)
    assert abs(one(out, "x", POL_H) + 0.6) < 1e-12
    assert abs(one(out, "x", POL_V) - 0.8) < 1e-12


def test_pol_phase_counts_occupation():
    # Phase is e^{i phase k}: a doubly occupied slot picks up the phase twice.
    st = PhotonState({BasisState.from_dict({("x", POL_H): 2}): math.sqrt(2.0)})
    out = apply_element(st, PolPhaseElement("x", POL_H, 90.0))
    key = BasisState.from_dict({("x", POL_H): 2})
    assert abs(out.amplitude(key) - (-1.0) * st.amplitude(key)) < 1e-12


def test_pol_phase_rejects_fs_labels():
    with pytest.raises(ValueError):
        PolPhaseElement("x", "F", 180.0)


def test_mode_collision_detected():
    st = fock.tensor(single("x", POL_H), single("u", POL_H))
    with pytest.raises(ModeCollision):
        optics.apply_element(st, HV_PBS)


def test_in_place_pbs_allowed():
    el = PbsElement("x", "y", "x", "y", BASIS_HV)
    st = fock.tensor(single("x", POL_H), single("y", POL_V))
    out = apply_element(st, el)
    key = BasisState.from_dict({("x", POL_H): 1, ("x", POL_V): 1})
    assert abs(out.amplitude(key) - 1.0) < 1e-12


def random_element(rng):
    kind = rng.integers(3)
    if kind == 0:
        basis = BASIS_HV if rng.integers(2) else BASIS_FS
        return PbsElement("x", "y", "u", "w", basis)
    if kind == 1:
        mode = "x" if rng.integers(2) else "y"
        return RotatorElement(mode, float(rng.uniform(-360, 360)))
    mode = "x" if rng.integers(2) else "y"
    pol = POL_H if rng.integers(2) else POL_V
    return PolPhaseElement(mode, pol, float(rng.uniform(-360, 360)))


def test_unitarity_fuzz(rng):
    for _ in range(1000):
        st = random_state(rng)
        out = apply_element(st, random_element(rng))
        assert abs(out.norm_sq() - st.norm_sq()) < 1e-9


def test_photon_number_conserved_fuzz(rng):
    for _ in range(1000):
        st = random_state(rng)
        el = random_element(rng)
        out = apply_element(st, el)
        totals_in = {b.total_photons for b in st.terms}
        totals_out = {b.total_photons for b in out.terms}
        assert totals_out <= totals_in


def test_pi_phase_involution_fuzz(rng):
    for _ in range(1000):
        st = random_state(rng)
        pol = POL_H if rng.integers(2) else POL_V
        el = PolPhaseElement("x", pol, 180.0)
        twice = apply_element(apply_element(st, el), el)
        assert states_close(st, twice, tol=1e-10)


def test_rotator_inverse_fuzz(rng):
    for _ in range(1000):
        st = random_state(rng)
        angle = float(rng.uniform(-360, 360))
        fwd = apply_element(st, RotatorElement("x", angle))
        back = apply_element(fwd, RotatorElement("x", -angle))
        assert states_close(st, back, tol=1e-9)


def test_hv_pbs_self_inverse(rng):
    reverse = PbsElement("u", "w", "x", "y", BASIS_HV)
    for _ in range(200):
        st = random_state(rng)
        back = apply_element(apply_element(st, HV_PBS), reverse)
        assert states_close(st, back, tol=1e-10)
