"""Unit tests for sparse Fock states and slot transforms."""

import math
import re

import numpy as np
import pytest

from pbsgates import circuit, fock, optics
from pbsgates.circuit import InputDecl
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
from pbsgates.optics import (
    BASIS_FS,
    BASIS_HV,
    PbsElement,
    PolPhaseElement,
    RotatorElement,
)

from conftest import qubit_state, random_state, reference_sorted_terms, single, states_close

SQRT_HALF = 1.0 / math.sqrt(2.0)


def test_basis_state_canonical_order_and_zero_drop():
    a = BasisState.from_dict({("m", POL_H): 1, ("n", POL_V): 2, ("z", POL_H): 0})
    b = BasisState.from_dict({("n", POL_V): 2, ("m", POL_H): 1})
    assert a == b
    assert a.total_photons == 3
    assert a.key_string() == "m:H:1,n:V:2"


@pytest.mark.parametrize("width, photons", [(1, 1), (2, 3), (3, 7)])
def test_sorted_terms_follow_the_basis_state_order(width, photons):
    # Sorting packed (position, count) fields gives the BasisState order,
    # on the state's own index and on one widened by interleaved slots.
    rng = np.random.default_rng(width)
    slots = [(m, p) for m in ("2", "2'", "a", "b10", "b2") for p in (POL_H, POL_V)]
    wider = fock.SlotIndex([("1", POL_H), ("2'", POL_F), ("ab", POL_V), ("z", POL_S)])
    for _ in range(40):
        terms = {}
        for _ in range(rng.integers(1, 30)):
            occ = {}
            for _ in range(rng.integers(0, photons + 1)):
                slot = slots[rng.integers(len(slots))]
                occ[slot] = occ.get(slot, 0) + 1
            terms[BasisState.from_dict(occ)] = complex(rng.normal(), rng.normal())
        # All photons bunched on one slot: a count of `photons`.
        terms[BasisState.from_dict({slots[rng.integers(len(slots))]: photons})] = 1.0
        state = PhotonState(terms, tolerance=0.0)
        index, bound = state.packing
        assert max(1, bound.bit_length()) == width
        widened = state.reindexed(wider)
        assert len(widened.packing[0].slots) > len(index.slots)
        expected = reference_sorted_terms(state)
        assert repr(state.sorted_terms()) == repr(expected)
        assert repr(widened.sorted_terms()) == repr(reference_sorted_terms(widened))
        assert widened.sorted_terms() == expected


def test_basis_state_rejects_negative_occupation():
    with pytest.raises(ValueError):
        BasisState.from_dict({("m", POL_H): -1})


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
    assert small.num_terms() == 0
    kept = PhotonState({BasisState.from_dict({("m", POL_H): 1}): 1e-15}, tolerance=0.0)
    assert kept.num_terms() == 1


def test_exact_zeros_pruned_at_tolerance_zero():
    from pbsgates.gates import TwoQubitState, cnot

    h, v = (BasisState.from_dict({("m", pol): 1}) for pol in (POL_H, POL_V))
    built = PhotonState({h: 1.0, v: 0.0}, tolerance=0.0)
    assert built.terms == {h: 1.0}
    assert qubit_state("m", 1, 0, 0.0).num_terms() == 1
    assert built.scaled(0.0).num_terms() == 0
    report = cnot(TwoQubitState(1, 0, 0, 0), tolerance=0.0)
    for _, state in report.result.outcomes.values():
        assert all(state.terms.values())


@pytest.mark.parametrize("tolerance", [-1e-300, -1e-12, -1.0, -math.inf, math.nan])
def test_a_negative_tolerance_is_refused_by_every_state_builder(tolerance):
    # It would keep exact zeros, which every other tolerance drops, and nan
    # would drop every amplitude; -0.0 prunes as 0.
    h, v = (BasisState.from_dict({("m", pol): 1}) for pol in (POL_H, POL_V))
    index = fock.SlotIndex([("m", POL_H), ("m", POL_V)])
    packed = {index.pack([("m", POL_H)], 1): 1.0, index.pack([("m", POL_V)], 1): 0.0}
    decl = InputDecl("qubit", ("a",), (1.0, 0.0))
    builds = (
        lambda t: PhotonState({h: 1.0, v: 0.0}, t),
        lambda t: PhotonState.packed(packed, index, 1, t),
        lambda t: circuit.declared_state(decl, t),
    )
    message = re.escape(f"amplitude tolerance {tolerance!r} is negative")
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build(tolerance)
        zero, negative = build(0.0), build(-0.0)
        assert negative.num_terms() == 1
        assert negative.packed_terms == zero.packed_terms
    assert fock.prune_floor(-0.0) == fock.prune_floor(0.0) == math.ulp(0.0)


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
    st = PhotonState({BasisState.from_dict({("m", POL_H): 2}): math.sqrt(2.0)})
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
    # Scaling by the inverse of the norm normalizes.
    st = single("m", POL_H, 2.0)
    assert math.isclose(st.scaled(1.0 / math.sqrt(st.norm_sq())).norm_sq(), 1.0)


# --- The slot transform's cached expansion programs keep every bit -----------

MODES = ("a", "b", "c", "d")
ALL_SLOTS = tuple((mode, pol) for mode in MODES for pol in (POL_F, POL_H, POL_S, POL_V))

#: Maps of every kind a circuit runs, with targets on their own modes and on
#: others (where spectators wait), and maps with zero coefficients.
TEST_MAPS = {
    "hv pbs in place": optics.slot_map(PbsElement("a", "b", "a", "b", BASIS_HV)),
    "hv pbs onto other modes": optics.slot_map(PbsElement("a", "b", "c", "d", BASIS_HV)),
    "fs pbs in place": optics.slot_map(PbsElement("a", "b", "a", "b", BASIS_FS)),
    "fs pbs onto other modes": optics.slot_map(PbsElement("b", "a", "d", "c", BASIS_FS)),
    "rotator": optics.slot_map(RotatorElement("a", 22.5)),
    "rotator by zero": optics.slot_map(RotatorElement("b", 0.0)),
    "phase": optics.slot_map(PolPhaseElement("a", POL_H, 180.0)),
    "rebase to fs": fock.rebase_map("c", HV_TO_FS),
    "rebase to hv": fock.rebase_map("a", FS_TO_HV),
    "zero coefficients": {
        ("a", POL_H): ((("a", POL_H), 0j), (("b", POL_V), -1.0)),
        ("a", POL_V): ((("c", POL_H), 0.0),),
        ("b", POL_H): ((("b", POL_H), 1.0), (("a", POL_V), 0.0), (("d", POL_S), 1j)),
    },
}


def reference_transform(state: PhotonState, mapping: fock.IndexedMap) -> PhotonState:
    """The per-term dict expansion that the programs replaced, verbatim."""
    width = state._width
    field = (1 << width) - 1
    moves = tuple(
        (source * width, tuple((t * width, 1 << t * width, c) for t, c in targets))
        for source, targets in mapping.moves
    )
    moved = 0
    for source, _ in mapping.moves:
        moved |= field << source * width
    keep = ~moved
    sqrt_factorial = [math.sqrt(math.factorial(n)) for n in range(state._photons + 1)]
    sqrt = [math.sqrt(n) for n in range(state._photons + 1)]
    out: dict[int, complex] = {}
    for cfg, amp in state._terms.items():
        if not cfg & moved:
            out[cfg] = out.get(cfg, 0j) + amp
            continue
        # |..n..> carries 1/sqrt(n!) relative to the bare operator product;
        # the expansion below restores sqrt-factors one creation at a time.
        prefactor = amp
        creations = []
        for shift, targets in moves:
            n = cfg >> shift & field
            if n:
                prefactor /= sqrt_factorial[n]
                creations.append((n, targets))
        partial = {cfg & keep: prefactor}
        for n, targets in creations:
            for _ in range(n):
                nxt: dict[int, complex] = {}
                for pcfg, pamp in partial.items():
                    for shift, unit, coeff in targets:
                        key = pcfg + unit
                        k = pcfg >> shift & field
                        nxt[key] = nxt.get(key, 0j) + pamp * coeff * sqrt[k + 1]
                partial = nxt
        for key, value in partial.items():
            out[key] = out.get(key, 0j) + value
    return PhotonState.packed(out, state._index, state._photons, state.tolerance)


def reference_split_counts(state: PhotonState, slot_pairs) -> dict:
    """The grouping by pattern tuples that ``split_counts`` replaced, verbatim."""
    state = state.reindexed(state._index.including([s for pair in slot_pairs for s in pair]))
    index, width = state._index, state._width
    photons = state._photons
    field = (1 << width) - 1
    shifts = [(index.position[a] * width, index.position[b] * width) for a, b in slot_pairs]
    counted = 0
    for sa, sb in shifts:
        counted |= field << sa | field << sb
    keep = ~counted
    groups: dict = {}
    for cfg, amp in state._terms.items():
        key = tuple([(cfg >> sa & field, cfg >> sb & field) for sa, sb in shifts])
        group = groups.get(key)
        if group is None:
            group = groups[key] = {}
        rest = cfg & keep
        group[rest] = group.get(rest, 0j) + amp
    return {
        key: PhotonState.packed(terms, index, photons, state.tolerance)
        for key, terms in groups.items()
    }


def bits(state: PhotonState) -> list:
    """Every term in order, with the exact bits of both parts of its amplitude."""
    return [(basis, amp.real.hex(), amp.imag.hex()) for basis, amp in state.terms.items()]


def random_amplitude(rng, tolerance: float) -> complex:
    """Random, real or imaginary only, with a signed zero in either part, or
    just above the pruning floor (an exact zero at tolerance 0)."""
    x, y = rng.normal(), rng.normal()
    return (
        complex(x, y),
        complex(x, 0.0),
        complex(0.0, y),
        complex(-0.0, y),
        complex(x, -0.0),
        complex(tolerance * (1.0 + 1e-6 * rng.random()), 0.0),
    )[int(rng.integers(6))]


def random_fock_state(rng, photons: int, tolerance: float) -> PhotonState:
    """Up to 12 terms over every slot of ``MODES``, one with ``photons`` photons
    and the others with at most as many; photons off a map are spectators."""
    terms = {}
    for i in range(int(rng.integers(1, 13))):
        total = photons if i == 0 else int(rng.integers(0, photons + 1))
        occ: dict = {}
        for _ in range(total):
            slot = ALL_SLOTS[int(rng.integers(len(ALL_SLOTS)))]
            occ[slot] = occ.get(slot, 0) + 1
        terms[BasisState.from_dict(occ)] = random_amplitude(rng, tolerance)
    return PhotonState(terms, tolerance)


@pytest.mark.parametrize("tolerance", [0.0, fock.DEFAULT_TOLERANCE])
@pytest.mark.parametrize("name", sorted(TEST_MAPS))
def test_transform_slots_keeps_the_bits_of_the_per_term_expansion(name, tolerance, rng):
    index = fock.SlotIndex(ALL_SLOTS)
    # One map for every state: programs that one state's call kept serve
    # states with other amplitudes; widths change between runs of calls.
    shared = fock.IndexedMap(TEST_MAPS[name], index)
    kept = 0
    for photons in (1, 2, 6, 3, 5, 4, 2, 6):
        for _ in range(8):
            state = random_fock_state(rng, photons, tolerance).reindexed(index)
            expected = bits(reference_transform(state, shared))
            assert bits(fock.transform_slots(state, shared)) == expected
            fresh = fock.IndexedMap(TEST_MAPS[name], index)
            assert bits(fock.transform_slots(state, fresh)) == expected
            # The same map given as a plain slot map, compiled per call.
            assert bits(fock.transform_slots(state, TEST_MAPS[name])) == expected
        # From its second call at a width on, the map keeps its programs.
        kept += len(shared.for_width(state._width)[4])
    assert kept


@pytest.mark.parametrize("tolerance", [0.0, fock.DEFAULT_TOLERANCE])
def test_unpruned_paths_equal_their_pruned_forms(tolerance, rng):
    pairs = ((("a", POL_H), ("a", POL_V)), (("c", POL_F), ("c", POL_S)))
    for _ in range(100):
        state = random_fock_state(rng, int(rng.integers(1, 7)), tolerance)
        for factor in (1.0, 1.5, -2.0, 1 / math.sqrt(0.3), 0.5, 1j):
            scaled = state.scaled(factor)
            assert bits(scaled) == bits(scaled.with_tolerance(tolerance))
        groups = fock.split_counts(state, pairs)
        expected = reference_split_counts(state, pairs)
        assert list(groups) == list(expected)
        for pattern, group in groups.items():
            assert bits(group) == bits(expected[pattern])
            assert bits(group) == bits(group.with_tolerance(tolerance))
