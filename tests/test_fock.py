"""Unit tests for sparse Fock states and slot transforms."""

import ast
import collections
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pbsgates import fock, optics
from pbsgates.circuit import InputDecl
from pbsgates.errors import NonPhysicalInput, OverlappingModes
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

from conftest import (
    declared_state,
    float_bits,
    qubit_state,
    random_state,
    reference_repack,
    reference_sorted_terms,
    scaled,
    single,
    state_bits,
    states_close,
)

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


# Modes that sort first ("a", "b") and last ("z"): an index grown by the
# slots of "z" keeps every other slot's position.
CROSS_MODES = ("a", "b", "z")


def cross_state(rng, modes, photons: int, shared: list) -> PhotonState:
    """A random state over the HV slots of ``modes`` with photon bound
    ``photons``: the configurations of ``shared`` that fit, one with all
    ``photons`` on one slot, so the bound is reached, and a few of its own."""
    slots = [(m, p) for m in modes for p in (POL_H, POL_V)]
    occs = [occ for occ in shared if set(occ) <= set(slots) and sum(occ.values()) <= photons]
    occs.append({slots[int(rng.integers(len(slots)))]: photons} if slots else {})
    for _ in range(int(rng.integers(0, 4))):
        occ: dict = {}
        for _ in range(int(rng.integers(0, photons + 1))):
            slot = slots[int(rng.integers(len(slots)))]
            occ[slot] = occ.get(slot, 0) + 1
        occs.append(occ)
    terms = {BasisState.from_dict(occ): complex(rng.normal(), rng.normal()) for occ in occs}
    tolerance = (0.0, fock.DEFAULT_TOLERANCE)[int(rng.integers(2))]
    return PhotonState(terms, tolerance)


def noted_repack(cases, terms, src, src_width, dst, dst_width):
    """:func:`reference_repack`, counting in ``cases`` the cross-packing cases
    that each call meets."""
    if src is not dst and src.slots == dst.slots:
        cases["equal slots in distinct indexes"] += 1
    elif (
        src_width == dst_width
        and src.slots != dst.slots
        and dst.slots[: len(src.slots)] == src.slots
    ):
        cases["an index grown by slots that sort last"] += 1
    field = (1 << src_width) - 1
    for cfg in terms:
        counts = [(slot, cfg >> pos * src_width & field) for pos, slot in enumerate(src.slots)]
        cases["a slot absent on the other side"] += any(
            n and slot not in dst.position for slot, n in counts
        )
        cases["a count too wide for the other side"] += any(n >> dst_width for _, n in counts)
    return reference_repack(terms, src, src_width, dst, dst_width)


def packing_width(state: PhotonState) -> int:
    return max(1, state.packing[1].bit_length())


def reference_reindexed(cases, state: PhotonState, index: fock.SlotIndex) -> PhotonState:
    own, photons = state.packing
    index = index.including(own.slots)
    if index is own:
        return state
    width = packing_width(state)
    terms = noted_repack(cases, state.packed_terms, own, width, index, width)
    return PhotonState.packed(terms, index, photons, state.tolerance)


def reference_tensor(cases, a: PhotonState, b: PhotonState) -> PhotonState:
    photons = a.packing[1] + b.packing[1]
    index = a.packing[0].including(b.packing[0].slots)
    width = max(1, photons.bit_length())
    a_terms, b_terms = (
        noted_repack(cases, s.packed_terms, s.packing[0], packing_width(s), index, width)
        for s in (a, b)
    )
    out: dict[int, complex] = {}
    for ka, aa in a_terms.items():
        for kb, ab in b_terms.items():
            out[ka | kb] = out.get(ka | kb, 0j) + aa * ab
    return PhotonState.packed(out, index, photons, min(a.tolerance, b.tolerance))


def reference_inner_product(cases, a: PhotonState, b: PhotonState) -> complex:
    small, large = (a, b) if a.num_terms() <= b.num_terms() else (b, a)
    small_terms = noted_repack(
        cases, small.packed_terms, small.packing[0], packing_width(small),
        large.packing[0], packing_width(large),
    )
    total = 0j
    for cfg, amp in small_terms.items():
        other = large.packed_terms.get(cfg)
        if other is not None:
            total += amp.conjugate() * other if small is a else other.conjugate() * amp
    return total


def test_states_meet_across_packings_as_the_reference_repack_moves_them(rng):
    # Pairs of states on different packings: slots that one side lacks,
    # counts too wide for the other side's fields, indexes grown by slots
    # that sort last, and equal slots in distinct indexes.  Every public path
    # between packings gives the bits of the reference field loop.
    cases = collections.Counter()
    overlaps = 0
    for _ in range(300):
        shared = [
            {(m, p): int(rng.integers(1, 4))}
            | {(CROSS_MODES[int(rng.integers(3))], POL_V): 1}
            for m in CROSS_MODES
            for p in (POL_H, POL_V)
        ]
        modes = [m for m in CROSS_MODES if rng.random() < 0.6] or ["a"]
        other = modes if rng.random() < 0.3 else [m for m in CROSS_MODES if rng.random() < 0.6]
        a = cross_state(rng, modes, int(rng.integers(1, 5)), shared)
        b = cross_state(rng, other or ["b"], int(rng.integers(1, 5)), shared)
        for first, second in ((a, b), (b, a)):
            inner = fock.inner_product(first, second)
            assert float_bits(inner) == float_bits(reference_inner_product(cases, first, second))
            first_terms, second_terms = first.terms, second.terms
            products = [
                first_terms[key].conjugate() * second_terms[key]
                for key in first_terms.keys() & second_terms.keys()
            ]
            overlaps += bool(products)
            assert abs(inner - sum(products, 0j)) <= 1e-12 * sum(map(abs, products))
        own = a.packing[0]
        for index in (
            fock.SlotIndex(own.slots),
            fock.SlotIndex([("z", POL_H), ("z", POL_V)]),
            fock.SlotIndex((m, p) for m in CROSS_MODES for p in (POL_H, POL_V)),
            b.packing[0],
        ):
            expected = reference_reindexed(cases, a, index)
            assert state_bits(a.reindexed(index)) == state_bits(expected)
        left = cross_state(rng, modes, int(rng.integers(0, 4)), shared)
        right_modes = [m for m in CROSS_MODES if m not in modes]
        right = cross_state(rng, right_modes, int(rng.integers(0, 4)) if right_modes else 0, [])
        for first, second in ((left, right), (right, left)):
            expected = reference_tensor(cases, first, second)
            assert state_bits(fock.tensor(first, second)) == state_bits(expected)
    assert overlaps > 0
    assert set(cases) == {
        "equal slots in distinct indexes",
        "an index grown by slots that sort last",
        "a slot absent on the other side",
        "a count too wide for the other side",
    }
    assert min(cases.values()) > 0


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
    assert scaled(built, 0.0).num_terms() == 0
    report = cnot(TwoQubitState(1, 0, 0, 0), tolerance=0.0)
    for _, state in report.result.outcomes.values():
        assert all(state.terms.values())


@pytest.mark.parametrize("tolerance", [1e-12, 0.0])
@pytest.mark.parametrize(
    "amplitude",
    [math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(0, math.nan),
     complex(math.inf, 0), complex(0, -math.inf)],
)
def test_a_non_finite_amplitude_is_refused_not_pruned(amplitude, tolerance):
    # abs(nan) >= floor is false, so a nan used to be pruned as a zero and
    # the rest of the state kept as if it were the whole.
    h, v = (BasisState.from_dict({("a", pol): 1}) for pol in (POL_H, POL_V))
    with pytest.raises(NonPhysicalInput, match=re.escape(f"amplitude {amplitude!r} is not finite")):
        PhotonState({h: amplitude, v: 1.0}, tolerance)


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
        lambda t: declared_state(decl, t),
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


def test_normalized_and_scaled():
    # Scaling by the inverse of the norm normalizes.
    st = single("m", POL_H, 2.0)
    assert math.isclose(scaled(st, 1.0 / math.sqrt(st.norm_sq())).norm_sq(), 1.0)


# --- One squared-norm accumulator, left to right ------------------------------

#: Ten amplitudes whose squares are each exactly 0.1.
TENTHS = [math.sqrt(0.1)] * 5 + [1j * math.sqrt(0.1)] * 5


def test_squared_norm_adds_left_to_right_without_compensation():
    assert [abs(a) ** 2 for a in TENTHS] == [0.1] * 10
    # Compensated summation (math.fsum, or the builtin sum from Python
    # 3.12) gives 1.0 here.
    assert fock.squared_norm(TENTHS) == 0.9999999999999999
    assert math.fsum(abs(a) ** 2 for a in TENTHS) == 1.0
    assert fock.squared_norm([]) == 0.0


def test_squared_norm_of_a_generator_is_that_of_a_list(rng):
    for size in (1, 2, 7, 144):
        amps = [complex(x, y) for x, y in rng.normal(size=(size, 2)) * 10.0 ** rng.integers(-8, 3)]
        total = 0.0
        for a in amps:
            total = total + abs(a) ** 2
        assert float_bits(fock.squared_norm(amps)) == float_bits(total)
        assert float_bits(fock.squared_norm(a for a in amps)) == float_bits(total)
        assert float_bits(fock.squared_norm(iter(amps))) == float_bits(total)


@pytest.mark.parametrize(
    "amps", [[1e200], [0.6, complex(0.0, -1e200)], [complex(1e308, 1e308)], [1e155, 1e155]]
)
def test_squared_norm_is_inf_where_a_square_overflows(amps):
    assert fock.squared_norm(amps) == math.inf
    assert fock.squared_norm(iter(amps)) == math.inf


def test_squared_norm_keeps_nan():
    assert math.isnan(fock.squared_norm([0.6, math.nan, 0.8]))


def test_engine_norms_are_the_accumulators():
    modes = "abcdefghij"
    state = PhotonState({BasisState((((m, POL_H), 1),)): amp for m, amp in zip(modes, TENTHS)})
    assert state.norm_sq() == 0.9999999999999999
    # keep_matching drops every term that its test refuses: here, all ten.
    kept, dropped = fock.keep_matching(state, 0, frozenset())
    assert kept.num_terms() == 0 and dropped == 0.9999999999999999


#: (module, function) of every call of the builtin ``sum`` in the modules
#: below: each sums ints.  Floats are summed by :func:`fock.squared_norm`
#: alone, so their summation order does not depend on the Python version.
INT_SUMS = {
    ("fock", "BasisState.total_photons"),
    ("fock", "SlotIndex.pack"),
    ("fock", "PhotonState.__init__"),
    ("circuit", "compile"),
}


def sum_calls(tree, scope=""):
    """``(function, lineno)`` of each name ``sum`` or ``fsum`` under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from sum_calls(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Name) and node.id in ("sum", "fsum"):
            yield scope, node.lineno
        if isinstance(node, ast.Attribute) and node.attr == "fsum":
            yield scope, node.lineno
        yield from sum_calls(node, scope)


@pytest.mark.parametrize("module", ["fock", "circuit", "gates", "cli"])
def test_only_squared_norm_sums_floats(module):
    path = Path(fock.__file__).with_name(f"{module}.py")
    found = set()
    for scope, lineno in sum_calls(ast.parse(path.read_text(encoding="utf-8"))):
        assert (module, scope) in INT_SUMS, f"{module}.py:{lineno}: sum in {scope or 'module'}"
        found.add((module, scope))
    assert found == {site for site in INT_SUMS if site[0] == module}


@pytest.mark.parametrize("module", ["fock", "circuit", "gates", "cli"])
def test_only_norm_tolerance_spells_the_normalisation_rule(module):
    # Every check of a squared norm against 1, and of pruned norm, reads
    # fock.NORM_TOLERANCE; the oracle keeps a literal of its own, since it
    # imports no engine constant.
    tree = ast.parse(Path(fock.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    literals = [
        node for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value == 1e-9
    ]
    defined = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["NORM_TOLERANCE"]
    ]
    assert literals == defined
    assert fock.NORM_TOLERANCE == 1e-9


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
    # Single-target maps that no element makes: two sources onto one slot,
    # whose terms meet in the output; sources onto slots that hold photons,
    # where roots above 1 appear; coefficients with a negative zero part,
    # whose partial products keep a -0.0 part that a chain replay stores
    # only through ``out.get(key, 0j) +``; and single targets beside a
    # source whose coefficients are all zero, which keeps the general
    # program form.
    "two sources onto one slot": {
        ("a", POL_H): ((("b", POL_V), 0.6 - 0.8j),),
        ("a", POL_V): ((("b", POL_V), -1.0),),
    },
    "onto occupied slots": {
        ("a", POL_H): ((("c", POL_H), 1j),),
        ("b", POL_H): ((("c", POL_H), -0.0), (("a", POL_H), 0.8 + 0.6j)),
        ("c", POL_V): ((("c", POL_H), -0.6),),
    },
    "negative zero parts": {
        ("a", POL_H): ((("b", POL_H), complex(-1.0, -0.0)),),
        ("b", POL_V): ((("b", POL_H), complex(-0.0, -1.0)),),
    },
    "single targets beside zero coefficients": {
        ("a", POL_H): ((("c", POL_H), 1.0),),
        ("b", POL_V): ((("b", POL_V), 1j),),
        ("d", POL_H): ((("a", POL_V), 0.0), (("d", POL_V), -0j)),
    },
}

#: The maps of ``TEST_MAPS`` whose every source has exactly one target with a
#: nonzero coefficient (a rotator by zero has zero sines).
CHAIN_MAPS = {
    "hv pbs in place",
    "hv pbs onto other modes",
    "negative zero parts",
    "phase",
    "rotator by zero",
    "two sources onto one slot",
    "onto occupied slots",
}


def reference_transform(state: PhotonState, slot_map) -> PhotonState:
    """The per-term dict expansion that the programs replaced, verbatim, on
    ``slot_map`` compiled to the state's slot positions."""
    width = state._width
    field = (1 << width) - 1
    position = state._index.position
    positions = sorted(
        (position[source], tuple((position[t], c) for t, c in targets if c))
        for source, targets in slot_map.items()
    )
    moves = tuple(
        (source * width, tuple((t * width, 1 << t * width, c) for t, c in targets))
        for source, targets in positions
    )
    moved = 0
    for source, _ in positions:
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
    # One map per photon bound, shared by every state of that bound:
    # programs that one state's call kept serve states with other
    # amplitudes, and bounds come back after runs at other widths.
    shared: dict[int, fock.IndexedMap] = {}
    for photons in (1, 2, 6, 3, 5, 4, 2, 6):
        if photons not in shared:
            shared[photons] = fock.IndexedMap(TEST_MAPS[name], index, photons)
        for _ in range(8):
            state = random_fock_state(rng, photons, tolerance).reindexed(index)
            expected = bits(reference_transform(state, TEST_MAPS[name]))
            assert bits(fock.transform_slots(state, shared[photons])) == expected
            fresh = fock.IndexedMap(TEST_MAPS[name], index, photons)
            assert bits(fock.transform_slots(state, fresh)) == expected
            # The same map given as a plain slot map, compiled per call.
            assert bits(fock.transform_slots(state, TEST_MAPS[name])) == expected
    # Every map keeps its programs from its first call on.
    assert all(shared[photons].programs for photons in shared)


@pytest.mark.parametrize("name", sorted(TEST_MAPS))
def test_transform_slots_with_a_map_for_another_photon_bound(name, rng):
    # A map runs as it is on a state of its field width, and is compiled
    # afresh for a state of another; either way the bits are those of a map
    # built for the state, and the map keeps serving its own bound.
    index = fock.SlotIndex(ALL_SLOTS)
    maps = {photons: fock.IndexedMap(TEST_MAPS[name], index, photons) for photons in range(1, 7)}
    for _ in range(4):
        for photons, other in itertools.product(maps, repeat=2):
            state = random_fock_state(rng, photons, 0.0).reindexed(index)
            expected = bits(reference_transform(state, TEST_MAPS[name]))
            own = fock.IndexedMap(TEST_MAPS[name], index, photons)
            assert bits(fock.transform_slots(state, own)) == expected
            assert bits(fock.transform_slots(state, maps[other])) == expected


@pytest.mark.parametrize("name", sorted(TEST_MAPS))
def test_single_target_maps_keep_chain_programs(name):
    # A chain program is (divisors, (coeff, root) per creation, offset); any
    # other is (divisors, stages, offsets).  Each term below has two photons
    # on a source and one on a slot of ``ALL_SLOTS[::3]``, which holds c:H,
    # a target of "onto occupied slots" that no source empties.
    index = fock.SlotIndex(ALL_SLOTS)
    compiled = fock.IndexedMap(TEST_MAPS[name], index, 3)
    assert compiled.chain == (name in CHAIN_MAPS)
    terms = {}
    for k, source in enumerate(TEST_MAPS[name]):
        for other in ALL_SLOTS[::3]:
            occ = {source: 2}
            occ[other] = occ.get(other, 0) + 1
            terms[BasisState.from_dict(occ)] = complex(k + 1, -0.0)
    state = PhotonState(terms, 0.0).reindexed(index)
    assert state.packing == (index, 3)
    assert bits(fock.transform_slots(state, compiled)) == bits(
        reference_transform(state, TEST_MAPS[name])
    )
    forms = {isinstance(offsets, int) for _, _, offsets in compiled.programs.values()}
    assert forms == {compiled.chain}
    if compiled.chain:
        roots = {root for _, creations, _ in compiled.programs.values() for _, root in creations}
        assert max(roots) > 1.0


@pytest.mark.parametrize("name", sorted(CHAIN_MAPS))
def test_chain_maps_keep_the_bits_of_signed_zero_parts(name, rng):
    # A chain replay leaves out the expansion's ``0j +`` on each partial
    # product, which only sets the sign of a zero part.  Terms with a signed
    # zero part, on the map's sources and beside others whose outputs they
    # meet, keep the bits of the per-term expansion.
    index = fock.SlotIndex(ALL_SLOTS)
    slots = [*TEST_MAPS[name], *ALL_SLOTS[::5]]
    for photons in (1, 2, 3):
        compiled = fock.IndexedMap(TEST_MAPS[name], index, photons)
        for _ in range(20):
            terms = {}
            for _ in range(int(rng.integers(1, 9))):
                occ: dict = {}
                for _ in range(int(rng.integers(1, photons + 1))):
                    slot = slots[int(rng.integers(len(slots)))]
                    occ[slot] = occ.get(slot, 0) + 1
                zero, x = math.copysign(0.0, rng.normal()), rng.normal()
                amp = complex(zero, x) if rng.integers(2) else complex(x, zero)
                terms[BasisState.from_dict(occ)] = amp
            state = PhotonState(terms, 0.0).reindexed(index)
            expected = bits(reference_transform(state, TEST_MAPS[name]))
            assert bits(fock.transform_slots(state, compiled)) == expected


def pruned(state, tolerance):
    """``state`` built again by the pruning constructor."""
    return PhotonState.packed(state.packed_terms, *state.packing, tolerance)


@pytest.mark.parametrize("tolerance", [0.0, fock.DEFAULT_TOLERANCE])
def test_unpruned_paths_equal_their_pruned_forms(tolerance, rng):
    pairs = ((("a", POL_H), ("a", POL_V)), (("c", POL_F), ("c", POL_S)))
    for _ in range(100):
        state = random_fock_state(rng, int(rng.integers(1, 7)), tolerance)
        for factor in (1.0, 1.5, -2.0, 1 / math.sqrt(0.3), 0.5, 1j):
            result = scaled(state, factor)
            assert bits(result) == bits(pruned(result, tolerance))
        groups = fock.split_counts(state, pairs)
        expected = reference_split_counts(state, pairs)
        assert list(groups) == list(expected)
        for pattern, group in groups.items():
            assert bits(group) == bits(expected[pattern])
            assert bits(group) == bits(pruned(group, tolerance))
