"""Dense brute-force oracle: matrix properties and engine cross-checks."""

import ast
import inspect
import itertools
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from pbsgates import dsl, errors, gates, optics, oracle
from pbsgates.circuit import DetectorSpec, execute
from pbsgates.errors import (
    CircuitSyntaxError,
    DetectedModeReuse,
    MissingOutput,
    ModeCollision,
    TruncationTooSmall,
)
from pbsgates.fock import POL_H, POL_V
from pbsgates.gates import GATE_NAMES
from pbsgates.optics import BASIS_FS, BASIS_HV, PbsElement, PolPhaseElement, RotatorElement
from pbsgates.oracle import (
    _REBASE,
    DenseBasis,
    DenseCircuit,
    _expand_operator,
    _single_particle_matrix,
    _targets,
    compositions,
    run_dense,
)

from conftest import (
    basis_state,
    circuit_path,
    element_matrix,
    random_qubit,
    random_state,
    random_two_qubit,
    rebase_operator,
    vector_from_terms,
)

XY_SLOTS = [(m, p) for m in ("x", "y") for p in (POL_H, POL_V)]


def test_compositions_count():
    assert list(compositions(0, 1)) == [(0,)]
    for total, parts in ((2, 3), (3, 2), (4, 4)):
        found = list(compositions(total, parts))
        assert len(found) == math.comb(total + parts - 1, parts - 1)
        assert len(set(found)) == len(found)
        assert all(sum(c) == total for c in found)


def test_targets_are_the_compositions_read_only():
    for total in range(7):
        for parts in range(1, 9):
            rows = _targets(total, parts)
            assert rows.tolist() == [list(c) for c in compositions(total, parts)]
            assert rows.shape == (math.comb(total + parts - 1, parts - 1), parts)
            with pytest.raises(ValueError):
                rows[0, 0] = 1


def test_dense_basis_enumeration():
    basis = DenseBasis(XY_SLOTS, n_max=2)
    assert basis.dim == sum(
        math.comb(n + len(XY_SLOTS) - 1, len(XY_SLOTS) - 1) for n in range(3)
    )
    for i in range(basis.dim):
        state = basis_state(basis, i)
        back = vector_from_terms(basis, {state: 1.0})
        assert back[i] == 1.0
        assert np.count_nonzero(back) == 1


def in_place_elements():
    return [
        RotatorElement("x", 0.0),
        RotatorElement("x", 37.5),
        RotatorElement("y", 90.0),
        PolPhaseElement("x", POL_H, 180.0),
        PolPhaseElement("y", POL_V, 63.0),
        PbsElement("x", "y", "x", "y", BASIS_HV),
        PbsElement("x", "y", "x", "y", BASIS_FS),
    ]


def test_identity_element_is_identity_matrix():
    basis = DenseBasis(XY_SLOTS, n_max=3)
    u = element_matrix(RotatorElement("x", 0.0), basis)
    assert np.allclose(u, np.eye(basis.dim), atol=1e-12)


def test_element_matrices_unitary():
    basis = DenseBasis(XY_SLOTS, n_max=3)
    eye = np.eye(basis.dim)
    for el in in_place_elements():
        u = element_matrix(el, basis)
        assert np.allclose(u.conj().T @ u, eye, atol=1e-12), el


def test_hv_pbs_matrix_is_permutation():
    basis = DenseBasis(XY_SLOTS, n_max=3)
    u = element_matrix(PbsElement("x", "y", "x", "y", BASIS_HV), basis)
    assert np.allclose(np.abs(u) * (np.abs(u) - 1.0), 0.0, atol=1e-12)
    assert np.allclose(np.abs(u).sum(axis=0), 1.0)


def test_rebase_operator_unitary():
    basis = DenseBasis(XY_SLOTS, n_max=3)
    r = rebase_operator("x", basis).toarray()
    eye = np.eye(basis.dim)
    assert np.allclose(r.conj().T @ r, eye, atol=1e-12)


def test_element_matrix_matches_sparse_engine(rng):
    basis = DenseBasis(XY_SLOTS, n_max=3)
    for _ in range(100):
        st = random_state(rng, max_photons=3)
        el = in_place_elements()[rng.integers(len(in_place_elements()))]
        vec = vector_from_terms(basis, st.terms)
        dense_out = element_matrix(el, basis) @ vec
        sparse_out = optics.apply_element(st, el)
        expect = vector_from_terms(basis, sparse_out.terms)
        assert np.allclose(dense_out, expect, atol=1e-10)


def reference_expand(basis, ins, outs, u):
    """The multinomial expansion redone from scratch for every basis state."""
    in_idx = [basis.slots.index(s) for s in ins]
    out_idx = [basis.slots.index(s) for s in outs]
    n_out = len(outs)
    rows, cols, vals = [], [], []
    for col, state in enumerate(basis.states):
        counts = [state[i] for i in in_idx]
        if not any(counts):
            rows.append(col)
            cols.append(col)
            vals.append(1.0 + 0j)
            continue
        spect = list(state)
        for i in in_idx:
            spect[i] = 0
        in_norm = math.prod(math.factorial(n) for n in counts)
        per_slot = []
        for j, n_j in enumerate(counts):
            options = []
            if n_j == 0:
                options.append((tuple([0] * n_out), 1.0 + 0j))
            else:
                for dist in compositions(n_j, n_out):
                    weight = math.factorial(n_j)
                    amp = complex(1.0)
                    for i, k in enumerate(dist):
                        weight //= math.factorial(k)
                        amp *= u[i, j] ** k
                    options.append((dist, weight * amp))
            per_slot.append(options)
        accum = {}
        for combo in itertools.product(*per_slot):
            total_dist = [0] * n_out
            amp = complex(1.0)
            for dist, a in combo:
                amp *= a
                for i, k in enumerate(dist):
                    total_dist[i] += k
            if not amp:
                continue
            key = tuple(total_dist)
            accum[key] = accum.get(key, 0j) + amp
        for dist, amp in accum.items():
            target = list(spect)
            for i, k in zip(out_idx, dist):
                target[i] += k
            out_norm = 1.0
            for i in out_idx:
                out_norm *= math.factorial(target[i]) / math.factorial(spect[i])
            rows.append(basis.index[tuple(target)])
            cols.append(col)
            vals.append(amp * math.sqrt(out_norm / in_norm))
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))


def random_matrix(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_matrix(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def assert_expansion_matches_reference(basis, ins, outs, u):
    got = _expand_operator(basis, ins, outs, u).toarray()
    expected = reference_expand(basis, ins, outs, u).toarray()
    assert np.allclose(got, expected, rtol=0.0, atol=1e-12)


def test_expansion_matches_per_state_reference(rng):
    basis = DenseBasis(XY_SLOTS, n_max=4)
    for el in in_place_elements():
        assert_expansion_matches_reference(basis, *_single_particle_matrix(el))
    for mode in ("x", "y"):
        slots = [(mode, POL_H), (mode, POL_V)]
        assert_expansion_matches_reference(basis, slots, slots, _REBASE)
    for slots in (XY_SLOTS, XY_SLOTS[:2], XY_SLOTS[1:3], XY_SLOTS[3:]):
        for _ in range(3):
            u = random_unitary(rng, len(slots))
            assert_expansion_matches_reference(basis, slots, slots, u)


def test_expansion_onto_occupied_output_slots_matches_reference(rng):
    # ins != outs, with spectator photons already on the output slots, so
    # the bosonic factor of each image depends on the state's spectators.
    slots = XY_SLOTS + [("z", POL_H), ("z", POL_V)]
    basis = DenseBasis(slots, n_max=4)
    for ins, outs in (
        (slots[:2], slots[2:4]),
        (slots[:2], slots[1:4]),
        (slots[:3], slots[3:]),
        (slots[4:], slots[:2]),
    ):
        for _ in range(3):
            u = random_matrix(rng, len(outs), len(ins))
            assert_expansion_matches_reference(basis, ins, outs, u)


def test_expansion_with_object_keys_matches_reference(rng):
    # A wide, sparse basis: 44 slots, photons on the first four, which the
    # maps act on, and at most one spectator far from them.
    slots = [(f"m{i}", pol) for i in range(22) for pol in (POL_H, POL_V)]
    states = []
    for spectator in (None, 21, 43):
        for n in range(3 if spectator is None else 2):
            for local in compositions(n, 4):
                state = list(local) + [0] * 40
                if spectator is not None:
                    state[spectator] = 1
                states.append(tuple(state))
    basis = DenseBasis(slots, n_max=2, states=states)
    assert_expansion_matches_reference(basis, slots[:2], slots[:2], _REBASE)
    for ins, outs in ((slots[:4], slots[:4]), (slots[:2], slots[1:4]), (slots[3:4], slots[:2])):
        for _ in range(3):
            u = random_matrix(rng, len(outs), len(ins))
            assert_expansion_matches_reference(basis, ins, outs, u)


def with_planted_zeros(rng, u):
    """``u`` with exact zeros of either sign planted at about half of its
    entries: the whole entry, or (if complex) its real or imaginary part."""
    u = u.copy()
    for i, j in zip(*np.nonzero(rng.random(u.shape) < 0.5)):
        zero = (0.0, -0.0)[rng.integers(2)]
        if u.dtype.kind == "f":
            u[i, j] = zero
        else:
            part = rng.integers(3)
            u[i, j] = complex(
                zero if part != 1 else u[i, j].real, zero if part != 0 else u[i, j].imag
            )
    return u


def test_expansion_with_zero_entries_matches_reference(rng):
    # Exact zeros of either sign, whole entries or one part, which make
    # many permanents structurally zero.
    slots = XY_SLOTS + [("z", POL_H), ("z", POL_V)]
    basis = DenseBasis(slots, n_max=4)
    for ins, outs in (
        (slots[:4], slots[:4]),
        (slots[:2], slots[:2]),
        (slots[:2], slots[2:5]),
        (slots[:3], slots[3:]),
        (slots[4:], slots[:3]),
    ):
        for _ in range(4):
            u = random_matrix(rng, len(outs), len(ins))
            for planted in (with_planted_zeros(rng, u), with_planted_zeros(rng, u.real)):
                assert_expansion_matches_reference(basis, ins, outs, planted)


def test_expansion_outside_the_basis_raises():
    basis = DenseBasis(XY_SLOTS, n_max=1, states=[(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
    # The HV PBS reflects x:V onto y:V, which the basis lacks.
    with pytest.raises(TruncationTooSmall, match=r"\(0, 0, 0, 1\)"):
        element_matrix(PbsElement("x", "y", "x", "y", BASIS_HV), basis)
    with pytest.raises(ValueError):
        DenseBasis(XY_SLOTS, n_max=1, states=[(1, 1, 0, 0)])


def test_pbs_matrices_are_read_only_constants():
    route = np.zeros((4, 4))
    route[0, 0] = route[3, 1] = route[2, 2] = route[1, 3] = 1.0
    both = np.kron(np.eye(2), _REBASE)
    expected = {BASIS_HV: route, BASIS_FS: np.linalg.inv(both) @ route @ both}
    for basis, matrix in expected.items():
        _, _, u = _single_particle_matrix(PbsElement("x", "y", "x", "y", basis))
        assert np.array_equal(u, matrix)
        assert u is _single_particle_matrix(PbsElement("a", "b", "c", "d", basis))[2]
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 0.5


def per_column_glynn(u, outs, ins):
    """``oracle._amplitudes`` as it was written before it batched the input
    columns: Glynn's formula with one matrix product per input column."""
    amps = np.zeros((len(outs), len(ins)), dtype=complex)
    if not amps.size:
        return amps
    n = int(ins[0].sum())
    if n == 0:
        return amps + 1.0
    deltas, weights = oracle._glynn(n)
    slots = np.arange(u.shape[0])
    out_photons = np.repeat(np.tile(slots, len(outs)), outs.ravel()).reshape(-1, n)
    in_photons = np.repeat(np.tile(slots, len(ins)), ins.ravel()).reshape(-1, n)
    factorial = np.cumprod(np.arange(n + 1, dtype=float).clip(1.0))
    norms = np.sqrt(np.outer(factorial[outs].prod(axis=1), factorial[ins].prod(axis=1)))
    for c, photons in enumerate(in_photons):
        sums = u[:, photons] @ deltas
        products = sums[out_photons[:, 0]]
        for k in range(1, n):
            products = products * sums[out_photons[:, k]]
        amps[:, c] = products @ weights
    return amps / norms


def assert_amplitudes_match_per_column(u, outs, ins):
    got = oracle._amplitudes(u, outs, ins)
    assert got.shape == (len(outs), len(ins))
    assert np.allclose(got, per_column_glynn(u, outs, ins), rtol=0.0, atol=1e-12)


def test_batched_amplitudes_match_the_per_column_reference(rng):
    for slots in (1, 2, 4, 6):
        u = random_unitary(rng, slots)
        for n in range(6):
            targets = _targets(n, slots)
            # Every configuration as output; as inputs a random subset, which
            # for n >= 2 has rows with two photons on one slot.
            ins = targets[rng.permutation(len(targets))[: max(1, len(targets) // 2)]]
            assert_amplitudes_match_per_column(u, targets, ins)
            assert_amplitudes_match_per_column(u, targets[::3], targets)


def test_batched_amplitudes_of_doubly_occupied_inputs(rng):
    # The buckets that ``_apply_corrections`` maps hold rows like these.
    u = random_unitary(rng, 4)
    ins = np.array([[2, 0, 0, 0], [0, 2, 1, 0], [1, 0, 0, 2], [0, 0, 3, 0]])
    assert_amplitudes_match_per_column(u, _targets(3, 4), ins[1:])
    assert_amplitudes_match_per_column(u, _targets(2, 4), ins[:1])


def test_batched_amplitudes_with_no_outputs_or_no_inputs(rng):
    u = random_unitary(rng, 4)
    targets = _targets(2, 4)
    for outs, ins in ((targets[:0], targets), (targets, targets[:0]), (targets[:0], targets[:0])):
        assert_amplitudes_match_per_column(u, outs, ins)


@pytest.mark.parametrize("budget", [1, 40, 1000])
def test_batched_amplitudes_split_into_chunks(monkeypatch, rng, budget):
    # 4 slots and 3 photons: 20 outputs and 4 signs, 80 entries per column,
    # so a budget of 1 or 40 takes one column per chunk and 1000 takes 12,
    # which leaves a shorter last chunk.
    u = random_unitary(rng, 4)
    targets = _targets(3, 4)
    monkeypatch.setattr(oracle, "_CHUNK_ENTRIES", budget)
    assert_amplitudes_match_per_column(u, targets, targets)


def pattern_of(basis, state, detectors):
    return tuple(
        (
            state[basis.slots.index((det.mode, POL_H))],
            state[basis.slots.index((det.mode, POL_V))],
        )
        for det in detectors
    )


def detector_patterns(basis, detectors):
    """Every joint count pattern that occurs in the basis, in index order."""
    return list(dict.fromkeys(pattern_of(basis, state, detectors) for state in basis.states))


def outcome_projector(pattern, basis, detectors):
    """Orthogonal 0/1 projector onto one joint detection outcome."""
    return np.diag(
        [1.0 if pattern_of(basis, state, detectors) == pattern else 0.0 for state in basis.states]
    )


def test_projectors_complete_idempotent_orthogonal():
    basis = DenseBasis(XY_SLOTS, n_max=2)
    detectors = (DetectorSpec("x", BASIS_HV, "x"), DetectorSpec("y", BASIS_HV, "y"))
    patterns = detector_patterns(basis, detectors)
    projectors = [outcome_projector(p, basis, detectors) for p in patterns]
    total = sum(projectors)
    assert np.array_equal(total, np.eye(basis.dim))
    for i, p in enumerate(projectors):
        assert np.array_equal(p @ p, p)
        for q in projectors[i + 1:]:
            assert not np.any(p @ q)


def assert_engines_agree(result, dense, amp_tol=1e-10, prob_tol=1e-12):
    assert set(result.outcomes) == set(dense.outcomes)
    assert abs(result.success_probability - dense.success_probability) < prob_tol
    for pattern, (probability, state) in result.outcomes.items():
        d_prob, d_terms = dense.outcomes[pattern]
        assert abs(probability - d_prob) < prob_tol
        keys = set(state.terms) | set(d_terms)
        for key in keys:
            assert abs(state.amplitude(key) - d_terms.get(key, 0j)) < amp_tol
    for pattern, probability in result.rejected.items():
        assert abs(probability - dense.rejected.get(pattern, 0.0)) < prob_tol


def test_dense_matches_sparse_on_shipped_circuits():
    for name in GATE_NAMES:
        with open(circuit_path(name), encoding="utf-8") as handle:
            spec = dsl.parse_circuit(handle.read())
        assert_engines_agree(execute(spec), run_dense(spec))
        assert_engines_agree(
            execute(spec, passive=True), run_dense(spec, passive=True)
        )


EMPTY_MODE_CIRCUITS = {
    "vacuum PBS input port": """
        mode a
        mode b
        input qubit a 0.6 0 0.8 0
        pbs hv a b a b
        detect hv a as d
        output b
    """,
    "rotator on an empty mode": """
        mode a
        mode b
        input qubit a 0.6 0 0.8 0
        rotate b 30
        detect hv a as d
        output b
    """,
    "detector on an empty mode": """
        mode a
        mode b
        input qubit a 0.6 0 0.8 0
        detect fs b as d
        output a
    """,
    "correction on an empty mode": """
        mode a
        mode b
        mode c
        input qubit a 0.6 0 0.8 0
        pbs hv a b a b
        rotate b 45
        detect hv a as d
        on d H do rotate c 90 ; polphase c V 90
        output b c
    """,
    "mode emptied by a PBS, then used": """
        mode a
        mode b
        mode c
        mode d
        input qubit a 0.6 0 0.8 0
        input qubit b 0 0 1 0
        pbs hv a b c d
        rotate a 45
        polphase a H 30
        detect hv c as x
        output a d
    """,
    "rotator on an empty mode, then a PBS writes onto it": """
        mode a
        mode b
        mode c
        mode d
        input qubit a 0.6 0 0.8 0
        rotate c 30
        pbs hv a b c d
        detect hv d as x
        output c
    """,
    "PBS writes onto a mode an earlier PBS left empty": """
        mode a
        mode b
        mode c
        mode d
        mode e
        input qubit a 1 0 0 0
        pbs hv a b c d
        pbs hv e b d e
        detect hv e as x
        output c
    """,
    "no inputs": """
        mode a
        output a
    """,
}


@pytest.mark.parametrize("name", sorted(EMPTY_MODE_CIRCUITS))
def test_dense_runs_elements_and_detectors_on_empty_modes(name):
    spec = dsl.parse_circuit(EMPTY_MODE_CIRCUITS[name])
    for passive in (False, True):
        assert_engines_agree(execute(spec, passive=passive), run_dense(spec, passive=passive))


def test_dense_runs_a_group_of_more_than_64_slots():
    # 31 empty modes chained by PBSs, then coupled to y and z, which hold
    # the photons and sort last: 66 slots in one group, the photons' slots
    # at 62-65, past what one bit per slot of the group fits in an int64.
    chain = [f"m{i:02d}" for i in range(31)]
    text = "\n".join(
        [f"mode {m}" for m in chain + ["y", "z"]]
        + ["input qubit y 0.6 0 0.8 0", "input qubit z 0.8 0 0 0.6"]
        + [f"pbs hv {a} {b} {a} {b}" for a, b in zip(chain, chain[1:])]
        + ["pbs hv y z y z", "pbs hv z m00 z m00", "detect hv m00 as x", "output y z"]
    )
    spec = dsl.parse_circuit(text)
    dense = DenseCircuit(spec)
    assert [block.stop - block.start for block in dense.blocks] == [66]
    for passive in (False, True):
        assert_engines_agree(execute(spec, passive=passive), dense.run(spec, passive=passive))


REFUSED_CIRCUITS = {
    "PBS output onto a mode that holds a photon": (
        """
        mode a
        mode b
        mode c
        mode d
        input qubit a 0.6 0 0.8 0
        input qubit c 1 0 0 0
        pbs hv a b c d
        detect hv d as x
        output c
        """,
        ModeCollision,
    ),
    "photon left on a mode neither detected nor an output": (
        """
        mode a
        mode b
        mode c
        input qubit a 0.6 0 0.8 0
        input qubit c 1 0 0 0
        pbs hv a b a b
        detect hv b as x
        output a
        """,
        MissingOutput,
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSED_CIRCUITS))
def test_dense_refuses_what_the_engine_refuses(name):
    text, error = REFUSED_CIRCUITS[name]
    spec = dsl.parse_circuit(text)
    with pytest.raises(error) as engine:
        execute(spec)
    with pytest.raises(error) as dense:
        run_dense(spec)
    assert str(dense.value) == str(engine.value)


def test_dense_drops_rounding_noise_left_on_a_mode_it_keeps_empty():
    # H rotated by 45 degrees is F, which the FS PBS sends whole onto c; the
    # composed network leaves about 6e-17 on d, which the engine prunes.
    spec = dsl.parse_circuit("""
        mode a
        mode b
        mode c
        mode d
        input qubit a 1 0 0 0
        rotate a 45
        pbs fs a b c d
        detect fs c as x
        output a
    """)
    dense = DenseCircuit(spec)
    vec = dense.operator @ dense.input_vector(spec)
    stray = dense.basis.occupations[:, dense._empty_slots].any(axis=1)
    assert 0.0 < np.abs(vec[stray]).max() < 1e-12
    for passive in (False, True):
        result, run = execute(spec, passive=passive), dense.run(spec, passive=passive)
        # Like every dense run, it keeps branches of rounding noise elsewhere.
        noise = [run.outcomes.pop(p)[0] for p in set(run.outcomes) - set(result.outcomes)]
        assert max(noise, default=0.0) < 1e-24
        assert_engines_agree(result, run)


def test_dense_reports_no_rounding_noise_as_an_outcome():
    # Before the FS PBS the pair is F_a S_b + S_a F_b, which it sends whole
    # onto a or onto b: the detector counts (1, 1) or (0, 0), both rejected.
    # The composed network leaves about 1e-17 on the rows with one photon
    # on a, which the engine prunes.
    spec = dsl.parse_circuit("""
        mode a
        mode b
        input bell b a
        pbs hv a b a b
        polphase a V 180
        pbs fs a b a b
        detect fs a as La
        output b
    """)
    for passive in (False, True):
        engine, dense = execute(spec, passive=passive), run_dense(spec, passive=passive)
        assert engine.outcomes == {} and dense.outcomes == {}
        assert sorted(dense.rejected) == sorted(engine.rejected)
        assert_engines_agree(engine, dense)


def test_a_run_of_the_compiled_spec_reuses_its_input_terms(monkeypatch):
    specs = [gates.cnot(gates.TwoQubitState(0.5, 0.5j, -0.5, 0.5)).spec]
    for name in GATE_NAMES:
        with open(circuit_path(name), encoding="utf-8") as handle:
            specs.append(dsl.parse_circuit(handle.read()))
    for spec in specs:
        dense = DenseCircuit(spec)
        calls = []
        original = oracle._input_terms
        monkeypatch.setattr(
            oracle, "_input_terms", lambda *args: calls.append(args) or original(*args)
        )
        compiled = dense.input_vector(spec)
        assert calls == []
        # A spec equal to the compiled one, but not the same object, is
        # built afresh, with the same bits.
        other = dense.input_vector(spec._replace())
        assert len(calls) == 1
        assert compiled.tobytes() == other.tobytes()
        monkeypatch.undo()


def test_dense_applies_elements_in_order():
    # Rotators and beam splitters on shared modes do not commute, so the
    # network matrix must be composed in the circuit's order.
    spec = dsl.parse_circuit("""
        mode a
        mode b
        input qubit a 0.6 0 0.8 0
        input qubit b 0 0.6 0.8 0
        rotate a 22.5
        pbs hv a b a b
        rotate b 45
        polphase a V 60
        pbs fs a b a b
        rotate a 10
        detect fs a as d
        output b
    """)
    for passive in (False, True):
        assert_engines_agree(execute(spec, passive=passive), run_dense(spec, passive=passive))


def test_dense_circuit_reusable_across_inputs(rng):
    from conftest import random_qubit
    from pbsgates.gates import parity_check

    compiled = None
    for _ in range(5):
        report = parity_check(random_qubit(rng))
        if compiled is None:
            compiled = DenseCircuit(report.spec)
        assert_engines_agree(report.result, compiled.run(report.spec))


def shipped_spec(name):
    with open(circuit_path(name), encoding="utf-8") as handle:
        return dsl.parse_circuit(handle.read())


COMPILED_SPECS = pytest.mark.parametrize(
    "spec",
    [shipped_spec(name) for name in GATE_NAMES]
    + [dsl.parse_circuit(text) for text in EMPTY_MODE_CIRCUITS.values()],
    ids=list(GATE_NAMES) + list(EMPTY_MODE_CIRCUITS),
)


@COMPILED_SPECS
def test_basis_is_the_product_of_the_group_sectors(spec):
    # The reference enumeration: every group holds its input photons.
    dense = DenseCircuit(spec)
    sectors = [
        compositions(int(dense.basis.occupations[0, block].sum()), block.stop - block.start)
        for block in dense.blocks
    ]
    expected = [sum(combo, ()) for combo in itertools.product(*sectors)]
    assert dense.basis.states == expected
    assert dense.basis.dim == len(expected)


@COMPILED_SPECS
def test_network_unitary_is_unitary_and_block_diagonal(spec):
    dense = DenseCircuit(spec)
    u = dense.unitary
    size = len(dense.basis.slots)
    assert u.shape == (size, size)
    assert np.allclose(u.conj().T @ u, np.eye(size), rtol=0.0, atol=1e-12)
    outside = u.copy()
    covered = np.zeros(size, dtype=int)
    for block in dense.blocks:
        outside[block, block] = 0.0
        covered[block] += 1
    assert np.array_equal(covered, np.ones(size, dtype=int))
    assert not outside.any()


def off_diagonal(matrix):
    matrix[0, 1] += 1e-7
    return matrix


@pytest.mark.parametrize(
    "perturb, refused",
    # np.allclose's rule: |G - I| <= 1e-10 + 1e-5 |I|, so G = U^H U may be
    # off by about 2e-7 on its diagonal but not off it.
    [(lambda matrix: matrix * (1 + 1e-7), False), (off_diagonal, True)],
    ids=["diagonal", "off-diagonal"],
)
def test_network_unitary_check_follows_allclose(monkeypatch, perturb, refused):
    compose = oracle._compose
    monkeypatch.setattr(oracle, "_compose", lambda *args: perturb(compose(*args)))
    spec = shipped_spec("parity_check")
    if refused:
        with pytest.raises(ValueError, match="not unitary"):
            DenseCircuit(spec)
    else:
        DenseCircuit(spec)


@pytest.mark.parametrize("name", GATE_NAMES)
def test_operator_holds_only_the_support_columns(name):
    # perfbench reads ``basis.dim`` and ``operator.nnz`` of each compile.
    spec = shipped_spec(name)
    dense = DenseCircuit(spec)
    dense.run(spec)
    # A run multiplies by the dense images; the CSR operator is built on read.
    assert "operator" not in vars(dense)
    assert dense.images.shape == (dense.basis.dim, len(dense.support))
    assert sorted(dense.support.values()) == list(range(len(dense.support)))
    # Column c is the image of the configuration that ``support`` maps to c,
    # here as permanents of the whole network matrix instead of its blocks.
    columns = np.array(sorted(dense.support, key=dense.support.get), dtype=np.int64)
    images = oracle._amplitudes(dense.unitary, dense.basis.occupations, columns)
    assert np.allclose(dense.images, images, rtol=0.0, atol=1e-12)
    operator = dense.operator
    assert sp.issparse(operator) and operator.format == "csr"
    assert np.array_equal(operator.toarray(), dense.images)
    assert operator.nnz == np.count_nonzero(dense.images)
    assert dense.operator is operator
    assert "states" not in vars(dense.basis)
    assert "index" not in vars(dense.basis)


#: What ``oracle.py`` may import from the package: types, predicates and
#: constants, never a simulation routine of the sparse engine.
ORACLE_IMPORTS = {
    "circuit": {"CircuitSpec", "OutcomePattern", "is_1ao1", "is_passive", "validate"},
    "fock": {"POL_H", "POL_V", "BasisState", "Slot"},
    "optics": {"BASIS_FS", "BASIS_HV", "PbsElement", "PolPhaseElement", "RotatorElement"},
    "record": {"Record"},
    "errors": {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    },
}


def imported_module(node):
    """The package module that an import statement reads from: ``""`` for
    the package itself, ``None`` for a module outside it."""
    if isinstance(node, ast.Import):
        return "" if any(a.name.split(".")[0] == "pbsgates" for a in node.names) else None
    if node.level:
        return node.module or ""
    package, _, module = (node.module or "").partition(".")
    return module if package == "pbsgates" else None


def test_oracle_shares_no_simulation_code_with_the_engine():
    # ``import pbsgates.fock`` or ``from . import optics`` would hand over a
    # whole engine module, so only named imports of the allow-list pass.
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        module = imported_module(node)
        if module is None:
            continue
        assert module in ORACLE_IMPORTS, (node.lineno, module)
        names = {alias.name for alias in node.names}
        assert names <= ORACLE_IMPORTS[module], (node.lineno, names - ORACLE_IMPORTS[module])


def test_only_fock_names_the_least_magnitude():
    # The prune floor has one owner: every other module asks fock.prune_floor.
    for path in sorted(Path(oracle.__file__).parent.glob("*.py")):
        if path.name == "fock.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (getattr(node, "id", None), getattr(node, "attr", None))
            if isinstance(node, ast.alias):
                names = (node.name, node.asname)
            assert "_LEAST_MAGNITUDE" not in names, (path.name, node.lineno)


UNNORMALIZED = """\
mode a
mode b
input qubit a 1 0 1 0
pbs hv a b a b
detect hv b as x
output a
"""


def test_run_refuses_an_unnormalized_input_as_the_engine_does():
    spec = dsl.parse_circuit(UNNORMALIZED)
    for run in (execute, oracle.run_dense):
        with pytest.raises(errors.NonPhysicalInput, match="input squared norm is 2.0"):
            run(spec)


def test_run_refuses_an_amplitude_too_large_to_square():
    spec = dsl.parse_circuit(UNNORMALIZED.replace("1 0 1 0", "0.6 0 1e200 0"))
    for run in (execute, oracle.run_dense):
        with pytest.raises(errors.NonPhysicalInput, match="input squared norm is inf"):
            run(spec)


def test_run_refuses_an_input_outside_the_compiled_support():
    spec = shipped_spec("cnot")
    dense = DenseCircuit(spec)
    (bell,) = [decl for decl in spec.inputs if decl.kind == "bell"]

    def with_pair(amplitudes):
        pair = bell._replace(kind="state", amplitudes=amplitudes)
        return spec._replace(inputs=tuple(pair if d is bell else d for d in spec.inputs))

    # HH + VV as a general two-qubit state is the compiled Bell pair.
    same = with_pair((math.sqrt(0.5), 0, 0, math.sqrt(0.5)))
    assert_engines_agree(execute(same), dense.run(same))
    # An HV term is a configuration that a Bell pair cannot hold.
    with pytest.raises(ValueError, match="outside the compiled support"):
        dense.run(with_pair((math.sqrt(0.5), math.sqrt(0.5), 0, 0)))


def test_run_checks_a_spec_other_than_the_compiled_one(monkeypatch):
    spec = shipped_spec("parity_check")
    dense = DenseCircuit(spec)
    qubit, ancilla = spec.inputs
    nan_qubit = spec._replace(inputs=(qubit._replace(amplitudes=(math.nan, 1.0)), ancilla))
    with pytest.raises(CircuitSyntaxError) as info:
        dense.run(nan_qubit)
    assert info.value.entry == ("inputs", 0, "2'", 0)
    with pytest.raises(DetectedModeReuse):
        dense.run(spec._replace(outputs=("2", "c")))
    (rule,) = spec.rules
    (flip,) = rule.corrections
    for field, value in (
        ("outputs", ("2", "a")),
        ("rules", (rule._replace(corrections=(flip._replace(phase_deg=90.0),)),)),
        ("modes", tuple(reversed(spec.modes))),
        ("inputs", (qubit._replace(modes=("a",)), ancilla._replace(modes=("2'",)))),
    ):
        with pytest.raises(ValueError, match=field):
            dense.run(spec._replace(**{field: value}))
    # Equal specs with other amplitudes run; the compiled spec itself is
    # not checked again.
    other = spec._replace(inputs=(qubit._replace(amplitudes=(0.6, 0.8j)), ancilla))
    assert_engines_agree(execute(other), dense.run(other))
    monkeypatch.setattr(oracle, "validate", None)
    assert_engines_agree(execute(spec), dense.run(spec))


GATE_CALLS = {
    "parity_check": lambda rng, passive: gates.parity_check(random_qubit(rng), passive),
    "destructive_cnot": lambda rng, passive: gates.destructive_cnot(
        random_qubit(rng), random_qubit(rng), passive
    ),
    "encoder": lambda rng, passive: gates.encoder(random_qubit(rng), passive),
    "cnot": lambda rng, passive: gates.cnot(random_two_qubit(rng), passive),
    "gc_cnot": lambda rng, passive: gates.gc_cnot(random_two_qubit(rng), passive),
    "chi_via_cnot": lambda rng, passive: gates.chi_via_cnot(passive),
}


def assert_dense_runs_agree(a, b, amp_tol=1e-10, prob_tol=1e-12):
    assert set(a.outcomes) == set(b.outcomes)
    assert set(a.rejected) == set(b.rejected)
    assert abs(a.success_probability - b.success_probability) < prob_tol
    for pattern, (probability, terms) in a.outcomes.items():
        b_prob, b_terms = b.outcomes[pattern]
        assert abs(probability - b_prob) < prob_tol
        for key in set(terms) | set(b_terms):
            assert abs(terms.get(key, 0j) - b_terms.get(key, 0j)) < amp_tol
    for pattern, probability in a.rejected.items():
        assert abs(probability - b.rejected[pattern]) < prob_tol


@pytest.mark.parametrize("name", GATE_NAMES)
def test_one_dense_circuit_serves_feedforward_and_passive_runs(name, rng):
    dense = None
    for passive in (False, True, False):
        report = GATE_CALLS[name](rng, passive)
        if dense is None:
            dense = DenseCircuit(report.spec)
        reused = dense.run(report.spec, passive=passive)
        assert_engines_agree(report.result, reused)
        fresh = DenseCircuit(report.spec).run(report.spec, passive=passive)
        assert_dense_runs_agree(fresh, reused)


def test_a_pattern_that_fires_no_rule_keeps_its_bucket():
    # parity_check corrects mode 2 on "c S"; an F count on c fires nothing.
    dense = DenseCircuit(shipped_spec("parity_check"))
    h, v = (dense.reduced_slots.index(("2", pol)) for pol in (POL_H, POL_V))
    bucket = {}
    for slot, amp in ((h, 0.6), (v, 0.8j)):
        reduced = [0] * len(dense.reduced_slots)
        reduced[slot] = 1
        bucket[tuple(reduced)] = amp
    assert dense._apply_corrections(bucket, ((1, 0),)) is bucket
    # An S count fires the H phase flip.
    flipped = dense._apply_corrections(bucket, ((0, 1),))
    assert set(flipped) == set(bucket)
    for reduced, amp in bucket.items():
        sign = -1.0 if reduced[h] else 1.0
        assert abs(flipped[reduced] - sign * amp) < 1e-12


def test_the_oracle_starts_and_runs_without_dataclasses():
    # The records that the oracle reads and returns are plain classes, so
    # neither its import nor a run loads ``dataclasses``.
    # ``site`` stays on for numpy, and a host's ``site`` may load
    # ``dataclasses`` itself, so the check is that the package adds nothing.
    code = textwrap.dedent("""
        import sys
        before = "dataclasses" in sys.modules
        from pbsgates import gates, oracle
        result = oracle.run_dense(gates._shipped_spec("parity_check"))
        print(result.success_probability > 0, before, "dataclasses" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ran, before, after = proc.stdout.split()
    assert ran == "True" and after == before


def test_the_oracle_runs_without_loading_scipy():
    # Compiling and running a dense circuit needs numpy alone; scipy.sparse
    # is loaded only by the functions that build a sparse operator.
    code = textwrap.dedent('''
        import sys
        import numpy as np
        from pbsgates import circuit, dsl, gates, oracle
        from pbsgates.gates import QubitState, TwoQubitState

        def scipy_loaded():
            return any(m.split(".")[0] == "scipy" for m in sys.modules)

        q = QubitState(0.6, 0.8j)
        two = TwoQubitState(0.5, 0.5j, -0.5, 0.5)
        specs = [
            gates.parity_check(q).spec,
            gates.destructive_cnot(q, QubitState(0.0, 1.0)).spec,
            gates.encoder(q).spec,
            gates.cnot(two).spec,
            gates.gc_cnot(two).spec,
            gates.chi_via_cnot().spec,
        ]
        # An FS detector whose S count fires a feed-forward correction.
        fs = dsl.parse_circuit("""
            mode a
            mode b
            input qubit a 0.6 0 0.8 0
            input qubit b 0 0.6 0.8 0
            rotate a 22.5
            pbs fs a b a b
            detect fs a as d
            on d S do polphase b H 180
            output b
        """)
        assert fs.rules and fs.detectors[0].basis == "fs"
        for spec in specs + [fs]:
            for passive in (False, True):
                dense = oracle.run_dense(spec, passive=passive)
                engine = circuit.execute(spec, passive=passive)
                assert abs(dense.success_probability - engine.success_probability) < 1e-9
        assert not scipy_loaded()

        compiled = oracle.DenseCircuit(fs)
        operator = compiled.operator
        element = oracle.element_operator(fs.elements[0], compiled.basis)
        assert scipy_loaded()
        import scipy.sparse as sp
        assert isinstance(operator, sp.csr_matrix) and isinstance(element, sp.csr_matrix)
        assert np.array_equal(operator.toarray(), compiled.images)
        print("ok")
    ''')
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
