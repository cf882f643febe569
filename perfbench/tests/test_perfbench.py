"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from pbsgates import circuit, cli, dsl, fock, gates, optics, oracle  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import zoo  # noqa: E402


def _photons(spec) -> int:
    return sum(len(decl.modes) for decl in spec.inputs)


def test_zoo_is_deterministic_per_seed():
    assert zoo.generate_zoo(7, 3) == zoo.generate_zoo(7, 3)
    assert zoo.generate_zoo(7, 3) != zoo.generate_zoo(8, 3)


def test_zoo_shapes_do_not_depend_on_seed():
    def skeleton(text):
        return sorted(line.split()[0] for line in text.splitlines())

    a = sorted(map(skeleton, zoo.generate_zoo(1, 4)))
    b = sorted(map(skeleton, zoo.generate_zoo(2, 4)))
    assert a == b


@pytest.mark.parametrize("photons", [workloads.ORACLE_PHOTONS, (2, 3, 4, 5, 6)])
def test_zoo_circuits_are_valid_and_round_trip(photons):
    texts = zoo.generate_zoo(3, 4, photons)
    specs = [dsl.parse_circuit(text) for text in texts]
    assert len(set(specs)) == len(specs)
    assert sorted(_photons(s) for s in specs) == sorted(list(photons) * 4)
    for spec in specs:
        assert dsl.parse_circuit(dsl.format_circuit(spec)) == spec
        detected = {det.mode for det in spec.detectors}
        assert spec.outputs and not detected & set(spec.outputs)
        for rule in spec.rules:
            assert {c.mode for c in rule.corrections} <= set(spec.outputs)
        result = circuit.execute(spec)
        total = result.success_probability + sum(result.rejected.values())
        assert abs(total - 1.0) < 1e-9
        if max(photons) <= max(workloads.ORACLE_PHOTONS):
            oracle.DenseCircuit(spec)


def test_sweep_blocks_follow_the_mix_half_passive(tmp_path):
    sweep = workloads.GateSweep(1, str(tmp_path))
    ops = _sample_ops(sweep, 2)
    for name, count in workloads.SWEEP_MIX.items():
        calls = [op for op in ops if op[1] == name]
        assert len(calls) == 2 * count
        assert sum(op[3] for op in calls) == count


def test_zoo_stream_never_repeats_a_circuit():
    stream = zoo.zoo_blocks(4)
    texts = [text for _, block in zip(range(100), stream) for text in block]
    specs = {dsl.parse_circuit(text) for text in texts}
    assert len(specs) == len(texts) == 100 * 5


def test_reference_clock_scales_each_slice_by_the_probes_around_it(monkeypatch):
    ref = speed.PROBE_REF_S
    probes = iter([ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    clock = speed.ReferenceClock()
    assert clock.slice == 0
    clock.close_slice()
    clock.close_slice()
    assert clock.slice == 2
    assert [clock.scale(0), clock.scale(1)] == pytest.approx([2 / 3, 1 / 2])
    assert 0 <= clock.elapsed < 1


def test_speed_probe_does_not_run_the_program():
    assert not any(name == "pbsgates" or name.startswith("pbsgates.") for name in vars(speed))
    assert speed.probe() > 0


def _sample_ops(workload, n_blocks=1):
    ops = []
    for _, block in zip(range(n_blocks), workload.blocks()):
        ops.extend(block)
    return ops


@pytest.fixture
def workdir():
    path = os.path.join(run.OUT_DIR, f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


PATCHED = [
    (circuit, "execute"),
    (gates, "execute"),
    (cli, "execute"),
    (circuit, "enumerate_outcomes"),
    (circuit, "apply_feedforward"),
    (circuit, "build_input_state"),
    (optics, "apply_element"),
    (fock, "transform_slots"),
    (fock, "rebase_polarization"),
    (fock, "tensor"),
    (fock.BasisState, "from_dict"),
    (dsl, "parse_circuit"),
    (cli, "main"),
    (gates, "fidelity"),
    (oracle, "element_operator"),
    (oracle.DenseCircuit, "__init__"),
    (oracle.DenseCircuit, "run"),
] + [(gates, name) for name in gates.GATE_NAMES]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_and_wrappers_are_removed(name, workdir):
    workload = workloads.WORKLOADS[name](5, workdir)
    ops = _sample_ops(workload)[:200]
    untraced = [workload.digest(workload.run(op)) for op in ops]
    originals = [owner.__dict__[attr] for owner, attr in PATCHED]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(
            owner.__dict__[attr] is not original
            for (owner, attr), original in zip(PATCHED, originals)
        )
        traced = []
        for i, op in enumerate(ops):
            tracer.op_id = i
            out = workload.run(op)
            assert workload.check(op, out) is None
            traced.append(workload.digest(out))
    finally:
        tracer.remove()
    assert workload.finish() == []

    assert traced == untraced
    assert all(
        owner.__dict__[attr] is original
        for (owner, attr), original in zip(PATCHED, originals)
    )
    assert [workload.digest(workload.run(op)) for op in ops[:2]] == untraced[:2]
    layers = tracing.layer_metrics(tracer, len(ops))
    assert set(layers) <= set(run.declared_units("per_layer"))
    assert layers["fock.transform_slots.calls"] > 0
    assert layers["circuit.execute.calls"] >= 1
    assert 0 < layers["circuit.useful_terms_ratio"] <= 1
    busy = {
        "gate_sweep": "gates.cnot.p50_ms",
        "circuit_zoo": "cli.main.ms",
        "oracle_verify": "oracle.compile.ms",
    }[name]
    assert layers[busy] > 0


def test_checks_reject_wrong_outputs(workdir):
    sweep = workloads.GateSweep(1, workdir)
    op = ("gate", "cnot", (gates.TwoQubitState(1, 0, 0, 0),), False)
    report = sweep.run(op)
    assert sweep.check(op, report) is None
    assert sweep.check(op[:3] + (True,), report) is not None
    report.fidelities[next(iter(report.fidelities))] = 0.5
    assert sweep.check(op, report) is not None

    verify = workloads.OracleVerify(1, workdir)
    op = ("gate", "cnot", (gates.TwoQubitState(0.5, 0.5, 0.5, 0.5),), False)
    sparse, dense = verify.run(op)
    assert verify.check(op, (sparse, dense)) is None
    pattern, (p, terms) = next(iter(dense.outcomes.items()))
    # A branch of rounding noise that only the dense oracle keeps is zero.
    noise = dict(dense.outcomes)
    noise[((9, 9),)] = (1e-34, terms)
    assert verify.check(op, (sparse, replace(dense, outcomes=noise))) is None
    # A real branch missing from one engine is a disagreement.
    del sparse.outcomes[pattern]
    assert verify.check(op, (sparse, dense)) is not None


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(name, trace):
    # A stray tolerance in the caller's environment must not reach the
    # program: 0.5 would prune gc_cnot to success 0.
    env = dict(os.environ, PBSGATES_AMP_TOLERANCE="0.5")
    done = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_units("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert any(
            line.startswith(f"{name} {metric} = ") and line.endswith(f" {unit}")
            for line in lines
        )
    assert any(line.startswith(f"{name} error_rate = 0.0 ") for line in lines)


def test_fails_without_the_program():
    bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for entry in os.listdir(BENCH):
            if entry.endswith(".py"):
                shutil.copy(os.path.join(BENCH, entry), os.path.join(bare, "perfbench"))
        done = _bench("--workload", "gate_sweep", "--seed", "1", "--seconds", "1", cwd=bare)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
