"""pbsgates benchmark: three closed-loop workloads through the public API.

Usage, from the repository root::

    python3 perfbench/run.py --workload gate_sweep --seed 1 --seconds 20 --trace 0

Workloads (one caller, no threads; see BENCHMARK.json for why each exists):

- ``gate_sweep``: the six ``gates.*`` builders on seeded random inputs;
- ``circuit_zoo``: ``pbsgates run --circuit`` in-process on distinct random
  circuit files with 2 to 6 photons;
- ``oracle_verify``: the dense oracle against the sparse engine on random
  circuits of up to 4 photons and on the six built-in gates.

With ``--trace 0`` the run reports the end-to-end metrics: throughput and
latency of the timed loop, set-up time (median over several fresh
processes), peak memory and the share of correct operations.  Every time is
scaled to a reference host speed by a probe timed between slices of the
loop (see speed.py); the wall-clock figures are printed in the notes.  With
``--trace 1`` it runs the loop untraced for half the time, then replays the
same operations in a second process, each once with a wrapper around every
module's public functions and once without, checks that every output is
unchanged, and reports the per-layer metrics.  Metric names and units come
from BENCHMARK.json.  Every operation's output is checked; any failure
makes ``correct`` false.  The last line of standard output is the JSON result.

The program is imported from ``src/`` next to this directory, in child
processes with a pinned environment: ``PBSGATES_AMP_TOLERANCE`` is removed
(``pbsgates run`` applies it process-wide, and a stray value silently
changes results), hash seed and BLAS threads are fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("gate_sweep", "circuit_zoo", "oracle_verify")

#: Fresh set-up-only processes per run, besides the measured process itself;
#: ``setup_s`` is the median over all of them.
SETUP_SAMPLES = 8
#: Every child must finish within this many seconds of the start of the run.
TIME_LIMIT_S = 170.0


def declared_units(kind: str) -> dict[str, str]:
    """Name and unit of every metric of ``kind`` in BENCHMARK.json, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PBSGATES_AMP_TOLERANCE", None)
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _commit() -> str:
    # A benchmark checkout need not be a git repository; never ask git to
    # look above the checkout.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": _commit(),
    }


class Children:
    """Starts worker processes one at a time, each bounded by the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = child_env()

    def run(self, phase, seconds, *extra) -> dict:
        spawn_ns = time.monotonic_ns()
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            phase,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", repr(seconds),
            "--spawn-ns", str(spawn_ns),
            "--out-dir", OUT_DIR,
            *extra,
        ]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"error: {phase} process ran past the {TIME_LIMIT_S:.0f} s limit")
        if proc.returncode != 0 or not stdout.strip():
            raise SystemExit(f"error: {phase} process exited with code {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(children, args):
    setups = [children.run("setup", args.seconds) for _ in range(SETUP_SAMPLES)]
    record = children.run("run", args.seconds)
    setups.append(record)
    # Times scaled to the reference speed of the probe (see speed.py).
    latencies = [ns * k for ns, k in zip(record["latencies_ns"], record["scales"])]
    attempted = len(latencies)
    failures = list(record["failures"])
    for s in setups:
        attempted += s["warmup_ops"]
        failures += s["warmup_failures"]
    metrics = {
        # Throughput over the time spent inside the timed calls; output
        # checks run between calls, off the clock.
        "ops_per_s": len(latencies) / (sum(latencies) * 1e-9),
        "latency_p50_ms": _percentile(latencies, 50) * 1e-6,
        "latency_p90_ms": _percentile(latencies, 90) * 1e-6,
        "setup_s": statistics.median(s["setup_s"] * s["setup_scale"] for s in setups),
        "peak_rss_mb": record["peak_rss_mb"],
        "correct_ratio": (attempted - len(failures)) / attempted,
    }
    wall = record["latencies_ns"]
    probes = record["probes_s"]
    notes = {
        "timed_ops": len(latencies),
        "setup_samples": len(setups),
        "probes": len(probes),
        "probe_median_ms": statistics.median(probes) * 1e3,
        "wall_ops_per_s": len(wall) / (sum(wall) * 1e-9),
        "wall_latency_p50_ms": _percentile(wall, 50) * 1e-6,
        "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    return metrics, declared_units("end_to_end"), attempted, failures, notes


def per_layer(children, args):
    digests = os.path.join(OUT_DIR, f"digests-{args.workload}-{args.seed}.txt")
    record = children.run("run", args.seconds / 2, "--digests", digests)
    n_ops = len(record["latencies_ns"])
    traced = children.run("trace", args.seconds / 2, "--digests", digests, "--ops", str(n_ops))
    attempted = record["warmup_ops"] + n_ops + traced["warmup_ops"] + 2 * traced["traced_ops"]
    failures = record["warmup_failures"] + record["failures"]
    failures += traced["warmup_failures"] + traced["failures"]
    if traced["traced_ops"] != n_ops:
        failures.append("traced run did not replay every untraced op")
    metrics = dict(traced["layers"])
    metrics["setup.import_ms"] = record["import_ms"]
    metrics["setup.generate_ms"] = record["generate_ms"]
    metrics["setup.warmup_ms"] = record["warmup_ms"]
    metrics["trace.overhead_ratio"] = traced["overhead_ratio"]
    notes = {"traced_ops": n_ops}
    return metrics, declared_units("per_layer"), attempted, failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "pbsgates", "__init__.py")):
        print(f"error: no pbsgates sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    machine = machine_record()
    children = Children(args)
    measure = per_layer if args.trace else end_to_end
    metrics, units, attempted, failures, notes = measure(children, args)
    failed = len(failures)
    if set(metrics) != set(units):
        differ = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"error: measured metrics differ from BENCHMARK.json: {differ}")

    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    print(f"{args.workload} error_rate = {failed / attempted!r} ({failed} of {attempted} ops)")
    for message in failures[:5]:
        print(f"{args.workload} failure: {message}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print("notes: " + json.dumps(notes, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
