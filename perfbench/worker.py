"""One benchmark process: set up a workload, then run one phase of it.

Started by ``run.py``, never by hand.  Phases:

- ``setup``: import, generate the inputs, warm up, report the set-up time
  and the speed probe (see ``speed.py``) timed just after it;
- ``run``: set up, then run the closed loop untraced for ``--seconds`` at
  the reference speed, timing the speed probe between slices of at most
  ``speed.PROBE_EVERY_S``, then the checks that repeat an operation;
- ``trace``: set up, then run each of the first ``--ops`` operations (the
  ones an earlier ``run`` process ran) once with the tracer installed and
  once without, compare every output with that run's, and report the
  per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from importlib import import_module

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: ``peak_rss_mb`` is read at the first block boundary after this many timed
#: ops.  The circuit streams hold larger circuits further on, so reading it
#: at the end would charge a faster program for getting further.
RSS_OPS = 100

#: Probes timed after set-up; the set-up time is scaled by their median.
SETUP_PROBES = 3

#: A run lasts ``--seconds`` at the reference speed (see speed.py), but
#: never longer than this many times ``--seconds`` of wall time.
WALL_LIMIT = 1.5


def _setup(args, workdir):
    """Import, generate and warm up; returns (workload, blocks, setup record)."""
    t0 = time.perf_counter()
    pbsgates = import_module("pbsgates")
    expected = os.path.join(ROOT, "src", "pbsgates")
    if os.path.dirname(os.path.abspath(pbsgates.__file__)) != expected:
        raise SystemExit(f"error: imported pbsgates from {pbsgates.__file__}, not {expected}")
    if args.workload == "oracle_verify":
        import_module("pbsgates.oracle")
    from workloads import WORKLOADS

    t1 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    blocks = workload.blocks()
    first = next(blocks)
    t2 = time.perf_counter()
    warmup = workload.warmup_ops()
    errors = []
    for op in warmup:
        _, out, error = _timed_call(workload, op)
        errors.append(error or workload.check(op, out))
    errors += workload.finish()
    t3 = time.perf_counter()
    setup_s = (time.monotonic_ns() - args.spawn_ns) * 1e-9
    setup = {
        "setup_s": setup_s,
        "setup_scale": speed.PROBE_REF_S / statistics.median(
            speed.probe() for _ in range(SETUP_PROBES)
        ),
        "import_ms": (t1 - t0) * 1e3,
        "generate_ms": (t2 - t1) * 1e3,
        "warmup_ms": (t3 - t2) * 1e3,
        "warmup_ops": len(warmup),
        "warmup_failures": [e for e in errors if e],
    }

    def all_blocks():
        yield first
        yield from blocks

    return workload, all_blocks(), setup


def _timed_call(workload, op):
    start = time.perf_counter_ns()
    try:
        out = workload.run(op)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        return time.perf_counter_ns() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, out, None


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phase_run(args, workload, blocks, record):
    latencies = []
    slice_of = []
    failures = []
    digests = []
    peak_rss_mb = None
    clock = speed.ReferenceClock()
    wall_deadline = time.perf_counter() + WALL_LIMIT * args.seconds
    for block in blocks:
        for op in block:
            # Probe right before an op when the last probe is stale, and
            # right after it when it ran long, so that a long op is scaled
            # by the speed around it, not around its output check.
            if clock.due():
                clock.close_slice()
            elapsed, out, error = _timed_call(workload, op)
            latencies.append(elapsed)
            slice_of.append(clock.slice)
            if clock.due():
                clock.close_slice()
            if error is None:
                error = workload.check(op, out)
            if error:
                failures.append(error)
            if args.digests:
                digests.append(workload.digest(out) if out is not None else "")
        if peak_rss_mb is None and len(latencies) >= RSS_OPS:
            peak_rss_mb = _peak_rss_mb()
        if clock.elapsed >= args.seconds or time.perf_counter() >= wall_deadline:
            break
    clock.close_slice()
    failures += workload.finish()
    if args.digests:
        with open(args.digests, "w", encoding="utf-8") as handle:
            handle.write("\n".join(digests) + "\n")
    record.update(
        latencies_ns=latencies,
        scales=[clock.scale(i) for i in slice_of],
        probes_s=clock.probes,
        failures=failures,
        peak_rss_mb=peak_rss_mb or _peak_rss_mb(),
    )


def phase_trace(args, workload, blocks, record):
    from tracing import Tracer, layer_metrics

    with open(args.digests, encoding="utf-8") as handle:
        expected = handle.read().splitlines()
    n_ops = min(args.ops, len(expected))
    ops = []
    for block in blocks:
        ops.extend(block)
        if len(ops) >= n_ops:
            break
    ops = ops[:n_ops]

    tracer = Tracer()
    failures = []
    spent = {True: 0, False: 0}
    for i, op in enumerate(ops):
        # Each op runs traced and untraced back to back, in alternating
        # order, so the overhead ratio compares the same work at nearly the
        # same moment; both outputs must equal the untraced run's.
        for traced in (True, False) if i % 2 == 0 else (False, True):
            if traced:
                tracer.op_id = i
                tracer.install()
            try:
                elapsed, out, error = _timed_call(workload, op)
            finally:
                if traced:
                    try:
                        tracer.remove()
                    except RuntimeError as exc:
                        failures.append(str(exc))
            spent[traced] += elapsed
            if error is None and workload.digest(out) != expected[i]:
                kind = "traced" if traced else "untraced"
                error = f"op {i}: {kind} output differs from the untraced run"
            if error:
                failures.append(error)
    tracer.write(os.path.join(args.out_dir, f"spans-{args.workload}-{args.seed}.tsv.gz"))
    record.update(
        traced_ops=len(ops),
        overhead_ratio=spent[True] / spent[False] if spent[False] else 0.0,
        failures=failures,
        layers=layer_metrics(tracer, len(ops)),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--digests")
    parser.add_argument("--ops", type=int, default=0)
    args = parser.parse_args(argv)

    # The same path in every process of a run: circuit paths appear in the
    # reports, which the trace phase compares byte for byte.
    workdir = os.path.join(args.out_dir, f"work-{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload, blocks, record = _setup(args, workdir)
        if args.phase == "run":
            phase_run(args, workload, blocks, record)
        elif args.phase == "trace":
            phase_trace(args, workload, blocks, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
