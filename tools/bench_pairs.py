"""Alternating parent/change pairs of the benchmark, kept as a ``BENCH_<n>.json`` record.

Usage, from the repository root, with a copy of the parent commit in
``../parent`` (made with ``git archive``, say)::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --parent-commit <sha> --workload gate_sweep --seeds 2401-2410 \\
        --seconds 20 --out BENCH_22.json --change-text "..." --claim "..."

For each seed, ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each checkout, one run at a time; the parent runs
first on the first seed, the change on the second, and so on.  Each run's
result line is kept verbatim (parsed), and each end-to-end metric of
``BENCHMARK.json`` is summarised over the pairs (:func:`summarise`), and those
too spread to tell are listed apart (:func:`unresolved`).  The machine
record names the file system under each checkout (:func:`mount_record`),
since circuit_zoo writes a report file every op.  A ``--workload``
that the change's ``BENCHMARK.json`` does not list is refused before any
run.  If ``--out`` exists, it must have been recorded against the same
``--parent-commit`` and ``--seconds``, or the tool refuses it before any run;
the workloads run are added to it or replace its own, and the rest of the
record is rewritten from the arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The kernel's table of mounted file systems.
MOUNTS = "/proc/mounts"


def end_to_end_metrics(benchmark: dict) -> list[dict]:
    """The end-to-end metrics of a ``BENCHMARK.json`` record: name, better, bound."""
    return [
        {"name": m["name"], "better": m["better"], "bound": m["bound"]}
        for m in benchmark["end_to_end"]
    ]


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Each metric's quartiles on each side, the pairs that each side won, and
    how much worse the change's median is than the parent's, as a share of the
    parent's (negative: better), against the metric's bound."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        q_parent = statistics.quantiles(parent, n=4, method="inclusive")
        q_change = statistics.quantiles(change, n=4, method="inclusive")
        worse_by = sign * (q_parent[1] - q_change[1]) / q_parent[1] if q_parent[1] else 0.0
        summary[name] = {
            "parent_q1_median_q3": [round(q, 4) for q in q_parent],
            "change_q1_median_q3": [round(q, 4) for q in q_change],
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            "median_worse_by": round(worse_by, 4),
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"],
        }
    return summary


def unresolved(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """The metrics whose parent runs spread wider than the metric's bound: the
    distance between the parent's quartiles, as a share of the parent's median,
    exceeds it.  A metric on which every change run beats every parent run is
    resolved however wide the spread."""
    names = []
    for metric in metrics:
        name = metric["name"]
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else math.inf)
        if metric["better"] == "higher":
            beaten = min(change) > max(parent)
        else:
            beaten = max(change) < min(parent)
        if spread > metric["bound"] and not beaten:
            names.append(name)
    return names


def parse_seeds(text: str) -> list[int]:
    """``"2401-2410"`` or ``"1,5,9"`` as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result line, parsed.  A
    run that exits non-zero stops the tool, with the run's stderr."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{checkout}: {' '.join(cmd)} exited {done.returncode}", file=sys.stderr)
        print(done.stderr, file=sys.stderr, end="")
        raise SystemExit(1)
    return json.loads(done.stdout.strip().splitlines()[-1])


def mount_record(path: str, mounts: str) -> dict:
    """The file system that holds ``path``, from the mount table ``mounts``:
    its type, mount point and mount options, each ``None`` where the table
    cannot be read.  Of the mount points that contain ``path`` the longest
    wins, and of two at the same point the later, which hides the other."""
    record = {"fs_type": None, "mount_point": None, "mount_options": None}
    try:
        with open(mounts, encoding="utf-8") as handle:
            table = [line.split() for line in handle]
    except OSError:
        return record
    path = os.path.realpath(path)
    for fields in table:
        if len(fields) < 4:
            continue
        # The table writes a space, tab, newline or backslash as octal.
        point = re.sub(r"\\([0-7]{3})", lambda m: chr(int(m.group(1), 8)), fields[1])
        if not os.path.isabs(point) or os.path.commonpath([point, path]) != point:
            continue
        if record["mount_point"] is None or len(point) >= len(record["mount_point"]):
            record = {"fs_type": fields[2], "mount_point": point, "mount_options": fields[3]}
    return record


def machine_record(**checkouts: str) -> dict:
    """The machine the pairs ran on, and the file system under each of the
    ``checkouts`` (name: path): circuit_zoo writes a report file every op."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "numpy_blas": _numpy_blas(),
        "scipy": _version("scipy"),
        # Without bytecode, each run's ``setup_s`` includes compiling the
        # package's source.
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": sys.dont_write_bytecode,
        },
        "mounts": {name: mount_record(path, MOUNTS) for name, path in checkouts.items()},
    }


def _numpy_blas() -> dict:
    """The name and version of the BLAS that numpy was built with, each
    ``None`` where numpy cannot report it: numpy before 1.25 has no
    ``show_config(mode="dicts")``."""
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, TypeError, KeyError):
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _version(package: str) -> str | None:
    """The installed version of ``package``, or ``None`` if it is absent."""
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--change-text", required=True, help="what the change does")
    parser.add_argument("--claim", required=True, help="the measured claim")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds must give at least two seeds")

    path = os.path.join(args.change, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    metrics = end_to_end_metrics(benchmark)
    listed = [workload["name"] for workload in benchmark["workloads"]]
    for workload in args.workload:
        if workload not in listed:
            parser.error(f"--workload {workload!r} is not one of {path}'s: {', '.join(listed)}")
    record = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            record = json.load(handle)
        # The pairs kept from the record would be relabelled with these.
        for key, value in (("parent_commit", args.parent_commit), ("seconds", args.seconds)):
            if record.get(key) != value:
                parser.error(f"{args.out} holds pairs of {key} {record.get(key)!r}, not {value!r}")
    workloads = record.get("workloads", {})
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                pair[side] = run_once(checkout, workload, seed, args.seconds)
                print(workload, seed, side, json.dumps(pair[side]["metrics"]), file=sys.stderr)
            pairs.append(pair)
        workloads[workload] = {
            "pairs": pairs,
            "summary": summarise(pairs, metrics),
            "unresolved": unresolved(pairs, metrics),
        }
    record.update(
        change=args.change_text,
        parent_commit=args.parent_commit,
        seconds=args.seconds,
        machine=machine_record(parent=args.parent, change=args.change),
        method=(
            f"python3 tools/bench_pairs.py: python3 perfbench/run.py --workload W --seed S "
            f"--seconds {args.seconds:g} --trace 0, run on a copy of the parent commit and one "
            "of this change, with identical perfbench/ and BENCHMARK.json; one pair per seed, "
            "alternating which side runs first ('first' in each pair); one run at a time. Each "
            "entry under 'pairs' holds the two result lines verbatim. 'summary' gives each "
            "side's quartiles (q1, median, q3; statistics.quantiles, inclusive), how many pairs "
            "each side won, and how much worse the change's median is than the parent's "
            "(negative: better). 'unresolved' names each metric whose parent quartiles lie "
            "further apart, as a share of the parent's median, than its bound, unless every "
            "change run beats every parent run."
        ),
        claim=args.claim,
        workloads=workloads,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
