"""Subprocess cold starts of pbsgates, timed the way a shell user pays them.

Usage, from the repository root, with a copy of the parent commit in
``../parent`` (made with ``git archive``, say)::

    python3 tools/cold_start.py --parent ../parent --change . --reps 21 \\
        --out COLD_START_<n>.json

or, to time one checkout alone, ``python3 tools/cold_start.py --change .``.

Each command of :func:`commands` starts a fresh interpreter in the checkout,
in the pinned environment of that checkout's ``perfbench/run.py``
(``child_env``: no ``PBSGATES_AMP_TOLERANCE``, ``PYTHONHASHSEED=0``, one BLAS
thread, ``PYTHONPATH`` its ``src``), and is timed from start to exit.  For
each command the two checkouts alternate one run at a time, the parent first
on even repetitions.  Each side's quartiles and the pairs each side won are
summarised (:func:`summarise`).  A command that only one checkout has, such
as a circuit that the change adds, is not timed: the record names it and
that side under ``not_timed``.  The first command, ``python -c pass``, is
the interpreter's own start: each row's excess over it is what the package
adds.  The record notes the Python version, the ``PYTHONDONTWRITEBYTECODE``
setting, which decides whether each run compiles the package from source,
and which of :data:`PRELOADS` the interpreter's ``site`` has already loaded
(:func:`site_preloads`), which the package's own import then does not pay
for.  Any command that exits non-zero stops the tool with exit status 1.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time


#: Modules that the package imports (or did) and that a ``site`` may load first.
PRELOADS = ("argparse", "dataclasses", "importlib.resources", "json", "re", "typing")


def commands(checkout: str, output: str) -> dict[str, list[str]]:
    """Name -> argv of each timed command, run with ``checkout`` as the
    working directory; reports are written to ``output``."""
    run = [sys.executable, "-m", "pbsgates.cli", "run"]
    named = {
        "python -c pass": [sys.executable, "-c", "pass"],
        "import pbsgates.oracle": [sys.executable, "-c", "import pbsgates.oracle"],
        "import pbsgates.cli": [sys.executable, "-c", "import pbsgates.cli"],
        "run --gate cnot": run + ["--gate", "cnot", "--two-qubit", "1", *["0"] * 7,
                                  "--output", output],
    }
    circuits = sorted(glob.glob(os.path.join(checkout, "src", "pbsgates", "circuits", "*.circ")))
    for path in circuits:
        relative = os.path.relpath(path, checkout)
        named[f"run --circuit {os.path.basename(path)}"] = run + [
            "--circuit", relative, "--output", output,
        ]
    return named


def child_env(checkout: str) -> dict[str, str]:
    """The environment that ``checkout``'s ``perfbench/run.py`` gives its children."""
    path = os.path.join(os.path.abspath(checkout), "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.child_env()


def site_preloads(env: dict[str, str]) -> list[str]:
    """Which of :data:`PRELOADS` an interpreter started in ``env`` has loaded
    before it runs any code, sorted."""
    code = f"import sys; print(*sorted(set(sys.modules) & {set(PRELOADS)!r}))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def time_once(argv: list[str], checkout: str, env: dict[str, str]) -> float:
    """Wall time of one run of ``argv`` in ``checkout``, in ms.  A run that
    exits non-zero stops the tool."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    elapsed = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        print(f"{checkout}: {' '.join(argv)} exited {done.returncode}", file=sys.stderr)
        print(done.stderr, file=sys.stderr, end="")
        raise SystemExit(1)
    return elapsed


def quartiles(times: list[float]) -> list[float]:
    """q1, median and q3 of ``times`` (``statistics.quantiles``, inclusive), in ms."""
    return [round(q, 2) for q in statistics.quantiles(times, n=4, method="inclusive")]


def summarise(parent: list[float] | None, change: list[float]) -> dict:
    """Each side's quartiles and, with a parent, the pairs each side won (the
    faster run wins) and the change's median as a share of the parent's."""
    summary = {"change_q1_median_q3_ms": quartiles(change)}
    if parent is not None:
        summary.update(
            parent_q1_median_q3_ms=quartiles(parent),
            change_wins=sum(c < p for p, c in zip(parent, change)),
            parent_wins=sum(p < c for p, c in zip(parent, change)),
            change_over_parent=round(statistics.median(change) / statistics.median(parent), 4),
        )
    return summary


def measure(parent: str | None, change: str, reps: int) -> dict:
    """``commands``: name -> the times of each side and their summary, for
    every command that each checkout has, in the change's order.
    ``not_timed``: name -> the side that has it, for every other command."""
    sides = {"change": change} if parent is None else {"parent": parent, "change": change}
    envs = {side: child_env(checkout) for side, checkout in sides.items()}
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        output = os.path.join(scratch, "report.json")
        argvs = {side: commands(checkout, output) for side, checkout in sides.items()}
        names = [name for name in argvs["change"] if all(name in argvs[side] for side in sides)]
        not_timed = {
            name: side for side in sides for name in argvs[side] if name not in names
        }
        for name, side in not_timed.items():
            print(f"not timed: {name} (only the {side} has it)", file=sys.stderr)
        for name in names:
            times = {side: [] for side in sides}
            for rep in range(reps):
                order = list(sides) if rep % 2 == 0 else list(reversed(sides))
                for side in order:
                    times[side].append(time_once(argvs[side][name], sides[side], envs[side]))
            results[name] = {
                **{f"{side}_ms": [round(t, 2) for t in ts] for side, ts in times.items()},
                "summary": summarise(times.get("parent"), times["change"]),
            }
            print(name, json.dumps(results[name]["summary"]), file=sys.stderr)
    return {"commands": results, "not_timed": not_timed}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the parent commit (optional)")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--reps", type=int, default=21, help="runs per command and side")
    parser.add_argument("--out", help="write the record here instead of to standard output")
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2")

    record = {
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "nproc": os.cpu_count(),
        "site_preloads": site_preloads(child_env(args.change)),
        "reps": args.reps,
        "method": (
            "python3 tools/cold_start.py: each command in a fresh interpreter with the "
            "checkout as working directory and the environment of its perfbench/run.py "
            "child_env, timed from start to exit (wall clock, ms); with a parent, the "
            "two checkouts alternate one run at a time, the parent first on even "
            "repetitions. Quartiles are statistics.quantiles, inclusive; a side wins a "
            "pair when its run is faster."
        ),
        **measure(args.parent, args.change, args.reps),
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
