"""The summary of ``tools/bench_pairs.py``, on canned benchmark result lines:
hand-made ones, and the pairs of every committed ``BENCH_<n>.json`` whose
summary has its schema, which it must reproduce exactly."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = bench_pairs.end_to_end_metrics(json.loads((ROOT / "BENCHMARK.json").read_text()))


def result_line(ops, p50, rss=20.0):
    values = {
        "ops_per_s": ops,
        "latency_p50_ms": p50,
        "latency_p90_ms": 2 * p50,
        "setup_s": 0.2,
        "peak_rss_mb": rss,
        "correct_ratio": 1.0,
    }
    return json.dumps(
        {
            "correct": True,
            "attempted": 100,
            "failed": 0,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
        }
    )


def test_summary_of_canned_lines():
    lines = [
        (result_line(100.0, 0.10), result_line(110.0, 0.09)),
        (result_line(102.0, 0.10), result_line(111.0, 0.09, rss=23.0)),
        (result_line(104.0, 0.11), result_line(100.0, 0.12)),
    ]
    pairs = [{"parent": json.loads(p), "change": json.loads(c)} for p, c in lines]
    summary = bench_pairs.summarise(pairs, METRICS)
    assert list(summary) == [m["name"] for m in METRICS]
    ops = summary["ops_per_s"]
    assert ops["parent_q1_median_q3"] == [101.0, 102.0, 103.0]
    assert ops["change_q1_median_q3"] == [105.0, 110.0, 110.5]
    assert (ops["change_wins"], ops["parent_wins"]) == (2, 1)
    assert ops["median_worse_by"] == round((102.0 - 110.0) / 102.0, 4) < 0
    assert ops["within_bound"] and ops["bound"] == 0.25
    p50 = summary["latency_p50_ms"]
    assert (p50["change_wins"], p50["parent_wins"]) == (2, 1)
    assert p50["median_worse_by"] == round((0.09 - 0.10) / 0.10, 4) < 0
    # Lower is better: 21.0 MB against 20.0 is 5% worse, within the 10% bound;
    # 23.0 is 15% worse, which is not.
    rss = summary["peak_rss_mb"]
    assert (rss["change_wins"], rss["parent_wins"]) == (0, 1)
    assert rss["median_worse_by"] == 0.0 and rss["within_bound"]
    pairs[0]["change"]["metrics"]["peak_rss_mb"]["value"] = 23.0
    rss = bench_pairs.summarise(pairs, METRICS)["peak_rss_mb"]
    assert rss["median_worse_by"] == 0.15 and not rss["within_bound"]
    ratio = summary["correct_ratio"]
    assert (ratio["change_wins"], ratio["parent_wins"], ratio["median_worse_by"]) == (0, 0, 0.0)


def test_unresolved_names_each_metric_spread_wider_than_its_bound():
    # Parent ops/s quartiles 95-105 around 100: a 10% spread, inside the 25%
    # bound.  Parent RSS 20-24 MB around 22: an 18% spread, outside the 10%
    # bound, unless every change run reads below every parent run.
    lines = [
        (result_line(90.0, 0.10, rss=18.0), result_line(80.0, 0.10, rss=19.0)),
        (result_line(100.0, 0.10, rss=22.0), result_line(99.0, 0.10, rss=25.0)),
        (result_line(110.0, 0.10, rss=26.0), result_line(130.0, 0.10, rss=20.0)),
    ]
    pairs = [{"parent": json.loads(p), "change": json.loads(c)} for p, c in lines]
    assert bench_pairs.unresolved(pairs, METRICS) == ["peak_rss_mb"]
    for pair, rss in zip(pairs, (15.0, 16.0, 17.0)):
        pair["change"]["metrics"]["peak_rss_mb"]["value"] = rss
    assert bench_pairs.unresolved(pairs, METRICS) == []
    # The same rule for a metric where higher is better: 60-160 around 110.
    for pair, ops in zip(pairs, (10.0, 110.0, 210.0)):
        pair["parent"]["metrics"]["ops_per_s"]["value"] = ops
    assert bench_pairs.unresolved(pairs, METRICS) == ["ops_per_s"]
    for pair, ops in zip(pairs, (211.0, 300.0, 400.0)):
        pair["change"]["metrics"]["ops_per_s"]["value"] = ops
    assert bench_pairs.unresolved(pairs, METRICS) == []


def committed_summaries():
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, workload in record["workloads"].items():
            summary = workload.get("summary", {})
            if "median_worse_by" in summary.get("ops_per_s", {}):
                yield pytest.param(workload, id=f"{path.name}-{name}")


@pytest.mark.parametrize("workload", committed_summaries())
def test_summary_reproduces_each_committed_record(workload):
    assert bench_pairs.summarise(workload["pairs"], METRICS) == workload["summary"]
    if "unresolved" in workload:
        assert bench_pairs.unresolved(workload["pairs"], METRICS) == workload["unresolved"]


def test_the_machine_record_holds_null_for_an_absent_package(monkeypatch):
    installed = bench_pairs.metadata.version

    def version(package):
        if package == "scipy":
            raise bench_pairs.metadata.PackageNotFoundError(package)
        return installed(package)

    monkeypatch.setattr(bench_pairs.metadata, "version", version)
    record = json.loads(json.dumps(bench_pairs.machine_record()))
    assert record["scipy"] is None
    assert record["numpy"] == installed("numpy")


def test_seed_ranges():
    assert bench_pairs.parse_seeds("2401-2404") == [2401, 2402, 2403, 2404]
    assert bench_pairs.parse_seeds("7,3") == [7, 3]


def test_a_failing_run_stops_the_tool_with_its_stderr(tmp_path, capsys):
    script = tmp_path / "perfbench" / "run.py"
    script.parent.mkdir()
    script.write_text(
        "import sys\nprint('workload broke', file=sys.stderr)\nsys.exit(3)\n", encoding="utf-8"
    )
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run_once(str(tmp_path), "gate_sweep", 1, 0.1)
    assert stop.value.code == 1
    stderr = capsys.readouterr().err
    assert "exited 3" in stderr and "workload broke" in stderr
    script.write_text(f"print('noise')\nprint({result_line(1.0, 1.0)!r})\n", encoding="utf-8")
    assert bench_pairs.run_once(str(tmp_path), "gate_sweep", 1, 0.1)["correct"] is True


@pytest.mark.parametrize("seeds", ["5", "10-1"])
def test_fewer_than_two_seeds_are_refused_before_any_run(seeds, tmp_path, monkeypatch, capsys):
    # One seed, or an empty range, has no quartiles to summarise.
    def run_once(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    argv = [
        "--parent", str(tmp_path), "--change", str(ROOT), "--parent-commit", "0",
        "--workload", "gate_sweep", "--seeds", seeds, "--out", str(out),
        "--change-text", "-", "--claim", "-",
    ]
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(argv)
    assert stop.value.code == 2
    assert "--seeds must give at least two seeds" in capsys.readouterr().err
    assert not out.exists()


KEPT = {"parent_commit": "abc", "seconds": 20.0}


@pytest.mark.parametrize(
    "kept, argv, message",
    [
        (KEPT, ["--parent-commit", "def"], "parent_commit 'abc', not 'def'"),
        (KEPT, ["--seconds", "2"], "seconds 20.0, not 2.0"),
        ({"parent_commit": "abc"}, [], "seconds None, not 20.0"),
    ],
)
def test_a_record_of_another_parent_or_run_length_is_refused_before_any_run(
    kept, argv, message, tmp_path, monkeypatch, capsys
):
    # Its pairs would be kept under this run's parent commit and method.
    def run_once(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    text = json.dumps({**kept, "workloads": {"circuit_zoo": {}}})
    out.write_text(text, encoding="utf-8")
    base = {
        "--parent": str(tmp_path), "--change": str(ROOT), "--parent-commit": "abc",
        "--workload": "gate_sweep", "--seeds": "1-2", "--out": str(out),
        "--change-text": "-", "--claim": "-",
    }
    base.update(zip(argv[::2], argv[1::2]))
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([item for pair in base.items() for item in pair])
    assert stop.value.code == 2
    assert message in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == text


def test_a_record_of_the_same_parent_and_run_length_gains_the_workloads_run(
    tmp_path, monkeypatch
):
    lines = iter([result_line(100.0 + i, 0.1) for i in range(4)])
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: json.loads(next(lines)))
    out = tmp_path / "BENCH.json"
    kept = {"pairs": [], "summary": {}, "unresolved": []}
    record = {"parent_commit": "abc", "seconds": 2.0, "workloads": {"circuit_zoo": kept}}
    out.write_text(json.dumps(record), encoding="utf-8")
    bench_pairs.main([
        "--parent", str(tmp_path), "--change", str(ROOT), "--parent-commit", "abc",
        "--workload", "gate_sweep", "--seeds", "1-2", "--seconds", "2", "--out", str(out),
        "--change-text", "-", "--claim", "-",
    ])
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["seconds"] == 2.0 and record["parent_commit"] == "abc"
    assert record["workloads"]["circuit_zoo"] == kept
    assert [pair["seed"] for pair in record["workloads"]["gate_sweep"]["pairs"]] == [1, 2]
