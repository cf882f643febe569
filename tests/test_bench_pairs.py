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


def test_seed_ranges():
    assert bench_pairs.parse_seeds("2401-2404") == [2401, 2402, 2403, 2404]
    assert bench_pairs.parse_seeds("7,3") == [7, 3]
