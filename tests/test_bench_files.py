"""Every committed ``BENCH_<n>.json`` at the repository root is a complete
record of a measured claim: what changed, the claim, the machine, the method,
the parent commit, and for each workload its parent/change pairs, each run
with every output checked correct."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIELDS = {"change", "claim", "machine", "method", "parent_commit", "workloads"}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_bench_file_holds_a_complete_record(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert FIELDS <= record.keys()
    assert record["workloads"]
    for workload in record["workloads"].values():
        assert workload["pairs"]
        for pair in workload["pairs"]:
            assert pair["parent"]["correct"] is True
            assert pair["change"]["correct"] is True
