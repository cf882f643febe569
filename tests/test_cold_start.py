"""The summary of ``tools/cold_start.py`` on canned timings, its command list,
its record of what ``site`` loads, and its refusal of a command that fails."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("cold_start", ROOT / "tools" / "cold_start.py")
cold_start = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cold_start)


def test_summary_of_canned_timings():
    parent = [200.0, 210.0, 190.0, 220.0, 205.0]
    change = [100.0, 215.0, 110.0, 105.0, 120.0]
    summary = cold_start.summarise(parent, change)
    assert summary["parent_q1_median_q3_ms"] == [200.0, 205.0, 210.0]
    assert summary["change_q1_median_q3_ms"] == [105.0, 110.0, 120.0]
    # Pair 2 is the only one whose change run is slower.
    assert (summary["change_wins"], summary["parent_wins"]) == (4, 1)
    assert summary["change_over_parent"] == round(110.0 / 205.0, 4)


def test_a_tie_is_won_by_neither_side():
    summary = cold_start.summarise([100.0, 100.0], [100.0, 90.0])
    assert (summary["change_wins"], summary["parent_wins"]) == (1, 0)


def test_a_change_alone_has_only_its_quartiles():
    summary = cold_start.summarise(None, [3.0, 1.0, 2.0])
    assert summary == {"change_q1_median_q3_ms": [1.5, 2.0, 2.5]}


def test_commands_cover_both_imports_a_gate_run_and_every_shipped_circuit():
    names = cold_start.commands(str(ROOT), "report.json")
    circuits = sorted(path.name for path in (ROOT / "src" / "pbsgates" / "circuits").glob("*.circ"))
    assert list(names) == [
        "python -c pass",
        "import pbsgates.oracle",
        "import pbsgates.cli",
        "run --gate cnot",
        *(f"run --circuit {name}" for name in circuits),
    ]
    for name, argv in names.items():
        if name.startswith("run"):
            assert argv[1:4] == ["-m", "pbsgates.cli", "run"]
            assert argv[-2:] == ["--output", "report.json"]


def test_the_environment_is_the_benchmarks_pinned_one():
    env = cold_start.child_env(str(ROOT))
    assert "PBSGATES_AMP_TOLERANCE" not in env
    assert env["PYTHONHASHSEED"] == "0" and env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_a_command_that_exits_non_zero_stops_the_tool(tmp_path):
    argv = [sys.executable, "-c", "raise SystemExit(3)"]
    with pytest.raises(SystemExit) as stop:
        cold_start.time_once(argv, str(tmp_path), {})
    assert stop.value.code == 1
    assert cold_start.time_once([sys.executable, "-c", "pass"], str(tmp_path), {}) > 0.0


def test_site_preloads_name_what_site_has_loaded(tmp_path):
    env = cold_start.child_env(str(ROOT))
    loaded = cold_start.site_preloads(env)
    assert loaded == sorted(loaded) and set(loaded) <= set(cold_start.PRELOADS)
    (tmp_path / "sitecustomize.py").write_text("import dataclasses\n", encoding="utf-8")
    env["PYTHONPATH"] = str(tmp_path)
    assert "dataclasses" in cold_start.site_preloads(env)
