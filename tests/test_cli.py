"""CLI tests: JSON reports, determinism, exit codes, gate/circuit parity."""

import contextlib
import errno
import gc
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from pbsgates import __version__, cli, dsl, gates
from pbsgates.circuit import GateResult, execute, pattern_name
from pbsgates.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARSE, TOLERANCE_ENV
from pbsgates.gates import GATE_NAMES, TwoQubitState

from conftest import circuit_path, scaled

SQRT_HALF = 1.0 / math.sqrt(2.0)


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "pbsgates.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def run_main(*args):
    """Like :func:`run_cli`, but through ``cli.main`` in this process, which
    saves starting an interpreter for each report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_json(*args, run=run_cli):
    proc = run(*args)
    assert proc.returncode == EXIT_OK, proc.stderr
    return json.loads(proc.stdout)


def test_run_gate_report_schema():
    doc = run_json("run", "--gate", "parity_check", "--qubit", "0.6", "0", "0.8", "0")
    assert doc["schema"] == 1
    assert doc["gate"] == "parity_check"
    assert abs(doc["success_probability"] - 0.5) < 1e-12
    assert abs(doc["failure_probability"] - 0.5) < 1e-12
    assert len(doc["outcomes"]) == 2
    for outcome in doc["outcomes"]:
        assert set(outcome) == {
            "pattern",
            "probability",
            "output_state",
            "fidelity_to_target",
        }
        assert abs(outcome["fidelity_to_target"] - 1.0) < 1e-12
        for term in outcome["output_state"]:
            assert set(term) == {"occupations", "re", "im"}
    assert doc["input"]["qubit"] == [0.6, 0.0, 0.8, 0.0]


def test_run_cnot_probabilities():
    doc = run_json(
        "run", "--gate", "cnot", "--two-qubit",
        "1", "0", "0", "0", "0", "0", "0", "0",
    )
    assert abs(doc["success_probability"] - 0.25) < 1e-12
    assert len(doc["outcomes"]) == 4
    for outcome in doc["outcomes"]:
        assert abs(outcome["probability"] - 1 / 16) < 1e-12


def test_passive_flag():
    doc = run_json(
        "run", "--gate", "parity_check", "--qubit", "1", "0", "0", "0", "--passive"
    )
    assert abs(doc["success_probability"] - 0.25) < 1e-12
    assert len(doc["outcomes"]) == 1
    assert doc["outcomes"][0]["pattern"] == "F_c"


def test_control_pol_flag():
    doc = run_json(
        "run", "--gate", "destructive_cnot",
        "--qubit", "1", "0", "0", "0", "--control-pol", "V",
    )
    assert doc["input"]["control_pol"] == "V"
    # At tolerance 0 the output keeps rounding terms, so read every term.
    for outcome in doc["outcomes"]:
        for term in outcome["output_state"]:
            magnitude = abs(complex(term["re"], term["im"]))
            if term["occupations"] == "3:V:1":
                assert abs(magnitude - 1.0) < 1e-12
            else:
                assert magnitude < 1e-12
        assert "3:V:1" in [term["occupations"] for term in outcome["output_state"]]


def test_byte_identical_reports():
    args = ("run", "--gate", "gc_cnot", "--two-qubit",
            "0.5", "0", "0.5", "0", "0.5", "0", "0.5", "0")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == EXIT_OK
    assert first.stdout == second.stdout


def test_output_file(tmp_path):
    path = tmp_path / "report.json"
    proc = run_cli(
        "run", "--gate", "chi_via_cnot", "--output", str(path)
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == ""
    doc = json.loads(path.read_text())
    assert abs(doc["success_probability"] - 0.25) < 1e-12


#: CLI input arguments equal to the amplitudes each shipped circuit declares.
#: The two-qubit circuits declare (H + V)/sqrt(2) x H: HH and VH at sqrt(1/2).
_PLUS_H = ("0.7071067811865476", "0", "0", "0") * 2
_CIRCUIT_INPUT_ARGS = {
    "parity_check": ("--qubit", "0.6", "0", "0.8", "0"),
    "destructive_cnot": ("--qubit", "0.6", "0", "0.8", "0", "--control-pol", "H"),
    "encoder": ("--qubit", "0.6", "0", "0.8", "0"),
    "cnot": ("--two-qubit", *_PLUS_H),
    "gc_cnot": ("--two-qubit", *_PLUS_H),
    "chi_via_cnot": (),
}


def test_run_circuit_matches_gate_report():
    assert set(_CIRCUIT_INPUT_ARGS) == set(GATE_NAMES)
    for name, input_args in _CIRCUIT_INPUT_ARGS.items():
        gate_doc = run_json("run", "--gate", name, *input_args, run=run_main)
        circ_doc = run_json("run", "--circuit", circuit_path(name), run=run_main)
        assert abs(
            circ_doc["success_probability"] - gate_doc["success_probability"]
        ) < 1e-12
        assert len(circ_doc["outcomes"]) == len(gate_doc["outcomes"])
        for circ_out, gate_out in zip(circ_doc["outcomes"], gate_doc["outcomes"]):
            assert circ_out["pattern"] == gate_out["pattern"]
            assert abs(circ_out["probability"] - gate_out["probability"]) < 1e-12
            assert len(circ_out["output_state"]) == len(gate_out["output_state"])
            for ct, gt in zip(circ_out["output_state"], gate_out["output_state"]):
                assert ct["occupations"] == gt["occupations"]
                assert abs(
                    complex(ct["re"], ct["im"]) - complex(gt["re"], gt["im"])
                ) < 1e-12


@pytest.mark.parametrize(
    "args, flag",
    [
        (("--circuit", circuit_path("parity_check"), "--qubit", "1", "0", "0", "0"), "--qubit"),
        (("--gate", "chi_via_cnot", "--qubit", "1", "0", "0", "0"), "--qubit"),
        (("--gate", "cnot", "--two-qubit", "1", *"0000000", "--control-pol", "V"), "--control-pol"),
        (("--gate", "cnot", "--qubit", "1", "0", "0", "0"), "--qubit"),
        (("--gate", "parity_check", "--qubit", "1", "0", "0", "0", "--control-pol", "H"),
         "--control-pol"),
    ],
)
def test_options_the_run_does_not_read_are_config_errors(args, flag):
    proc = run_main("run", *args)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and flag in lines[0]


def test_destructive_cnot_reads_no_control_pol_as_h():
    args = ("run", "--gate", "destructive_cnot", "--qubit", "0.6", "0", "0.8", "0")
    implicit = run_main(*args)
    explicit = run_main(*args, "--control-pol", "H")
    assert implicit.returncode == explicit.returncode == EXIT_OK
    assert implicit.stdout == explicit.stdout
    assert json.loads(implicit.stdout)["input"]["control_pol"] == "H"


#: Two photons meet at a diagonal PBS and leave bunched (``:2``); the mode
#: names and the detector label need JSON escapes of every kind.
_ODD_NAMES_CIRCUIT = """\
mode q"1
mode \U0001F600\\\u00e9
mode d
input qubit q"1 0.6 0 0 -0.8
input qubit \U0001F600\\\u00e9 0.6 0 0 -0.8
input qubit d 0.6 0 0.8 0
pbs fs q"1 \U0001F600\\\u00e9 q"1 \U0001F600\\\u00e9
rotate q"1 45
detect hv d as x"\\\u00e9
output q"1 \U0001F600\\\u00e9
"""


def _negated(result: GateResult) -> GateResult:
    outcomes = {
        pattern: (probability, scaled(state, -1.0))
        for pattern, (probability, state) in result.outcomes.items()
    }
    return GateResult(
        outcomes, {}, result.success_probability, result.failure_probability
    )


def test_reports_escape_odd_names_as_json_dumps_does(tmp_path, monkeypatch):
    # The engine never leaves a signed zero: every entry of its sums starts
    # as ``0j + ...``.  Negating each accepted state turns the +0.0
    # imaginary part of every negative real amplitude into -0.0.
    monkeypatch.setattr(cli, "execute", lambda *a, **k: _negated(execute(*a, **k)))
    monkeypatch.delenv(TOLERANCE_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    name = "odd\u00e9.circ"
    Path(name).write_text(_ODD_NAMES_CIRCUIT, encoding="utf-8")
    assert cli.main(["run", "--circuit", name, "--output", "report.json"]) == EXIT_OK

    spec = dsl.parse_circuit(_ODD_NAMES_CIRCUIT)
    result = _negated(execute(spec))
    outcomes = []
    for pattern in sorted(result.outcomes):
        probability, state = result.outcomes[pattern]
        terms = [
            {"occupations": basis.key_string(), "re": amp.real, "im": amp.imag}
            for basis, amp in state.sorted_terms()
        ]
        outcomes.append(
            {
                "pattern": pattern_name(pattern, spec.detectors),
                "probability": probability,
                "output_state": terms,
            }
        )
    document = {
        "schema": 1,
        "gate": name,
        "input": {"circuit": name},
        "outcomes": outcomes,
        "success_probability": result.success_probability,
        "failure_probability": result.failure_probability,
        "engine_version": __version__,
    }
    text = Path("report.json").read_text(encoding="ascii")
    assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
    # The report holds what the test is about.
    for needle in (':2"', '"im": -0.0', "\\ud83d\\ude00", "\\\\", '\\"', "\\u00e9"):
        assert needle in text, needle


def test_check_subcommand():
    proc = run_cli("check", circuit_path("gc_cnot"))
    assert proc.returncode == EXIT_OK
    assert "ok" in proc.stdout
    assert "10 modes" in proc.stdout


def test_missing_input_is_config_error():
    proc = run_cli("run", "--gate", "parity_check")
    assert proc.returncode == EXIT_CONFIG
    assert "qubit" in proc.stderr


def test_gate_and_circuit_mutually_exclusive():
    proc = run_cli(
        "run", "--gate", "parity_check", "--circuit", circuit_path("parity_check")
    )
    assert proc.returncode == EXIT_CONFIG
    proc = run_cli("run")
    assert proc.returncode == EXIT_CONFIG


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("frobnicate",),
        ("run", "--qubit", "x", "0", "1", "0"),
        ("run", "--qubit", "1", "0"),
        ("run", "--control-pol", "D"),
        ("check",),
    ],
)
def test_usage_errors_return_the_config_exit_code_in_process(args):
    proc = run_main(*args)
    assert proc.returncode == EXIT_CONFIG
    assert "usage: pbsgates" in proc.stderr


@pytest.mark.parametrize("args", [("--help",), ("run", "--help"), ("check", "-h")])
def test_help_returns_0_in_process(args):
    proc = run_main(*args)
    assert proc.returncode == EXIT_OK
    assert "usage: pbsgates" in proc.stdout


def test_unknown_gate_is_config_error():
    proc = run_cli("run", "--gate", "toffoli", "--qubit", "1", "0", "0", "0")
    assert proc.returncode == EXIT_CONFIG


def test_unnormalized_qubit_rejected():
    for qubit, message in (
        (("1", "0", "1", "0"), "not normalized"),
        (("nan", "0", "0.8", "0"), "must be finite"),
        (("0.6", "0", "inf", "0"), "must be finite"),
        (("0", "0", "1e400", "0"), "must be finite"),
    ):
        proc = run_cli("run", "--gate", "parity_check", "--qubit", *qubit)
        assert proc.returncode == EXIT_CONFIG
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_amplitudes_too_large_to_square_are_config_errors(tmp_path):
    huge = tmp_path / "huge.circ"
    text = Path(circuit_path("parity_check")).read_text(encoding="utf-8")
    declared = "input qubit 2' 0.6 0 0.8 0"
    assert declared in text
    huge.write_text(text.replace(declared, "input qubit 2' 0.6 0 1e200 0"))
    for args, message in (
        (("--circuit", str(huge)), "input squared norm is inf"),
        (("--gate", "parity_check", "--qubit", "1e200", "0", "0.8", "0"), "not normalized"),
        (("--gate", "cnot", "--two-qubit", "1e200", *("0",) * 7), "not normalized"),
    ):
        proc = run_main("run", *args)
        assert proc.returncode == EXIT_CONFIG
        assert message in proc.stderr


def test_slightly_off_normalization_warns(tmp_path):
    eps = 1 + 5e-8
    proc = run_cli(
        "run", "--gate", "parity_check",
        "--qubit", str(SQRT_HALF * eps), "0", str(SQRT_HALF * eps), "0",
    )
    assert proc.returncode == EXIT_OK
    assert "renormalizing" in proc.stderr
    doc = json.loads(proc.stdout)
    assert abs(doc["success_probability"] - 0.5) < 1e-9


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.circ"
    bad.write_text("mode m\nsplit m\noutput m\n")
    proc = run_cli("run", "--circuit", str(bad))
    assert proc.returncode == EXIT_PARSE
    assert "line 2" in proc.stderr
    proc = run_cli("check", str(bad))
    assert proc.returncode == EXIT_PARSE


#: parity_check.circ with one non-finite angle, phase or amplitude: the
#: text replaced, its replacement, and where the error must point (the mode
#: that the edited statement names).
NON_FINITE = {
    "rotator angle inf": ("pbs hv", "rotate 2' inf\npbs hv", 11, 8),
    "rotator angle nan": ("pbs hv", "rotate 2' nan\npbs hv", 11, 8),
    "phase-plate phase inf": ("pbs hv", "polphase 2' H inf\npbs hv", 11, 10),
    "correction phase nan": ("polphase 2 H 180", "polphase 2 H nan", 14, 20),
    "input amplitude nan": ("2' 0.6 0 0.8 0", "2' nan 0 0 0", 8, 13),
}


@pytest.mark.parametrize("variant", sorted(NON_FINITE))
def test_non_finite_values_are_parse_errors_at_their_statement(variant, tmp_path):
    old, new, line, column = NON_FINITE[variant]
    with open(circuit_path("parity_check"), encoding="utf-8") as handle:
        text = handle.read()
    assert text.count(old) == 1
    path = tmp_path / "non_finite.circ"
    path.write_text(text.replace(old, new))
    for args in (("run", "--circuit", str(path)), ("check", str(path))):
        proc = run_main(*args)
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert f"line {line}, column {column}: " in proc.stderr
        assert "finite" in proc.stderr and proc.stdout == ""


def test_unreadable_circuit_is_config_error(tmp_path):
    proc = run_cli("run", "--circuit", str(tmp_path / "missing.circ"))
    assert proc.returncode == EXIT_CONFIG


def test_undecodable_circuit_is_config_error(tmp_path):
    path = tmp_path / "latin1.circ"
    path.write_bytes(b"mode a\xff\n")
    for args in (("check", str(path)), ("run", "--circuit", str(path))):
        proc = run_cli(*args)
        assert proc.returncode == EXIT_CONFIG, args
        assert proc.stderr.startswith(f"error: cannot read {path}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_circuit_saved_with_a_byte_order_mark_reads_as_without_it(tmp_path):
    plain, marked = tmp_path / "plain.circ", tmp_path / "marked.circ"
    text = Path(circuit_path("parity_check")).read_bytes()
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    check = run_main("check", str(marked))
    assert check.returncode == EXIT_OK, check.stderr
    reports = {}
    for path in (plain, marked):
        report = tmp_path / f"{path.stem}.json"
        assert run_main("run", "--circuit", str(path), "--output", str(report)).returncode == EXIT_OK
        reports[path] = report.read_bytes()
    assert str(marked).encode() in reports[marked]
    assert reports[marked].replace(str(marked).encode(), str(plain).encode()) == reports[plain]


def test_unwritable_output_is_config_error(tmp_path):
    path = tmp_path / "no such dir" / "report.json"
    proc = run_cli("run", "--gate", "chi_via_cnot", "--output", str(path))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(f"error: cannot write {path}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""


_LONG_REPORT = ("run", "--gate", "gc_cnot", "--two-qubit", *("0.5", "0") * 4)
_SHORT_REPORT = ("run", "--gate", "parity_check", "--qubit", "0.6", "0", "0.8", "0")


def test_a_shorter_report_is_written_over_a_longer_one_and_cut_to_length(tmp_path):
    path = tmp_path / "report.json"
    assert run_main(*_LONG_REPORT, "--output", str(path)).returncode == EXIT_OK
    long_size = path.stat().st_size
    inode = path.stat().st_ino
    assert run_main(*_SHORT_REPORT, "--output", str(path)).returncode == EXIT_OK
    expected = run_main(*_SHORT_REPORT).stdout.encode("utf-8")
    assert len(expected) < long_size
    assert path.read_bytes() == expected
    # Written over where it is, not replaced by a new file.
    assert path.stat().st_ino == inode


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_report_gets_the_mode_bits_that_open_w_gives(umask, tmp_path):
    reference = tmp_path / "reference.json"
    report = tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        with open(reference, "w", encoding="utf-8"):
            pass
        proc = run_main(*_SHORT_REPORT, "--output", str(report))
    finally:
        os.umask(previous)
    assert proc.returncode == EXIT_OK
    assert stat.S_IMODE(report.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_a_report_to_the_null_device_is_written_and_not_cut():
    proc = run_main(*_SHORT_REPORT, "--output", os.devnull)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")


def test_a_read_only_report_is_config_error_and_keeps_its_bytes(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    assert run_main(*_LONG_REPORT, "--output", str(path)).returncode == EXIT_OK
    old = path.read_bytes()
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        # The mode bits do not stop a process that may write any file (a
        # superuser); refuse it the open, as the kernel refuses anyone else.
        real_open = os.open

        def refusing_open(name, flags, *args):
            if name == str(path) and flags & (os.O_WRONLY | os.O_RDWR):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
            return real_open(name, flags, *args)

        monkeypatch.setattr(os, "open", refusing_open)
    proc = run_main(*_SHORT_REPORT, "--output", str(path))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(f"error: cannot write {path}: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert path.read_bytes() == old


@pytest.mark.parametrize("name", ["", "directory"])
def test_an_empty_or_directory_output_is_config_error(name, tmp_path):
    path = str(tmp_path) if name else name
    proc = run_main(*_SHORT_REPORT, "--output", path)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith(f"error: cannot write {path}: ")
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""


def test_reports_written_in_process_and_without_site_are_the_same_bytes(tmp_path):
    # Each shipped circuit's report goes over a longer one, in this process
    # through ``cli.main`` and in a ``python -S`` interpreter.
    env = dict(os.environ, PYTHONPATH=str(Path(gates.__file__).parents[1]))
    for name in sorted(_CIRCUIT_INPUT_ARGS):
        reports = []
        for side in ("main", "subprocess"):
            path = tmp_path / f"{side}.json"
            assert run_main(*_LONG_REPORT, "--output", str(path)).returncode == EXIT_OK
            args = ["run", "--circuit", circuit_path(name), "--output", str(path)]
            if side == "main":
                assert run_main(*args).returncode == EXIT_OK
            else:
                cmd = [sys.executable, "-S", "-m", "pbsgates.cli", *args]
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
                assert proc.returncode == EXIT_OK, proc.stderr
            reports.append(path.read_bytes())
        assert reports[0] == reports[1], name
        assert reports[0] == run_main(*args[:3]).stdout.encode("utf-8"), name


_STDOUT_COMMANDS = {
    "run": ("run", "--circuit", circuit_path("gc_cnot")),
    "check": ("check", circuit_path("gc_cnot")),
}


def _run_with_stdout(command, stdout, unbuffered):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    cmd = [sys.executable, "-m", "pbsgates.cli", *_STDOUT_COMMANDS[command]]
    return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


def _assert_one_stdout_error(proc):
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("error: cannot write standard output: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", sorted(_STDOUT_COMMANDS))
def test_a_full_standard_output_is_config_error(command, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        proc = _run_with_stdout(command, full, unbuffered)
    _assert_one_stdout_error(proc)
    assert "No space left" in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", sorted(_STDOUT_COMMANDS))
def test_a_standard_output_pipe_closed_by_its_reader_is_config_error(command, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_with_stdout(command, write_end, unbuffered)
    finally:
        os.close(write_end)
    _assert_one_stdout_error(proc)
    assert "Broken pipe" in proc.stderr


@pytest.mark.parametrize("command", sorted(_STDOUT_COMMANDS))
def test_a_closed_standard_output_is_config_error(command):
    # The interpreter starts with ``sys.stdout`` None when descriptor 1 is closed.
    cmd = ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "pbsgates.cli",
           *_STDOUT_COMMANDS[command]]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    _assert_one_stdout_error(proc)
    assert proc.stderr == "error: cannot write standard output: it is closed\n"


def _run_with_stderr(args, stderr, unbuffered):
    """``pbsgates`` with ``args``, standard error on a pipe (``"pipe"``), on
    ``/dev/full`` (``"full"``, skipped where there is none) or closed; the
    output as bytes."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    cmd = [sys.executable, "-m", "pbsgates.cli", *args]
    if stderr == "closed":
        cmd = ["sh", "-c", 'exec "$0" "$@" 2>&-', *cmd]
    if stderr != "full":
        return subprocess.run(cmd, capture_output=True, env=env)
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    with open("/dev/full", "wb") as full:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=full, env=env)


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("stderr", ["full", "closed"])
@pytest.mark.parametrize("command, code", [("run", EXIT_CONFIG), ("check", EXIT_PARSE)])
def test_an_error_that_cannot_be_written_keeps_its_exit_code(
    command, code, stderr, unbuffered, tmp_path
):
    # ``run`` of a missing file is a config error, ``check`` of an
    # unparsable one a parse error.
    path = tmp_path / "bad.circ"
    if command == "check":
        path.write_text("bogus\n", encoding="utf-8")
    args = ("run", "--circuit", str(path)) if command == "run" else ("check", str(path))
    assert _run_with_stderr(args, "pipe", unbuffered).returncode == code
    proc = _run_with_stderr(args, stderr, unbuffered)
    assert (proc.returncode, proc.stdout, proc.stderr or b"") == (code, b"", b"")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("stderr", ["full", "closed"])
def test_a_warning_that_cannot_be_written_is_dropped(stderr, unbuffered):
    args = ("run", "--gate", "parity_check", "--qubit", "0.6", "0", "0.8000001", "0")
    shown = _run_with_stderr(args, "pipe", unbuffered)
    assert shown.returncode == EXIT_OK
    assert shown.stderr.startswith(b"warning: renormalizing qubit amplitudes")
    proc = _run_with_stderr(args, stderr, unbuffered)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == shown.stdout


def test_bad_tolerance_env(monkeypatch):
    import os

    gate_args = ("--gate", "parity_check", "--qubit", "1", "0", "0", "0")
    proc = run_cli("run", *gate_args, env=dict(os.environ, **{TOLERANCE_ENV: "2"}))
    assert proc.returncode == EXIT_CONFIG
    assert TOLERANCE_ENV in proc.stderr
    assert "Traceback" not in proc.stderr
    for value in ("not-a-number", "2", "nan", "-1"):
        monkeypatch.setenv(TOLERANCE_ENV, value)
        for run_args in (gate_args, ("--circuit", circuit_path("parity_check"))):
            proc = run_main("run", *run_args)
            assert proc.returncode == EXIT_CONFIG
            assert TOLERANCE_ENV in proc.stderr
            assert "Traceback" not in proc.stderr


def test_tolerance_env_accepted(tmp_path):
    import os

    env = dict(os.environ, **{TOLERANCE_ENV: "1e-10"})
    proc = run_cli(
        "run", "--gate", "parity_check", "--qubit", "1", "0", "0", "0", env=env
    )
    assert proc.returncode == EXIT_OK


def test_amplitudes_in_exponent_form():
    # argparse reads a "-" token that is not a plain decimal as an option.
    plain = run_main("run", "--gate", "parity_check", "--qubit", "0.6", "0", "-0.8", "0")
    exponent = run_main("run", "--gate", "parity_check", "--qubit", "0.6", "0", "-8e-1", "0")
    assert plain.returncode == exponent.returncode == EXIT_OK, exponent.stderr
    assert exponent.stdout == plain.stdout
    two_qubit = ("-1e0", "0") + ("0",) * 6
    doc = run_json("run", "--gate", "cnot", "--two-qubit", *two_qubit, run=run_main)
    assert abs(doc["success_probability"] - 0.25) < 1e-12
    for gate, option, values in (
        ("parity_check", "--qubit", ("0.6", "0", "-inf", "0")),
        ("cnot", "--two-qubit", ("-INF",) + ("0",) * 7),
    ):
        proc = run_main("run", "--gate", gate, option, *values)
        assert proc.returncode == EXIT_CONFIG
        assert "must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_tolerance_that_prunes_the_input_is_named():
    import os

    env = dict(os.environ, **{TOLERANCE_ENV: "0.5"})
    proc = run_cli("run", "--circuit", circuit_path("parity_check"), env=env)
    assert proc.returncode == EXIT_CONFIG
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "tolerance 0.5" in lines[0]
    assert "prunes squared norm 0.36" in lines[0]
    assert "input squared norm" not in lines[0]


def test_tolerance_that_prunes_the_run_is_named():
    import os

    # The 0.5 input amplitudes survive the tolerance; every later state
    # of the run is pruned away.
    env = dict(os.environ, **{TOLERANCE_ENV: "0.5"})
    proc = run_cli(
        "run", "--gate", "gc_cnot", "--two-qubit", "1", *("0",) * 7, env=env
    )
    assert proc.returncode == EXIT_CONFIG
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: amplitude tolerance 0.5 prunes squared norm")
    assert "during the run" in lines[0]


def test_cli_tolerance_does_not_reach_library_calls(monkeypatch, tmp_path):
    # An in-process run leaves nothing behind that later library calls read.
    monkeypatch.setenv(TOLERANCE_ENV, "0.3")
    report_path = str(tmp_path / "report.json")
    args = ["run", "--gate", "parity_check", "--qubit", "0.6", "0", "0.8", "0"]
    assert cli.main([*args, "--output", report_path]) == EXIT_OK
    monkeypatch.delenv(TOLERANCE_ENV)
    report = gates.gc_cnot(TwoQubitState(1, 0, 0, 0))
    assert abs(report.success_probability - 0.25) < 1e-12


def test_main_reuses_one_parser_and_leaves_no_argparse_garbage(tmp_path):
    # One parser serves every call of the process: calls in a row with
    # different options report what fresh ones do, and none leaves argparse
    # objects, or json encoder closures and instances, for the cyclic
    # collector.
    report = tmp_path / "report.json"
    calls = [
        ("run", "--circuit", circuit_path("cnot")),
        ("run", "--gate", "parity_check", "--qubit", "0.6", "0", "0.8", "0", "--passive"),
        ("run", "--circuit", circuit_path("parity_check"), "--passive"),
        ("run", "--gate", "cnot", "--two-qubit", *_PLUS_H),
        ("run", "--circuit", circuit_path("encoder"), "--output", str(report)),
        ("run", "--gate", "destructive_cnot", "--qubit", "0", "0", "1", "0"),
        ("check", circuit_path("gc_cnot")),
    ]

    def run_all(fresh_parser: bool):
        outs = []
        for args in calls:
            if fresh_parser:
                cli.build_parser.cache_clear()
            proc = run_main(*args)
            outs.append((proc.returncode, proc.stdout, proc.stderr))
        return outs, report.read_text()

    fresh = run_all(fresh_parser=True)
    assert cli.build_parser() is cli.build_parser()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        in_a_row = run_all(fresh_parser=False)
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
        encoder = [obj for obj in gc.garbage if getattr(obj, "__module__", None) == "json.encoder"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert in_a_row == fresh
    assert leaked == []
    assert encoder == []


@pytest.mark.parametrize(
    "document",
    [
        {"zero": -0.0, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "none": None},
        {"tiny": 5e-324, "huge": 1.7976931348623157e308, "third": 1 / 3, "int": -7},
        {"text": "2'\u00e9\u2028\"\\\t\ud83d\ude00", "\u00fc": ["x", "", True, False]},
        {"empty list": [], "empty dict": {}, "nested": [[], {}, [{"b": 1, "a": [2.5, []]}]]},
        {"b": {"d": (1, 2), "c": {}}, "a": [None, -0.0, [math.nan]]},
        [],
        {},
        "scalar",
    ],
)
def test_reports_are_written_as_json_dumps_writes_them(document):
    assert cli._json(document) == json.dumps(document, indent=2, sort_keys=True)


def test_photons_off_the_outputs_are_config_error(tmp_path):
    path = tmp_path / "stray.circ"
    path.write_text(
        "mode a\nmode b\n"
        "input qubit a 1 0 0 0\ninput qubit b 0.6 0 0.8 0\n"
        "output a\n"
    )
    proc = run_cli("run", "--circuit", str(path))
    assert proc.returncode == EXIT_CONFIG
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0] == "error: photons left on undetected non-output modes ['b']"


def test_the_shipped_circuits_are_read_without_importlib_resources(tmp_path):
    # ``gates`` opens ``circuits/<name>.circ`` beside its module, so without
    # ``site`` (whose packages may load them) neither the CLI's import nor a
    # gate call nor a circuit run loads ``importlib.resources``, ``pathlib``
    # or ``tempfile``.  The records are plain classes, so neither loads
    # ``dataclasses`` (with ``inspect``) nor ``typing`` either.
    output = tmp_path / "report.json"
    code = (
        "import sys, pbsgates.cli; from pbsgates import cli, gates; "
        "r = gates.cnot(gates.TwoQubitState(0.6, 0, 0, 0.8)); "
        "print(repr((r.success_probability, sorted(r.fidelities.values())))); "
        f"print(cli.main(['run', '--circuit', {circuit_path('parity_check')!r}, "
        f"'--output', {str(output)!r}])); "
        "print(sorted(set(sys.modules) & {'importlib.resources', 'pathlib', 'tempfile', "
        "'dataclasses', 'inspect', 'typing'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(gates.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    result, status, loaded = proc.stdout.splitlines()
    report = gates.cnot(TwoQubitState(0.6, 0, 0, 0.8))
    assert result == repr((report.success_probability, sorted(report.fidelities.values())))
    assert status == str(EXIT_OK)
    expected = run_json("run", "--circuit", circuit_path("parity_check"), run=run_main)
    assert json.loads(output.read_text(encoding="utf-8")) == expected
    assert loaded == "[]"


def test_cli_and_gates_import_without_numpy_or_scipy():
    # The oracle is the only module that needs numpy (and scipy, for its
    # sparse operators); the engine stays pure Python, so starting the CLI
    # does not pay for loading them.
    code = (
        "import sys, pbsgates.cli, pbsgates.gates; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
