"""Command-line front end: run built-in gates or circuit files, emit JSON.

Exit codes: 0 success, 2 validation/config error, 3 circuit parse error.
Reports are deterministic: outcomes and state terms are emitted in a fixed
canonical order, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import stat
import sys

from json.encoder import encode_basestring_ascii

from . import __version__, dsl, fock, gates
from .circuit import CircuitSpec, execute, pattern_name
from .errors import CircuitError, PbsGatesError
from .gates import QubitState, TwoQubitState

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3

TOLERANCE_ENV = "PBSGATES_AMP_TOLERANCE"

#: Tokens that argparse must read as values, never as option flags: by
#: default only plain negative decimals are, so an amplitude such as
#: ``-8e-1`` or ``-inf`` after ``--qubit`` would be taken for an option.
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _read_tolerance() -> float:
    """The pruning tolerance of a run: the environment's, or the default."""
    raw = os.environ.get(TOLERANCE_ENV)
    try:
        value = fock.DEFAULT_TOLERANCE if raw is None else float(raw)
        if not 0.0 <= value < 1.0:
            raise ValueError(value)
    except ValueError:
        raise _config_error(
            f"{TOLERANCE_ENV} must be a float in [0, 1), got {raw!r}"
        ) from None
    return value


def _amplitude_argument(state_type, what: str, values: list[float]):
    """Validate and normalize amplitude reals; return (state, reals echoed)."""
    if not all(map(math.isfinite, values)):
        raise _config_error(f"{what} amplitudes must be finite, got {values!r}")
    amps = [complex(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    norm2 = fock.squared_norm(amps)
    dev = abs(norm2 - 1.0)
    if dev > 1e-6:
        raise _config_error(
            f"{what} amplitudes are not normalized (squared norm {norm2!r})"
        )
    if dev > fock.NORM_TOLERANCE:
        _write_stderr(f"warning: renormalizing {what} amplitudes (squared norm {norm2!r})")
        scale = 1.0 / math.sqrt(norm2)
        amps = [a * scale for a in amps]
    return state_type(*amps), [x for a in amps for x in (a.real, a.imag)]


#: How ``json.dumps`` writes the floats whose ``repr`` is not JSON.
_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    text = float.__repr__(value)
    return _SPECIAL_FLOATS.get(text, text)


class _Verbatim(str):
    """JSON text that :func:`_json` writes as it is."""


#: One output-state term as ``json.dumps(indent=2, sort_keys=True)`` writes it
#: at its depth in a report: an entry of ``outcomes[i]["output_state"]``.
_TERM = '{\n          "im": %s,\n          "occupations": "%s",\n          "re": %s\n        }'


def _output_state(state: fock.PhotonState) -> _Verbatim:
    """The report's ``output_state`` list, written from the packed terms: one
    entry per term, in :meth:`~pbsgates.fock.PhotonState.sorted_fields`
    order, with the occupations of :meth:`BasisState.key_string`."""
    # Escaping works character by character, so each slot's escaped
    # ``mode:pol:`` prefix joins into the escaped key string.
    prefixes = {
        pos: encode_basestring_ascii(f"{mode}:{pol}:")[1:-1]
        for pos, (mode, pol) in state.occupied_slots().items()
    }
    terms = [
        _TERM % (
            _number(amp.imag),
            ",".join([f"{prefixes[pos]}{n}" for pos, n in fields]),
            _number(amp.real),
        )
        for fields, amp in state.sorted_fields()
    ]
    if not terms:
        return _Verbatim("[]")
    return _Verbatim("[\n        " + ",\n        ".join(terms) + "\n      ]")


def _report_document(name, result, detectors, fidelities, input_doc) -> dict:
    outcomes = []
    for pattern in sorted(result.outcomes):
        probability, state = result.outcomes[pattern]
        entry = {
            "pattern": pattern_name(pattern, detectors),
            "probability": probability,
            "output_state": _output_state(state),
        }
        if fidelities is not None:
            entry["fidelity_to_target"] = fidelities.get(pattern)
        outcomes.append(entry)
    return {
        "schema": 1,
        "gate": name,
        "input": input_doc,
        "outcomes": outcomes,
        "success_probability": result.success_probability,
        "failure_probability": result.failure_probability,
        "engine_version": __version__,
    }


_CONTROLS = {"H": QubitState(1.0, 0.0), "V": QubitState(0.0, 1.0)}

#: Option -> how its parsed value becomes (gate argument, value the report
#: echoes under the option's name).
_OPTION_ARGUMENTS = {
    "qubit": functools.partial(_amplitude_argument, QubitState, "qubit"),
    "two_qubit": functools.partial(_amplitude_argument, TwoQubitState, "two-qubit"),
    "control_pol": lambda pol: (_CONTROLS[pol], pol),
}

#: Gate name -> the options it reads, in the order of its arguments.
_GATE_OPTIONS = {
    "parity_check": ("qubit",),
    "destructive_cnot": ("qubit", "control_pol"),
    "encoder": ("qubit",),
    "cnot": ("two_qubit",),
    "gc_cnot": ("two_qubit",),
    "chi_via_cnot": (),
}

#: Option -> the value a gate that reads it takes when it is left out.
_OPTION_DEFAULTS = {"control_pol": "H"}


def _flag(option: str) -> str:
    return "--" + option.replace("_", "-")


def _unread_option(args, read) -> str | None:
    """The flag of the first input option given that a run reading only the
    options ``read`` would ignore.  Such a run is refused: silently ignored,
    the option would make the report look like that of another input."""
    for option in _OPTION_ARGUMENTS:
        if option not in read and getattr(args, option) is not None:
            return _flag(option)
    return None


def _run_gate(args, tolerance: float) -> dict:
    name = args.gate
    if name not in _GATE_OPTIONS:
        raise _config_error(f"unknown gate {name!r}; choose from {gates.GATE_NAMES}")
    unread = _unread_option(args, _GATE_OPTIONS[name])
    if unread:
        raise _config_error(f"{name} does not read {unread}")
    gate_args = []
    input_doc = {}
    for option in _GATE_OPTIONS[name]:
        value = getattr(args, option)
        if value is None:
            value = _OPTION_DEFAULTS.get(option)
        if value is None:
            raise _config_error(f"{name} needs {_flag(option)}")
        argument, input_doc[option] = _OPTION_ARGUMENTS[option](value)
        gate_args.append(argument)
    report = getattr(gates, name)(*gate_args, passive=args.passive, tolerance=tolerance)
    detectors = gates._shipped_spec(name).detectors
    return _report_document(name, report.result, detectors, report.fidelities, input_doc)


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for a
    document of dicts with string keys, lists, tuples, strings, numbers,
    booleans and ``None``; :class:`_Verbatim` text is written as it is.
    json's own encoder takes its pure-Python path whenever it indents, and
    each call of that path leaves reference cycles for the garbage
    collector; this writer leaves none."""
    if isinstance(value, str):
        return value if type(value) is _Verbatim else encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _number(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _config_error(message: str) -> SystemExit:
    _write_stderr(f"error: {message}")
    return SystemExit(EXIT_CONFIG)


def _load_circuit(path: str) -> CircuitSpec:
    try:
        # utf-8-sig drops the byte-order mark that some editors write first.
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _config_error(f"cannot read {path}: {exc}") from None
    try:
        return dsl.parse_circuit(text)
    except CircuitError as exc:
        _write_stderr(f"{path}: {exc}")
        raise SystemExit(EXIT_PARSE) from None


def cmd_run(args) -> int:
    if (args.gate is None) == (args.circuit is None):
        raise _config_error("provide exactly one of --gate or --circuit")
    tolerance = _read_tolerance()
    try:
        if args.gate is not None:
            document = _run_gate(args, tolerance)
        else:
            unread = _unread_option(args, ())
            if unread:
                raise _config_error(
                    f"--circuit does not read {unread}: the circuit file declares its input"
                )
            spec = _load_circuit(args.circuit)
            result = execute(spec, passive=args.passive, tolerance=tolerance)
            document = _report_document(
                args.circuit, result, spec.detectors, None, {"circuit": args.circuit}
            )
    except PbsGatesError as exc:
        raise _config_error(str(exc)) from None
    text = _json(document) + "\n"
    if args.output is None:
        _write_stdout(text)
    else:
        try:
            _write_over(args.output, text)
        except OSError as exc:
            raise _config_error(f"cannot write {args.output}: {exc}") from None
    return EXIT_OK


def _write_over(path: str, text: str) -> None:
    """Write ``text`` over the file at ``path``, created if absent, and cut a
    regular file to its length.  Opening without ``O_TRUNC`` spares the
    file system freeing the old report's blocks first, which on some file
    systems costs more than the write itself; devices, FIFOs and terminals
    are written but never cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _write(stream, text: str) -> OSError | None:
    """Write ``text`` to ``stream`` and flush it; the error if that fails.
    After a failure the stream's descriptor goes to the null device, so that
    the interpreter's own flush at exit does not fail again on the bytes
    still buffered."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def _write_stdout(text: str) -> None:
    """Write ``text`` to standard output, or exit with :data:`EXIT_CONFIG`."""
    if sys.stdout is None:  # started with descriptor 1 closed
        raise _config_error("cannot write standard output: it is closed")
    failure = _write(sys.stdout, text)
    if failure is not None:
        raise _config_error(f"cannot write standard output: {failure}")


def _write_stderr(line: str) -> None:
    """Write ``line`` to standard error, or drop it if that fails: a message
    that cannot be written changes no exit code, and a warning stops no run."""
    if sys.stderr is not None:  # None when started with descriptor 2 closed
        _write(sys.stderr, line + "\n")


def cmd_check(args) -> int:
    spec = _load_circuit(args.circuit_file)
    _write_stdout(
        f"{args.circuit_file}: ok "
        f"({len(spec.modes)} modes, {len(spec.elements)} elements, "
        f"{len(spec.detectors)} detectors)\n"
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    and each parser built anew would leave reference cycles behind."""
    parser = argparse.ArgumentParser(
        prog="pbsgates",
        description="Simulate probabilistic photonic logic gates built from "
        "polarizing beam splitters, post-selection, and feed-forward.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a built-in gate or a circuit file")
    run._negative_number_matcher = _NEGATIVE_NUMBER
    run.add_argument("--gate", help=f"built-in gate name: {', '.join(gates.GATE_NAMES)}")
    run.add_argument("--circuit", help="path to a circuit description file")
    run.add_argument(
        "--qubit",
        nargs=4,
        type=float,
        metavar=("RE_AH", "IM_AH", "RE_AV", "IM_AV"),
        help="single-qubit input amplitudes",
    )
    run.add_argument(
        "--two-qubit",
        nargs=8,
        type=float,
        metavar=tuple(f"{p}_{c}" for c in ("A1", "A2", "A3", "A4") for p in ("RE", "IM")),
        help="two-qubit input amplitudes (HH, HV, VH, VV)",
    )
    run.add_argument(
        "--control-pol",
        choices=("H", "V"),
        help="control photon polarization for destructive_cnot (default H)",
    )
    run.add_argument(
        "--passive",
        action="store_true",
        help="accept only the outcome needing no feed-forward correction",
    )
    run.add_argument("--output", help="write the JSON report here instead of stdout")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="parse and validate a circuit file")
    check.add_argument("circuit_file")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    """Run the command of ``argv`` (default ``sys.argv[1:]``) and return its
    exit code; a usage error returns :data:`EXIT_CONFIG`, and ``--help`` 0."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
