"""Parser tests: shipped circuits, diagnostics, round-trip, mutation fuzz."""

import ast
import contextlib
import hashlib
import io
import random
import re

import pytest

from pbsgates import cli, dsl, gates
from pbsgates.errors import (
    CircuitError,
    CircuitSyntaxError,
    DetectedModeReuse,
    MissingOutput,
    OverlappingModes,
    UndeclaredMode,
)
from pbsgates.gates import GATE_NAMES
from pbsgates.optics import PbsElement

from conftest import CIRCUIT_FILES, circuit_path, random_qubit, random_two_qubit

VALID = """\
# minimal two-detector circuit
mode 2'
mode a
mode 2
mode c
input qubit 2' 0.6 0 0.8 0
input qubit a 0.7071067811865476 0 0.7071067811865476 0
pbs hv 2' a 2 c
detect fs c as c
on c S do polphase 2 H 180
output 2
"""


def parse(text):
    return dsl.parse_circuit(text)


def test_parse_valid_document():
    spec = parse(VALID)
    assert spec.modes == ("2'", "a", "2", "c")
    assert len(spec.inputs) == 2
    assert isinstance(spec.elements[0], PbsElement)
    assert spec.detectors[0].label == "c"
    assert spec.rules[0].pol == "S"
    assert spec.outputs == ("2",)


def test_shipped_circuits_parse():
    for name in GATE_NAMES:
        with open(circuit_path(name), encoding="utf-8") as handle:
            spec = parse(handle.read())
        assert spec.outputs
        assert spec.detectors


def test_round_trip_shipped_circuits():
    for name in GATE_NAMES:
        with open(circuit_path(name), encoding="utf-8") as handle:
            spec = parse(handle.read())
        assert parse(dsl.format_circuit(spec)) == spec


def test_comments_and_blank_lines_ignored():
    spec = parse("# leading comment\n\n" + VALID + "\n   # trailing\n")
    assert spec == parse(VALID)


def test_crlf_accepted():
    assert parse(VALID.replace("\n", "\r\n")) == parse(VALID)


def diag(text):
    with pytest.raises(CircuitError) as info:
        parse(text)
    return info.value


def test_unknown_statement_position():
    err = diag("mode m\nsplit m\noutput m\n")
    assert isinstance(err, CircuitSyntaxError)
    assert (err.line, err.column) == (2, 1)


def test_undeclared_mode_position():
    err = diag("mode m\npbs hv m z m z\noutput m\n")
    assert isinstance(err, UndeclaredMode)
    assert (err.line, err.column) == (2, 10)


def test_duplicate_mode_declaration():
    err = diag("mode m\nmode m\noutput m\n")
    assert isinstance(err, CircuitSyntaxError)
    assert err.line == 2


def test_detected_mode_reuse():
    err = diag(
        "mode m\nmode n\ninput qubit m 1 0 0 0\n"
        "detect hv n as n\noutput n\n"
    )
    assert isinstance(err, DetectedModeReuse)
    assert err.line == 5


def test_output_before_the_detect_of_its_mode():
    err = diag(
        "mode m\nmode n\ninput qubit m 1 0 0 0\ninput qubit n 1 0 0 0\n"
        "output m n\ndetect hv n as n\n"
    )
    assert isinstance(err, DetectedModeReuse)
    assert (err.line, err.column) == (5, 10)


def test_statements_in_any_order_before_a_detect():
    # A mode may be named before its mode line, a rule before its detector.
    lines = VALID.splitlines()
    moved = lines[:4] + lines[5:8] + [lines[9], lines[4], lines[8], lines[10]]
    assert parse("\n".join(moved)) == parse(VALID)


def test_bad_float_diagnostic():
    for statement, column in (
        ("input qubit m one 0 0 0", 15),
        ("input state m n 1 0 0 0 x 0 0 0", 25),
    ):
        err = diag(f"mode m\nmode n\n{statement}\noutput m\n")
        assert isinstance(err, CircuitSyntaxError)
        assert (err.line, err.column) == (3, column)


def test_missing_token_reports_after_last():
    for statement in ("input qubit m 1 0 0", "input state m n 1 0 0 0 0 0 0"):
        err = diag(f"mode m\nmode n\n{statement}\noutput m\n")
        assert isinstance(err, CircuitSyntaxError)
        assert (err.line, err.column) == (3, len(statement) + 1)


def test_trailing_token_rejected():
    err = diag("mode m\nmode n extra\noutput m\n")
    assert isinstance(err, CircuitSyntaxError)
    assert (err.line, err.column) == (2, 8)


class _NoPositions:
    """Stands in for ``dsl._TOKEN``: any rescan for a position fails."""

    def finditer(self, text):
        raise AssertionError(f"position looked up in {text!r}")


def test_a_valid_document_looks_up_no_token_position(monkeypatch):
    monkeypatch.setattr(dsl, "_TOKEN", _NoPositions())
    assert len(CIRCUIT_FILES) == 16
    for path in CIRCUIT_FILES:
        assert parse(path.read_text(encoding="utf-8")).outputs


#: Each diagnostic's statement with ``{s}`` for a separator, and its line and
#: column, the same for every one-character separator.
SEPARATED = {
    "bad float": (
        "mode m\nmode n\n{s}input{s}qubit{s}{s}m{s}one 0{s}0 0\noutput m\n",
        "expected re(aH), got 'one'",
        (3, 17),
    ),
    "missing token": (
        "mode m\n{s}mode{s}{s}n\ninput{s}qubit m 1{s}0{s}{s}0{s}\noutput m\n",
        "expected im(aV) after '0'",
        (3, 21),
    ),
    "trailing token": (
        "mode m\nmode{s}n{s}{s}extra{s}\noutput m\n",
        "unexpected trailing token 'extra'",
        (2, 9),
    ),
    "unknown statement": (
        "mode m\n\n{s}{s}split{s}m\noutput m\n",
        "unknown statement 'split'",
        (3, 3),
    ),
}


@pytest.mark.parametrize("separator", ["\t", "\x1f", "\xa0", "\u2003", "\u3000"])
@pytest.mark.parametrize("case", sorted(SEPARATED))
def test_positions_count_code_points_under_any_whitespace(case, separator):
    text, message, position = SEPARATED[case]
    err = diag(text.format(s=separator))
    assert type(err) is CircuitSyntaxError
    assert str(err) == f"line {position[0]}, column {position[1]}: {message}"
    assert (err.line, err.column) == position


#: Diagnostics of a statement's own tokens: the text, the error's class, its
#: message, where it points (the first port of the PBS, the second ``rotate``
#: of the rule) and the entry that :func:`circuit.validate` names, if it is
#: the one that refuses the text.
TOKEN_DIAGNOSTICS = {
    "pbs ports": (
        "mode a\nmode b\nmode c\npbs hv a a b c\noutput b\n",
        CircuitSyntaxError,
        "PBS ports must be distinct",
        (4, 8),
        None,
    ),
    "rule separator": (
        "mode a\nmode b\ndetect hv a as x\non x V do rotate b 90 rotate b 90\noutput b\n",
        CircuitSyntaxError,
        "expected ';' between corrections, got 'rotate'",
        (4, 23),
        None,
    ),
    # A rule's trigger spelled like its label, and a label spelled like its
    # detector's mode: the diagnostic points at the token at fault.
    "trigger named like its label": (
        "mode a\nmode c\ninput qubit a 1 0 0 0\ndetect hv c as F\noutput a\n"
        "on F F do rotate a 90\n",
        CircuitSyntaxError,
        "trigger 'F' is not in the basis",
        (6, 6),
        ("triggers", 0, "F", 0),
    ),
    "label named like its mode": (
        "mode a\nmode c\nmode d\ninput qubit a 1 0 0 0\ndetect hv d as c\n"
        "detect hv c as c\noutput a\n",
        CircuitSyntaxError,
        "label 'c' declared twice",
        (6, 16),
        ("labels", 1, "c", 0),
    ),
    # A name repeated within one role of a statement: the diagnostic points
    # at the occurrence at fault, not at the first.
    "bell pair on one mode twice": (
        "mode a\ninput bell a a\noutput a\n",
        OverlappingModes,
        "mode 'a' has two inputs",
        (2, 14),
        ("inputs", 0, "a", 1),
    ),
    "two-qubit state on one mode twice": (
        "mode a\ninput state a a 1 0 0 0 0 0 0 0\noutput a\n",
        OverlappingModes,
        "mode 'a' has two inputs",
        (2, 15),
        ("inputs", 0, "a", 1),
    ),
    "chi with its first mode last": (
        "mode a\nmode b\nmode c\ninput chi a b c a\noutput a\n",
        OverlappingModes,
        "mode 'a' has two inputs",
        (4, 17),
        ("inputs", 0, "a", 3),
    ),
    "second correction of a mode not finite": (
        "mode a\nmode b\ndetect hv a as x\non x V do rotate b 90 ; rotate b inf\noutput b\n",
        CircuitSyntaxError,
        "angle or phase on 'b' is not finite",
        (4, 32),
        ("corrections", 0, "b", 1),
    ),
}


@pytest.mark.parametrize("case", sorted(TOKEN_DIAGNOSTICS))
def test_a_statement_diagnostic_points_at_its_token_and_check_exits_3(case, tmp_path):
    text, error, message, position, entry = TOKEN_DIAGNOSTICS[case]
    err = diag(text)
    assert type(err) is error
    assert message in str(err)
    assert (err.line, err.column) == position
    assert err.entry == entry
    path = tmp_path / "bad.circ"
    path.write_text(text, encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        assert cli.main(["check", str(path)]) == cli.EXIT_PARSE == 3
    assert message in stderr.getvalue()


def test_duplicate_detector_label():
    err = diag(
        "mode m\nmode n\ndetect hv m as z\ndetect hv n as z\noutput m\n"
    )
    assert isinstance(err, CircuitSyntaxError)
    assert err.line == 4


def test_rule_label_must_exist():
    err = diag("mode m\non z S do polphase m H 180\noutput m\n")
    assert isinstance(err, UndeclaredMode)


def test_rule_polarization_follows_detector_basis():
    err = diag(
        "mode m\nmode n\ndetect hv m as m\n"
        "on m S do polphase n H 180\noutput n\n"
    )
    assert isinstance(err, CircuitSyntaxError)


def test_missing_output():
    with pytest.raises(MissingOutput):
        parse("mode m\ninput qubit m 1 0 0 0\n")


def test_input_mode_used_twice():
    err = diag(
        "mode m\ninput qubit m 1 0 0 0\ninput qubit m 1 0 0 0\noutput m\n"
    )
    assert isinstance(err, OverlappingModes)
    assert err.line == 3


def test_round_trip_gate_specs(rng):
    reports = [
        gates.parity_check(random_qubit(rng)),
        gates.destructive_cnot(random_qubit(rng), random_qubit(rng)),
        gates.encoder(random_qubit(rng)),
        gates.cnot(random_two_qubit(rng)),
        gates.gc_cnot(random_two_qubit(rng)),
        gates.chi_via_cnot(),
    ]
    assert [r.name for r in reports] == list(GATE_NAMES)
    for report in reports:
        assert parse(dsl.format_circuit(report.spec)) == report.spec


#: The token that a diagnostic quotes, as its ``repr``.
QUOTED = re.compile(r"(?:got|unexpected trailing token|unknown statement) (['\"].*)$")


def test_mutation_fuzz_never_crashes(rng):
    checked = 0
    lines = VALID.splitlines()
    alphabet = list("abcxyz12'#; .-")
    for _ in range(1000):
        mutated = list(lines)
        op = rng.integers(4)
        idx = int(rng.integers(len(mutated)))
        if op == 0:
            del mutated[idx]
        elif op == 1:
            mutated.insert(idx, mutated[int(rng.integers(len(lines)))])
        elif op == 2:
            line = mutated[idx]
            if line:
                pos = int(rng.integers(len(line)))
                line = line[:pos] + alphabet[int(rng.integers(len(alphabet)))] + line[pos + 1:]
            mutated[idx] = line
        else:
            words = mutated[idx].split()
            if words:
                del words[int(rng.integers(len(words)))]
            mutated[idx] = " ".join(words)
        text = "\n".join(mutated)
        try:
            parse(text)
        except CircuitError as exc:
            assert exc.line is None or exc.line >= 1
            assert exc.column is None or exc.column >= 1
            # A diagnostic that quotes a token points at that token.
            quoted = QUOTED.search(str(exc))
            if quoted:
                token = ast.literal_eval(quoted.group(1))
                assert text.splitlines()[exc.line - 1][exc.column - 1:].startswith(token)
                checked += 1
    assert checked


#: Tokens that a corpus mutation may put in besides a file's own: keywords,
#: separators, a mode that no file declares and values that no spec accepts.
EXTRA_TOKENS = ("mode", "output", "as", "do", ";", "zz", "hv", "fs", "H", "S", "0", "nan", "inf")


def mutated_texts(rng: random.Random, per_file: int):
    """``per_file`` mutants of each file of :data:`CIRCUIT_FILES`, each with
    one or two mutations: a token dropped, inserted, replaced or swapped with
    another anywhere in the document, or a statement dropped or moved.  New
    tokens are drawn from the file's own and :data:`EXTRA_TOKENS`."""
    for path in CIRCUIT_FILES:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        lines = [raw.split("#", 1)[0].split() for raw in raw_lines]
        lines = [tokens for tokens in lines if tokens]
        pool = sorted({token for tokens in lines for token in tokens}) + list(EXTRA_TOKENS)
        for _ in range(per_file):
            doc = [list(tokens) for tokens in lines]
            for _ in range(rng.randint(1, 2)):
                op = rng.randrange(6)
                if op == 4:
                    del doc[rng.randrange(len(doc))]
                    continue
                if op == 5:
                    doc.insert(rng.randrange(len(doc)), doc.pop(rng.randrange(len(doc))))
                    continue
                tokens = rng.choice(doc)
                if op == 1:
                    tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(pool))
                elif not tokens:
                    continue
                elif op == 0:
                    del tokens[rng.randrange(len(tokens))]
                elif op == 2:
                    other = rng.choice([t for t in doc if t])
                    i, j = rng.randrange(len(tokens)), rng.randrange(len(other))
                    tokens[i], other[j] = other[j], tokens[i]
                else:
                    tokens[rng.randrange(len(tokens))] = rng.choice(pool)
            yield "".join(" ".join(tokens) + "\n" for tokens in doc)


#: The sha256 of every outcome of the seeded corpus below: each parsed
#: spec's repr, or each diagnostic's class, message, line, column and entry.
CORPUS_DIGEST = "834ddac3d5076e94a078d01494289e42dd66f75354407178ed9010d1619fac6b"


def test_diagnostics_of_a_seeded_mutation_corpus_are_pinned():
    digest = hashlib.sha256()
    seen = set()
    for text in mutated_texts(random.Random(7), 200):
        try:
            outcome = repr(parse(text))
        except CircuitError as exc:
            seen.add((type(exc), exc.entry is not None))
            outcome = repr((type(exc).__name__, str(exc), exc.line, exc.column, exc.entry))
        digest.update(outcome.encode() + b"\n")
    # The corpus reaches every rule class, both before and after the spec is built.
    assert seen >= {
        (CircuitSyntaxError, False),
        (CircuitSyntaxError, True),
        (UndeclaredMode, True),
        (OverlappingModes, True),
        (DetectedModeReuse, False),
        (DetectedModeReuse, True),
        (MissingOutput, False),
    }
    assert digest.hexdigest() == CORPUS_DIGEST
