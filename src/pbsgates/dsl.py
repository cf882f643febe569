"""Line-oriented circuit description language.

Grammar (one statement per line, ``#`` starts a comment)::

    mode <id>
    input qubit <mode> <re_aH> <im_aH> <re_aV> <im_aV>
    input state <m1> <m2> <reHH> <imHH> <reHV> <imHV> <reVH> <imVH> <reVV> <imVV>
    input bell <m1> <m2>
    input chi <m1> <m2> <m3> <m4>
    pbs <hv|fs> <in1> <in2> <out1> <out2>
    rotate <mode> <degrees>
    polphase <mode> <H|V> <degrees>
    detect <hv|fs> <mode> as <label>
    on <label> <pol> do <correction> [; <correction>]...
    output <mode>...

Corrections reuse the ``rotate`` / ``polphase`` statement forms.  Mode
identifiers and labels are opaque tokens (``2'`` is a valid mode) without
``;`` (:data:`pbsgates.circuit.NAME`).  Statements may come
in any order, except that none may name a mode after that mode's ``detect``.
Diagnostics carry 1-based line and column numbers.
"""

from __future__ import annotations

import dataclasses
import re

from .circuit import (
    INPUT_FORMS,
    CircuitSpec,
    DetectorSpec,
    FeedForwardRule,
    InputDecl,
    check_correction,
    check_input,
    check_name,
    validate,
)
from .errors import CircuitError, CircuitSyntaxError, DetectedModeReuse
from .fock import POL_F, POL_H, POL_S, POL_V
from .optics import BASIS_FS, BASIS_HV, PbsElement, PolPhaseElement, RotatorElement

_TOKEN = re.compile(r"\S+")


class _Token:
    __slots__ = ("text", "line", "column")

    def __init__(self, text, line, column):
        self.text = text
        self.line = line
        self.column = column


class _Line:
    """Token cursor over one statement; the keyword sits at position 0."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 1

    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)

    def next(self, what: str) -> _Token:
        if self.exhausted():
            last = self.tokens[-1]
            raise CircuitSyntaxError(
                f"expected {what} after {last.text!r}",
                last.line,
                last.column + len(last.text),
            )
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def next_float(self, what: str) -> float:
        tok = self.next(what)
        try:
            return float(tok.text)
        except ValueError:
            raise CircuitSyntaxError(
                f"expected {what}, got {tok.text!r}", tok.line, tok.column
            ) from None

    def next_choice(self, what: str, choices: tuple[str, ...]) -> _Token:
        tok = self.next(what)
        if tok.text not in choices:
            raise CircuitSyntaxError(
                f"expected {what} ({'|'.join(choices)}), got {tok.text!r}",
                tok.line,
                tok.column,
            )
        return tok

    def done(self):
        if not self.exhausted():
            tok = self.tokens[self.pos]
            raise CircuitSyntaxError(
                f"unexpected trailing token {tok.text!r}", tok.line, tok.column
            )


class _Parser:
    """Builds a spec statement by statement; :func:`validate` checks its meaning.

    The one rule kept here is about text order, which a spec does not
    record: no statement may name a mode after that mode's ``detect``.  Its
    first breach is raised only if the spec passes :func:`validate`, so that
    a spec's own faults are reported as the library reports them.
    """

    def __init__(self):
        self.fields = {field.name: [] for field in dataclasses.fields(CircuitSpec)}
        #: (field, index) -> the tokens of the names that :func:`validate`
        #: files under that field and index (see its ``entry``).
        self.names: dict[tuple[str, int], list[_Token]] = {}
        self.detected: dict[str, str] = {}
        self.reuse: DetectedModeReuse | None = None

    def add(self, field: str, entry, names: list[_Token]):
        self.names[field, len(self.fields[field])] = names
        self.fields[field].append(entry)

    def next_mode(self, line: _Line) -> _Token:
        tok = line.next("mode identifier")
        if tok.text in self.detected and self.reuse is None:
            message = f"mode {tok.text!r} was consumed by detector {self.detected[tok.text]!r}"
            self.reuse = DetectedModeReuse(message, tok.line, tok.column)
        return tok

    def stmt_mode(self, line: _Line):
        tok = self.next_mode(line)
        line.done()
        self.add("modes", tok.text, [tok])

    def stmt_input(self, line: _Line):
        kind = line.next_choice("input kind", tuple(INPUT_FORMS)).text
        terms, amplitude_names = INPUT_FORMS[kind]
        modes = [self.next_mode(line) for _ in terms[0]]
        amplitudes = tuple(
            complex(line.next_float(f"re({a})"), line.next_float(f"im({a})"))
            for a in amplitude_names
        )
        line.done()
        self.add("inputs", InputDecl(kind, tuple(t.text for t in modes), amplitudes), modes)

    def stmt_pbs(self, line: _Line):
        basis = line.next_choice("PBS basis", (BASIS_HV, BASIS_FS)).text
        ports = [self.next_mode(line) for _ in range(4)]
        in1, in2, out1, out2 = (tok.text for tok in ports)
        if in1 == in2 or out1 == out2:
            raise CircuitSyntaxError("PBS ports must be distinct", ports[0].line, ports[0].column)
        line.done()
        self.add("elements", PbsElement(in1, in2, out1, out2, basis), ports)

    def parse_correction(self, line: _Line, keyword: str | None = None):
        """The next ``rotate`` or ``polphase`` element and its mode token."""
        if keyword is None:
            keyword = line.next_choice("correction", ("rotate", "polphase")).text
        mode = self.next_mode(line)
        if keyword == "rotate":
            return RotatorElement(mode.text, line.next_float("angle in degrees")), mode
        pol = line.next_choice("polarization", (POL_H, POL_V)).text
        return PolPhaseElement(mode.text, pol, line.next_float("phase in degrees")), mode

    def stmt_rotate(self, line: _Line):
        element, mode = self.parse_correction(line, line.tokens[0].text)
        line.done()
        self.add("elements", element, [mode])

    stmt_polphase = stmt_rotate

    def stmt_detect(self, line: _Line):
        basis = line.next_choice("detector basis", (BASIS_HV, BASIS_FS)).text
        mode = self.next_mode(line)
        line.next_choice("'as'", ("as",))
        label = line.next("detector label")
        line.done()
        self.names["labels", len(self.fields["detectors"])] = [label]
        self.add("detectors", DetectorSpec(mode.text, basis, label.text), [mode])
        self.detected[mode.text] = label.text

    def stmt_on(self, line: _Line):
        label = line.next("detector label")
        pol = line.next_choice("trigger polarization", (POL_H, POL_V, POL_F, POL_S))
        line.next_choice("'do'", ("do",))
        corrections = [self.parse_correction(line)]
        while not line.exhausted():
            sep = line.next("';'")
            if sep.text != ";":
                raise CircuitSyntaxError(
                    f"expected ';' between corrections, got {sep.text!r}",
                    sep.line,
                    sep.column,
                )
            corrections.append(self.parse_correction(line))
        i = len(self.fields["rules"])
        self.names["triggers", i] = [pol]
        self.names["corrections", i] = [m for _, m in corrections]
        rule = FeedForwardRule(label.text, pol.text, tuple(el for el, _ in corrections))
        self.add("rules", rule, [label])

    def stmt_output(self, line: _Line):
        if line.exhausted():
            tok = line.tokens[0]
            raise CircuitSyntaxError(
                "output statement lists no modes", tok.line, tok.column
            )
        while not line.exhausted():
            tok = self.next_mode(line)
            self.add("outputs", tok.text, [tok])


def parse_circuit(text: str) -> CircuitSpec:
    """Parse and validate a circuit document; diagnostics carry line/column.

    A rule that :func:`validate` finds broken is reported at the statement
    that made the entry at fault, at the offending token, with the
    validator's ``entry``.
    """
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), lineno, m.start() + 1) for m in _TOKEN.finditer(body)
        ]
        if not tokens:
            continue
        head = tokens[0]
        handler = getattr(parser, f"stmt_{head.text}", None)
        if handler is None:
            raise CircuitSyntaxError(
                f"unknown statement {head.text!r}", head.line, head.column
            )
        handler(_Line(tokens))
    spec = CircuitSpec(**{field: tuple(entries) for field, entries in parser.fields.items()})
    try:
        validate(spec)
    except CircuitError as exc:
        if exc.entry is None:
            raise
        field, index, _, k = exc.entry
        tok = parser.names[field, index][k]
        raise type(exc)(str(exc), tok.line, tok.column, exc.entry) from None
    if parser.reuse is not None:
        raise parser.reuse
    return spec


def _fmt(value: float) -> str:
    return repr(value)


def _format_correction(el) -> str:
    if isinstance(el, RotatorElement):
        return f"rotate {el.mode} {_fmt(el.angle_deg)}"
    return f"polphase {el.mode} {el.pol} {_fmt(el.phase_deg)}"


def format_circuit(spec: CircuitSpec) -> str:
    """Pretty-print a spec so that reparsing yields an equal spec.

    A spec that cannot be written raises the :class:`CircuitSyntaxError`
    that :func:`validate` raises for it: a declared mode or a detector label
    that is not one token, an input declaration whose kind, mode count or
    amplitude count is wrong, or a correction other than a rotator or phase
    plate.  Non-finite values are written, so that the parser reports them
    at their line and column.
    """
    for i, mode in enumerate(spec.modes):
        check_name(mode, "modes", i)
    for i, decl in enumerate(spec.inputs):
        check_input(decl, i)
    for i, det in enumerate(spec.detectors):
        check_name(det.label, "labels", i)
    for i, rule in enumerate(spec.rules):
        for k, el in enumerate(rule.corrections):
            check_correction(el, i, k)
    lines = [f"mode {m}" for m in spec.modes]
    for decl in spec.inputs:
        reals = [_fmt(x) for a in decl.amplitudes for x in (a.real, a.imag)]
        lines.append(" ".join(["input", decl.kind, *decl.modes, *reals]))
    for el in spec.elements:
        if isinstance(el, PbsElement):
            lines.append(f"pbs {el.basis} {el.in1} {el.in2} {el.out1} {el.out2}")
        else:
            lines.append(_format_correction(el))
    for det in spec.detectors:
        lines.append(f"detect {det.basis} {det.mode} as {det.label}")
    for rule in spec.rules:
        body = " ; ".join(_format_correction(c) for c in rule.corrections)
        lines.append(f"on {rule.label} {rule.pol} do {body}")
    if spec.outputs:
        lines.append("output " + " ".join(spec.outputs))
    return "\n".join(lines) + "\n"
