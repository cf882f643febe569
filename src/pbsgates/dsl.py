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
identifiers are opaque tokens (``2'`` is a valid mode).  Diagnostics carry
1-based line and column numbers.
"""

from __future__ import annotations

import re

from .circuit import CircuitSpec, DetectorSpec, FeedForwardRule, InputDecl
from .errors import (
    CircuitSyntaxError,
    DetectedModeReuse,
    MissingOutput,
    UndeclaredMode,
)
from .fock import POL_F, POL_H, POL_S, POL_V
from .optics import BASIS_FS, BASIS_HV, PbsElement, PolPhaseElement, RotatorElement

_TOKEN = re.compile(r"\S+")

#: Input kind -> (number of modes, names of its complex amplitudes).
_INPUT_FORMS = {
    "qubit": (1, ("aH", "aV")),
    "state": (2, ("HH", "HV", "VH", "VV")),
    "bell": (2, ()),
    "chi": (4, ()),
}


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

    def next_choice(self, what: str, choices: tuple[str, ...]) -> str:
        tok = self.next(what)
        if tok.text not in choices:
            raise CircuitSyntaxError(
                f"expected {what} ({'|'.join(choices)}), got {tok.text!r}",
                tok.line,
                tok.column,
            )
        return tok.text

    def done(self):
        if not self.exhausted():
            tok = self.tokens[self.pos]
            raise CircuitSyntaxError(
                f"unexpected trailing token {tok.text!r}", tok.line, tok.column
            )


class _Parser:
    def __init__(self):
        self.modes: list[str] = []
        self.inputs: list[InputDecl] = []
        self.elements: list = []
        self.detectors: list[DetectorSpec] = []
        self.rules: list[FeedForwardRule] = []
        self.outputs: list[str] = []
        self.sourced: set[str] = set()
        self.detected: dict[str, str] = {}
        self.labels: dict[str, DetectorSpec] = {}

    def next_mode(self, line: _Line) -> _Token:
        tok = line.next("mode identifier")
        if tok.text not in self.modes:
            raise UndeclaredMode(
                f"mode {tok.text!r} is not declared", tok.line, tok.column
            )
        if tok.text in self.detected:
            raise DetectedModeReuse(
                f"mode {tok.text!r} was consumed by detector "
                f"{self.detected[tok.text]!r}",
                tok.line,
                tok.column,
            )
        return tok

    def stmt_mode(self, line: _Line):
        tok = line.next("mode identifier")
        if tok.text in self.modes:
            raise CircuitSyntaxError(
                f"mode {tok.text!r} declared twice", tok.line, tok.column
            )
        line.done()
        self.modes.append(tok.text)

    def stmt_input(self, line: _Line):
        kind = line.next_choice("input kind", tuple(_INPUT_FORMS))
        arity, amplitude_names = _INPUT_FORMS[kind]
        modes: list[str] = []
        for _ in range(arity):
            tok = self.next_mode(line)
            if tok.text in self.sourced or tok.text in modes:
                raise CircuitSyntaxError(
                    f"mode {tok.text!r} already has an input", tok.line, tok.column
                )
            modes.append(tok.text)
        amplitudes = tuple(
            complex(line.next_float(f"re({a})"), line.next_float(f"im({a})"))
            for a in amplitude_names
        )
        line.done()
        self.sourced.update(modes)
        self.inputs.append(InputDecl(kind, tuple(modes), amplitudes))

    def stmt_pbs(self, line: _Line):
        basis = line.next_choice("PBS basis", (BASIS_HV, BASIS_FS))
        in1 = self.next_mode(line)
        in2 = self.next_mode(line)
        out1 = self.next_mode(line)
        out2 = self.next_mode(line)
        if in1.text == in2.text or out1.text == out2.text:
            raise CircuitSyntaxError("PBS ports must be distinct", in1.line, in1.column)
        line.done()
        self.elements.append(
            PbsElement(in1.text, in2.text, out1.text, out2.text, basis)
        )

    def parse_correction(self, line: _Line, keyword: str | None = None):
        if keyword is None:
            keyword = line.next_choice("correction", ("rotate", "polphase"))
        if keyword == "rotate":
            mode = self.next_mode(line)
            angle = line.next_float("angle in degrees")
            return RotatorElement(mode.text, angle)
        mode = self.next_mode(line)
        pol = line.next_choice("polarization", (POL_H, POL_V))
        phase = line.next_float("phase in degrees")
        return PolPhaseElement(mode.text, pol, phase)

    def stmt_rotate(self, line: _Line):
        self.elements.append(self.parse_correction(line, line.tokens[0].text))
        line.done()

    stmt_polphase = stmt_rotate

    def stmt_detect(self, line: _Line):
        basis = line.next_choice("detector basis", (BASIS_HV, BASIS_FS))
        mode = self.next_mode(line)
        line.next_choice("'as'", ("as",))
        tok = line.next("detector label")
        if tok.text in self.labels:
            raise CircuitSyntaxError(
                f"detector label {tok.text!r} declared twice", tok.line, tok.column
            )
        line.done()
        det = DetectorSpec(mode.text, basis, tok.text)
        self.detectors.append(det)
        self.labels[tok.text] = det
        self.detected[mode.text] = tok.text

    def stmt_on(self, line: _Line):
        tok = line.next("detector label")
        det = self.labels.get(tok.text)
        if det is None:
            raise UndeclaredMode(
                f"detector label {tok.text!r} is not declared", tok.line, tok.column
            )
        pols = (POL_H, POL_V) if det.basis == BASIS_HV else (POL_F, POL_S)
        pol = line.next_choice("trigger polarization", pols)
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
        self.rules.append(FeedForwardRule(tok.text, pol, tuple(corrections)))

    def stmt_output(self, line: _Line):
        if line.exhausted():
            tok = line.tokens[0]
            raise CircuitSyntaxError(
                "output statement lists no modes", tok.line, tok.column
            )
        while not line.exhausted():
            tok = self.next_mode(line)
            if tok.text in self.outputs:
                raise CircuitSyntaxError(
                    f"output mode {tok.text!r} listed twice", tok.line, tok.column
                )
            self.outputs.append(tok.text)


_STATEMENTS = {
    "mode": _Parser.stmt_mode,
    "input": _Parser.stmt_input,
    "pbs": _Parser.stmt_pbs,
    "rotate": _Parser.stmt_rotate,
    "polphase": _Parser.stmt_polphase,
    "detect": _Parser.stmt_detect,
    "on": _Parser.stmt_on,
    "output": _Parser.stmt_output,
}


def parse_circuit(text: str) -> CircuitSpec:
    """Parse and validate a circuit document; diagnostics carry line/column."""
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), lineno, m.start() + 1) for m in _TOKEN.finditer(body)
        ]
        if not tokens:
            continue
        head = tokens[0]
        handler = _STATEMENTS.get(head.text)
        if handler is None:
            raise CircuitSyntaxError(
                f"unknown statement {head.text!r}", head.line, head.column
            )
        handler(parser, _Line(tokens))
    if not parser.outputs:
        raise MissingOutput("circuit declares no output modes")
    return CircuitSpec(
        modes=tuple(parser.modes),
        inputs=tuple(parser.inputs),
        elements=tuple(parser.elements),
        detectors=tuple(parser.detectors),
        rules=tuple(parser.rules),
        outputs=tuple(parser.outputs),
    )


def _fmt(value: float) -> str:
    return repr(value)


def _format_correction(el) -> str:
    if isinstance(el, RotatorElement):
        return f"rotate {el.mode} {_fmt(el.angle_deg)}"
    return f"polphase {el.mode} {el.pol} {_fmt(el.phase_deg)}"


def format_circuit(spec: CircuitSpec) -> str:
    """Pretty-print a spec so that reparsing yields an equal spec."""
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
    lines.append("output " + " ".join(spec.outputs))
    return "\n".join(lines) + "\n"
