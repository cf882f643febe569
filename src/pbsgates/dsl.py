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
Diagnostics carry 1-based line and column numbers.  A statement's tokens
are plain strings, split at any whitespace; the positions are worked out
only when a diagnostic is raised, so a valid document looks up none.
"""

from __future__ import annotations

import re

from .circuit import (
    INPUT_FORMS,
    CircuitSpec,
    DetectorSpec,
    FeedForwardRule,
    InputDecl,
)
from .errors import CircuitError, CircuitSyntaxError, DetectedModeReuse
from .fock import POL_F, POL_H, POL_S, POL_V
from .optics import BASIS_FS, BASIS_HV, PbsElement, PolPhaseElement, RotatorElement

_TOKEN = re.compile(r"\S+")


class _Line:
    """Token cursor over one statement; the keyword sits at position 0.

    Tokens are the plain strings of ``body.split()``, the same as the matches
    of :data:`_TOKEN`; a token's column is found by rescanning ``body``, and
    only for a diagnostic.
    """

    __slots__ = ("number", "body", "tokens", "pos")

    def __init__(self, number: int, body: str, tokens: list[str]):
        self.number = number
        self.body = body
        self.tokens = tokens
        self.pos = 1

    def position(self, i: int, after: bool = False) -> tuple[int, int]:
        """The line and column of token ``i``, or of the place just after it."""
        match = list(_TOKEN.finditer(self.body))[i]
        return self.number, (match.end() if after else match.start()) + 1

    def error(self, message: str, i: int, kind=CircuitSyntaxError) -> CircuitError:
        """A diagnostic at token ``i``."""
        return kind(message, *self.position(i))

    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)

    def next(self, what: str) -> str:
        tokens, pos = self.tokens, self.pos
        if pos < len(tokens):
            self.pos = pos + 1
            return tokens[pos]
        raise CircuitSyntaxError(
            f"expected {what} after {tokens[-1]!r}", *self.position(-1, after=True)
        )

    def next_float(self, what: str) -> float:
        tok = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise self.error(f"expected {what}, got {tok!r}", self.pos - 1) from None

    def next_choice(self, what: str, choices: tuple[str, ...]) -> str:
        tok = self.next(what)
        if tok not in choices:
            raise self.error(f"expected {what} ({'|'.join(choices)}), got {tok!r}", self.pos - 1)
        return tok

    def done(self):
        if self.pos < len(self.tokens):
            raise self.error(f"unexpected trailing token {self.tokens[self.pos]!r}", self.pos)


class _Parser:
    """Gathers a spec's fields statement by statement; the spec checks its
    meaning when it is built (:func:`pbsgates.circuit.validate`).

    The one rule kept here is about text order, which a spec does not
    record: no statement may name a mode after that mode's ``detect``.  Its
    first breach is raised only once the spec is built, so that a spec's
    own faults are reported as the library reports them.
    """

    def __init__(self):
        self.fields = {field: [] for field in CircuitSpec._fields}
        #: (field, index) -> the (line, token index) of each name that
        #: :func:`pbsgates.circuit.validate` files under that field and index
        #: (see its ``entry``).
        self.names: dict[tuple[str, int], list[tuple[_Line, int]]] = {}
        self.detected: dict[str, str] = {}
        #: The first breach of the text-order rule: message, line, token index.
        self.reuse: tuple[str, _Line, int] | None = None

    def add(self, field: str, entry, names: list[tuple[_Line, int]]):
        self.names[field, len(self.fields[field])] = names
        self.fields[field].append(entry)

    def next_mode(self, line: _Line) -> str:
        mode = line.next("mode identifier")
        if mode in self.detected and self.reuse is None:
            message = f"mode {mode!r} was consumed by detector {self.detected[mode]!r}"
            self.reuse = (message, line, line.pos - 1)
        return mode

    def stmt_mode(self, line: _Line):
        mode = self.next_mode(line)
        line.done()
        self.add("modes", mode, [(line, 1)])

    def stmt_input(self, line: _Line):
        kind = line.next_choice("input kind", tuple(INPUT_FORMS))
        terms, amplitude_names = INPUT_FORMS[kind]
        modes = tuple(self.next_mode(line) for _ in terms[0])
        amplitudes = tuple(
            complex(line.next_float(f"re({a})"), line.next_float(f"im({a})"))
            for a in amplitude_names
        )
        line.done()
        names = [(line, i) for i in range(2, 2 + len(modes))]
        self.add("inputs", InputDecl(kind, modes, amplitudes), names)

    def stmt_pbs(self, line: _Line):
        basis = line.next_choice("PBS basis", (BASIS_HV, BASIS_FS))
        in1, in2, out1, out2 = (self.next_mode(line) for _ in range(4))
        if in1 == in2 or out1 == out2:
            raise line.error("PBS ports must be distinct", 2)
        line.done()
        ports = [(line, i) for i in range(2, 6)]
        self.add("elements", PbsElement(in1, in2, out1, out2, basis), ports)

    def parse_correction(self, line: _Line, keyword: str | None = None):
        """The next ``rotate`` or ``polphase`` element and its mode's place."""
        if keyword is None:
            keyword = line.next_choice("correction", ("rotate", "polphase"))
        mode = self.next_mode(line)
        place = (line, line.pos - 1)
        if keyword == "rotate":
            return RotatorElement(mode, line.next_float("angle in degrees")), place
        pol = line.next_choice("polarization", (POL_H, POL_V))
        return PolPhaseElement(mode, pol, line.next_float("phase in degrees")), place

    def stmt_rotate(self, line: _Line):
        element, place = self.parse_correction(line, line.tokens[0])
        line.done()
        self.add("elements", element, [place])

    stmt_polphase = stmt_rotate

    def stmt_detect(self, line: _Line):
        basis = line.next_choice("detector basis", (BASIS_HV, BASIS_FS))
        mode = self.next_mode(line)
        line.next_choice("'as'", ("as",))
        label = line.next("detector label")
        line.done()
        self.names["labels", len(self.fields["detectors"])] = [(line, 4)]
        self.add("detectors", DetectorSpec(mode, basis, label), [(line, 2)])
        self.detected[mode] = label

    def stmt_on(self, line: _Line):
        label = line.next("detector label")
        pol = line.next_choice("trigger polarization", (POL_H, POL_V, POL_F, POL_S))
        line.next_choice("'do'", ("do",))
        corrections = [self.parse_correction(line)]
        while not line.exhausted():
            sep = line.next("';'")
            if sep != ";":
                raise line.error(f"expected ';' between corrections, got {sep!r}", line.pos - 1)
            corrections.append(self.parse_correction(line))
        i = len(self.fields["rules"])
        self.names["triggers", i] = [(line, 2)]
        self.names["corrections", i] = [place for _, place in corrections]
        rule = FeedForwardRule(label, pol, tuple(el for el, _ in corrections))
        self.add("rules", rule, [(line, 1)])

    def stmt_output(self, line: _Line):
        if line.exhausted():
            raise line.error("output statement lists no modes", 0)
        while not line.exhausted():
            self.add("outputs", self.next_mode(line), [(line, line.pos - 1)])


#: Each statement keyword with its handler.
_STATEMENTS = {name[5:]: stmt for name, stmt in vars(_Parser).items() if name.startswith("stmt_")}


def parse_circuit(text: str) -> CircuitSpec:
    """Parse a circuit document into a spec; diagnostics carry line/column.

    A rule that the spec breaks when it is built
    (:func:`pbsgates.circuit.validate`) is reported at the statement that
    made the entry at fault, at the offending token, with the error's
    ``entry``.
    """
    parser = _Parser()
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        line = _Line(number, body, tokens)
        handler = _STATEMENTS.get(tokens[0])
        if handler is None:
            raise line.error(f"unknown statement {tokens[0]!r}", 0)
        handler(parser, line)
    try:
        spec = CircuitSpec(**parser.fields)
    except CircuitError as exc:
        if exc.entry is None:
            raise
        field, index, _, k = exc.entry
        line, i = parser.names[field, index][k]
        raise type(exc)(str(exc), *line.position(i), exc.entry) from None
    if parser.reuse is not None:
        message, line, i = parser.reuse
        raise line.error(message, i, DetectedModeReuse)
    return spec


def _fmt(value: float) -> str:
    return repr(value)


def _format_correction(el) -> str:
    if isinstance(el, RotatorElement):
        return f"rotate {el.mode} {_fmt(el.angle_deg)}"
    return f"polphase {el.mode} {el.pol} {_fmt(el.phase_deg)}"


def format_circuit(spec: CircuitSpec) -> str:
    """Pretty-print a spec so that reparsing yields an equal spec.

    Any spec can be written: it was checked when it was built.  Only the
    spec's six fields are read, as attributes.
    """
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
