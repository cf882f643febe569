"""One validator for every spec, run once when the spec is built: the
library and the DSL reject alike, and nothing checks a built spec again."""

import contextlib
import math
import sys

import pytest

from pbsgates import circuit, cli, dsl, gates, oracle
from pbsgates.circuit import CircuitSpec, DetectorSpec, FeedForwardRule, InputDecl
from pbsgates.errors import (
    CircuitError,
    CircuitSyntaxError,
    DetectedModeReuse,
    MissingOutput,
    NonPhysicalInput,
    OverlappingModes,
    UndeclaredMode,
)
from pbsgates.fock import POL_H, POL_V
from pbsgates.gates import GATE_NAMES
from pbsgates.optics import BASIS_HV, PbsElement, PolPhaseElement, RotatorElement

from conftest import accepted_bits, circuit_path, spec_fields


def shipped_spec(name: str) -> CircuitSpec:
    with open(circuit_path(name), encoding="utf-8") as handle:
        return dsl.parse_circuit(handle.read())


#: parity_check.circ: modes 2' a 2 c, qubits on 2' and a, ``pbs hv 2' a 2 c``,
#: ``detect fs c as c``, ``on c S do polphase 2 H 180`` and ``output 2``.
PARITY = shipped_spec("parity_check")
QUBIT, ANCILLA = PARITY.inputs
(DETECTOR,) = PARITY.detectors
(RULE,) = PARITY.rules


def corrected_on(mode: str, phase: float = 180.0) -> tuple:
    return (RULE._replace(corrections=(PolPhaseElement(mode, POL_H, phase),)),)


def first_input(*amplitudes) -> dict:
    """The change that gives parity_check's qubit on mode 2' ``amplitudes``."""
    return dict(inputs=(QUBIT._replace(amplitudes=amplitudes), ANCILLA))


def before_the_pbs(element) -> dict:
    return dict(elements=(element, *PARITY.elements))


def renamed(mode: str) -> dict:
    """parity_check's mode ``2`` renamed ``mode`` wherever it is named."""
    (pbs,) = PARITY.elements
    return dict(
        modes=("2'", "a", mode, "c"),
        elements=(pbs._replace(out1=mode),),
        rules=corrected_on(mode),
        outputs=(mode,),
    )


#: One row per rule of :func:`circuit.validate`: the fields that corrupt
#: parity_check, the class that building the spec and parsing its text
#: raise, and the name at fault.
RULES = {
    "input on an undeclared mode": (
        dict(inputs=(QUBIT, ANCILLA._replace(modes=("z",)))),
        UndeclaredMode,
        "z",
    ),
    "element on an undeclared mode": (
        dict(elements=(PbsElement("2'", "a", "2", "z"),)),
        UndeclaredMode,
        "z",
    ),
    "detector on an undeclared mode": (
        dict(detectors=(DetectorSpec("z", BASIS_HV, "c"),)),
        UndeclaredMode,
        "z",
    ),
    "correction on an undeclared mode": (dict(rules=corrected_on("z")), UndeclaredMode, "z"),
    "output on an undeclared mode": (dict(outputs=("2", "z")), UndeclaredMode, "z"),
    "mode declared twice": (dict(modes=("2'", "a", "2", "c", "a")), CircuitSyntaxError, "a"),
    "two inputs on one mode": (
        dict(inputs=(QUBIT, ANCILLA._replace(modes=QUBIT.modes))),
        OverlappingModes,
        "2'",
    ),
    "one input naming a mode twice": (
        dict(inputs=(QUBIT, InputDecl("bell", ("a", "a")))),
        OverlappingModes,
        "a",
    ),
    "two detectors on one mode": (
        dict(detectors=(DETECTOR, DetectorSpec("c", BASIS_HV, "c2"))),
        DetectedModeReuse,
        "c",
    ),
    "two detectors with one label": (
        dict(detectors=(DETECTOR, DetectorSpec("a", BASIS_HV, "c"))),
        CircuitSyntaxError,
        "c",
    ),
    "rule on an unknown label": (
        dict(rules=(RULE._replace(label="nobody"),)),
        UndeclaredMode,
        "nobody",
    ),
    "rule pol outside its detector's basis": (
        dict(rules=(RULE._replace(pol=POL_V),)),
        CircuitSyntaxError,
        POL_V,
    ),
    "correction on a detected mode": (dict(rules=corrected_on("c")), DetectedModeReuse, "c"),
    "output on a detected mode": (dict(outputs=("2", "c")), DetectedModeReuse, "c"),
    "no outputs": (dict(outputs=()), MissingOutput, None),
    "output listed twice": (dict(outputs=("2", "2")), CircuitSyntaxError, "2"),
    "mode name that is not one token": (renamed("two #2"), CircuitSyntaxError, "two #2"),
    "empty detector label": (
        dict(detectors=(DETECTOR._replace(label=""),)),
        CircuitSyntaxError,
        "",
    ),
    "correction that is a PBS": (
        dict(
            modes=(*PARITY.modes, "e"),
            rules=(RULE._replace(corrections=(PbsElement("2", "e", "e", "2"),)),),
        ),
        CircuitSyntaxError,
        "2",
    ),
    "infinite rotator angle": (
        before_the_pbs(RotatorElement("2'", math.inf)),
        CircuitSyntaxError,
        "2'",
    ),
    "nan rotator angle": (before_the_pbs(RotatorElement("2'", math.nan)), CircuitSyntaxError, "2'"),
    "infinite phase-plate phase": (
        before_the_pbs(PolPhaseElement("2'", POL_H, math.inf)),
        CircuitSyntaxError,
        "2'",
    ),
    "nan correction phase": (dict(rules=corrected_on("2", math.nan)), CircuitSyntaxError, "2"),
    "nan input amplitude": (first_input(math.nan, 0.0), CircuitSyntaxError, "2'"),
    "infinite imaginary part of an amplitude": (
        first_input(0.6, complex(0.0, math.inf)),
        CircuitSyntaxError,
        "2'",
    ),
}

#: Rows whose fields have no text: the name is not one token, or the
#: correction no statement of a rule.
UNWRITABLE = {
    "mode name that is not one token",
    "empty detector label",
    "correction that is a PBS",
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_library_and_dsl_raise_the_same_class(rule):
    changes, error, name = RULES[rule]
    with pytest.raises(error) as library:
        PARITY._replace(**changes)
    entry = library.value.entry
    assert (None if entry is None else entry[2]) == name
    if rule in UNWRITABLE:
        return
    text = dsl.format_circuit(spec_fields(PARITY, **changes))
    with pytest.raises(error) as info:
        dsl.parse_circuit(text)
    err = info.value
    assert err.entry == entry
    if name is None:
        assert err.line is None
    else:
        assert text.splitlines()[err.line - 1][err.column - 1:].startswith(name)


def test_correction_error_points_at_the_correction_mode():
    text = dsl.format_circuit(spec_fields(PARITY, rules=corrected_on("c")))
    with pytest.raises(DetectedModeReuse) as info:
        dsl.parse_circuit(text)
    # "on c S do polphase c H 180": the label is column 4, the mode 20.
    assert (info.value.line, info.value.column) == (9, 20)


def test_parser_refuses_a_token_holding_a_semicolon():
    # "2;" is one token to the parser, but ';' separates corrections.
    text = dsl.format_circuit(PARITY).replace("mode 2\n", "mode 2;\n")
    with pytest.raises(CircuitSyntaxError, match="not one token") as info:
        dsl.parse_circuit(text)
    assert (info.value.line, info.value.column) == (3, 6)


def test_detector_rejects_an_unknown_basis():
    with pytest.raises(ValueError, match="'xy'"):
        DetectorSpec("c", "xy", "c")


#: Input declarations of a shape that no kind of :data:`circuit.INPUT_FORMS`
#: has, each in place of parity_check's qubit on mode 2' (with a mode "z"
#: declared): no spec holds one.
INPUT_SHAPES = {
    "unknown kind": InputDecl("pair", ("2'",)),
    "qubit on two modes": InputDecl("qubit", ("2'", "z"), QUBIT.amplitudes),
    "bell on one mode": InputDecl("bell", ("2'",)),
    "chi on two modes": InputDecl("chi", ("2'", "z")),
    "qubit with three amplitudes": InputDecl("qubit", ("2'",), (0.6, 0.8, 0.0)),
    "state with two amplitudes": InputDecl("state", ("2'", "z"), (0.6, 0.8)),
    "bell with an amplitude": InputDecl("bell", ("2'", "z"), (1,)),
}


def misshapen(rule: str) -> CircuitSpec:
    return PARITY._replace(modes=(*PARITY.modes, "z"), inputs=(INPUT_SHAPES[rule], ANCILLA))


@pytest.mark.parametrize("rule", sorted(INPUT_SHAPES))
def test_a_misshapen_input_is_refused_when_built(rule):
    kind = INPUT_SHAPES[rule].kind
    message = f"a {kind} input takes" if kind in circuit.INPUT_FORMS else "unknown input kind"
    with pytest.raises(CircuitSyntaxError, match=message) as info:
        misshapen(rule)
    assert info.value.entry == ("inputs", 0, "2'", 0)


def test_binding_a_non_finite_amplitude_on_a_plan_is_refused():
    # Gate calls bind amplitudes on a kept plan, with no spec built to check
    # them; the nan must not be pruned as if it were zero.
    declarations = [("qubit", (math.nan, 1.0)), ("qubit", ANCILLA.amplitudes)]
    with pytest.raises(NonPhysicalInput, match="nan.* is not finite"):
        circuit.input_amplitudes(declarations)


def mutate(spec: CircuitSpec, rng) -> dict:
    """The change to ``spec``'s fields that swaps one of its modes, labels,
    pols or outputs for a random one."""

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def at(entries: tuple, change) -> tuple:
        """``entries`` with one of them, at random, passed through ``change``."""
        i = int(rng.integers(len(entries)))
        return entries[:i] + (change(entries[i]),) + entries[i + 1:]

    def remode(el):
        ports = ("in1", "in2", "out1", "out2") if isinstance(el, PbsElement) else ("mode",)
        return el._replace(**{pick(ports): pick(modes)})

    def reinput(decl):
        return decl._replace(modes=at(decl.modes, lambda _: pick(modes)))

    def redetect(det):
        return det._replace(mode=pick(modes))

    def relabel(det):
        return det._replace(label=pick(labels))

    def retrigger(rule):
        return rule._replace(label=pick(labels), pol=pick("HVFS"))

    def recorrect(rule):
        return rule._replace(corrections=at(rule.corrections, remode))

    modes = (*spec.modes, "zz")
    labels = (*(det.label for det in spec.detectors), "nobody")
    field, change = pick((
        ("inputs", reinput),
        ("elements", remode),
        ("detectors", redetect),
        ("detectors", relabel),
        ("rules", retrigger),
        ("rules", recorrect),
        ("outputs", None),
    ))
    if change is None:
        outputs = pick(((), spec.outputs + spec.outputs[:1], spec.outputs + (pick(modes),)))
        return dict(outputs=outputs)
    return {field: at(getattr(spec, field), change)}


def raised(call) -> type | None:
    try:
        call()
    except CircuitError as exc:
        return type(exc)
    return None


def test_mutated_shipped_specs_fail_alike_in_the_library_and_the_dsl(rng):
    seen = set()
    for _ in range(300):
        spec = shipped_spec(GATE_NAMES[int(rng.integers(len(GATE_NAMES)))])
        try:
            changes = mutate(spec, rng)
        except ValueError:  # a PBS with two equal ports cannot be built
            continue
        library = raised(lambda: spec._replace(**changes))
        text = dsl.format_circuit(spec_fields(spec, **changes))
        assert raised(lambda: dsl.parse_circuit(text)) == library, text
        seen.add(library)
    assert seen >= {
        None,
        UndeclaredMode,
        DetectedModeReuse,
        OverlappingModes,
        CircuitSyntaxError,
        MissingOutput,
    }


@contextlib.contextmanager
def validations():
    """The calls of :func:`circuit.validate` made in the block, under any
    name that it is reached by, one ``None`` each."""
    code = circuit.validate.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(None)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def test_a_spec_is_validated_once_when_it_is_built(capsys):
    with validations() as calls:
        assert cli.main(["run", "--circuit", circuit_path("parity_check")]) == 0
    assert len(calls) == 1
    other = PARITY._replace(**first_input(0.8, 0.6))
    qubit = gates.QubitState(0.6, 0.8)
    gates.parity_check(qubit)
    with validations() as calls:
        circuit.compile(PARITY)
        circuit.execute(PARITY)
        dense = oracle.DenseCircuit(PARITY)
        dense.run(PARITY)
        dense.run(other)
        oracle.run_dense(other)
        gates.parity_check(qubit)
    assert calls == []


def test_a_spec_built_from_lists_keeps_the_values_it_was_checked_with():
    modes, amplitudes = list(QUBIT.modes), list(QUBIT.amplitudes)
    corrections = list(RULE.corrections)
    fields = {name: list(getattr(PARITY, name)) for name in CircuitSpec._fields}
    fields["inputs"][0] = InputDecl(QUBIT.kind, modes, amplitudes)
    fields["rules"][0] = FeedForwardRule(RULE.label, RULE.pol, corrections)
    spec = CircuitSpec(**fields)
    modes.append("a")
    amplitudes.append(math.nan)
    corrections.append(PbsElement("2", "c", "c", "2"))
    for entries in fields.values():
        entries.clear()
    assert spec == PARITY and hash(spec) == hash(PARITY)
    assert accepted_bits(circuit.execute(spec)) == accepted_bits(circuit.execute(PARITY))


@pytest.mark.parametrize("rule", sorted(RULES))
def test_no_rule_can_be_broken_through_the_lists_a_spec_was_built_from(rule):
    # The caller's lists hold parity_check's fields while the spec is
    # checked and the row's fields after it: the spec, and what the engine
    # and the oracle run, keep the checked ones.
    changes, _, _ = RULES[rule]
    fields = {name: list(getattr(PARITY, name)) for name in CircuitSpec._fields}
    spec = CircuitSpec(**fields)
    for name, value in changes.items():
        fields[name][:] = value
    assert spec == PARITY
    assert accepted_bits(circuit.execute(spec)) == accepted_bits(circuit.execute(PARITY))
    assert oracle.run_dense(spec) == oracle.run_dense(PARITY)
