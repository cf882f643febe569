"""One validator for every spec: the library and the DSL reject alike."""

import math

import pytest

from pbsgates import circuit, dsl, oracle
from pbsgates.circuit import CircuitSpec, DetectorSpec, InputDecl, build_input_state
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

from conftest import circuit_path


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
#: parity_check, the class that both paths raise and the name at fault.
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

#: Rows whose spec the DSL cannot write: the printer refuses it as the
#: library does.
UNWRITABLE = {
    "mode name that is not one token",
    "empty detector label",
    "correction that is a PBS",
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_library_and_dsl_raise_the_same_class(rule):
    changes, error, name = RULES[rule]
    spec = PARITY._replace(**changes)
    with pytest.raises(error) as library:
        circuit.compile(spec)
    if rule in UNWRITABLE:
        with pytest.raises(error) as printer:
            dsl.format_circuit(spec)
        assert printer.value.entry == library.value.entry
        return
    text = dsl.format_circuit(spec)
    with pytest.raises(error) as info:
        dsl.parse_circuit(text)
    err = info.value
    if name is None:
        assert err.line is None
    else:
        assert text.splitlines()[err.line - 1][err.column - 1:].startswith(name)


@pytest.mark.parametrize("rule", sorted(RULES))
def test_oracle_raises_the_same_class(rule):
    changes, error, _ = RULES[rule]
    spec = PARITY._replace(**changes)
    with pytest.raises(error) as library:
        circuit.compile(spec)
    with pytest.raises(error) as dense:
        oracle.run_dense(spec)
    assert dense.value.entry == library.value.entry


def test_correction_error_points_at_the_correction_mode():
    spec = PARITY._replace(rules=corrected_on("c"))
    with pytest.raises(DetectedModeReuse) as info:
        dsl.parse_circuit(dsl.format_circuit(spec))
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
#: declared).  The library, the oracle and the DSL's printer refuse each
#: with one class and entry; the printer writes no text that its parser
#: would refuse at another token.
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
def test_library_and_oracle_refuse_an_input_shape_alike(rule):
    spec = misshapen(rule)
    with pytest.raises(CircuitSyntaxError) as library:
        circuit.compile(spec)
    with pytest.raises(CircuitSyntaxError) as dense:
        oracle.run_dense(spec)
    with pytest.raises(CircuitSyntaxError) as printer:
        dsl.format_circuit(spec)
    entries = (library.value.entry, dense.value.entry, printer.value.entry)
    assert entries == (("inputs", 0, "2'", 0),) * 3


def test_input_amplitude_count_is_checked_against_its_kind():
    for rule, kind in (("qubit with three amplitudes", "qubit"), ("bell with an amplitude", "bell")):
        with pytest.raises(CircuitSyntaxError, match=f"a {kind} input takes"):
            build_input_state(misshapen(rule))


def test_a_warm_plan_refuses_a_non_finite_amplitude():
    # Every run validates its spec, whatever ran before it.
    spec = PARITY._replace(**first_input(math.nan, 1.0))
    for _ in range(2):
        with pytest.raises(CircuitSyntaxError, match="not finite") as info:
            circuit.execute(spec)
        assert info.value.entry == ("inputs", 0, "2'", 0)
        circuit.compile(PARITY)


def test_binding_a_non_finite_amplitude_on_a_plan_is_refused():
    # Gate calls bind amplitudes on a kept plan without validate; the nan
    # must not be pruned as if it were zero.
    declarations = [("qubit", (math.nan, 1.0)), ("qubit", ANCILLA.amplitudes)]
    with pytest.raises(NonPhysicalInput, match="nan.* is not finite"):
        circuit.input_amplitudes(declarations)


def mutate(spec: CircuitSpec, rng) -> CircuitSpec:
    """Swap one mode, label, pol or output of ``spec`` for a random one."""

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
        return spec._replace(outputs=outputs)
    return spec._replace(**{field: at(getattr(spec, field), change)})


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
            spec = mutate(spec, rng)
        except ValueError:  # a PBS with two equal ports cannot be built
            continue
        library = raised(lambda: circuit.compile(spec))
        text = dsl.format_circuit(spec)
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
