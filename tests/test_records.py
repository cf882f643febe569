"""The record classes keep the contracts of the frozen dataclasses they
replace: field order and defaults, repr text, equality within one class,
the hash of the field tuple, refused assignment, ``BasisState`` order, and
each construction check, also when a copy is made with ``_replace`` or
:func:`dataclasses.replace`, and copies and pickles."""

import copy
import dataclasses
import pickle
import re

import pytest

from pbsgates import circuit, gates, oracle, optics
from pbsgates.errors import DetectedModeReuse, MissingOutput, NonNormalized
from pbsgates.fock import BasisState

ROTATE = optics.RotatorElement("a", 90.0)
INPUT = circuit.InputDecl("qubit", ("a",), (1.0, 0.0))
PBS = optics.PbsElement("a", "b", "a", "b", "fs")
DETECTOR = circuit.DetectorSpec("b", "hv", "D")
SPEC = circuit.CircuitSpec(("a", "b"), (INPUT,), (PBS,), (DETECTOR,), (), ("a",))

#: One instance of each record class and its repr, as the dataclasses wrote it.
FROZEN = [
    (
        BasisState(((("a", "H"), 1), (("b", "V"), 2))),
        "BasisState(occ=((('a', 'H'), 1), (('b', 'V'), 2)))",
    ),
    (
        optics.PbsElement("a", "b", "c", "d"),
        "PbsElement(in1='a', in2='b', out1='c', out2='d', basis='hv')",
    ),
    (optics.RotatorElement("a", 22.5), "RotatorElement(mode='a', angle_deg=22.5)"),
    (
        optics.PolPhaseElement("a", "V", 90.0),
        "PolPhaseElement(mode='a', pol='V', phase_deg=90.0)",
    ),
    (circuit.DetectorSpec("d", "fs", "D1"), "DetectorSpec(mode='d', basis='fs', label='D1')"),
    (
        circuit.FeedForwardRule("D1", "S", (ROTATE,)),
        "FeedForwardRule(label='D1', pol='S', corrections=(RotatorElement(mode='a', "
        "angle_deg=90.0),))",
    ),
    (
        circuit.InputDecl("qubit", ("a",), (0.6, 0.8j)),
        "InputDecl(kind='qubit', modes=('a',), amplitudes=(0.6, 0.8j))",
    ),
    (
        SPEC,
        "CircuitSpec(modes=('a', 'b'), inputs=(InputDecl(kind='qubit', modes=('a',), "
        "amplitudes=(1.0, 0.0)),), elements=(PbsElement(in1='a', in2='b', out1='a', "
        "out2='b', basis='fs'),), detectors=(DetectorSpec(mode='b', basis='hv', "
        "label='D'),), rules=(), outputs=('a',))",
    ),
    (
        circuit.CompiledCircuit(None, 2, ((5, (0, 1)),), (), (DETECTOR,), frozenset("b"), (), ()),
        "CompiledCircuit(index=None, photons=2, inputs=((5, (0, 1)),), elements=(), "
        "detectors=(DetectorSpec(mode='b', basis='hv', label='D'),), exits=frozenset({'b'}), "
        "corrections=(), drops=())",
    ),
    (gates.QubitState(0.6, 0.8), "QubitState(alpha=0.6, beta=0.8)"),
    (gates.TwoQubitState(0.5, 0.5, 0.5, -0.5), "TwoQubitState(a1=0.5, a2=0.5, a3=0.5, a4=-0.5)"),
]

MUTABLE = [
    (
        gates.GateReport("cnot", ((1.0, 0.0),), None, None, {((1, 0),): 1.0}, 0.25),
        "GateReport(name='cnot', amplitudes=((1.0, 0.0),), result=None, target=None, "
        "fidelities={((1, 0),): 1.0}, success_probability=0.25)",
    ),
    (
        oracle.DenseRunResult(
            {((1, 0),): (0.5, {BasisState(((("a", "H"), 1),)): 1.0})}, {((0, 1),): 0.5}, 0.5, 0.5
        ),
        "DenseRunResult(outcomes={((1, 0),): (0.5, {BasisState(occ=((('a', 'H'), 1),)): "
        "1.0})}, rejected={((0, 1),): 0.5}, success_probability=0.5, failure_probability=0.5)",
    ),
]


def fields(record):
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("record, text", FROZEN + MUTABLE, ids=lambda x: type(x).__name__)
def test_repr_and_equality(record, text):
    assert repr(record) == text
    copy = record._replace()
    assert copy == record and copy is not record
    assert record != fields(record)


@pytest.mark.parametrize("record, text", FROZEN, ids=lambda x: type(x).__name__)
def test_frozen_records_hash_as_their_field_tuple_and_refuse_assignment(record, text):
    assert hash(record) == hash(fields(record))
    name = record._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, text", MUTABLE, ids=lambda x: type(x).__name__)
def test_mutable_records_are_unhashable(record, text):
    with pytest.raises(TypeError):
        hash(record)


def test_field_order_and_defaults():
    assert optics.PbsElement._fields == ("in1", "in2", "out1", "out2", "basis")
    assert optics.PbsElement("a", "b", "c", "d").basis == optics.BASIS_HV
    assert BasisState().occ == ()
    assert circuit.InputDecl("bell", ("a", "b")).amplitudes == ()
    assert circuit.CircuitSpec(("a",), (), (), (), outputs=("a",)).rules == ()
    # Outputs default to none, which no spec may have.
    with pytest.raises(MissingOutput):
        circuit.CircuitSpec(("a",), (), (), ())
    assert circuit.CircuitSpec._fields == (
        "modes", "inputs", "elements", "detectors", "rules", "outputs"
    )
    assert tuple(gates.TwoQubitState(a4=1.0, a3=0.0, a2=0.0, a1=0.0)) == (0.0, 0.0, 0.0, 1.0)


def test_equality_needs_the_same_class():
    assert optics.RotatorElement(1.0, 0.0) != gates.QubitState(1.0, 0.0)
    assert optics.RotatorElement("a", 90) == ROTATE
    assert len({optics.RotatorElement("a", 90), ROTATE}) == 1


def test_basis_states_order_by_their_occupations():
    states = [
        BasisState(((("b", "H"), 1),)),
        BasisState(),
        BasisState(((("a", "V"), 2),)),
        BasisState(((("a", "H"), 1), (("b", "V"), 1))),
        BasisState(((("a", "H"), 1),)),
    ]
    assert sorted(states) == sorted(states, key=lambda state: state.occ)
    assert [state.key_string() for state in sorted(states)] == [
        "", "a:H:1", "a:H:1,b:V:1", "a:V:2", "b:H:1",
    ]
    first, second = BasisState(), BasisState(((("a", "H"), 1),))
    assert first < second and first <= second and second > first and second >= first
    with pytest.raises(TypeError):
        first < ()


PORTS = optics.PbsElement("a", "b", "c", "d")

CHECKS = [
    (PORTS, {"in2": "a"}, ValueError, "PBS ports must be distinct"),
    (PORTS, {"out2": "c"}, ValueError, "PBS ports must be distinct"),
    (PORTS, {"basis": "xy"}, ValueError, "unknown PBS basis: 'xy'"),
    (
        optics.PolPhaseElement("a", "V", 90.0),
        {"pol": "F"},
        ValueError,
        "phase shifter pol must be H or V, got 'F'",
    ),
    (
        circuit.DetectorSpec("d", "fs", "D1"),
        {"basis": "xy"},
        ValueError,
        "unknown detector basis: 'xy'",
    ),
    (gates.QubitState(0.6, 0.8), {"beta": 0.0}, NonNormalized, "qubit squared norm is 0.36"),
    (
        gates.TwoQubitState(0.5, 0.5, 0.5, -0.5),
        {"a4": 0.5 + 0.5j},
        NonNormalized,
        "two-qubit squared norm is 1.25",
    ),
    (SPEC, {"outputs": ("b",)}, DetectedModeReuse, "output on detected mode 'b'"),
]


@pytest.mark.parametrize("record, changes, error, message", CHECKS)
def test_construction_checks_run_in_init_and_in_replace(record, changes, error, message):
    values = dict(zip(record._fields, fields(record)), **changes)
    with pytest.raises(error) as direct:
        type(record)(**values)
    with pytest.raises(error) as replaced:
        record._replace(**changes)
    assert type(direct.value) is type(replaced.value) is error
    assert str(direct.value) == str(replaced.value) == message


@pytest.mark.parametrize("record, changes, error, message", CHECKS)
def test_dataclasses_replace_runs_the_construction_checks(record, changes, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        dataclasses.replace(record, **changes)


@pytest.mark.parametrize("record, text", FROZEN + MUTABLE, ids=lambda x: type(x).__name__)
def test_records_copy_and_pickle(record, text):
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(clone) is type(record) and clone == record and clone is not record
        assert repr(clone) == text


@pytest.mark.parametrize("record, text", FROZEN + MUTABLE, ids=lambda x: type(x).__name__)
def test_dataclasses_functions_read_the_fields(record, text):
    assert dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(record)) == record._fields
    assert dataclasses.replace(record) == record
    first = record._fields[0]
    value = getattr(record, first)
    assert getattr(dataclasses.replace(record, **{first: value}), first) is value


def test_replace_refuses_a_name_that_is_not_a_field():
    with pytest.raises(TypeError):
        ROTATE._replace(angle=0.0)


def test_the_report_spec_is_built_on_first_read_and_kept():
    report = gates.parity_check(gates.QubitState(0.6, 0.8))
    assert "spec" not in vars(report)
    spec = report.spec
    assert vars(report)["spec"] is spec is report.spec
    assert spec.inputs[0].amplitudes == (0.6, 0.8)
