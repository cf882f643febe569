"""Golden reports: the exact bytes of CLI reports, pinned by sha256.

The digests were taken before configurations were packed into ints, so they
show that the packed engine moves no amplitude, not even in the last bit.
A report that changes on purpose needs its new digest here and a line in
CHANGES.md saying what moved.  The digests assume IEEE doubles, glibc's libm
(the rotator and phase elements use cos, sin and exp) and the engine's one
left-to-right accumulator of squared norms, ``fock.squared_norm``, in place
of the builtin ``sum``, which compensates float rounding from Python 3.12 on.
"""

import builtins
import hashlib
import math
import os
import random
import sys

import pytest

from pbsgates import cli, gates

from conftest import circuit_path

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

#: (shipped circuit file, --passive) -> sha256 of the report, run from the
#: circuits directory so that the report names the file without a path.
CIRCUIT_REPORTS = {
    ("chi_via_cnot.circ", False): "247f39c5ca581c76d060889ed443aed393617dd72719ae1be280c0ad3406318c",
    ("chi_via_cnot.circ", True): "c31ddabff17d55a1b0981c16f1fef6e815ca0c739a5b0522dcff3c1cb9fbcf58",
    ("cnot.circ", False): "5aca63910ff9f475053af63cb82907f735c5bc7aa466ca7198d2d9bfc32d8f39",
    ("cnot.circ", True): "b3a1ba9499a59b504db1bd5d358a286daed71c5a08aa5d00a4ef532bf1032d45",
    ("destructive_cnot.circ", False): "6de1da3ddef6cbebc78d99173e10e587ecb30cbe60ba2baa23cffed8836b385d",
    ("destructive_cnot.circ", True): "b8199b79658bda0b6eab961d2dc2413618b354c9be54fb3c9e37ba56729fd9b4",
    ("encoder.circ", False): "ee8d59ae09dfe389eb02de7bfaaa425fac09ae62b5d801359203b593423c9194",
    ("encoder.circ", True): "04a0ae76ef63e97a22ef01810e6c16bb99de40162a644e676e67bad632337215",
    ("gc_cnot.circ", False): "2ea4566ca5dbfd3ba52ddd4c9f35711050a2c529f028fa0e7165238c5305926b",
    ("gc_cnot.circ", True): "15873a24a168422d13144c1b765931103fb5e09aad701b76b515634f76ecd968",
    ("parity_check.circ", False): "2c3fccf3a0aceda0470c26df5970b1eac5822aab2f39434ad5f09e3aa81cdbc8",
    ("parity_check.circ", True): "9f540e9ede7ebaa089885ed1e71e3db6dc602e06760c71cf319e154d3fefb2ee",
}

#: (circuit file under tests/circuits, --passive) -> sha256 of the report:
#: seeded random circuits (``perfbench/zoo.py``, seed 7, circuits 56, 105,
#: 224 and 348 of 100 blocks), taken on Python 3.11.  Each report's
#: probabilities move in their last bits when squared norms are summed with
#: compensation, as the builtin ``sum`` sums floats from Python 3.12 on.
ZOO_REPORTS = {
    ("zoo7_105.circ", False): "47b0a7f84a1ad3e678ea2bc9c4a3a1db527d56d0f49e0b06f6cf4ba19655d569",
    ("zoo7_105.circ", True): "02ae7c6fc0192f577b7aa0019946b3da0fb2d0cbd30c4507987e4054478de4c6",
    ("zoo7_224.circ", False): "4bc89d4d979b0944c042678faba46315386ed03554a6a697ec92d15fecb00a86",
    ("zoo7_224.circ", True): "705d1dac35f1fa88917f20c25525df397662af6a13abee19cacefdccad50988a",
    ("zoo7_348.circ", False): "683d5e57979d176e065f9d309c53de161e974f575ab574efe4e5974b04fb4374",
    ("zoo7_348.circ", True): "281528002f7d3499adc80a3ad1581d31087acf6a2072b51b8ba37a921fca3bfa",
    ("zoo7_56.circ", False): "daa724f286a4792e13a9c3d086f3a27f02494e9b1db53ed103eaf812be39c0d2",
    ("zoo7_56.circ", True): "64ee78c4fc260ea8c46bf4f607620c51b0071e9ff737069854cf6f492250b794",
}

TEST_CIRCUITS = os.path.join(os.path.dirname(__file__), "circuits")

#: Arguments after ``pbsgates run --gate`` in each README example -> sha256.
GATE_REPORTS = {
    "parity_check --qubit 0.6 0 0.8 0": "c92307950dd67ef4097da1de42a480f2cba2c217e8557a6f6276e70ec778ea47",
    "cnot --two-qubit 1 0 0 0 0 0 0 0": "4d6fe1333a50ae87b48457271d6cd92bb455c402c487b4bd9ad45eeebf28b4f4",
    "destructive_cnot --qubit 0.6 0 0.8 0 --control-pol V": "ada21f0cecba6e0e5ed9d78149f114b235531f1680417cd46d121b020d9ebe15",
    "gc_cnot --two-qubit 1 0 0 0 0 0 0 0 --passive": "f1d685d6cbc22e336e8006526bcc33b2e31e25fc46fed5d28b98a30feb2c2509",
    "chi_via_cnot": "26cf0f3584d5a3b9f7e3d6b4e5f299dc7dfd27ecb99530ce6f2c5592f954745c",
}


def report_sha256(argv, tmp_path) -> str:
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(autouse=True)
def default_tolerance(monkeypatch):
    monkeypatch.delenv(cli.TOLERANCE_ENV, raising=False)


@pytest.mark.parametrize("name, passive", sorted(CIRCUIT_REPORTS))
def test_circuit_report_bytes(name, passive, tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(circuit_path("cnot")))
    argv = ["run", "--circuit", name] + (["--passive"] if passive else [])
    assert report_sha256(argv, tmp_path) == CIRCUIT_REPORTS[name, passive]


def compensated_sum(iterable, start=0):
    """The builtin ``sum`` of Python 3.12 and later on ints and floats, in
    Python: a float added to a float is summed with Neumaier's compensation,
    which is added back at the end."""
    total = start
    compensation = 0.0
    for item in iterable:
        if type(total) is float and type(item) is float:
            added = total + item
            if abs(total) >= abs(item):
                compensation += (total - added) + item
            else:
                compensation += (item - added) + total
            total = added
        else:
            total = total + item
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_is_the_newer_builtin():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([1, 2, 3]) == 6 and compensated_sum([]) == 0
    assert compensated_sum([2, 0.5, 1]) == 3.5
    assert compensated_sum(iter([math.inf, 1.0])) == math.inf
    if sys.version_info >= (3, 12):
        rng = random.Random(36)
        for _ in range(200):
            values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(30)]
            assert compensated_sum(values) == sum(values)


@pytest.mark.parametrize("name, passive", sorted(ZOO_REPORTS))
@pytest.mark.parametrize("summed", ["builtin", "compensated"])
def test_zoo_report_bytes_whatever_the_builtin_sum(name, passive, summed, tmp_path, monkeypatch):
    # The report bytes hold under either summation rule of the builtin, so
    # they are the same on every supported Python.
    monkeypatch.chdir(TEST_CIRCUITS)
    argv = ["run", "--circuit", name] + (["--passive"] if passive else [])
    if summed == "compensated":
        monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert report_sha256(argv, tmp_path) == ZOO_REPORTS[name, passive]


@pytest.mark.parametrize("example", sorted(GATE_REPORTS))
def test_readme_gate_report_bytes(example, tmp_path):
    argv = ["run", "--gate", *example.split()]
    assert report_sha256(argv, tmp_path) == GATE_REPORTS[example]


@pytest.mark.parametrize("example", sorted(GATE_REPORTS))
def test_a_warm_gate_run_builds_no_bound_spec(example, tmp_path, monkeypatch):
    # The report names its patterns by the shipped circuit's detectors; only
    # the first run of a gate builds its response table, with bound specs.
    argv = ["run", "--gate", *example.split()]
    assert report_sha256(argv, tmp_path) == GATE_REPORTS[example]
    calls = []
    bound = gates._bound_spec
    monkeypatch.setattr(gates, "_bound_spec", lambda *args: calls.append(args) or bound(*args))
    assert report_sha256(argv, tmp_path) == GATE_REPORTS[example]
    assert calls == []


def test_every_readme_gate_example_is_pinned():
    prefix = "pbsgates run --gate "
    examples = set()
    with open(README, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(prefix):
                args = line[len(prefix):].split()
                if "--output" in args:
                    at = args.index("--output")
                    del args[at:at + 2]
                examples.add(" ".join(args))
    assert examples == set(GATE_REPORTS)
