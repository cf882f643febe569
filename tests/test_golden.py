"""Golden reports: the exact bytes of CLI reports, pinned by sha256.

The digests were taken before configurations were packed into ints, so they
show that the packed engine moves no amplitude, not even in the last bit.
A report that changes on purpose needs its new digest here and a line in
CHANGES.md saying what moved.  The digests assume IEEE doubles and glibc's
libm (the rotator and phase elements use cos, sin and exp).
"""

import hashlib
import os

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
