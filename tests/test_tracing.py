"""The benchmark's tracer, ``perfbench/tracing.py``, wraps package names by
lookup: each must still exist, with the call form that the tracer measures."""

import importlib.util
import pathlib

from pbsgates import cli, gates, oracle

from conftest import circuit_path

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_the_tracer_installs_measures_a_compile_and_a_gate_call_and_comes_off():
    spec = gates._shipped_spec("parity_check")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        dense = oracle.DenseCircuit(spec)
        gates.cnot(gates.TwoQubitState(0.5, 0.5, 0.5, 0.5), passive=True)
    finally:
        tracer.remove()  # raises if a wrapper is left behind
    names = [span[0] for span in tracer.spans]
    assert names.count("oracle.compile") == 1 and names.count("gates.cnot.passive") == 1
    metrics = tracing.layer_metrics(tracer, 1)
    # The compile's measurement reads ``basis.dim`` and ``operator.nnz``.
    assert metrics["oracle.dim"] == dense.basis.dim
    assert metrics["oracle.operator_nnz"] == dense.operator.nnz > 0
    assert metrics["gates.cnot.passive_p50_ms"] > 0


def test_every_traced_engine_layer_has_a_span_in_a_circuit_run(tmp_path, capsys):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        argv = ["run", "--circuit", circuit_path("cnot"), "--output", str(tmp_path / "r.json")]
        assert cli.main(argv) == 0
    finally:
        tracer.remove()
    spans = tracer.spans

    def under_main(span):
        while span[3] >= 0:
            span = spans[span[3]]
        return span[0] == "cli.main"

    traced = {span[0] for span in spans if under_main(span)}
    for name in (
        "dsl.parse_circuit",
        "circuit.execute",
        "circuit.build_input_state",
        "circuit.enumerate_outcomes",
        "circuit.apply_feedforward",
        "fock.transform_slots",
    ):
        assert name in traced, name
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["circuit.build_input_state.terms_out"] > 0
    assert metrics["circuit.enumerate_outcomes.branches"] > 0
    assert metrics["circuit.apply_feedforward.calls"] > 0
