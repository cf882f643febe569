"""The benchmark's tracer, ``perfbench/tracing.py``, wraps package names by
lookup: each must still exist, with the call form that the tracer measures."""

import importlib.util
import pathlib

from pbsgates import gates, oracle

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
