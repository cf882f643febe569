"""Per-module tracing from outside the package.

``Tracer.install()`` replaces public functions at every site where the
package looks them up, with wrappers that record spans (name, start, end,
parent, op id) in memory.  ``Tracer.remove()`` puts the originals back and
checks that they are back.  Nothing under ``src/`` changes.

Lookup sites matter: ``from .circuit import execute`` binds ``execute`` in
``gates`` and ``cli`` as well as in ``circuit``, so all three are replaced;
functions called through a module attribute (``fock.transform_slots``,
``optics.apply_element``, ``dsl.parse_circuit``) or through their own
module's globals are replaced once on that module.
"""

from __future__ import annotations

import gzip
import os
import statistics
from time import perf_counter_ns

from pbsgates import circuit, cli, dsl, fock, gates, oracle, optics


def _terms_out(args, kwargs, result):
    return result.num_terms()


def _transform_terms(args, kwargs, result):
    return (args[0].num_terms(), result.num_terms())


def _enumerate_terms(args, kwargs, result):
    return (args[0].num_terms(), {p: s.num_terms() for p, s in result.items()})


def _accepted(args, kwargs, result):
    return tuple(result.outcomes)


def _lines(args, kwargs, result):
    return args[0].count("\n")


def _report_bytes(args, kwargs, result):
    argv = args[0]
    return os.path.getsize(argv[argv.index("--output") + 1])


def _dense_size(args, kwargs, result):
    dense = args[0]
    return (dense.basis.dim, dense.operator.nnz)


def _gate_name(gate):
    def name(args, kwargs):
        return f"gates.{gate}.passive" if kwargs.get("passive") else f"gates.{gate}"

    return name


class Tracer:
    """Span recorder with install/remove for the package's public functions."""

    def __init__(self):
        # One span: [name, start_ns, end_ns, parent index, op id, measurement].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.from_dict_calls = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, measure=None):
        tracer = self
        spans = self.spans
        stack = self.stack
        fixed_name = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            rec = [
                fixed_name or name(args, kwargs),
                0,
                0,
                stack[-1] if stack else -1,
                tracer.op_id,
                None,
            ]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                rec[5] = measure(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrap = self._wrap
        execute = wrap("circuit.execute", circuit.execute, _accepted)
        for owner in (circuit, gates, cli):
            self._patch(owner, "execute", execute)
        for attr, measure in (
            ("build_input_state", _terms_out),
            ("enumerate_outcomes", _enumerate_terms),
            ("apply_feedforward", None),
        ):
            self._patch(circuit, attr, wrap(f"circuit.{attr}", getattr(circuit, attr), measure))
        self._patch(optics, "apply_element", wrap("optics.apply_element", optics.apply_element, _terms_out))
        self._patch(fock, "transform_slots", wrap("fock.transform_slots", fock.transform_slots, _transform_terms))
        self._patch(fock, "rebase_polarization", wrap("fock.rebase_polarization", fock.rebase_polarization))
        self._patch(fock, "tensor", wrap("fock.tensor", fock.tensor, _terms_out))

        from_dict = fock.BasisState.from_dict

        def counting_from_dict(occupations):
            self.from_dict_calls += 1
            return from_dict(occupations)

        self._patch(fock.BasisState, "from_dict", staticmethod(counting_from_dict))
        self._patch(dsl, "parse_circuit", wrap("dsl.parse_circuit", dsl.parse_circuit, _lines))
        self._patch(cli, "main", wrap("cli.main", cli.main, _report_bytes))
        self._patch(gates, "fidelity", wrap("gates.fidelity", gates.fidelity))
        for gate in gates.GATE_NAMES:
            self._patch(gates, gate, wrap(_gate_name(gate), getattr(gates, gate)))
        self._patch(oracle, "element_operator", wrap("oracle.element_operator", oracle.element_operator))
        dense = oracle.DenseCircuit
        self._patch(dense, "__init__", wrap("oracle.compile", dense.__init__, _dense_size))
        self._patch(dense, "run", wrap("oracle.run", dense.run))

    def remove(self):
        """Restore every original and raise if any site still holds a wrapper."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if owner.__dict__[attr] is not original
        ]
        self._patches.clear()
        if stale:
            raise RuntimeError(f"wrappers left behind: {stale}")

    def write(self, path: str):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\n")


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    Counts, term counts and milliseconds are totals divided by ``n_ops``;
    ``*.p50_ms`` are medians of single calls; ``oracle.dim`` and
    ``oracle.operator_nnz`` are means per compile; ``fock.max_terms`` is the
    largest state seen.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start

    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    extra = {
        "fock.transform_slots.terms_in": 0,
        "fock.transform_slots.terms_out": 0,
        "optics.element.terms_out": 0,
        "circuit.build_input_state.terms_out": 0,
        "circuit.enumerate_outcomes.terms_in": 0,
        "circuit.enumerate_outcomes.branches": 0,
        "dsl.parse_circuit.lines": 0,
        "cli.report_bytes": 0,
    }
    useful_terms = 0
    max_terms = 0
    dims: list[int] = []
    nnzs: list[int] = []
    for i, (name, start, end, parent, _, measured) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "optics.apply_element":
            name = (
                "optics.correction"
                if parent_name == "circuit.apply_feedforward"
                else "optics.element"
            )
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        if name.startswith("gates.") and name != "gates.fidelity":
            durations.setdefault(name, []).append(dur)
        if measured is None:  # no measurement, or the call raised
            continue
        if name == "optics.element":
            extra["optics.element.terms_out"] += measured
        elif name == "fock.transform_slots":
            extra["fock.transform_slots.terms_in"] += measured[0]
            extra["fock.transform_slots.terms_out"] += measured[1]
            max_terms = max(max_terms, *measured)
        elif name == "fock.tensor":
            max_terms = max(max_terms, measured)
        elif name == "circuit.build_input_state":
            extra["circuit.build_input_state.terms_out"] += measured
        elif name == "circuit.enumerate_outcomes":
            terms_in, branch_terms = measured
            extra["circuit.enumerate_outcomes.terms_in"] += terms_in
            extra["circuit.enumerate_outcomes.branches"] += len(branch_terms)
            # The parent execute span holds the patterns it accepted.
            accepted = spans[parent][5] if parent_name == "circuit.execute" else ()
            useful_terms += sum(branch_terms.get(p, 0) for p in accepted or ())
        elif name == "dsl.parse_circuit":
            extra["dsl.parse_circuit.lines"] += measured
        elif name == "cli.main":
            extra["cli.report_bytes"] += measured
        elif name == "oracle.compile":
            dims.append(measured[0])
            nnzs.append(measured[1])

    per_op = 1.0 / max(n_ops, 1)

    def ms(table, name):
        return table.get(name, 0) * 1e-6 * per_op

    def median_ms(name):
        values = durations.get(name)
        return statistics.median(values) * 1e-6 if values else 0.0

    out = {
        "fock.transform_slots.calls": calls.get("fock.transform_slots", 0) * per_op,
        "fock.transform_slots.self_ms": ms(self_ns, "fock.transform_slots"),
        "fock.transform_slots.terms_in": extra["fock.transform_slots.terms_in"] * per_op,
        "fock.transform_slots.terms_out": extra["fock.transform_slots.terms_out"] * per_op,
        "fock.basis_from_dict.calls": tracer.from_dict_calls * per_op,
        "fock.rebase_polarization.calls": calls.get("fock.rebase_polarization", 0) * per_op,
        "fock.rebase_polarization.ms": ms(total_ns, "fock.rebase_polarization"),
        "fock.tensor.calls": calls.get("fock.tensor", 0) * per_op,
        "fock.tensor.ms": ms(total_ns, "fock.tensor"),
        "fock.max_terms": float(max_terms),
        "optics.element.calls": calls.get("optics.element", 0) * per_op,
        "optics.element.ms": ms(total_ns, "optics.element"),
        "optics.element.terms_out": extra["optics.element.terms_out"] * per_op,
        "optics.correction.calls": calls.get("optics.correction", 0) * per_op,
        "optics.correction.ms": ms(total_ns, "optics.correction"),
        "circuit.execute.calls": calls.get("circuit.execute", 0) * per_op,
        "circuit.execute.self_ms": ms(self_ns, "circuit.execute"),
        "circuit.build_input_state.ms": ms(total_ns, "circuit.build_input_state"),
        "circuit.build_input_state.terms_out": extra["circuit.build_input_state.terms_out"] * per_op,
        "circuit.enumerate_outcomes.ms": ms(total_ns, "circuit.enumerate_outcomes"),
        "circuit.enumerate_outcomes.terms_in": extra["circuit.enumerate_outcomes.terms_in"] * per_op,
        "circuit.enumerate_outcomes.branches": extra["circuit.enumerate_outcomes.branches"] * per_op,
        "circuit.apply_feedforward.calls": calls.get("circuit.apply_feedforward", 0) * per_op,
        "circuit.apply_feedforward.ms": ms(total_ns, "circuit.apply_feedforward"),
        "circuit.useful_terms_ratio": (
            useful_terms / extra["circuit.enumerate_outcomes.terms_in"]
            if extra["circuit.enumerate_outcomes.terms_in"]
            else 0.0
        ),
    }
    for gate in gates.GATE_NAMES:
        out[f"gates.{gate}.p50_ms"] = median_ms(f"gates.{gate}")
        out[f"gates.{gate}.passive_p50_ms"] = median_ms(f"gates.{gate}.passive")
    out.update(
        {
            "gates.fidelity.calls": calls.get("gates.fidelity", 0) * per_op,
            "gates.fidelity.ms": ms(total_ns, "gates.fidelity"),
            "dsl.parse_circuit.calls": calls.get("dsl.parse_circuit", 0) * per_op,
            "dsl.parse_circuit.ms": ms(total_ns, "dsl.parse_circuit"),
            "dsl.parse_circuit.lines": extra["dsl.parse_circuit.lines"] * per_op,
            "cli.main.ms": ms(total_ns, "cli.main"),
            "cli.self_ms": ms(self_ns, "cli.main"),
            "cli.report_bytes": extra["cli.report_bytes"] * per_op,
            "oracle.compile.ms": ms(total_ns, "oracle.compile"),
            "oracle.run.ms": ms(total_ns, "oracle.run"),
            "oracle.element_operator.calls": calls.get("oracle.element_operator", 0) * per_op,
            "oracle.element_operator.ms": ms(total_ns, "oracle.element_operator"),
            "oracle.dim": sum(dims) / len(dims) if dims else 0.0,
            "oracle.operator_nnz": sum(nnzs) / len(nnzs) if nnzs else 0.0,
        }
    )
    return out
