"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload is a closed loop with one caller.  Its operations come in an
endless stream of blocks of identical composition, generated between blocks
(off the clock), and the timed loop stops only between blocks, so every run
fills its time and has the same mix whatever its length.  ``run(op)`` is
the timed call into the public API.  ``check(op, out)`` runs after the clock
has stopped and returns the reason the output is wrong, or ``None``.
``finish()`` runs the checks that repeat an operation, which wait until the
timed loop has ended so they do not take up its time, and returns the
reasons any of them failed.  ``digest(out)`` is an exact fingerprint used
to compare a traced run with an untraced one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random

from pbsgates import circuit, cli, dsl, gates
from pbsgates.gates import QubitState, TwoQubitState

import zoo

PROB_TOL = 1e-12
FID_TOL = 1e-12
AMP_TOL = 1e-10

#: Success probability per gate: (feed-forward, passive), from the gate table.
GATE_TABLE = {
    "parity_check": (1 / 2, 1 / 4),
    "destructive_cnot": (1 / 2, 1 / 4),
    "encoder": (1 / 2, 1 / 4),
    "cnot": (1 / 4, 1 / 16),
    "gc_cnot": (1 / 4, 1 / 64),
    "chi_via_cnot": (1 / 4, 1 / 16),
}

#: Calls per gate in one gate_sweep block: the number of times
#: tests/test_acceptance.py calls each builder (counted at the top level, so
#: calls one gate makes into another are not counted).  Half of each gate's
#: calls are passive; an odd count alternates between blocks.  Sorted by
#: latency, the block puts the 90th percentile among cnot calls, below the
#: 5.4% that are gc_cnot, so a gain on gc_cnot alone moves ``ops_per_s``
#: and the per-layer ``gates.gc_cnot.*`` figures rather than the p90.
SWEEP_MIX = {
    "parity_check": 226,
    "destructive_cnot": 326,
    "encoder": 126,
    "cnot": 127,
    "gc_cnot": 46,
    "chi_via_cnot": 3,
}

#: One circuit_zoo block: a random circuit for each photon count.
ZOO_PHOTONS = (2, 3, 4, 5, 6)

#: One oracle_verify block: random circuits by photon count (at most 4, so
#: the dense basis stays small) and calls per built-in gate, alternating
#: feed-forward and passive.  Sorted by latency, the median falls among cnot
#: and 3-photon circuits and the 90th percentile among gc_cnot and
#: chi_via_cnot, whose cost does not depend on the drawn circuit.
ORACLE_PHOTONS = (2, 3, 3, 4)
ORACLE_GATE_MIX = {
    "parity_check": 1,
    "destructive_cnot": 1,
    "encoder": 1,
    "cnot": 2,
    "gc_cnot": 2,
    "chi_via_cnot": 2,
}


def _random_qubit(rng: random.Random) -> QubitState:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    n = math.sqrt(sum(abs(a) ** 2 for a in v))
    return QubitState(v[0] / n, v[1] / n)


def _random_two_qubit(rng: random.Random) -> TwoQubitState:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    n = math.sqrt(sum(abs(a) ** 2 for a in v))
    return TwoQubitState(*(a / n for a in v))


def _gate_args(name: str, rng: random.Random) -> tuple:
    if name in ("parity_check", "encoder"):
        return (_random_qubit(rng),)
    if name == "destructive_cnot":
        # Computational-basis control, so the gate has a fidelity target.
        control = QubitState(1.0, 0.0) if rng.random() < 0.5 else QubitState(0.0, 1.0)
        return (_random_qubit(rng), control)
    if name in ("cnot", "gc_cnot"):
        return (_random_two_qubit(rng),)
    return ()


def _call_gate(op):
    _, name, args, passive = op
    return getattr(gates, name)(*args, passive=passive)


def _state_digest_terms(state) -> tuple:
    return tuple((b.key_string(), a) for b, a in state.sorted_terms())


def _result_fingerprint(result) -> tuple:
    return (
        tuple(
            (pattern, p, _state_digest_terms(s))
            for pattern, (p, s) in sorted(result.outcomes.items())
        ),
        tuple(sorted(result.rejected.items())),
        result.success_probability,
        result.failure_probability,
    )


def _dense_fingerprint(dense) -> tuple:
    return (
        tuple(
            (pattern, p, tuple(sorted((b.key_string(), a) for b, a in terms.items())))
            for pattern, (p, terms) in sorted(dense.outcomes.items())
        ),
        tuple(sorted(dense.rejected.items())),
        dense.success_probability,
    )


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class GateSweep:
    """All six ``gates.*`` builders on seeded random inputs."""

    name = "gate_sweep"

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(f"gate_sweep:{seed}")

    def blocks(self):
        """Endless seeded blocks; each holds ``SWEEP_MIX``, half of it passive."""
        for b in itertools.count():
            block = [
                ("gate", name, _gate_args(name, self.rng), (b + i) % 2 == 1)
                for name, count in SWEEP_MIX.items()
                for i in range(count)
            ]
            self.rng.shuffle(block)
            yield block

    def warmup_ops(self):
        rng = random.Random("gate_sweep:warmup")
        return [
            ("gate", name, _gate_args(name, rng), passive)
            for name in gates.GATE_NAMES
            for passive in (False, True)
        ]

    run = staticmethod(_call_gate)

    def check(self, op, report):
        _, name, _, passive = op
        expected = GATE_TABLE[name][passive]
        if abs(report.success_probability - expected) >= PROB_TOL:
            return f"{name} success {report.success_probability!r} != {expected!r}"
        if not report.fidelities or len(report.fidelities) != len(report.result.outcomes):
            return f"{name} has no fidelity for some outcome"
        worst = max(abs(f - 1.0) for f in report.fidelities.values())
        if worst >= FID_TOL:
            return f"{name} fidelity off by {worst!r}"
        return None

    def finish(self):
        return []

    def digest(self, report):
        return _sha((_result_fingerprint(report.result), sorted(report.fidelities.items())))


class CircuitZoo:
    """One in-process ``pbsgates run --circuit`` per distinct random circuit."""

    name = "circuit_zoo"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.report_a = os.path.join(workdir, "report_a.json")
        self.report_b = os.path.join(workdir, "report_b.json")
        #: (circuit path, report digest) of every checked op, for ``finish``.
        self.pending = []

    def _write(self, prefix, texts):
        ops = []
        for i, text in enumerate(texts):
            path = os.path.join(self.workdir, f"{prefix}{i}.circ")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            ops.append(("circ", path))
        return ops

    def blocks(self):
        """Endless blocks, each circuit written to its file just before use."""
        stream = zoo.zoo_blocks(self.seed, ZOO_PHOTONS)
        for b, texts in enumerate(stream):
            yield self._write(f"c{b:05d}-", texts)

    def warmup_ops(self):
        # Small circuits suffice to load every code path of a run.
        return self._write("w", zoo.generate_zoo(self.seed, 1, (2, 3), "warmup"))

    def run(self, op):
        return cli.main(["run", "--circuit", op[1], "--output", self.report_a])

    @staticmethod
    def _read(path):
        with open(path, "rb") as handle:
            return handle.read()

    def check(self, op, code):
        if code != 0:
            return f"{op[1]}: exit code {code}"
        data = self._read(self.report_a)
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return f"{op[1]}: report is not JSON: {exc}"
        total = sum(o["probability"] for o in doc["outcomes"])
        if abs(total - doc["success_probability"]) >= PROB_TOL:
            return f"{op[1]}: outcome probabilities do not sum to success"
        for o in doc["outcomes"]:
            norm = sum(t["re"] ** 2 + t["im"] ** 2 for t in o["output_state"])
            if abs(norm - 1.0) >= 1e-9:
                return f"{op[1]}: output state norm {norm!r}"
        self.pending.append((op[1], _sha(data)))
        return None

    def finish(self):
        """Run every checked circuit again; its report must be byte-identical."""
        failures = []
        for path, digest in self.pending:
            code = cli.main(["run", "--circuit", path, "--output", self.report_b])
            if code != 0 or _sha(self._read(self.report_b)) != digest:
                failures.append(f"{path}: two invocations gave different reports")
        self.pending.clear()
        return failures

    def digest(self, code):
        """Fingerprint of the report the last ``run`` wrote."""
        return _sha((code, self._read(self.report_a)))


class OracleVerify:
    """Sparse engine against the dense oracle, compiled afresh for each op."""

    name = "oracle_verify"

    def __init__(self, seed: int, workdir: str):
        from pbsgates import oracle

        self.oracle = oracle
        self.seed = seed
        self.rng = random.Random(f"oracle_verify:{seed}")

    def blocks(self):
        """Endless blocks; each circuit is parsed just before its block."""
        stream = zoo.zoo_blocks(self.seed, ORACLE_PHOTONS, "oracle")
        for b, texts in enumerate(stream):
            block = [("circ", dsl.parse_circuit(text)) for text in texts]
            block += [
                ("gate", name, _gate_args(name, self.rng), (b + k) % 2 == 1)
                for name, count in ORACLE_GATE_MIX.items()
                for k in range(count)
            ]
            self.rng.shuffle(block)
            yield block

    def warmup_ops(self):
        rng = random.Random("oracle_verify:warmup")
        texts = zoo.generate_zoo(self.seed, 1, (2, 3), "oracle-warmup")
        return [("circ", dsl.parse_circuit(text)) for text in texts] + [
            ("gate", name, _gate_args(name, rng), False) for name in gates.GATE_NAMES
        ]

    def run(self, op):
        if op[0] == "circ":
            spec, passive = op[1], False
            sparse = circuit.execute(spec)
        else:
            passive = op[3]
            report = _call_gate(op)
            spec, sparse = report.spec, report.result
        dense = self.oracle.DenseCircuit(spec).run(spec, passive=passive)
        return sparse, dense

    def check(self, op, out):
        sparse, dense = out
        if abs(sparse.success_probability - dense.success_probability) >= PROB_TOL:
            return "success probabilities disagree"
        for pattern in set(sparse.outcomes) | set(dense.outcomes):
            p_s, state = sparse.outcomes.get(pattern, (0.0, None))
            p_d, terms = dense.outcomes.get(pattern, (0.0, None))
            if abs(p_s - p_d) >= PROB_TOL:
                return f"pattern {pattern}: probability {p_s!r} vs {p_d!r}"
            if state is None or terms is None:
                # Only one engine has this branch; the other has probability
                # zero.  (The dense oracle keeps branches of rounding noise,
                # around 1e-34, that the sparse engine prunes.)  Compare the
                # unnormalized amplitudes, sqrt(p) times the state, with zero.
                amps = state.terms.values() if state is not None else terms.values()
                largest = math.sqrt(max(p_s, p_d)) * max(map(abs, amps), default=0.0)
                if largest >= AMP_TOL:
                    return f"pattern {pattern} accepted by one engine only"
                continue
            for key in set(state.terms) | set(terms):
                if abs(state.amplitude(key) - terms.get(key, 0j)) >= AMP_TOL:
                    return f"pattern {pattern}: amplitudes disagree at {key}"
        return None

    def finish(self):
        return []

    def digest(self, out):
        sparse, dense = out
        return _sha((_result_fingerprint(sparse), _dense_fingerprint(dense)))


WORKLOADS = {w.name: w for w in (GateSweep, CircuitZoo, OracleVerify)}
