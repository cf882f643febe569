"""Seeded generator of random, valid circuit files for the benchmark.

Every generated circuit is valid by construction, so it parses, runs, and is
accepted by the dense oracle:

- each photon starts on its own declared mode (qubit, bell and chi inputs);
- every PBS takes two live modes and writes to two fresh modes, so no output
  ever collides with a live mode;
- rotators and phase plates act on live modes;
- detectors sit on live modes and come after every element;
- feed-forward rules use declared detector labels, and their corrections act
  on output modes only;
- the outputs are exactly the live modes left undetected.

A circuit is drawn in two steps.  Its *shape* (input kinds, PBS wiring and
bases, where rotators and phase plates sit, detectors, rule triggers) comes
from a fixed catalogue stream, so every run meets the same shapes in the
same order and a run of a given length does the same work.  Its *values*
(qubit amplitudes, angles, mode names) and the order of the circuits within
a block come from the run's seed.  Per-circuit cost varies tenfold between
shapes with the same photon count, so drawing shapes from the seed would
make the run's cost depend on the seed more than on the program.
Within one stream every shape is distinct, so no spec repeats.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from itertools import islice

#: Catalogue version: change it only together with the benchmark's baseline.
CATALOGUE = "pbsgates-zoo-1"

#: Draws allowed to find a shape not yet used in the stream.
MAX_DRAWS = 10_000

#: Per photon count: (PBS count, detector count).
SHAPES = {
    2: (2, 1),
    3: (3, 1),
    4: (4, 2),
    5: (5, 2),
    6: (5, 3),
}


def _inputs(rng: random.Random, photons: int) -> list[tuple[str, int]]:
    """Split ``photons`` into qubit (1), bell (2) and chi (4) inputs."""
    parts = []
    left = photons
    while left:
        kinds = [("qubit", 1)]
        if left >= 2:
            kinds.append(("bell", 2))
        if left >= 4:
            kinds.append(("chi", 4))
        kind, size = rng.choice(kinds)
        parts.append((kind, size))
        left -= size
    rng.shuffle(parts)
    return parts


def _correction_shape(rng: random.Random, modes: list[int]) -> tuple:
    mode = rng.choice(modes)
    if rng.random() < 0.5:
        return ("rotate", mode)
    return ("polphase", mode, rng.choice("HV"))


def draw_shape(rng: random.Random, photons: int) -> dict:
    """Random valid circuit structure over integer mode indices."""
    n_pbs, n_det = SHAPES[photons]
    n_modes = 0
    inputs = []
    live: list[int] = []
    for kind, size in _inputs(rng, photons):
        ports = list(range(n_modes, n_modes + size))
        n_modes += size
        live.extend(ports)
        inputs.append((kind, ports))

    elements = []
    for _ in range(n_pbs):
        in1, in2 = rng.sample(live, 2)
        out1, out2 = n_modes, n_modes + 1
        n_modes += 2
        elements.append(("pbs", rng.choice(("hv", "fs")), in1, in2, out1, out2))
        live = [m for m in live if m not in (in1, in2)] + [out1, out2]
        if rng.random() < 0.5:
            elements.append(_correction_shape(rng, live))

    detected = rng.sample(live, n_det)
    outputs = [m for m in live if m not in detected]
    detectors = []
    rules = []
    for k, mode in enumerate(detected):
        basis = rng.choice(("hv", "fs"))
        detectors.append((mode, basis))
        if rng.random() < 0.7:
            pol = rng.choice(("H", "V") if basis == "hv" else ("F", "S"))
            corrections = [
                _correction_shape(rng, outputs) for _ in range(rng.randint(1, 2))
            ]
            rules.append((k, pol, corrections))
    return {
        "n_modes": n_modes,
        "inputs": inputs,
        "elements": elements,
        "detectors": detectors,
        "rules": rules,
        "outputs": outputs,
    }


def _angle(rng: random.Random) -> str:
    return repr(rng.uniform(-180.0, 180.0))


def _qubit_amplitudes(rng: random.Random) -> str:
    values = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(v * v for v in values))
    return " ".join(repr(v / norm) for v in values)


def render(shape: dict, rng: random.Random) -> str:
    """Circuit text for ``shape`` with mode names and values drawn from ``rng``."""
    prefix = rng.choice(("m", "p", "x"))
    names = [
        f"{prefix}{i}" + ("'" if rng.random() < 0.2 else "")
        for i in range(shape["n_modes"])
    ]

    def correction(corr) -> str:
        if corr[0] == "rotate":
            return f"rotate {names[corr[1]]} {_angle(rng)}"
        return f"polphase {names[corr[1]]} {corr[2]} {_angle(rng)}"

    lines = [f"mode {name}" for name in names]
    for kind, ports in shape["inputs"]:
        line = f"input {kind} {' '.join(names[p] for p in ports)}"
        if kind == "qubit":
            line += " " + _qubit_amplitudes(rng)
        lines.append(line)
    for el in shape["elements"]:
        if el[0] == "pbs":
            _, basis, in1, in2, out1, out2 = el
            lines.append(
                f"pbs {basis} {names[in1]} {names[in2]} {names[out1]} {names[out2]}"
            )
        else:
            lines.append(correction(el))
    for k, (mode, basis) in enumerate(shape["detectors"]):
        lines.append(f"detect {basis} {names[mode]} as d{k}")
    for k, pol, corrections in shape["rules"]:
        body = " ; ".join(correction(c) for c in corrections)
        lines.append(f"on d{k} {pol} do {body}")
    lines.append("output " + " ".join(names[m] for m in shape["outputs"]))
    return "\n".join(lines) + "\n"


def zoo_blocks(
    seed: int, photons: tuple[int, ...] = (2, 3, 4, 5, 6), stream: str = "timed"
) -> Iterator[list[str]]:
    """Endless blocks of circuit texts, one circuit per entry of ``photons``.

    ``photons`` caps the photon count (the oracle takes at most 4) and sets
    the mix.  The sequence of shapes depends only on ``stream`` and
    ``photons``; values, names and the order of circuits within a block
    depend on ``seed`` as well.  ``stream`` names an independent catalogue,
    so warm-up circuits never repeat a timed shape.
    """
    key = f"{CATALOGUE}:{stream}:{','.join(map(str, photons))}"
    shape_rng = random.Random(key)
    value_rng = random.Random(f"{key}:{seed}")
    seen = set()

    def distinct_shape(count):
        for _ in range(MAX_DRAWS):
            shape = draw_shape(shape_rng, count)
            if repr(shape) not in seen:
                seen.add(repr(shape))
                return shape
        raise RuntimeError(f"no new {count}-photon shape in {MAX_DRAWS} draws")

    while True:
        block = [distinct_shape(p) for p in photons]
        value_rng.shuffle(block)
        yield [render(shape, value_rng) for shape in block]


def generate_zoo(
    seed: int, blocks: int, photons: tuple[int, ...] = (2, 3, 4, 5, 6), stream: str = "timed"
) -> list[str]:
    """The first ``blocks`` blocks of ``zoo_blocks``, as one list."""
    return [text for block in islice(zoo_blocks(seed, photons, stream), blocks) for text in block]
