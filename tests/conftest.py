"""Shared fixtures and random-state helpers for the test suite."""

from importlib.resources import files

import numpy as np
import pytest

from pbsgates.fock import POL_H, POL_V, BasisState, PhotonState
from pbsgates.gates import QubitState, TwoQubitState


def circuit_path(name: str) -> str:
    return str(files("pbsgates").joinpath("circuits", f"{name}.circ"))


def random_qubit(rng: np.random.Generator) -> QubitState:
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    vec /= np.linalg.norm(vec)
    return QubitState(complex(vec[0]), complex(vec[1]))


def random_two_qubit(rng: np.random.Generator) -> TwoQubitState:
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    return TwoQubitState(*(complex(x) for x in vec))


def single(mode: str, pol: str, amp: complex = 1.0) -> PhotonState:
    return PhotonState({BasisState.from_dict({(mode, pol): 1}): amp})


def states_close(a: PhotonState, b: PhotonState, tol: float = 1e-10) -> bool:
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= tol for k in keys)


def random_state(rng, modes=("x", "y"), max_photons=3) -> PhotonState:
    """Random non-normalized few-photon state over HV slots of ``modes``."""
    slots = [(m, p) for m in modes for p in (POL_H, POL_V)]
    terms = {}
    for _ in range(rng.integers(1, 5)):
        total = int(rng.integers(0, max_photons + 1))
        occ = {}
        for _ in range(total):
            slot = slots[rng.integers(len(slots))]
            occ[slot] = occ.get(slot, 0) + 1
        amp = complex(rng.normal(), rng.normal())
        key = BasisState.from_dict(occ)
        terms[key] = terms.get(key, 0j) + amp
    return PhotonState(terms, tolerance=0.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240815)
