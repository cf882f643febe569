"""Optical elements as unitary transformations of :class:`PhotonState`.

Three element kinds cover every circuit in this package: ideal polarizing
beam splitters (HV or FS oriented), polarization rotators, and
polarization-dependent phase shifters.  Angles are stored in degrees, which
is what the circuit description language uses; conversion to radians happens
at application time.
"""

from __future__ import annotations

import cmath
import math

from . import fock
from .errors import ModeCollision
from .fock import POL_H, POL_V, PhotonState, SlotMap
from .record import Frozen

BASIS_HV = "hv"
BASIS_FS = "fs"


class PbsElement(Frozen):
    """Ideal polarizing beam splitter.

    Routing contract: the transmitted polarization (H for an HV splitter,
    F for an FS splitter) goes in1->out1 and in2->out2; the reflected
    polarization (V or S) goes in1->out2 and in2->out1.  All coefficients
    are +1; no reflection phase is modeled.
    """

    __slots__ = _fields = ("in1", "in2", "out1", "out2", "basis")

    def __init__(self, in1: str, in2: str, out1: str, out2: str, basis: str = BASIS_HV):
        if in1 == in2 or out1 == out2:
            raise ValueError("PBS ports must be distinct")
        if basis not in (BASIS_HV, BASIS_FS):
            raise ValueError(f"unknown PBS basis: {basis!r}")
        self._set(in1, in2, out1, out2, basis)


class RotatorElement(Frozen):
    """Polarization rotation: H -> cos·H + sin·V, V -> -sin·H + cos·V."""

    __slots__ = _fields = ("mode", "angle_deg")

    def __init__(self, mode: str, angle_deg: float):
        self._set(mode, angle_deg)


class PolPhaseElement(Frozen):
    """Phase e^{i·phase·k} on one (mode, pol) slot with occupation k."""

    __slots__ = _fields = ("mode", "pol", "phase_deg")

    def __init__(self, mode: str, pol: str, phase_deg: float):
        if pol not in (POL_H, POL_V):
            raise ValueError(f"phase shifter pol must be H or V, got {pol!r}")
        self._set(mode, pol, phase_deg)


OpticalElement = PbsElement | RotatorElement | PolPhaseElement


#: The coefficients of each path through an FS splitter: 1/sqrt(2) to reach
#: F or S, times 1/sqrt(2) to return to H or V, either sign.  Both imaginary
#: parts are +0.0 (``-_HALF`` would carry -0.0).
_HALF = complex(fock._SQRT_HALF * fock._SQRT_HALF)
_MINUS_HALF = complex(-(fock._SQRT_HALF * fock._SQRT_HALF))


def pbs_slot_map(el: PbsElement) -> SlotMap:
    """The splitter's map over the H/V slots of its input ports.

    An FS splitter's is that of rebasing its inputs to F/S, routing F and S
    and rebasing its outputs back, written out: the transmitted F part of a
    photon keeps its port's path and the reflected S part crosses over,
    with ``F = (H+V)/sqrt(2)`` and ``S = (V-H)/sqrt(2)``.
    """
    if el.basis == BASIS_HV:
        return {
            (el.in1, POL_H): (((el.out1, POL_H), 1.0 + 0j),),
            (el.in2, POL_H): (((el.out2, POL_H), 1.0 + 0j),),
            (el.in1, POL_V): (((el.out2, POL_V), 1.0 + 0j),),
            (el.in2, POL_V): (((el.out1, POL_V), 1.0 + 0j),),
        }
    out = {}
    for port, keep, cross in ((el.in1, el.out1, el.out2), (el.in2, el.out2, el.out1)):
        out[(port, POL_H)] = (
            ((keep, POL_H), _HALF), ((keep, POL_V), _HALF),
            ((cross, POL_H), _HALF), ((cross, POL_V), _MINUS_HALF),
        )
        out[(port, POL_V)] = (
            ((keep, POL_H), _HALF), ((keep, POL_V), _HALF),
            ((cross, POL_H), _MINUS_HALF), ((cross, POL_V), _HALF),
        )
    return out


def rotator_slot_map(el: RotatorElement) -> SlotMap:
    theta = math.radians(el.angle_deg)
    c, s = math.cos(theta), math.sin(theta)
    return {
        (el.mode, POL_H): (((el.mode, POL_H), c), ((el.mode, POL_V), s)),
        (el.mode, POL_V): (((el.mode, POL_H), -s), ((el.mode, POL_V), c)),
    }


def pol_phase_slot_map(el: PolPhaseElement) -> SlotMap:
    phase = cmath.exp(1j * math.radians(el.phase_deg))
    return {(el.mode, el.pol): (((el.mode, el.pol), phase),)}


def slot_map(el: OpticalElement) -> SlotMap:
    """The single-photon slot map of any optical element."""
    if isinstance(el, PbsElement):
        return pbs_slot_map(el)
    if isinstance(el, RotatorElement):
        return rotator_slot_map(el)
    if isinstance(el, PolPhaseElement):
        return pol_phase_slot_map(el)
    raise TypeError(f"not an optical element: {el!r}")


def collision_modes(el: OpticalElement) -> tuple[str, ...]:
    """Modes that must carry no photon when ``el`` acts.

    A PBS may write onto its own input modes (in place) but not onto any
    other live mode.
    """
    if isinstance(el, PbsElement):
        return tuple(out for out in (el.out1, el.out2) if out not in (el.in1, el.in2))
    return ()


def check_collisions(state: PhotonState, modes: tuple[str, ...]):
    live = state.modes() if modes else set()
    for mode in modes:
        if mode in live:
            raise ModeCollision(
                f"PBS output {mode!r} collides with a live mode that is not an input"
            )


def apply_element(state: PhotonState, el: OpticalElement) -> PhotonState:
    mapping = slot_map(el)
    check_collisions(state, collision_modes(el))
    return fock.transform_slots(state, mapping)
