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
from .fock import POL_F, POL_H, POL_S, POL_V, PhotonState, SlotMap
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


def _pbs_routing_map(el: PbsElement, trans: str, refl: str) -> SlotMap:
    return {
        (el.in1, trans): (((el.out1, trans), 1.0 + 0j),),
        (el.in2, trans): (((el.out2, trans), 1.0 + 0j),),
        (el.in1, refl): (((el.out2, refl), 1.0 + 0j),),
        (el.in2, refl): (((el.out1, refl), 1.0 + 0j),),
    }


def pbs_slot_map(el: PbsElement) -> SlotMap:
    if el.basis == BASIS_HV:
        return _pbs_routing_map(el, POL_H, POL_V)
    # FS splitter: rebase inputs to FS, route F/S, rebase outputs back to HV.
    to_fs: SlotMap = {}
    to_fs.update(fock.rebase_map(el.in1, fock.HV_TO_FS))
    to_fs.update(fock.rebase_map(el.in2, fock.HV_TO_FS))
    route = _pbs_routing_map(el, POL_F, POL_S)
    back: SlotMap = {}
    back.update(fock.rebase_map(el.out1, fock.FS_TO_HV))
    back.update(fock.rebase_map(el.out2, fock.FS_TO_HV))
    return fock.compose_slot_maps(fock.compose_slot_maps(to_fs, route), back)


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
