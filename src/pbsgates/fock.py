"""Sparse bosonic states over polarization-resolved optical modes.

A slot is a ``(mode, pol)`` pair.  The canonical polarization labels are
``H`` and ``V``; the diagonal labels ``F`` and ``S`` appear only transiently,
inside basis changes and detector logic.  States are sparse superpositions of
photon configurations with complex amplitudes, with the bosonic convention
``a†|n> = sqrt(n+1)|n+1>``.

Inside a state, a configuration is one packed int over a :class:`SlotIndex`:
the count of the slot at position ``i`` sits in bits ``[i*w, (i+1)*w)``, and
the field width ``w`` is sized from the state's photon number.  The sorted
:class:`BasisState` form is built only where a caller sees a configuration.

A slot transform (:func:`transform_slots`) expands each term by the
multinomial sum over its mapped photons, which depends only on the term's
local occupation: its counts on the slots the map reads and writes.  A
compiled map (:class:`IndexedMap`) is built for one packing, an index and a
photon bound, with its shifts and masks worked out at construction.  It works
each local occupation's expansion out once as a program, keeps it for later
calls, and replays it on every term that has that occupation.  A replay does
the same float operations in the same order as expanding the term afresh, so
kept programs never change an amplitude's bits, signed zeros included.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter

from .errors import OverlappingModes
from .record import Frozen

POL_H = "H"
POL_V = "V"
POL_F = "F"
POL_S = "S"

HV_TO_FS = "HVtoFS"
FS_TO_HV = "FStoHV"

#: Amplitudes with magnitude below this are pruned (cancellation noise from
#: repeated sqrt(2) arithmetic); exact zeros are pruned at any tolerance.  A
#: state carries its own tolerance, set by the constructor; a circuit run
#: takes one as an argument of :func:`pbsgates.circuit.execute`.
DEFAULT_TOLERANCE = 1e-12

#: The smallest positive float: a state with tolerance 0 prunes below this
#: instead, so that it still drops exact zeros.
_LEAST_MAGNITUDE = math.ulp(0.0)


def prune_floor(tolerance: float) -> float:
    """The least magnitude that an amplitude keeps at ``tolerance``: the
    tolerance, or :data:`_LEAST_MAGNITUDE` at 0 (and ``-0.0``).  Raises
    :class:`ValueError` for a negative tolerance, which would prune nothing,
    not even exact zeros, and for ``nan``, which would prune everything."""
    if not tolerance >= 0:
        raise ValueError(f"amplitude tolerance {tolerance!r} is negative or nan")
    return tolerance or _LEAST_MAGNITUDE

_SQRT_HALF = 1.0 / math.sqrt(2.0)

Slot = tuple[str, str]
SlotMap = dict[Slot, tuple[tuple[Slot, complex], ...]]


@functools.total_ordering
class BasisState(Frozen):
    """One classical photon configuration: sorted ((mode, pol), count) pairs.

    The empty tuple is the vacuum.  Zero counts are never stored, so equal
    configurations compare equal.  Configurations order by ``occ``.
    """

    __slots__ = _fields = ("occ",)

    def __init__(self, occ: tuple[tuple[Slot, int], ...] = ()):
        object.__setattr__(self, "occ", occ)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.occ < other.occ
        return NotImplemented

    @staticmethod
    def from_dict(occupations: dict[Slot, int]) -> "BasisState":
        items = tuple(sorted((slot, int(n)) for slot, n in occupations.items() if n))
        for _, n in items:
            if n < 0:
                raise ValueError("negative occupation")
        return BasisState(items)

    @property
    def total_photons(self) -> int:
        return sum(n for _, n in self.occ)

    def key_string(self) -> str:
        """Stable human-readable form, e.g. ``2:H:1,c:V:2``."""
        return ",".join(f"{mode}:{pol}:{n}" for (mode, pol), n in self.occ)


class SlotIndex:
    """Integer positions for a set of slots, in sorted slot order.

    Position order is the order of :class:`BasisState` entries, so unpacking
    a configuration field by field gives its canonical form directly.
    """

    __slots__ = ("slots", "position")

    def __init__(self, slots=()):
        self.slots = tuple(sorted(set(slots)))
        self.position = {slot: i for i, slot in enumerate(self.slots)}

    def including(self, slots) -> "SlotIndex":
        """This index if it has every slot in ``slots``, else a wider one."""
        missing = [slot for slot in slots if slot not in self.position]
        return SlotIndex((*self.slots, *missing)) if missing else self

    def pack(self, slots, photons: int) -> int:
        """The configuration with one photon on each of ``slots`` (distinct, all
        in this index), packed for states of up to ``photons`` photons."""
        width = _width(photons)
        position = self.position
        return sum(1 << position[slot] * width for slot in slots)


def _width(photons: int) -> int:
    """Bits per slot field that hold any count up to ``photons``."""
    return max(1, photons.bit_length())


def _fields(cfg: int, width: int) -> list[tuple[int, int]]:
    """(position, count) of every occupied slot of a packed configuration, in
    increasing position.  Each occupied field is found from the lowest set
    bit left, so empty slots cost nothing."""
    field = (1 << width) - 1
    out = []
    while cfg:
        pos = ((cfg & -cfg).bit_length() - 1) // width
        shift = pos * width
        n = cfg >> shift & field
        out.append((pos, n))
        cfg ^= n << shift
    return out


def _repack(
    terms: dict[int, complex],
    src: SlotIndex,
    src_width: int,
    dst: SlotIndex,
    dst_width: int,
) -> dict[int, complex]:
    """``terms`` moved from one packing to another, in the same order.

    A configuration with a slot that ``dst`` lacks, or a count too large for
    ``dst_width``, has no place in the new packing and is dropped.
    """
    if src_width == dst_width and (
        src is dst or dst.slots[: len(src.slots)] == src.slots
    ):
        return terms  # every slot keeps its bits
    shifts = [
        None if (pos := dst.position.get(slot)) is None else pos * dst_width
        for slot in src.slots
    ]
    field = (1 << src_width) - 1
    out = {}
    for cfg, amp in terms.items():
        new = 0
        pos = 0
        while cfg:
            n = cfg & field
            if n:
                shift = shifts[pos]
                if shift is None or n >> dst_width:
                    break
                new |= n << shift
            cfg >>= src_width
            pos += 1
        else:
            out[new] = amp
    return out


@functools.cache
def _sqrt_tables(most: int) -> tuple[list[float], list[float]]:
    """sqrt(n!) and sqrt(n) for every count from 0 to ``most``."""
    return (
        [math.sqrt(math.factorial(n)) for n in range(most + 1)],
        [math.sqrt(n) for n in range(most + 1)],
    )


class PhotonState:
    """Sparse complex superposition of photon configurations.

    Build one from a ``{BasisState: amplitude}`` mapping and read it back
    through :attr:`terms`, :meth:`amplitude` or :meth:`sorted_terms`.
    Instances are immutable after construction; every operation returns a new
    value, so states can be freely shared between threads.
    """

    # ``_photons`` bounds the photon number of every term; the field width is
    # sized from it.
    __slots__ = ("_terms", "_index", "_photons", "_width", "tolerance")

    def __init__(self, terms, tolerance: float = DEFAULT_TOLERANCE):
        floor = prune_floor(tolerance)
        index = SlotIndex(slot for basis in terms for slot, _ in basis.occ)
        photons = max((basis.total_photons for basis in terms), default=0)
        width = _width(photons)
        position = index.position
        self.tolerance = tolerance
        self._index = index
        self._photons = photons
        self._width = width
        self._terms = {
            sum(n << position[slot] * width for slot, n in basis.occ): complex(amp)
            for basis, amp in terms.items()
            if abs(amp) >= floor
        }

    @classmethod
    def packed(
        cls, terms: dict[int, complex], index: SlotIndex, photons: int, tolerance: float
    ) -> "PhotonState":
        """A state over configurations packed over ``index`` for up to ``photons``
        photons (see :meth:`SlotIndex.pack`), pruned like the constructor."""
        floor = prune_floor(tolerance)
        terms = {cfg: amp for cfg, amp in terms.items() if abs(amp) >= floor}
        return cls._unpruned(terms, index, photons, tolerance)

    @classmethod
    def _unpruned(
        cls, terms: dict[int, complex], index: SlotIndex, photons: int, tolerance: float
    ) -> "PhotonState":
        """Like :meth:`packed`, for ``terms`` that its filter would all keep:
        the caller knows that no amplitude is below the tolerance."""
        state = cls.__new__(cls)
        state.tolerance = tolerance
        state._index = index
        state._photons = photons
        state._width = _width(photons)
        state._terms = terms
        return state

    @property
    def packing(self) -> tuple[SlotIndex, int]:
        """The index and the photon bound this state's configurations are packed
        for: a state :meth:`packed` alike meets this one without repacking."""
        return self._index, self._photons

    @property
    def packed_terms(self) -> dict[int, complex]:
        """``{configuration: amplitude}``, packed as :attr:`packing` says; the
        state's own dict, so a caller must not change it."""
        return self._terms

    def _basis(self, cfg: int) -> BasisState:
        slots = self._index.slots
        return BasisState(tuple((slots[pos], n) for pos, n in _fields(cfg, self._width)))

    @property
    def terms(self) -> dict[BasisState, complex]:
        return {self._basis(cfg): amp for cfg, amp in self._terms.items()}

    def amplitude(self, basis: BasisState) -> complex:
        position = self._index.position
        cfg = 0
        for slot, n in basis.occ:
            pos = position.get(slot)
            if pos is None or n >> self._width:
                return 0j
            cfg |= n << pos * self._width
        return self._terms.get(cfg, 0j)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self._terms.values())

    def num_terms(self) -> int:
        return len(self._terms)

    def occupied_slots(self) -> dict[int, Slot]:
        """``{position: slot}`` of every slot that some term occupies, with
        the positions of :meth:`sorted_fields`."""
        occupied = 0
        for cfg in self._terms:
            occupied |= cfg
        slots = self._index.slots
        return {pos: slots[pos] for pos, _ in _fields(occupied, self._width)}

    def modes(self) -> set[str]:
        return {mode for mode, _ in self.occupied_slots().values()}

    def reindexed(self, index: SlotIndex) -> "PhotonState":
        """The same state packed over ``index``, widened by any slot it lacks."""
        index = index.including(self._index.slots)
        if index is self._index:
            return self
        terms = _repack(self._terms, self._index, self._width, index, self._width)
        return PhotonState.packed(terms, index, self._photons, self.tolerance)

    def with_tolerance(self, tolerance: float) -> "PhotonState":
        """The same state pruned with ``tolerance``."""
        return PhotonState.packed(self._terms, self._index, self._photons, tolerance)

    @classmethod
    def scaled_packed(cls, terms, index, photons, tolerance, factor: complex) -> "PhotonState":
        """:meth:`packed` of ``terms``, which all pass ``tolerance``, times ``factor``."""
        terms = {cfg: a * factor for cfg, a in terms.items()}
        # A real factor of magnitude 1 or more shrinks neither part of any
        # amplitude (rounding is monotonic), so nothing new falls below the
        # tolerance that the terms already passed.
        if isinstance(factor, (int, float)) and abs(factor) >= 1:
            return cls._unpruned(terms, index, photons, tolerance)
        return cls.packed(terms, index, photons, tolerance)

    def sorted_fields(self) -> list[tuple[list[tuple[int, int]], complex]]:
        """``(fields, amplitude)`` of every term in :class:`BasisState` order.

        ``fields`` holds the ``(position, count)`` of each occupied slot,
        positions in :attr:`packing`'s index and increasing.  Positions follow
        sorted slot order, so these lists sort as the terms' ``BasisState``
        forms do; every sorted view of a state is built on this one sort.
        """
        width = self._width
        return sorted(
            [(_fields(cfg, width), amp) for cfg, amp in self._terms.items()],
            key=itemgetter(0),
        )

    def sorted_terms(self) -> list[tuple[BasisState, complex]]:
        slots = self._index.slots
        return [
            (BasisState(tuple([(slots[pos], n) for pos, n in fields])), amp)
            for fields, amp in self.sorted_fields()
        ]

    def __repr__(self):
        parts = [f"({a:.6g})|{b.key_string() or 'vac'}>" for b, a in self.sorted_terms()]
        return " + ".join(parts) if parts else "0"


def _joint(a: PhotonState, b: PhotonState, photons: int):
    """(index, a's terms, b's terms) packed alike for up to ``photons`` photons."""
    index = a._index.including(b._index.slots)
    width = _width(photons)
    return (
        index,
        _repack(a._terms, a._index, a._width, index, width),
        _repack(b._terms, b._index, b._width, index, width),
    )


def tensor(a: PhotonState, b: PhotonState) -> PhotonState:
    """Product state of two states on disjoint spatial modes."""
    shared = a.modes() & b.modes()
    if shared:
        raise OverlappingModes(f"modes appear on both sides: {sorted(shared)}")
    photons = a._photons + b._photons
    index, a_terms, b_terms = _joint(a, b, photons)
    out: dict[int, complex] = {}
    for ka, aa in a_terms.items():
        for kb, ab in b_terms.items():
            key = ka | kb
            out[key] = out.get(key, 0j) + aa * ab
    return PhotonState.packed(out, index, photons, min(a.tolerance, b.tolerance))


def inner_product(a: PhotonState, b: PhotonState) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    small, large = (a, b) if a.num_terms() <= b.num_terms() else (b, a)
    # A configuration that ``large`` cannot pack has no partner there.
    small_terms = _repack(small._terms, small._index, small._width, large._index, large._width)
    total = 0j
    large_terms = large._terms
    for cfg, amp in small_terms.items():
        other = large_terms.get(cfg)
        if other is not None:
            if small is a:
                total += amp.conjugate() * other
            else:
                total += other.conjugate() * amp
    return total


def split_counts(
    state: PhotonState, slot_pairs: tuple[tuple[Slot, Slot], ...]
) -> dict[tuple[tuple[int, int], ...], PhotonState]:
    """Group the terms by their counts on each pair of slots.

    Keys hold one ``(count, count)`` per pair; each group's state no longer
    carries the counted slots.  Group norms sum to the state's norm.
    """
    state = state.reindexed(state._index.including([s for pair in slot_pairs for s in pair]))
    index, width = state._index, state._width
    photons = state._photons
    field = (1 << width) - 1
    shifts = [(index.position[a] * width, index.position[b] * width) for a, b in slot_pairs]
    counted = 0
    for sa, sb in shifts:
        counted |= field << sa | field << sb
    keep = ~counted
    groups: dict[int, dict[int, complex]] = {}
    for cfg, amp in state._terms.items():
        counts = cfg & counted
        group = groups.get(counts)
        if group is None:
            group = groups[counts] = {}
        # ``cfg`` is ``counts | rest``, so no two terms of a group share a
        # rest and nothing is summed; ``0j +`` keeps the bits of a sum with
        # nothing (a real -0.0 becomes 0.0).
        group[cfg & keep] = 0j + amp
    # The groups partition a pruned state without changing an amplitude's
    # magnitude, so none needs pruning again.
    return {
        tuple([(counts >> sa & field, counts >> sb & field) for sa, sb in shifts]): (
            PhotonState._unpruned(terms, index, photons, state.tolerance)
        )
        for counts, terms in groups.items()
    }


def one_photon_test(index: SlotIndex, photons: int, modes) -> tuple[int, frozenset[int]]:
    """``(mask, allowed)`` such that a configuration packed over ``index`` for
    up to ``photons`` photons holds exactly one photon on each of ``modes``,
    in any polarization, when ``cfg & mask`` is in ``allowed``."""
    width = _width(photons)
    field = (1 << width) - 1
    mask = 0
    allowed = {0}
    for mode in modes:
        units = [1 << pos * width for (m, _), pos in index.position.items() if m == mode]
        for unit in units:
            mask |= field * unit
        allowed = {held + unit for held in allowed for unit in units}
    return mask, frozenset(allowed)


def keep_matching(
    state: PhotonState, mask: int, allowed: frozenset[int]
) -> tuple[PhotonState, float]:
    """The terms of ``state`` whose ``cfg & mask`` is in ``allowed`` (see
    :func:`one_photon_test`), and the squared norm of the others.  Kept
    amplitudes keep their bits and their order."""
    terms = state._terms
    kept = {cfg: amp for cfg, amp in terms.items() if cfg & mask in allowed}
    if len(kept) == len(terms):
        return state, 0.0
    dropped = sum(abs(amp) ** 2 for cfg, amp in terms.items() if cfg not in kept)
    return PhotonState._unpruned(kept, state._index, state._photons, state.tolerance), dropped


def squared_norm(amplitudes) -> float:
    """``sum(abs(a) ** 2)`` over ``amplitudes``, summed as
    :meth:`PhotonState.norm_sq` sums it, or ``inf`` where a square
    overflows: a normalization check then refuses the amplitudes instead of
    raising ``OverflowError``."""
    try:
        return sum(abs(a) ** 2 for a in amplitudes)
    except OverflowError:
        return math.inf


class IndexedMap:
    """A :data:`SlotMap` compiled for the states packed over one
    :class:`SlotIndex` for up to ``photons`` photons, as
    :meth:`PhotonState.packed` packs them: fields of one ``width``.

    ``moves`` holds ``(source shift, ((target shift, target unit,
    coefficient), ...))`` in increasing source position, zero coefficients
    left out.  ``moved`` masks the source fields and ``mask`` the source and
    target fields: a configuration's local occupation, ``cfg & mask``, is
    all that its expansion reads.  ``programs`` keeps the expansion program
    of every local occupation met (see :func:`transform_slots`) for as long
    as the map lives, from its first call on.
    """

    __slots__ = ("index", "width", "slot_map", "moves", "moved", "mask", "programs")

    def __init__(self, slot_map: SlotMap, index: SlotIndex, photons: int):
        position = index.position
        width = _width(photons)
        field = (1 << width) - 1
        moves = []
        moved = local = 0
        for source, targets in slot_map.items():
            shift = position[source] * width
            moved |= field << shift
            shifted = []
            for target, coeff in targets:
                if coeff:
                    target_shift = position[target] * width
                    local |= field << target_shift
                    shifted.append((target_shift, 1 << target_shift, coeff))
            moves.append((shift, tuple(shifted)))
        moves.sort()
        self.index = index
        self.width = width
        self.slot_map = slot_map
        self.moves = tuple(moves)
        self.moved = moved
        self.mask = moved | local
        self.programs: dict[int, tuple] = {}


def _expansion_program(local: int, width: int, moves, moved: int):
    """How one local occupation expands: (divisors, stages, offsets).

    This is the per-term expansion of the slot transform worked out on the
    occupation alone, with each configuration replaced by its entry in a
    list.  Each mapped slot with ``n`` photons contributes a divisor
    sqrt(n!) and ``n`` creation stages.  A stage ``(first, more)`` makes the
    next list: entry ``j`` starts as ``0j + partial[src] * coeff * root``
    with ``(src, coeff, root) = first[j]``, then each ``(dst, src, coeff,
    root)`` of ``more`` adds ``partial[src] * coeff * root`` to entry
    ``dst``.  That is the order in which the dict-based expansion visited the
    steps, and entries are numbered in the order it first made their keys.
    ``offsets`` is what each final entry adds to the configuration with its
    mapped photons removed.
    """
    field = (1 << width) - 1
    sqrt_factorial, sqrt = _sqrt_tables(field)
    base = local & ~moved
    partial = {base: 0}  # configuration -> its entry in the list
    divisors = []
    stages = []
    for shift, targets in moves:
        n = local >> shift & field
        if not n:
            continue
        divisors.append(sqrt_factorial[n])
        for _ in range(n):
            nxt: dict[int, int] = {}
            first, more = [], []
            for pcfg, src in partial.items():
                for target, unit, coeff in targets:
                    root = sqrt[(pcfg >> target & field) + 1]
                    dst = nxt.setdefault(pcfg + unit, len(nxt))
                    if dst == len(first):
                        first.append((src, coeff, root))
                    else:
                        more.append((dst, src, coeff, root))
            stages.append((tuple(first), tuple(more)))
            partial = nxt
    return tuple(divisors), tuple(stages), tuple(key - base for key in partial)


def transform_slots(state: PhotonState, mapping: SlotMap | IndexedMap) -> PhotonState:
    """Rewrite each mapped creation operator as a linear combination.

    ``mapping[s]`` lists ``(target_slot, coefficient)`` pairs, meaning
    a†(s) -> sum coeff * a†(target).  Unmapped slots are untouched.  The
    result is exact for arbitrary occupations: each term is expanded as a
    product of creation operators acting on the unmapped remainder.

    An :class:`IndexedMap` built for the state's index and field width runs
    as it is; any other map is first compiled for the state, whose index
    grows by the map's slots if needed.

    A term's expansion depends only on its local occupation, so it is
    worked out once per occupation as an expansion program, kept on the map
    (see :class:`IndexedMap`) and replayed on lists for every term with that
    occupation.  The replay does the float operations of the per-term
    expansion in the same order, ``0j +`` on a fresh entry included, so
    every amplitude keeps its bits, signed zeros too.
    """
    if not (
        isinstance(mapping, IndexedMap)
        and mapping.index is state._index
        and mapping.width == state._width
    ):
        slot_map = mapping.slot_map if isinstance(mapping, IndexedMap) else mapping
        targets = (target for pairs in slot_map.values() for target, _ in pairs)
        state = state.reindexed(state._index.including([*slot_map, *targets]))
        mapping = IndexedMap(slot_map, state._index, state._photons)
    width, moves, moved, mask = mapping.width, mapping.moves, mapping.moved, mapping.mask
    programs = mapping.programs
    keep = ~moved
    out: dict[int, complex] = {}
    for cfg, amp in state._terms.items():
        if not cfg & moved:
            out[cfg] = out.get(cfg, 0j) + amp
            continue
        local = cfg & mask
        program = programs.get(local)
        if program is None:
            program = programs[local] = _expansion_program(local, width, moves, moved)
        divisors, stages, offsets = program
        # |..n..> carries 1/sqrt(n!) relative to the bare operator product;
        # the stages restore sqrt-factors one creation at a time.
        for divisor in divisors:
            amp /= divisor
        partial = [amp]
        for first, more in stages:
            nxt = [0j + partial[src] * coeff * root for src, coeff, root in first]
            for dst, src, coeff, root in more:
                nxt[dst] = nxt[dst] + partial[src] * coeff * root
            partial = nxt
        base = cfg & keep
        for offset, value in zip(offsets, partial):
            key = base + offset
            out[key] = out.get(key, 0j) + value
    return PhotonState.packed(out, state._index, state._photons, state.tolerance)


def compose_slot_maps(first: SlotMap, second: SlotMap) -> SlotMap:
    """Slot map equivalent to applying ``first`` then ``second``."""
    out: SlotMap = {}
    for slot, targets in first.items():
        acc: dict[Slot, complex] = {}
        for mid, c1 in targets:
            for target, c2 in second.get(mid, ((mid, 1.0 + 0j),)):
                acc[target] = acc.get(target, 0j) + c1 * c2
        out[slot] = tuple(acc.items())
    for slot, targets in second.items():
        if slot not in out:
            out[slot] = targets
    return out


def rebase_map(mode: str, direction: str) -> SlotMap:
    """Slot map for the HV <-> FS change of basis on one spatial mode.

    Conventions: F = (H+V)/sqrt(2), S = (V-H)/sqrt(2), hence
    a†H = (a†F - a†S)/sqrt(2) and a†V = (a†F + a†S)/sqrt(2).
    """
    if direction == HV_TO_FS:
        return {
            (mode, POL_H): (((mode, POL_F), _SQRT_HALF), ((mode, POL_S), -_SQRT_HALF)),
            (mode, POL_V): (((mode, POL_F), _SQRT_HALF), ((mode, POL_S), _SQRT_HALF)),
        }
    if direction == FS_TO_HV:
        return {
            (mode, POL_F): (((mode, POL_H), _SQRT_HALF), ((mode, POL_V), _SQRT_HALF)),
            (mode, POL_S): (((mode, POL_H), -_SQRT_HALF), ((mode, POL_V), _SQRT_HALF)),
        }
    raise ValueError(f"unknown rebase direction: {direction!r}")


def rebase_polarization(state: PhotonState, mode: str, direction: str) -> PhotonState:
    """Rewrite the amplitudes of one spatial mode in the other polarization basis.

    A mode absent from the state is a no-op.  Round-tripping is the identity
    and the norm is preserved (the change of basis is unitary).
    """
    return transform_slots(state, rebase_map(mode, direction))

