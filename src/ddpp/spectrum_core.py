"""Traits and labels of the pair search, and the spectrum interval algebra.

A trait summarizes one partial route: the cost accumulated along its links
plus the single contiguous interval of frequency-slot units still usable on
every one of those links.  Costs are additive: extending a trait adds the
link's cost, and a label costs the sum of its two traits.  A label pairs
two traits, one per route of a protected connection, and lives at a vertex,
the unordered pair of nodes where the two routes currently end.

A trait is the plain tuple ``(cost, lo, hi)`` and a vertex the plain tuple
``(a, b)`` with ``a <= b``, so building, hashing and comparing either runs
in C.  No type enforces that order: ``label_extend`` is the only code that
orders a pair, and a same-node pair ``(n, n)`` is ordered as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter


def _is_int(value) -> bool:
    """A JSON integer: ``int`` but not ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value, least: int | None = None, error=ValueError) -> None:
    """The one parameter check "a JSON integer, at least ``least``"."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True, slots=True)
class UnitInterval:
    """Half-open interval [lo, hi) of frequency-slot units; the one home of
    the interval rules: integer bounds, then ``0 <= lo < hi``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi  # `type(v) is int` spares most `_is_int` calls
        if not ((type(lo) is int or _is_int(lo)) and (type(hi) is int or _is_int(hi))):
            raise ValueError(f"interval {[lo, hi]!r} must be [lo, hi]")
        if lo < 0 or hi <= lo:
            raise ValueError(f"malformed interval [{lo}, {hi})")

    def to_doc(self) -> list[int]:
        return [self.lo, self.hi]


def normalize_intervals(items) -> tuple[UnitInterval, ...]:
    """Sort UnitIntervals and merge overlapping or touching ones.

    The result is the canonical form: ascending, pairwise disjoint, never
    adjacent.  A run that no later input extends is the input that starts
    it, so a canonical tuple comes back as the same instances.
    """
    merged: list[UnitInterval] = []
    last = None
    for iv in sorted(items, key=attrgetter("lo", "hi")):
        if last is None or iv.lo > last.hi:
            merged.append(iv)
            last = iv
        elif iv.hi > last.hi:
            last = merged[-1] = UnitInterval(last.lo, iv.hi)
    return tuple(merged)


def remove_interval(intervals, cut: UnitInterval) -> tuple[UnitInterval, ...] | None:
    """Cut a window out of the canonical interval tuple that contains it.

    Returns the canonical remainder, or None when no single interval
    contains the whole window.
    """
    for index, iv in enumerate(intervals):
        if iv.lo <= cut.lo and cut.hi <= iv.hi:
            pieces = tuple(UnitInterval(lo, hi)
                           for lo, hi in ((iv.lo, cut.lo), (cut.hi, iv.hi)) if lo < hi)
            return intervals[:index] + pieces + intervals[index + 1:]
    return None


def trait_extend(trait: tuple, link, units: int) -> list[tuple]:
    """Candidate ``(cost, lo, hi)`` traits after appending a link to the
    trait's route.

    One candidate per maximal contiguous piece of the trait's interval that
    is also available on the link and at least ``units`` (>= 1) wide.
    Candidates shorter than the demand can never recover, so they are
    dropped here.  Returns an empty list when nothing qualifies.
    ``link.available`` must be canonical, as ``Network`` enforces: the walk
    stops at the first interval that starts at or past the trait's ``hi``.
    """
    cost, lo, hi = trait
    cost += link.cost
    out = []
    for iv in link.available:
        piece_lo = iv.lo
        if piece_lo >= hi:
            break
        piece_hi = iv.hi
        if piece_lo < lo:
            piece_lo = lo
        if piece_hi > hi:
            piece_hi = hi
        if piece_hi - piece_lo >= units:
            out.append((cost, piece_lo, piece_hi))
    return out


@dataclass(slots=True, eq=False)
class Label:
    """Search state: a pair of traits, each with the route it summarizes.

    ``trait_a`` and ``trait_b`` are ``(cost, lo, hi)`` tuples.  ``vertex``
    is the node pair ``(a, b)`` with ``a <= b``; route a ends at ``a`` and
    route b at ``b``.
    ``links_a`` and ``links_b`` are bitsets over link ids, the links of the
    route in the same slot.  Every route is a path from the source, so its
    link set alone fixes it, and ``reconstruct`` recovers the order.  The
    two routes are disjoint, so ``links_a | links_b`` is every link the
    label uses, and a disjointness check is a single mask test.
    """

    trait_a: tuple
    trait_b: tuple
    vertex: tuple[str, str]
    links_a: int = 0
    links_b: int = 0
    alive: bool = True


def label_cost(label: Label) -> int:
    """Sum of the two accumulated trait costs."""
    return label.trait_a[0] + label.trait_b[0]


def label_extend(label: Label, link, far: str, side: str, units: int) -> list[Label]:
    """Candidate labels after appending a link to one route of a label.

    The chosen side (``"a"`` or ``"b"``) has its trait extended over the
    link, and its route gains the link's bit and ends at ``far``, the
    link's far end from that side's node; the other trait and route are
    copied.  The caller vouches for ``far`` and that the label does not use
    the link: ``expand`` reads both off the usable-link view.  The new
    vertex is canonicalized; when the node order flips, both traits move to
    the other slot with their link sets.
    """
    bit = 1 << link.id
    if side == "a":
        kept_end = label.vertex[1]
        trait, kept_trait, kept_links = label.trait_a, label.trait_b, label.links_b
        links = label.links_a | bit
    else:
        kept_end = label.vertex[0]
        trait, kept_trait, kept_links = label.trait_b, label.trait_a, label.links_a
        links = label.links_b | bit
    pieces = trait_extend(trait, link, units)
    # loops, not comprehensions: CPython before 3.12 (PEP 709) builds and
    # calls a function object for each comprehension
    out = []
    if far <= kept_end:
        vertex = (far, kept_end)
        for t in pieces:
            out.append(Label(t, kept_trait, vertex, links, kept_links))
    else:
        vertex = (kept_end, far)
        for t in pieces:
            out.append(Label(kept_trait, t, vertex, kept_links, links))
    return out
