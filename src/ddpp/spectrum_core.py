"""Traits, labels, and the comparison relations of the pair search.

A trait summarizes one partial route: the cost accumulated along its links
plus the single contiguous interval of frequency-slot units still usable on
every one of those links.  Costs are additive: extending a trait adds the
link's cost, and a label costs the sum of its two traits.  A label pairs
two traits, one per route of a protected connection, and lives at a vertex,
the unordered pair of nodes where the two routes currently end.

Pruning uses one relation per vertex kind, selected by search mode:

* ``base``: trait-wise comparison (cost and interval of each trait).  Exact
  even under a per-route cost limit, but a vertex can accumulate
  exponentially many mutually incomparable labels.  At a distinct-node
  vertex the traits are compared slot-aligned (``leq_n``).  At a vertex
  whose two nodes coincide the trait slots carry no geographic meaning, so
  labels are compared both slot-aligned and slot-swapped (``leq_x``); the
  effective relation ``leq_eq`` is their disjunction.
* ``prime``: whole-label cost plus interval containment (``leq_prime``),
  again aligned at distinct-node vertices and aligned-or-swapped at
  same-node ones.  Keeps the per-vertex label count polynomially bounded;
  exact only when route costs are unlimited.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("base", "prime")


@dataclass(frozen=True, slots=True, order=True)
class UnitInterval:
    """Half-open interval [lo, hi) of frequency-slot units."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(f"malformed interval [{self.lo}, {self.hi})")

    @property
    def length(self) -> int:
        return self.hi - self.lo

    def contains(self, other: "UnitInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "UnitInterval") -> "UnitInterval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return UnitInterval(lo, hi) if lo < hi else None

    def to_doc(self) -> list[int]:
        return [self.lo, self.hi]


def normalize_intervals(items) -> tuple[UnitInterval, ...]:
    """Sort intervals and merge overlapping or touching ones.

    Accepts UnitInterval instances or (lo, hi) pairs.  The result is the
    canonical form: ascending, pairwise disjoint, never adjacent.
    """
    ivs = sorted(
        it if isinstance(it, UnitInterval) else UnitInterval(int(it[0]), int(it[1]))
        for it in items
    )
    merged: list[UnitInterval] = []
    for iv in ivs:
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = UnitInterval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return tuple(merged)


def clip_intervals(intervals, window: UnitInterval) -> list[UnitInterval]:
    """Intersect a canonical interval sequence with a single window.

    The pieces inherit the input's canonical ordering and disjointness.
    """
    out = []
    for iv in intervals:
        piece = iv.intersect(window)
        if piece is not None:
            out.append(piece)
    return out


def remove_interval(intervals, cut: UnitInterval) -> tuple[UnitInterval, ...] | None:
    """Cut a window out of the canonical interval tuple that contains it.

    Returns the canonical remainder, or None when no single interval
    contains the whole window.
    """
    for index, iv in enumerate(intervals):
        if iv.contains(cut):
            pieces = tuple(UnitInterval(lo, hi)
                           for lo, hi in ((iv.lo, cut.lo), (cut.hi, iv.hi)) if lo < hi)
            return intervals[:index] + pieces + intervals[index + 1:]
    return None


@dataclass(frozen=True, slots=True)
class Trait:
    """One partial route: accumulated cost and its usable unit interval."""

    cost: int
    ri: UnitInterval


def trait_leq(t_i: Trait, t_j: Trait) -> bool:
    """True when t_i is better than or equal to t_j.

    Better means no more expensive and offering at least the same units.
    The relation is a preorder: reflexive and transitive, but two traits
    can be incomparable.
    """
    return t_i.cost <= t_j.cost and t_i.ri.contains(t_j.ri)


def trait_extend(trait: Trait, link, units: int) -> list[Trait]:
    """Candidate traits after appending a link to the trait's route.

    One candidate per maximal contiguous piece of the trait's interval that
    is also available on the link and still wide enough for the demand.
    Candidates shorter than the demand can never recover, so they are
    dropped here.  Returns an empty list when nothing qualifies.
    """
    cost = trait.cost + link.cost
    return [
        Trait(cost, piece)
        for piece in clip_intervals(link.available, trait.ri)
        if piece.length >= units
    ]


@dataclass(frozen=True, slots=True)
class Vertex:
    """Canonical unordered pair of network nodes."""

    a: str
    b: str

    def __post_init__(self) -> None:
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def same_node(self) -> bool:
        return self.a == self.b


@dataclass(slots=True, eq=False)
class Label:
    """Search state: a pair of traits plus derivation bookkeeping.

    ``used_links`` is a bitset over link ids covering both routes, so a
    disjointness check is a single mask test.  ``appended_side`` is the
    parent slot that was extended and ``ext_slot`` the slot of this label
    that received the extended trait; together they recover which route
    each appended link belongs to even across canonicalization swaps.
    """

    trait_a: Trait
    trait_b: Trait
    vertex: Vertex
    parent: "Label | None" = None
    appended_link: int | None = None
    appended_side: str | None = None
    ext_slot: str | None = None
    used_links: int = 0
    seq: int = 0
    alive: bool = True

    def uses(self, link_id: int) -> bool:
        return (self.used_links >> link_id) & 1 == 1

    def trait(self, slot: str) -> Trait:
        return self.trait_a if slot == "a" else self.trait_b


def label_cost(label: Label) -> int:
    """Sum of the two accumulated trait costs."""
    return label.trait_a.cost + label.trait_b.cost


def label_extend(label: Label, link, side: str, units: int) -> list[Label]:
    """Candidate labels after appending a link to one route of a label.

    The chosen side's trait is extended over the link; the other trait is
    copied.  The new vertex is canonicalized, swapping trait slots when the
    node order flips.  Raises if the link is not incident to the chosen
    side's node or is already used by either route.
    """
    if side not in ("a", "b"):
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")
    end = label.vertex.a if side == "a" else label.vertex.b
    if end not in link.ends:
        raise ValueError(f"link {link.id} is not incident to node {end!r}")
    if label.uses(link.id):
        raise ValueError(f"link {link.id} already used by this label")
    moved_end = link.ends[1] if link.ends[0] == end else link.ends[0]
    kept_trait = label.trait_b if side == "a" else label.trait_a
    kept_end = label.vertex.b if side == "a" else label.vertex.a
    vertex = Vertex(moved_end, kept_end)
    used = label.used_links | (1 << link.id)
    out = []
    for t in trait_extend(label.trait(side), link, units):
        if moved_end <= kept_end:
            cand = Label(t, kept_trait, vertex, label, link.id, side, "a", used)
        else:
            cand = Label(kept_trait, t, vertex, label, link.id, side, "b", used)
        out.append(cand)
    return out


def leq_n(l_i: Label, l_j: Label) -> bool:
    """Slot-aligned trait comparison."""
    return trait_leq(l_i.trait_a, l_j.trait_a) and trait_leq(l_i.trait_b, l_j.trait_b)


def leq_x(l_i: Label, l_j: Label) -> bool:
    """Slot-swapped trait comparison, meaningful at same-node vertices."""
    return trait_leq(l_i.trait_a, l_j.trait_b) and trait_leq(l_i.trait_b, l_j.trait_a)


def leq_eq(l_i: Label, l_j: Label) -> bool:
    """Effective same-node comparison: slot-aligned or slot-swapped."""
    return leq_n(l_i, l_j) or leq_x(l_i, l_j)


def ri_incl_n(l_i: Label, l_j: Label) -> bool:
    """Slot-aligned interval containment."""
    return l_i.trait_a.ri.contains(l_j.trait_a.ri) and l_i.trait_b.ri.contains(l_j.trait_b.ri)


def ri_incl_x(l_i: Label, l_j: Label) -> bool:
    """Slot-swapped interval containment."""
    return l_i.trait_a.ri.contains(l_j.trait_b.ri) and l_i.trait_b.ri.contains(l_j.trait_a.ri)


def ri_incl_eq(l_i: Label, l_j: Label) -> bool:
    """Effective same-node interval containment: aligned or swapped."""
    return ri_incl_n(l_i, l_j) or ri_incl_x(l_i, l_j)


def leq_prime(l_i: Label, l_j: Label) -> bool:
    """Cost-sum comparison: lower label cost and containing intervals."""
    if l_i.vertex != l_j.vertex:
        raise ValueError("labels at different vertices are not comparable")
    if label_cost(l_i) > label_cost(l_j):
        return False
    if l_i.vertex.same_node:
        return ri_incl_eq(l_i, l_j)
    return ri_incl_n(l_i, l_j)


def dominates(mode: str, l_i: Label, l_j: Label) -> bool:
    """Dispatch the active mode's relation on the labels' vertex kind."""
    if l_i.vertex != l_j.vertex:
        raise ValueError("labels at different vertices are not comparable")
    if mode == "prime":
        return leq_prime(l_i, l_j)
    if mode == "base":
        if l_i.vertex.same_node:
            return leq_eq(l_i, l_j)
        return leq_n(l_i, l_j)
    raise ValueError(f"unknown mode {mode!r}")
