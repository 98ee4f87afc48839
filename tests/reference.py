"""Reference dominance relations: the model the efficient set is checked against.

The search's only dominance implementation is ``ddpp.search.EfficientSet``,
which compares bucketed costs and interval keys.  The functions here state
each relation directly on traits and labels, one comparison at a time, so
the tests can compare the set with them, as they compare answers with the
oracle.  ``EfficientSet``'s docstring says which relation each mode uses.
``NaiveEfficientSet`` keeps an antichain with nothing but these relations,
and ``efficient_front`` builds from it the destination set an
``enumerate_all`` search must find.  ``partition_routable`` decides a
limited chain instance by subset sums, with no search at all.
``reference_expand`` is ``PairSearch.expand`` as one ``label_extend`` per
link (the ``search`` module docstring says why it is kept).  The
dominance-preservation properties draw labels with ``random_trait`` and
derive them with ``extend_both_sides``.
"""

from __future__ import annotations

import itertools

from ddpp.oracle import DEFAULT_PAIR_BUDGET, _feasible_routes
from ddpp.spectrum_core import Label, label_cost, label_extend


def trait_leq(t_i: tuple, t_j: tuple) -> bool:
    """True when t_i is better than or equal to t_j.

    Better means no more expensive and offering at least the same units.
    The relation is a preorder: reflexive and transitive, but two traits
    can be incomparable.
    """
    return t_i[0] <= t_j[0] and _holds(t_i, t_j)


def _holds(t_i: tuple, t_j: tuple) -> bool:
    """True when t_i's interval contains t_j's."""
    return t_i[1] <= t_j[1] and t_j[2] <= t_i[2]


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
    return _holds(l_i.trait_a, l_j.trait_a) and _holds(l_i.trait_b, l_j.trait_b)


def ri_incl_x(l_i: Label, l_j: Label) -> bool:
    """Slot-swapped interval containment."""
    return _holds(l_i.trait_a, l_j.trait_b) and _holds(l_i.trait_b, l_j.trait_a)


def ri_incl_eq(l_i: Label, l_j: Label) -> bool:
    """Effective same-node interval containment: aligned or swapped."""
    return ri_incl_n(l_i, l_j) or ri_incl_x(l_i, l_j)


def leq_prime(l_i: Label, l_j: Label) -> bool:
    """Cost-sum comparison: lower label cost and containing intervals."""
    if l_i.vertex != l_j.vertex:
        raise ValueError("labels at different vertices are not comparable")
    if label_cost(l_i) > label_cost(l_j):
        return False
    if l_i.vertex[0] == l_i.vertex[1]:
        return ri_incl_eq(l_i, l_j)
    return ri_incl_n(l_i, l_j)


def dominates(mode: str, l_i: Label, l_j: Label) -> bool:
    """Dispatch the active mode's relation on the labels' vertex kind."""
    if l_i.vertex != l_j.vertex:
        raise ValueError("labels at different vertices are not comparable")
    if mode == "prime":
        return leq_prime(l_i, l_j)
    if mode == "base":
        if l_i.vertex[0] == l_i.vertex[1]:
            return leq_eq(l_i, l_j)
        return leq_n(l_i, l_j)
    raise ValueError(f"unknown mode {mode!r}")


class NaiveEfficientSet:
    """Reference efficient-set behavior built directly on the relations."""

    def __init__(self, mode: str):
        self.mode = mode
        self.members = []

    def insert(self, label) -> tuple[bool, int]:
        for member in self.members:
            if dominates(self.mode, member, label):
                return False, 0
        survivors = []
        removed = 0
        for member in self.members:
            if dominates(self.mode, label, member):
                removed += 1
            else:
                survivors.append(member)
        survivors.append(label)
        self.members = survivors
        return True, removed


def efficient_front(net, demand, mode: str, max_route_cost: int | None = None) -> list[Label]:
    """The undominated destination labels of every feasible route pair.

    Each pair of link-disjoint trails within the limit, and each choice of
    one free interval on each, is one label at the destination; the oracle
    enumerates the trails and recomputes their intervals unit by unit.
    Cheapest labels go in first, so few are evicted again.
    """
    routes = _feasible_routes(net, demand, max_route_cost, DEFAULT_PAIR_BUDGET)
    labels = [
        Label((cost_a, ia.lo, ia.hi), (cost_b, ib.lo, ib.hi), (demand.dst, demand.dst))
        for (mask_a, _, cost_a, ivs_a), (mask_b, _, cost_b, ivs_b)
        in itertools.combinations(routes, 2)
        if not mask_a & mask_b
        for ia, ib in itertools.product(ivs_a, ivs_b)
    ]
    front = NaiveEfficientSet(mode)
    for label in sorted(labels, key=label_cost):
        front.insert(label)
    return front.members


def partition_routable(weights, limit: int) -> bool:
    """Whether ``ddpp.chain_network(weights, units)`` has a disjoint pair
    with each route costing at most ``limit``: some subset of the weights,
    the first route's, sums to s with ``sum(weights) - limit <= s <=
    limit``.  A bitset subset-sum DP, independent of the search: bit s of
    ``sums`` is set when some subset sums to s."""
    sums = 1
    for weight in weights:
        sums |= sums << weight
    return any(sums >> s & 1 for s in range(max(sum(weights) - limit, 0), limit + 1))


def random_trait(rng, units: int, unit_count: int = 8) -> tuple:
    """A trait with a random cost in 0..20 and a random interval at least
    ``units`` wide within ``unit_count`` units."""
    lo = rng.randint(0, unit_count - units)
    hi = rng.randint(lo + units, unit_count)
    return (rng.randint(0, 20), lo, hi)


def extend_both_sides(label: Label, link, units: int) -> list[Label]:
    """All candidates one appended link can produce from a label.

    Both routes are extended, also at same-node vertices: the covering
    counterpart of a cross-dominated label's extension lives on the other
    slot, so the derivation set of the propositions spans both sides.  The
    label's routes are taken not to use the link.
    """
    out = []
    for side, node in zip("ab", label.vertex):
        if node in link.ends:
            out += label_extend(label, link, link.other_end(node), side, units)
    return out


def reference_expand(search, label: Label) -> list[Label]:
    """``PairSearch.expand`` as ``label_extend`` steps: the same link tests
    over ``search``'s view, ``h``, route-cost limit and pair bound, and one
    ``label_extend`` per link that passes them."""
    out: list[Label] = []
    a, b = label.vertex
    used = label.links_a | label.links_b
    limit, bound, h = search.opts.max_route_cost, search._bound, search._h
    cost_a, cost_b = label.trait_a[0], label.trait_b[0]
    sides = [("a", a, cost_a, label.links_a, b)]
    if a != b:
        sides.append(("b", b, cost_b, label.links_b, a))
    for side, node, spent, route, kept in sides:
        if node == search.demand.dst:
            continue
        cap = None if limit is None else limit - spent
        if bound is not None:
            room = bound - cost_a - cost_b - h[kept]
            if cap is None or room < cap:
                cap = room
        for link, bit, far, shadow in search._view[node]:
            if used & bit or shadow & ~used or route & search._touching[far]:
                continue
            if cap is not None and link.cost + h[far] > cap:
                continue
            out += label_extend(label, link, far, side, search.demand.units)
    return out
