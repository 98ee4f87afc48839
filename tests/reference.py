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
"""

from __future__ import annotations

import itertools

from ddpp.oracle import DEFAULT_PAIR_BUDGET, _feasible_routes
from ddpp.spectrum_core import Label, label_cost


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
    """Whether ``chain_network(weights)`` has a disjoint pair with each route
    costing at most ``limit``: some subset of the weights, the first
    route's, sums to s with ``sum(weights) - limit <= s <= limit``.  A
    bitset subset-sum DP, independent of the search: bit s of ``sums`` is
    set when some subset sums to s."""
    sums = 1
    for weight in weights:
        sums |= sums << weight
    return any(sums >> s & 1 for s in range(max(sum(weights) - limit, 0), limit + 1))
