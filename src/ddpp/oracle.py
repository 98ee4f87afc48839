"""Exhaustive reference solver: enumerate every link-disjoint trail pair.

This module exists to be obviously correct, not fast.  Spectrum
feasibility is evaluated unit by unit, deliberately independent of the
interval algebra the search relies on, so the two sides of every
comparison stay independent.  Routes are trails: a route may revisit a
node but never reuses a link, and the two routes of a pair share no link.

``compare`` runs the search in every applicable mode against the oracle,
checks each routed answer's legs unit by unit, and packages any
disagreement as a self-contained counterexample bundle for regression
replay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .net_model import Demand, Network, dump_demand, dump_network, validate_demand
from .search import SearchOptions, Solution, solve
from .spectrum_core import UnitInterval, _is_int

DEFAULT_PAIR_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def _link_units(link) -> set[int]:
    return {u for iv in link.available for u in range(iv.lo, iv.hi)}


def _check_trail(net: Network, route) -> None:
    if not route:
        raise ValueError("empty route")
    links = [net.links[link_id] for link_id in route]
    if len(links) == 1:
        return
    for start in dict.fromkeys(links[0].ends):
        here = start
        for link in links:
            if here not in link.ends:
                break
            here = link.other_end(here)
        else:
            return
    raise ValueError(f"disconnected sequence {list(route)!r}")


def route_intervals(net: Network, route, units: int) -> list[UnitInterval]:
    """Maximal intervals usable on every link of the route, width >= units.

    Computed unit by unit: intersect the links' available unit sets, then
    regroup consecutive units into maximal runs.
    """
    _check_trail(net, route)
    left = set(range(net.unit_count))
    for link_id in route:
        left &= _link_units(net.links[link_id])
    out: list[UnitInterval] = []
    run_start = None
    previous = None
    for u in sorted(left):
        if run_start is None:
            run_start = previous = u
            continue
        if u == previous + 1:
            previous = u
            continue
        if previous - run_start + 1 >= units:
            out.append(UnitInterval(run_start, previous + 1))
        run_start = previous = u
    if run_start is not None and previous - run_start + 1 >= units:
        out.append(UnitInterval(run_start, previous + 1))
    return out


@dataclass(frozen=True)
class RoutePair:
    route_a: tuple[int, ...]
    route_b: tuple[int, ...]
    cost_a: int
    cost_b: int
    intervals_a: tuple[UnitInterval, ...]
    intervals_b: tuple[UnitInterval, ...]

    def to_doc(self) -> dict:
        return {
            "route_a": {"links": list(self.route_a), "cost": self.cost_a,
                        "intervals": [iv.to_doc() for iv in self.intervals_a]},
            "route_b": {"links": list(self.route_b), "cost": self.cost_b,
                        "intervals": [iv.to_doc() for iv in self.intervals_b]},
        }


@dataclass(frozen=True)
class OracleResult:
    status: str
    min_cost: int | None
    witness: RoutePair | None
    pair_count: int

    @property
    def routed(self) -> bool:
        return self.status == "routed"

    def to_doc(self) -> dict:
        return {
            "status": self.status,
            "min_cost": self.min_cost,
            "pair_count": self.pair_count,
            "witness": self.witness.to_doc() if self.witness else None,
        }


def _enumerate_route_sets(net: Network, src: str, dst: str, cap: int) -> dict[int, tuple[int, ...]]:
    """All distinct link sets of trails from src to dst.

    Depth-first over links in id order, on an explicit stack so a trail may
    outgrow the recursion limit; two traversal orders of the same link set
    are the same route for cost and spectrum purposes, so only the
    first-found sequence is kept as the witness.  The trail walked so far
    is a cons list ``(last link id, rest)`` ending in ``None``, so a push
    costs O(1); it becomes a tuple only when a new link set reaches dst.
    """
    incidence = net.incidence
    found: dict[int, tuple[int, ...]] = {}
    # links pushed in reverse id order pop in id order: the recursive pre-order
    stack = [(src, 0, None)]
    while stack:
        node, mask, trail = stack.pop()
        if node == dst and trail is not None and mask not in found:
            sequence, cell = [], trail
            while cell is not None:
                link_id, cell = cell
                sequence.append(link_id)
            found[mask] = tuple(reversed(sequence))
            if len(found) > cap:
                raise BudgetExceeded(
                    f"trail enumeration exceeded the budget of {cap}"
                )
        for link in reversed(incidence[node]):
            bit = 1 << link.id
            if not mask & bit:
                stack.append((link.other_end(node), mask | bit, (link.id, trail)))
    return found


def oracle_solve(
    net: Network,
    demand: Demand,
    max_route_cost: int | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> OracleResult:
    """Exact minimum over all feasible link-disjoint trail pairs.

    A trail is feasible when it admits at least one interval of the
    demanded width and, if limited, costs at most max_route_cost.
    Unordered pairs are counted once.  Raises BudgetExceeded instead of
    ever truncating the enumeration, and ValueError on a limit that is not
    a non-negative integer or a budget that is not an integer >= 1.
    """
    validate_demand(net, demand)
    SearchOptions("base", max_route_cost)  # checks the limit as the search does
    if not _is_int(budget):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    route_sets = _enumerate_route_sets(net, demand.src, demand.dst, budget)
    feasible: list[tuple[int, tuple[int, ...], int, list[UnitInterval]]] = []
    for mask, sequence in route_sets.items():
        cost = sum(net.links[link_id].cost for link_id in sequence)
        if max_route_cost is not None and cost > max_route_cost:
            continue
        intervals = route_intervals(net, sequence, demand.units)
        if not intervals:
            continue
        feasible.append((mask, sequence, cost, intervals))

    candidate_pairs = len(feasible) * (len(feasible) - 1) // 2
    if candidate_pairs > budget:
        raise BudgetExceeded(
            f"{candidate_pairs} candidate route pairs exceed the budget of {budget}"
        )

    best_key = None
    best: RoutePair | None = None
    pair_count = 0
    for (mask_i, seq_i, cost_i, ivs_i), (mask_j, seq_j, cost_j, ivs_j) in (
        itertools.combinations(feasible, 2)
    ):
        if mask_i & mask_j:
            continue
        pair_count += 1
        first, second = sorted(
            ((seq_i, cost_i, ivs_i), (seq_j, cost_j, ivs_j)), key=lambda r: r[0]
        )
        key = (cost_i + cost_j, first[0], second[0])
        if best_key is None or key < best_key:
            best_key = key
            best = RoutePair(
                first[0], second[0], first[1], second[1],
                tuple(first[2]), tuple(second[2]),
            )
    if best is None:
        return OracleResult("blocked", None, None, 0)
    return OracleResult("routed", best_key[0], best, pair_count)


def _legs_hold(net: Network, demand: Demand, sol: Solution,
               max_route_cost: int | None) -> bool:
    """True when a routed answer is what it claims, checked unit by unit.

    Each leg is a trail from src to dst within any route-cost limit, and
    its slots, ``units`` wide, lie in one of ``route_intervals``, so they
    are free on every link of it; the legs share no link, and the answer's
    cost is the sum of their links' costs.
    """
    total = 0
    seen: set[int] = set()
    for leg in (sol.working, sol.protecting):
        nodes, links = leg.nodes, leg.links
        distinct = set(links)
        if (nodes[0] != demand.src or nodes[-1] != demand.dst
                or len(nodes) != len(links) + 1 or len(distinct) != len(links)
                or seen & distinct):
            return False
        seen |= distinct
        for here, there, link_id in zip(nodes, nodes[1:], links):
            if sorted(net.links[link_id].ends) != sorted((here, there)):
                return False
        slots = leg.slots
        if slots.hi - slots.lo != demand.units or not any(
            iv.lo <= slots.lo and slots.hi <= iv.hi
            for iv in route_intervals(net, links, demand.units)
        ):
            return False
        cost = sum(net.links[link_id].cost for link_id in links)
        if max_route_cost is not None and cost > max_route_cost:
            return False
        total += cost
    return total == sol.total_cost


@dataclass
class CompareReport:
    oracle: OracleResult
    solutions: dict[str, Solution]
    verdicts: dict[str, bool]
    matches: bool

    def to_doc(self) -> dict:
        return {
            "oracle": self.oracle.to_doc(),
            "solutions": {mode: sol.to_doc() for mode, sol in self.solutions.items()},
            "verdicts": self.verdicts,
            "matches": self.matches,
        }


def bundle_doc(net: Network, demand: Demand, report: CompareReport,
               max_route_cost: int | None = None) -> dict:
    """Self-contained counterexample document for regression replay."""
    return {
        "network": dump_network(net),
        "demand": dump_demand(demand),
        "max_route_cost": max_route_cost,
        "oracle": report.oracle.to_doc(),
        "solutions": {mode: sol.to_doc() for mode, sol in report.solutions.items()},
    }


def compare(
    net: Network,
    demand: Demand,
    max_route_cost: int | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> CompareReport:
    """Run the search against the oracle and report agreement per mode.

    Both relations are compared unless a route-cost limit is given, in
    which case only the trait-wise relation applies.  A mode agrees when
    it has the oracle's status and cost and, when routed, its legs pass
    the unit-by-unit check.
    """
    oracle_res = oracle_solve(net, demand, max_route_cost, budget)
    modes = ("base",) if max_route_cost is not None else ("base", "prime")
    solutions: dict[str, Solution] = {}
    verdicts: dict[str, bool] = {}
    for mode in modes:
        sol = solve(net, demand, SearchOptions(mode=mode, max_route_cost=max_route_cost))
        solutions[mode] = sol
        if oracle_res.routed:
            verdicts[mode] = (sol.routed and sol.total_cost == oracle_res.min_cost
                              and _legs_hold(net, demand, sol, max_route_cost))
        else:
            verdicts[mode] = not sol.routed
    return CompareReport(oracle_res, solutions, verdicts, all(verdicts.values()))
