"""Exhaustive reference solver: enumerate every link-disjoint trail pair.

This module exists to be obviously correct, not fast.  Spectrum
feasibility is evaluated unit by unit, deliberately independent of the
interval algebra the search relies on, so the two sides of every
comparison stay independent: ``_free_units`` lists the units free on
every link of a route and ``_runs`` regroups them into maximal runs.
Routes are trails: a route may revisit a node but never reuses a link,
and the two routes of a pair share no link.

``check_solution`` is the one check of an answer's legs, which must be
paths; ``compare`` and the tests call it.  ``compare`` runs the search in
every applicable mode against the oracle and packages any disagreement as
a self-contained counterexample bundle for regression replay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .net_model import Demand, Network, dump_demand, dump_network, validate_demand
from .search import SearchOptions, Solution, solve
from .spectrum_core import UnitInterval, _require_int

DEFAULT_PAIR_BUDGET = 1_000_000


class BudgetExceeded(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


def _free_units(net: Network, link_ids) -> set[int]:
    """The units free on every one of the links, listed unit by unit."""
    return set.intersection(*({u for iv in net.links[i].available for u in range(iv.lo, iv.hi)}
                              for i in link_ids))


def _runs(units, width: int) -> tuple[UnitInterval, ...]:
    """The maximal runs of consecutive units at least ``width`` wide."""
    runs: list[list[int]] = []
    for u in sorted(units):
        if runs and runs[-1][1] == u:
            runs[-1][1] = u + 1
        else:
            runs.append([u, u + 1])
    return tuple(UnitInterval(lo, hi) for lo, hi in runs if hi - lo >= width)


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
    Each node's links are listed in id order, a self-loop once.  That
    pre-order visits trails in ascending order of their link sequences and
    the dict keeps first-found order, so its values come in ascending order.
    """
    incidence: dict[str, list] = {node: [] for node in net.nodes}
    for link in net.links:
        for end in dict.fromkeys(link.ends):
            incidence[end].append(link)
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


def _feasible_routes(net: Network, demand: Demand, max_route_cost: int | None,
                     cap: int) -> list[tuple[int, tuple[int, ...], int, tuple[UnitInterval, ...]]]:
    """Each feasible trail, as ``oracle_solve`` defines it, as ``(link mask,
    link sequence, cost, intervals of the demanded width)``, in ascending
    order of link sequence; more than ``cap`` link sets raise
    BudgetExceeded."""
    feasible = []
    for mask, sequence in _enumerate_route_sets(net, demand.src, demand.dst, cap).items():
        cost = sum(net.links[link_id].cost for link_id in sequence)
        if max_route_cost is None or cost <= max_route_cost:
            intervals = _runs(_free_units(net, sequence), demand.units)
            if intervals:
                feasible.append((mask, sequence, cost, intervals))
    return feasible


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
    _require_int("budget", budget, 1)
    feasible = _feasible_routes(net, demand, max_route_cost, budget)
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
        key = (cost_i + cost_j, seq_i, seq_j)  # seq_i < seq_j: feasible is ascending
        if best_key is None or key < best_key:
            best_key = key
            best = RoutePair(seq_i, seq_j, cost_i, cost_j, ivs_i, ivs_j)
    if best is None:
        return OracleResult("blocked", None, None, 0)
    return OracleResult("routed", best_key[0], best, pair_count)


def check_solution(net: Network, demand: Demand, sol: Solution,
                   max_route_cost: int | None = None) -> list[str]:
    """What is wrong with an answer, one string per fault; [] for a blocked one.

    Checked from the network data unit by unit: each leg's links, walked
    from src, visit exactly its nodes, no node twice, and end at dst; its
    slots are ``units`` wide and free on every one of its links; it costs
    at most any route-cost limit.  The legs share no link, and the answer's
    cost is the sum of their links' costs.
    """
    if not sol.routed:
        return []
    problems: list[str] = []
    costs = []
    for name, leg in (("working", sol.working), ("protecting", sol.protecting)):
        walked = [demand.src]
        for link_id in leg.links:
            if not 0 <= link_id < len(net.links) or walked[-1] not in net.links[link_id].ends:
                break
            walked.append(net.links[link_id].other_end(walked[-1]))
        if (walked != list(leg.nodes) or len(walked) != len(leg.links) + 1
                or walked[-1] != demand.dst):
            problems.append(f"{name} links {leg.links} do not walk {leg.nodes} "
                            f"from {demand.src!r} to {demand.dst!r}")
            continue
        if len(set(walked)) != len(walked):
            problems.append(f"{name} route {leg.nodes} repeats a node")
        slots = range(leg.slots.lo, leg.slots.hi)
        if len(slots) != demand.units:
            problems.append(f"{name} slots {leg.slots.to_doc()} are not {demand.units} wide")
        if not _free_units(net, leg.links) >= set(slots):
            problems.append(f"{name} slots {leg.slots.to_doc()} are not free on every link")
        costs.append(sum(net.links[i].cost for i in leg.links))
        if max_route_cost is not None and costs[-1] > max_route_cost:
            problems.append(f"{name} route costs {costs[-1]}, over the limit {max_route_cost}")
    if set(sol.working.links) & set(sol.protecting.links):
        problems.append("the routes share a link")
    if len(costs) == 2 and sum(costs) != sol.total_cost:
        problems.append(f"cost {sol.total_cost} is not the link-cost sum {sum(costs)}")
    return problems


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
    return {"network": dump_network(net), "demand": dump_demand(demand),
            "max_route_cost": max_route_cost, **report.to_doc()}


def compare(
    net: Network,
    demand: Demand,
    max_route_cost: int | None = None,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> CompareReport:
    """Run the search against the oracle and report agreement per mode.

    Both relations are compared unless a route-cost limit is given, in
    which case only the trait-wise relation applies.  A mode agrees when
    it has the oracle's status and cost and ``check_solution`` finds no
    fault in its answer.
    """
    oracle_res = oracle_solve(net, demand, max_route_cost, budget)
    modes = ("base",) if max_route_cost is not None else ("base", "prime")
    solutions: dict[str, Solution] = {}
    verdicts: dict[str, bool] = {}
    for mode in modes:
        sol = solve(net, demand, SearchOptions(mode=mode, max_route_cost=max_route_cost))
        solutions[mode] = sol
        verdicts[mode] = ((sol.status, sol.total_cost)
                          == (oracle_res.status, oracle_res.min_cost)
                          and not check_solution(net, demand, sol, max_route_cost))
    return CompareReport(oracle_res, solutions, verdicts, all(verdicts.values()))
