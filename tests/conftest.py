"""Shared test helpers: independent brute-force oracles and checkers.

The helpers here deliberately avoid the interval algebra and dominance code
of the package under test wherever they serve as the expected side of a
comparison: spectrum feasibility is recomputed unit by unit and dominance
rechecked against the reference relations in ``reference.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from ddpp import Demand, Link, Network, Solution, UnitInterval
from ddpp.spectrum_core import normalize_intervals
from reference import dominates


def unit_runs(units: set[int], min_len: int) -> list[tuple[int, int]]:
    """Group a unit set into maximal runs of at least min_len, brute force."""
    runs: list[tuple[int, int]] = []
    for u in sorted(units):
        if runs and runs[-1][1] == u:
            runs[-1] = (runs[-1][0], u + 1)
        else:
            runs.append((u, u + 1))
    return [(lo, hi) for lo, hi in runs if hi - lo >= min_len]


def link_units(link: Link) -> set[int]:
    return {u for iv in link.available for u in range(iv.lo, iv.hi)}


def make_net(units: int, nodes: list[str], link_specs) -> Network:
    """Network from (end_a, end_b, cost, [(lo, hi), ...]) tuples."""
    links = tuple(
        Link(i, (a, b), cost, normalize_intervals(UnitInterval(lo, hi) for lo, hi in ivs))
        for i, (a, b, cost, ivs) in enumerate(link_specs)
    )
    return Network(units, tuple(nodes), links)


def assert_feasible(net: Network, demand: Demand, sol: Solution) -> None:
    """Full independent feasibility check of a routed solution."""
    assert sol.routed
    legs = (sol.working, sol.protecting)
    seen: set[int] = set()
    for leg in legs:
        assert leg.nodes[0] == demand.src and leg.nodes[-1] == demand.dst
        assert len(leg.links) == len(leg.nodes) - 1
        assert len(set(leg.links)) == len(leg.links), "route repeats a link"
        slot_units = set(range(leg.slots.lo, leg.slots.hi))
        assert len(slot_units) == demand.units
        for hop, link_id in enumerate(leg.links):
            link = net.links[link_id]
            assert leg.nodes[hop] in link.ends and leg.nodes[hop + 1] in link.ends
            assert slot_units <= link_units(link), "slots not available on link"
        assert not (seen & set(leg.links)), "routes share a link"
        seen |= set(leg.links)
    assert sol.total_cost == sum(net.links[l].cost for leg in legs for l in leg.links)


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
