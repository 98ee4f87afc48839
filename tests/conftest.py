"""Shared test helpers: hand-made networks, brute-force unit sets, and a
reference usable-link view with its distances to the destination.

The helpers here deliberately avoid the interval algebra of the package
under test: free spectrum is regrouped unit by unit.  A routed answer is
checked with ``ddpp.check_solution``, and dominance against the reference
relations and efficient set in ``reference.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from ddpp import Link, Network, UnitInterval
from ddpp.spectrum_core import normalize_intervals


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


def usable(link: Link, units: int) -> bool:
    """A link a route may cross: it joins two nodes and has a free run
    ``units`` wide."""
    return link.ends[0] != link.ends[1] and any(iv.hi - iv.lo >= units
                                                for iv in link.available)


def make_net(units: int, nodes: list[str], link_specs) -> Network:
    """Network from (end_a, end_b, cost, [(lo, hi), ...]) tuples."""
    links = tuple(
        Link(i, (a, b), cost, normalize_intervals(UnitInterval(lo, hi) for lo, hi in ivs))
        for i, (a, b, cost, ivs) in enumerate(link_specs)
    )
    return Network(units, tuple(nodes), links)


def fan_network(unit_count: int, units: int) -> Network:
    """Nodes s, a, b and d.  For every interval at least ``units`` wide, one
    s-a and one s-b link are free on exactly that interval, at cost
    ``hi - lo``; the a-d and b-d links cost 0 and are fully free.  A wider
    interval costs more, so no two labels at (a, b) are comparable."""
    spans = [(lo, hi) for lo in range(unit_count)
             for hi in range(lo + units, unit_count + 1)]
    specs = [("s", mid, hi - lo, [(lo, hi)]) for mid in ("a", "b") for lo, hi in spans]
    specs += [(mid, "d", 0, [(0, unit_count)]) for mid in ("a", "b")]
    return make_net(unit_count, ["s", "a", "b", "d"], specs)


def chain_network(weights) -> Network:
    """A chain c0 ... cn with one 1-unit segment per weight: segment i gets
    a cost-0 link and a cost-``weights[i]`` link, all free.  Every disjoint
    pair splits the weighted links between its routes, so it costs
    ``sum(weights)``; ``lobe_network`` is the chain of powers of two."""
    nodes = [f"c{i}" for i in range(len(weights) + 1)]
    specs = [(nodes[i], nodes[i + 1], cost, [(0, 1)])
             for i, weight in enumerate(weights) for cost in (0, weight)]
    return make_net(1, nodes, specs)


def peeled_view(net, demand):
    """The usable links left after peeling dead ends, to a fixpoint: while a
    node other than the demand's ends has fewer than two distinct
    neighbours over the links left, its links are dropped."""
    links = [link for link in net.links if usable(link, demand.units)]
    ends = (demand.src, demand.dst)
    while True:
        dead = {node for node in net.nodes if node not in ends
                and len({l.other_end(node) for l in links if node in l.ends}) < 2}
        left = [link for link in links if not dead & set(link.ends)]
        if left == links:
            return links
        links = left


def view_distances(net, links, dst):
    """Bellman-Ford over the given links."""
    dist = {dst: 0}
    for _ in net.nodes:
        for link in links:
            for here, there in (link.ends, link.ends[::-1]):
                if there in dist:
                    via = dist[there] + link.cost
                    if here not in dist or via < dist[here]:
                        dist[here] = via
    return dist
