"""Shared test helpers: hand-made networks, brute-force unit sets, and a
reference usable-link view with its distances to the destination.  The
closed-form families (``ddpp.chain_network``, ``ddpp.lobe_network`` and
``ddpp.fan_network``) are product builders; tests import them from ``ddpp``.

The helpers here deliberately avoid the interval algebra of the package
under test: free spectrum is regrouped unit by unit.  A routed answer is
checked with ``ddpp.check_solution``, and dominance against the reference
relations and efficient set in ``reference.py``.

Every property test runs under one Hypothesis profile, loaded here: a
derandomized example set, so a run is repeatable, and no deadline, since
a wall-clock limit can fail an example on a loaded machine when nothing
is wrong.  Each test's ``@settings`` names only its example and step
counts.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings

from ddpp import Link, Network, UnitInterval
from ddpp.spectrum_core import normalize_intervals

settings.register_profile("ddpp", derandomize=True, deadline=None)
settings.load_profile("ddpp")


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


def narrow_partner_network() -> Network:
    """Nodes s, a, m, b and t over 4 units.  The cheapest s-t pair is
    s-a-t, fully free, and s-m-t, whose two links share only one free
    unit, [2, 3), so a 2-unit demand s -> t must take s-b-t: routed at
    cost 11."""
    full = [(0, 4)]
    return make_net(4, ["s", "a", "m", "b", "t"],
                    [("s", "a", 0, full), ("a", "t", 1, full), ("s", "m", 1, [(0, 3)]),
                     ("m", "t", 1, [(2, 4)]), ("s", "b", 5, full), ("b", "t", 5, full)])


def reach_limit_trap() -> Network:
    """Nodes s, a, b, c and t over 1 unit, all free.  Unlimited, a 1-unit
    demand s -> t costs 10: s-a-t (1) and s-t (9).  Under a route-cost
    limit of 8 the direct link is out, and it costs 13: s-a-b-t (6) and
    s-c-a-t (7)."""
    full = [(0, 1)]
    return make_net(1, ["s", "a", "b", "c", "t"],
                    [("s", "a", 0, full), ("a", "t", 1, full), ("a", "b", 3, full),
                     ("b", "t", 3, full), ("s", "c", 3, full), ("c", "a", 3, full),
                     ("s", "t", 9, full)])


def second_leg_trap() -> Network:
    """Nodes s, a, b, c, d and t over 4 units.  The shortest route
    s-b-a-c-t (3) and its partner s-a-b-t cross a-b both ways, so the
    cheapest pair is s-a-c-t (4), walked first, and s-b-t (10), walked
    second.  A 1-unit demand s -> t costs 14 on that pair.  Under a
    route-cost limit of 9, s-b-t is out, and it costs 16: s-b-a-c-d-t (7)
    and s-a-c-t over the dearer a-c link (9).  s-b and b-t share only unit
    2, so a 2-unit demand cannot take s-b-t either, and costs 16:
    s-b-a-c-t (3) and s-a-c-d-t over the dearer a-c link (13)."""
    full = [(0, 4)]
    return make_net(4, ["s", "a", "b", "c", "d", "t"],
                    [("s", "b", 1, [(0, 3)]), ("a", "b", 0, full), ("a", "c", 1, full),
                     ("c", "t", 1, full), ("s", "a", 2, full), ("b", "t", 9, [(2, 4)]),
                     ("a", "c", 6, full), ("c", "d", 2, full), ("d", "t", 3, full)])


def suurballe_trap(direct: bool = True) -> Network:
    """Nodes s, a, b and t over 1 unit, all free: s-a, a-b and b-t cost 1,
    s-b and a-t cost 3, and with ``direct`` an s-t link costs 10.  The
    cheapest route s-a-b-t leaves no partner but s-t (13 together, none
    without it); a 1-unit demand s -> t costs 8, s-a-t and s-b-t."""
    full = [(0, 1)]
    specs = [("s", "a", 1, full), ("a", "b", 1, full), ("b", "t", 1, full),
             ("s", "b", 3, full), ("a", "t", 3, full)]
    if direct:
        specs.append(("s", "t", 10, full))
    return make_net(1, ["s", "a", "b", "t"], specs)


def bridged_triangles() -> Network:
    """Two triangles, s-a-b and c-d-t, joined by the one bridge b-c, over
    2 units, all free and every link at cost 1.  Every s-t route crosses
    the bridge, so a demand s -> t is blocked by topology: no two
    link-disjoint routes exist."""
    full = [(0, 2)]
    return make_net(2, ["s", "a", "b", "c", "d", "t"],
                    [("s", "a", 1, full), ("a", "b", 1, full), ("b", "s", 1, full),
                     ("b", "c", 1, full), ("c", "d", 1, full), ("d", "t", 1, full),
                     ("t", "c", 1, full)])


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
