"""Network model: validated topology, documents, and instance generators.

A network is an undirected multigraph.  Each link carries a non-negative
integer cost and, out of ``unit_count`` frequency-slot units, the subset
still available, stored canonically as sorted, disjoint, non-adjacent
half-open intervals.  Parallel links between the same node pair are
allowed and distinguished by link id; link-disjointness everywhere in this
package means distinct link ids.

The document format (see ``load_network``/``dump_network``) is the
cross-tool interface:

    {"units": 8,
     "nodes": ["a", "b"],
     "links": [{"id": 0, "ends": ["a", "b"], "cost": 100,
                "available": [[0, 4], [6, 8]]}]}

Costs are integers by design: comparisons stay exact and tie-breaking
deterministic.  Scale real lengths before writing documents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from .spectrum_core import UnitInterval, normalize_intervals


class NetworkError(ValueError):
    """A network document or value violates the model invariants."""


@dataclass(frozen=True, slots=True)
class Link:
    id: int
    ends: tuple[str, str]
    cost: int
    available: tuple[UnitInterval, ...]

    def touches(self, node: str) -> bool:
        return node in self.ends

    def other_end(self, node: str) -> str:
        if node == self.ends[0]:
            return self.ends[1]
        if node == self.ends[1]:
            return self.ends[0]
        raise ValueError(f"node {node!r} is not an endpoint of link {self.id}")


@dataclass(frozen=True)
class Network:
    """Immutable validated network; safe to share between threads."""

    unit_count: int
    nodes: tuple[str, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        _validate(self)

    @cached_property
    def _incidence(self) -> dict[str, tuple[Link, ...]]:
        table: dict[str, list[Link]] = {node: [] for node in self.nodes}
        for link in self.links:
            table[link.ends[0]].append(link)
            if link.ends[1] != link.ends[0]:
                table[link.ends[1]].append(link)
        return {node: tuple(links) for node, links in table.items()}


def _validate(net: Network) -> None:
    if net.unit_count < 1:
        raise NetworkError(f"unit count must be positive, got {net.unit_count}")
    if not net.nodes:
        raise NetworkError("network has no nodes")
    if len(set(net.nodes)) != len(net.nodes):
        raise NetworkError("duplicate node identifiers")
    node_set = set(net.nodes)
    for index, link in enumerate(net.links):
        if link.id != index:
            raise NetworkError(
                f"link ids must be dense 0..{len(net.links) - 1}; "
                f"position {index} holds id {link.id}"
            )
        for end in link.ends:
            if end not in node_set:
                raise NetworkError(f"link {link.id} references unknown node {end!r}")
        if link.cost < 0:
            raise NetworkError(f"link {link.id} has negative cost {link.cost}")
        previous_hi = None
        for iv in link.available:
            if iv.hi > net.unit_count:
                raise NetworkError(
                    f"interval [{iv.lo}, {iv.hi}) exceeds unit count "
                    f"{net.unit_count} on link {link.id}"
                )
            if previous_hi is not None and iv.lo <= previous_hi:
                raise NetworkError(
                    f"intervals on link {link.id} are not maximal disjoint"
                )
            previous_hi = iv.hi


@dataclass(frozen=True, slots=True)
class Demand:
    """A request for two link-disjoint routes carrying the same units count."""

    src: str
    dst: str
    units: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"demand endpoints must differ, got {self.src!r} twice")
        if self.units < 1:
            raise ValueError(f"demanded units must be positive, got {self.units}")


def validate_demand(net: Network, demand: Demand) -> None:
    """Check a demand against a concrete network."""
    for node in (demand.src, demand.dst):
        if node not in net._incidence:
            raise NetworkError(f"demand references unknown node {node!r}")
    if demand.units > net.unit_count:
        raise ValueError(
            f"demanded units {demand.units} exceed unit count {net.unit_count}"
        )


def incident_links(net: Network, node: str) -> list[Link]:
    """All links with the node as an endpoint, ordered by link id."""
    try:
        return list(net._incidence[node])
    except KeyError:
        raise NetworkError(f"unknown node {node!r}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise NetworkError(message)


def load_network(doc: dict) -> Network:
    """Build a validated Network from its document.

    Interval lists are normalized to the maximal disjoint form, so
    touching or overlapping input intervals are merged.  Every violation
    is reported with the offending element.  This checks the document's
    shape and types; the model invariants (known link ends, non-negative
    costs, intervals within the unit count, dense link ids, distinct
    nodes) are left to ``Network``'s own validation.
    """
    _require(isinstance(doc, dict), "network document must be an object")
    _require("units" in doc, "network document lacks 'units'")
    _require("nodes" in doc, "network document lacks 'nodes'")
    _require("links" in doc, "network document lacks 'links'")
    units = doc["units"]
    _require(isinstance(units, int) and not isinstance(units, bool) and units >= 1,
             f"'units' must be a positive integer, got {units!r}")
    nodes = doc["nodes"]
    _require(isinstance(nodes, list) and nodes, "'nodes' must be a non-empty list")
    for node in nodes:
        _require(isinstance(node, str), f"node identifier {node!r} is not a string")

    raw_links = doc["links"]
    _require(isinstance(raw_links, list), "'links' must be a list")
    seen_ids: set[int] = set()
    links: list[Link] = []
    for entry in raw_links:
        _require(isinstance(entry, dict), f"link entry {entry!r} is not an object")
        for key in ("id", "ends", "cost", "available"):
            _require(key in entry, f"link entry lacks {key!r}: {entry!r}")
        link_id = entry["id"]
        _require(isinstance(link_id, int) and not isinstance(link_id, bool),
                 f"link id {link_id!r} is not an integer")
        _require(link_id not in seen_ids, f"duplicate link id {link_id}")
        seen_ids.add(link_id)
        ends = entry["ends"]
        _require(isinstance(ends, list) and len(ends) == 2,
                 f"link {link_id}: 'ends' must name two nodes")
        for end in ends:
            _require(isinstance(end, str), f"link {link_id} references unknown node {end!r}")
        cost = entry["cost"]
        _require(isinstance(cost, int) and not isinstance(cost, bool),
                 f"link {link_id}: cost must be an integer, got {cost!r}")
        _require(isinstance(entry["available"], list),
                 f"link {link_id}: 'available' must be a list of [lo, hi] pairs")
        intervals = []
        for pair in entry["available"]:
            _require(isinstance(pair, list) and len(pair) == 2
                     and all(isinstance(v, int) and not isinstance(v, bool) for v in pair),
                     f"link {link_id}: interval {pair!r} must be [lo, hi]")
            lo, hi = pair
            # checked here, not left to Network: UnitInterval would raise a
            # plain ValueError, not NetworkError
            _require(lo >= 0 and lo < hi,
                     f"link {link_id}: malformed interval [{lo}, {hi})")
            intervals.append(UnitInterval(lo, hi))
        links.append(Link(link_id, (ends[0], ends[1]), cost,
                          normalize_intervals(intervals)))

    links.sort(key=lambda l: l.id)
    return Network(units, tuple(nodes), tuple(links))


def dump_network(net: Network) -> dict:
    """Canonical document for a network; inverse of load_network."""
    return {
        "units": net.unit_count,
        "nodes": list(net.nodes),
        "links": [
            {
                "id": link.id,
                "ends": [link.ends[0], link.ends[1]],
                "cost": link.cost,
                "available": [iv.to_doc() for iv in link.available],
            }
            for link in net.links
        ],
    }


def load_demand(doc: dict) -> Demand:
    _require(isinstance(doc, dict), "demand document must be an object")
    for key in ("src", "dst", "units"):
        _require(key in doc, f"demand document lacks {key!r}")
    for key in ("src", "dst"):
        _require(isinstance(doc[key], str), f"demand {key} {doc[key]!r} is not a string")
    units = doc["units"]
    _require(isinstance(units, int) and not isinstance(units, bool),
             f"demand units {units!r} is not an integer")
    try:
        return Demand(doc["src"], doc["dst"], units)
    except ValueError as exc:
        raise NetworkError(str(exc)) from exc


def dump_demand(demand: Demand) -> dict:
    return {"src": demand.src, "dst": demand.dst, "units": demand.units}


def lobe_network(m: int, unit_count: int) -> Network:
    """Chain of m+1 segments, each with a cost-0 and a cost-2^i parallel link.

    The generated instance is the worst case for trait-wise pruning: the
    two disjoint routes split the segment costs between them, producing a
    distinct incomparable cost pair for every split.  All units are
    available on every link, and every disjoint pair costs 2^(m+1) - 1,
    the sum of all the power-of-two links.
    """
    if m < 1:
        raise ValueError(f"segment parameter must be >= 1, got {m}")
    if unit_count < 1:
        raise ValueError(f"unit count must be >= 1, got {unit_count}")
    chain = ["n_s"] + [f"n_{i}" for i in range(1, m + 1)] + ["n_x"]
    full = (UnitInterval(0, unit_count),)
    links = []
    for i in range(m + 1):
        ends = (chain[i], chain[i + 1])
        links.append(Link(2 * i, ends, 0, full))
        links.append(Link(2 * i + 1, ends, 2**i, full))
    return Network(unit_count, tuple(chain), tuple(links))


def random_network(
    n: int, avg_degree: float, unit_count: int, fill: float, seed: int
) -> Network:
    """Connected random instance for desk-scale oracle testing.

    A random spanning tree guarantees connectivity; extra links between
    distinct, not-yet-linked node pairs raise the link count to
    round(avg_degree * n / 2).  Costs are uniform integers in [1, 100] and
    each unit of each link is available independently with probability
    ``fill``.  Deterministic for a fixed seed.
    """
    if n < 2:
        raise NetworkError(f"need at least 2 nodes, got {n}")
    if not 0.0 <= fill <= 1.0:
        raise NetworkError(f"fill must be within [0, 1], got {fill}")
    if unit_count < 1:
        raise NetworkError(f"unit count must be >= 1, got {unit_count}")
    if not math.isfinite(avg_degree):
        raise NetworkError(f"avg_degree must be finite, got {avg_degree}")
    target = int(round(avg_degree * n / 2))
    max_links = n * (n - 1) // 2
    if target < n - 1 or target > max_links:
        raise NetworkError(
            f"unsatisfiable degree request: avg_degree={avg_degree} asks for "
            f"{target} links, feasible range is [{n - 1}, {max_links}]"
        )
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges: list[tuple[str, str]] = []
    taken: set[frozenset[str]] = set()
    for i in range(1, n):
        other = rng.choice(order[:i])
        edges.append((order[i], other))
        taken.add(frozenset((order[i], other)))
    spare = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if frozenset((names[i], names[j])) not in taken
    ]
    rng.shuffle(spare)
    edges.extend(spare[: target - (n - 1)])

    links = []
    for link_id, ends in enumerate(edges):
        cost = rng.randint(1, 100)
        free = [u for u in range(unit_count) if rng.random() < fill]
        links.append(
            Link(link_id, ends, cost, normalize_intervals((u, u + 1) for u in free))
        )
    return Network(unit_count, tuple(names), tuple(links))
