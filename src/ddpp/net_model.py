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

from .spectrum_core import UnitInterval, _is_int, _require_int, normalize_intervals


class NetworkError(ValueError):
    """A network document or value violates the model invariants."""


@dataclass(frozen=True, slots=True)
class Link:
    id: int
    ends: tuple[str, str]
    cost: int
    available: tuple[UnitInterval, ...]

    def other_end(self, node: str) -> str:
        if node == self.ends[0]:
            return self.ends[1]
        if node == self.ends[1]:
            return self.ends[0]
        raise ValueError(f"link {self.id} is not incident to node {node!r}")


@dataclass(frozen=True)
class Network:
    """Immutable validated network; safe to share between threads.  ``nodes``,
    ``links`` and each link's ``available`` are tuples, so none can change."""

    unit_count: int
    nodes: tuple[str, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        _validate(self)


def _validate(net: Network) -> None:
    # `type(v) is int or _is_int(v)` equals `_is_int(v)`; the first test
    # spares the call for the plain ints every real network holds
    units = net.unit_count
    if not _is_int(units) or units < 1:
        raise NetworkError(f"'units' must be a positive integer, got {units!r}")
    nodes = net.nodes
    if type(nodes) is not tuple:
        raise NetworkError("'nodes' must be a tuple of node identifiers")
    if not nodes:
        raise NetworkError("network has no nodes")
    for node in nodes:
        if not isinstance(node, str):
            raise NetworkError(f"node identifier {node!r} is not a string")
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise NetworkError("duplicate node identifiers")
    if type(net.links) is not tuple:
        raise NetworkError("'links' must be a tuple of Link")
    for index, link in enumerate(net.links):
        link_id = link.id
        if not (type(link_id) is int or _is_int(link_id)):
            raise NetworkError(f"link id {link_id!r} is not an integer")
        if link_id != index:
            raise NetworkError(
                f"link ids must be dense 0..{len(net.links) - 1}; "
                f"position {index} holds id {link_id}"
            )
        if not (isinstance(link.ends, tuple) and len(link.ends) == 2):
            raise NetworkError(f"link {link_id}: 'ends' must name two nodes")
        for end in link.ends:
            if not (isinstance(end, str) and end in node_set):
                raise NetworkError(f"link {link_id} references unknown node {end!r}")
        cost = link.cost
        if not (type(cost) is int or _is_int(cost)):
            raise NetworkError(f"link {link_id}: cost must be an integer, got {cost!r}")
        if cost < 0:
            raise NetworkError(f"link {link_id} has negative cost {cost}")
        available = link.available
        if type(available) is not tuple:
            raise NetworkError(f"link {link_id}: 'available' must be a tuple of UnitInterval")
        previous_hi = None
        for iv in available:
            if type(iv) is not UnitInterval:
                raise NetworkError(f"link {link_id}: interval {iv!r} must be a UnitInterval")
            if iv.hi > units:
                raise NetworkError(
                    f"interval [{iv.lo}, {iv.hi}) exceeds unit count {units} on link {link_id}"
                )
            if previous_hi is not None and iv.lo <= previous_hi:
                raise NetworkError(f"intervals on link {link_id} are not maximal disjoint")
            previous_hi = iv.hi


@dataclass(frozen=True, slots=True)
class Demand:
    """A request for two link-disjoint routes carrying the same units count."""

    src: str
    dst: str
    units: int

    def __post_init__(self) -> None:
        for key, node in (("src", self.src), ("dst", self.dst)):
            if not isinstance(node, str):
                raise ValueError(f"demand {key} {node!r} is not a string")
        if self.src == self.dst:
            raise ValueError(f"demand endpoints must differ, got {self.src!r} twice")
        if not _is_int(self.units):
            raise ValueError(f"demand units {self.units!r} is not an integer")
        if self.units < 1:
            raise ValueError(f"demanded units must be positive, got {self.units}")


def validate_demand(net: Network, demand: Demand) -> None:
    """Check a demand against a concrete network."""
    for node in (demand.src, demand.dst):
        if node not in net.nodes:
            raise NetworkError(f"demand references unknown node {node!r}")
    if demand.units > net.unit_count:
        raise ValueError(
            f"demanded units {demand.units} exceed unit count {net.unit_count}"
        )


def _is_number(value) -> bool:
    """A JSON number: ``int`` or ``float`` but not ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite JSON number; an integer too large for a float is not one."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def load_network(doc: dict) -> Network:
    """Build a validated Network from its document.

    Each two-element ``[lo, hi]`` list becomes a ``UnitInterval``, the one
    home of the interval rules (integer bounds, ``0 <= lo < hi``), and
    each link's list is normalized to the maximal disjoint form, so
    touching or overlapping input intervals are merged.  Every violation
    is reported with the offending element.  This checks the document's
    shape; the model invariants (a positive integer unit count, known link
    ends, non-negative integer costs, intervals within the unit count,
    dense link ids, distinct string nodes) are left to ``Network``'s own
    validation.  Each message is formatted only when its check fails.
    """
    if not isinstance(doc, dict):
        raise NetworkError("network document must be an object")
    for key in ("units", "nodes", "links"):
        if key not in doc:
            raise NetworkError(f"network document lacks {key!r}")
    nodes = doc["nodes"]
    if not (isinstance(nodes, list) and nodes):
        raise NetworkError("'nodes' must be a non-empty list")

    raw_links = doc["links"]
    if not isinstance(raw_links, list):
        raise NetworkError("'links' must be a list")
    seen_ids: set[int] = set()
    links: list[Link] = []
    for entry in raw_links:
        if not isinstance(entry, dict):
            raise NetworkError(f"link entry {entry!r} is not an object")
        for key in ("id", "ends", "cost", "available"):
            if key not in entry:
                raise NetworkError(f"link entry lacks {key!r}: {entry!r}")
        link_id = entry["id"]
        if not _is_int(link_id):
            raise NetworkError(f"link id {link_id!r} is not an integer")
        if link_id in seen_ids:
            raise NetworkError(f"duplicate link id {link_id}")
        seen_ids.add(link_id)
        ends = entry["ends"]
        if not (isinstance(ends, list) and len(ends) == 2):
            raise NetworkError(f"link {link_id}: 'ends' must name two nodes")
        for end in ends:
            if not isinstance(end, str):
                raise NetworkError(f"link {link_id} references unknown node {end!r}")
        available = entry["available"]
        if not isinstance(available, list):
            raise NetworkError(f"link {link_id}: 'available' must be a list of [lo, hi] pairs")
        intervals = []
        for pair in available:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise NetworkError(f"link {link_id}: interval {pair!r} must be [lo, hi]")
            try:
                intervals.append(UnitInterval(pair[0], pair[1]))
            except ValueError as exc:
                raise NetworkError(f"link {link_id}: {exc}") from exc
        links.append(Link(link_id, (ends[0], ends[1]), entry["cost"],
                          normalize_intervals(intervals)))

    links.sort(key=lambda l: l.id)
    return Network(doc["units"], tuple(nodes), tuple(links))


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
    if not isinstance(doc, dict):
        raise NetworkError("demand document must be an object")
    for key in ("src", "dst", "units"):
        if key not in doc:
            raise NetworkError(f"demand document lacks {key!r}")
    try:
        return Demand(doc["src"], doc["dst"], doc["units"])
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
    _require_int("segment parameter", m, 1, NetworkError)
    _require_int("unit count", unit_count, 1, NetworkError)
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
    round(avg_degree * n / 2).  Costs are uniform integers in [1, 100].
    Each link's units are drawn one at a time, in ascending order, each
    available independently with probability ``fill``, and the link stores
    each maximal run of available units as one interval.  Deterministic for
    a fixed seed.
    """
    _require_int("node count", n, error=NetworkError)
    if n < 2:
        raise NetworkError(f"need at least 2 nodes, got {n}")
    if not _is_number(fill):
        raise NetworkError(f"fill must be a number, got {fill!r}")
    if not 0.0 <= fill <= 1.0:
        raise NetworkError(f"fill must be within [0, 1], got {fill}")
    _require_int("unit count", unit_count, 1, NetworkError)
    if not _is_number(avg_degree):
        raise NetworkError(f"avg_degree must be a number, got {avg_degree!r}")
    if not _is_finite(avg_degree):
        raise NetworkError(f"avg_degree must be finite, got {avg_degree}")
    _require_int("seed", seed, error=NetworkError)
    target = avg_degree * n / 2  # inf when a huge finite avg_degree overflows
    if _is_finite(target):
        target = int(round(target))
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
        runs = []
        start = None  # first unit of the open run of available units
        for u in range(unit_count):
            if rng.random() < fill:
                if start is None:
                    start = u
            elif start is not None:
                runs.append(UnitInterval(start, u))
                start = None
        if start is not None:
            runs.append(UnitInterval(start, unit_count))
        links.append(Link(link_id, ends, cost, tuple(runs)))
    return Network(unit_count, tuple(names), tuple(links))
