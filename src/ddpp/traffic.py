"""Dynamic-traffic harness: replay demands against mutable spectrum state.

Arrivals and departures share one queue, ordered by (time, departures
before arrivals, id), so the input order does not matter.  Each routed
connection cuts its assigned slot interval out of the free intervals of
every link of both routes, and its departure at time + hold merges exactly
that interval back.  A departure due at an arrival's time is released
first, so back-to-back reuse of freed spectrum works.  Blocked demands are
dropped, never retried.

The traffic document is the cross-tool interface:

    {"events": [{"id": 0, "time": 0.0, "src": "a", "dst": "c",
                 "units": 2, "hold": 1.5}]}
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass

from .net_model import Demand, Link, Network, validate_demand
from .search import SearchOptions, solve
from .spectrum_core import (_is_finite, _is_int, _require_int, normalize_intervals,
                            remove_interval)


@dataclass(frozen=True, slots=True)
class TrafficEvent:
    """One arrival, checked on construction: an integer id, endpoints and
    units that make a ``Demand``, a finite time ``>= 0`` and a finite hold
    ``> 0``.  The replay checks what needs the whole sequence or the
    network: unique ids and ``validate_demand``."""

    id: int
    time: float
    src: str
    dst: str
    units: int
    hold: float

    def __post_init__(self) -> None:
        if not _is_int(self.id):
            raise ValueError(f"event id {self.id!r} is not an integer")
        try:
            Demand(self.src, self.dst, self.units)
        except ValueError as exc:
            raise ValueError(f"event {self.id}: {exc}") from exc
        if not (_is_finite(self.time) and self.time >= 0 and _is_finite(self.hold)
                and self.hold > 0):
            raise ValueError(f"event {self.id} has a malformed time or hold")


@dataclass
class SimReport:
    """The summary of one replay.  ``mean_labels`` and ``max_labels`` are
    taken over the arrivals' ``labels_generated``, and ``mean_wall_time``
    averages their ``wall_time`` (the settle loop only) per arrival."""

    offered: int
    routed: int
    blocked: int
    blocking_probability: float
    mean_labels: float
    max_labels: int
    mean_wall_time: float

    def to_doc(self) -> dict:
        return asdict(self)


def load_traffic(doc: dict) -> list[TrafficEvent]:
    """Build each event from its entry's six keys.  The event checks
    itself, and each number keeps the type the document gave it."""
    if not isinstance(doc, dict) or not isinstance(doc.get("events"), list):
        raise ValueError("traffic document must be an object with an 'events' list")
    events = []
    for entry in doc["events"]:
        try:
            if not isinstance(entry, dict):
                raise ValueError("not an object")
            # the six fields, in order; a missing key reads as None
            events.append(TrafficEvent(*map(entry.get, TrafficEvent.__slots__)))
        except ValueError as exc:
            raise ValueError(f"malformed traffic event {entry!r}: {exc}") from exc
    return events


def dump_traffic(events) -> dict:
    """Write each event's six fields under the keys ``load_traffic`` reads."""
    return {"events": [{key: getattr(ev, key) for key in TrafficEvent.__slots__}
                       for ev in events]}


def gen_traffic(
    net: Network,
    count: int,
    mean_hold: float,
    mean_gap: float,
    units_range: tuple[int, int],
    seed: int,
) -> list[TrafficEvent]:
    """Poisson-style synthetic demand sequence, deterministic per seed.

    Inter-arrival gaps and holding times are exponential with the given
    means; endpoints are uniform distinct node pairs and the demanded
    units uniform in units_range.
    """
    if len(net.nodes) < 2:
        raise ValueError("need at least 2 nodes to generate traffic")
    _require_int("count", count, 0)
    if not (isinstance(units_range, (tuple, list)) and len(units_range) == 2
            and _is_int(units_range[0]) and _is_int(units_range[1])):
        raise ValueError(f"malformed units range {units_range!r}")
    lo, hi = units_range
    if not 1 <= lo <= hi:
        raise ValueError(f"malformed units range [{lo}, {hi}]")
    if hi > net.unit_count:
        raise ValueError(f"demanded units {hi} exceed unit count {net.unit_count}")
    if not (_is_finite(mean_hold) and _is_finite(mean_gap) and mean_hold > 0 and mean_gap > 0):
        raise ValueError("mean_hold and mean_gap must be positive and finite")
    _require_int("seed", seed)
    rng = random.Random(seed)
    nodes = list(net.nodes)
    now = 0.0
    events = []
    for event_id in range(count):
        now += rng.expovariate(1.0 / mean_gap)
        src = rng.choice(nodes)
        dst = rng.choice(nodes)
        while dst == src:
            dst = rng.choice(nodes)
        events.append(
            TrafficEvent(event_id, now, src, dst,
                         rng.randint(lo, hi), rng.expovariate(1.0 / mean_hold))
        )
    return events


def run(net: Network, events, opts: SearchOptions = SearchOptions()) -> SimReport:
    """Replay a demand sequence and report blocking and search effort.

    The state is one immutable Link per id, holding its free units as
    canonical intervals, and one queue of arrivals and departures, taken in
    (time, departures before arrivals, id) order; a departure carries its
    own allocations.  An allocation or release replaces only the links of
    its routes, and each arrival solves on a snapshot network of the
    current links, validated in full.  After the last departure every link
    must equal its initial one, which is asserted before reporting.
    """
    # (time, kind, id, payload), kind 0 a departure and 1 an arrival: ids
    # are unique, so payloads never compare
    queue: list[tuple] = []
    seen = set()
    for ev in events:
        if ev.id in seen:
            raise ValueError(f"duplicate event id {ev.id}")
        seen.add(ev.id)
        demand = Demand(ev.src, ev.dst, ev.units)
        try:
            validate_demand(net, demand)
        except ValueError as exc:
            raise type(exc)(f"event {ev.id}: {exc}") from exc
        heapq.heappush(queue, (ev.time, 1, ev.id, (ev, demand)))
    links = list(net.links)
    routed = blocked = 0
    label_counts: list[int] = []
    wall_times: list[float] = []
    while queue:
        _, kind, event_id, payload = heapq.heappop(queue)
        if kind == 0:
            for link_ids, slots in payload:
                for link_id in link_ids:
                    link = links[link_id]
                    if any(iv.lo < slots.hi and slots.lo < iv.hi for iv in link.available):
                        raise RuntimeError(f"double release: link {link_id} already "
                                           f"holds units of event {event_id}")
                    links[link_id] = Link(link.id, link.ends, link.cost,
                                          normalize_intervals(link.available + (slots,)))
            continue
        ev, demand = payload
        sol = solve(Network(net.unit_count, net.nodes, tuple(links)), demand, opts)
        label_counts.append(sol.stats.labels_generated)
        wall_times.append(sol.stats.wall_time)
        if not sol.routed:
            blocked += 1
            continue
        routed += 1
        allocations = [(leg.links, leg.slots) for leg in (sol.working, sol.protecting)]
        for link_ids, slots in allocations:
            for link_id in link_ids:
                link = links[link_id]
                remaining = remove_interval(link.available, slots)
                if remaining is None:
                    raise RuntimeError(
                        f"allocation breach: link {link_id} lacks units for event {ev.id}"
                    )
                links[link_id] = Link(link.id, link.ends, link.cost, remaining)
        heapq.heappush(queue, (ev.time + ev.hold, 0, ev.id, allocations))

    for link, initial in zip(links, net.links):
        if link != initial:
            raise RuntimeError(f"spectrum not restored on link {link.id}")

    offered = len(seen)
    return SimReport(
        offered=offered,
        routed=routed,
        blocked=blocked,
        blocking_probability=(blocked / offered) if offered else 0.0,
        mean_labels=(sum(label_counts) / offered) if offered else 0.0,
        max_labels=max(label_counts, default=0),
        mean_wall_time=(sum(wall_times) / offered) if offered else 0.0,
    )
