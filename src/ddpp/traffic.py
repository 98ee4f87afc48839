"""Dynamic-traffic harness: replay demands against mutable spectrum state.

Arrivals are processed in (time, id) order; each routed connection cuts
its assigned slot interval out of the free intervals of every link of both
routes, and a departure at time + hold merges exactly that interval back.
Departures due at or before an arrival are released first, so back-to-back
reuse of freed spectrum works.  Blocked demands are dropped, never retried.

The traffic document is the cross-tool interface:

    {"events": [{"id": 0, "time": 0.0, "src": "a", "dst": "c",
                 "units": 2, "hold": 1.5}]}
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass

from .net_model import Demand, Link, Network, _is_finite, validate_demand
from .search import SearchOptions, solve
from .spectrum_core import _is_int, normalize_intervals, remove_interval


@dataclass(frozen=True, slots=True)
class TrafficEvent:
    id: int
    time: float
    src: str
    dst: str
    units: int
    hold: float


@dataclass
class SimReport:
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
    if not isinstance(doc, dict) or not isinstance(doc.get("events"), list):
        raise ValueError("traffic document must be an object with an 'events' list")
    events = []
    for entry in doc["events"]:
        if not (isinstance(entry, dict)
                and _is_int(entry.get("id")) and _is_int(entry.get("units"))
                and isinstance(entry.get("src"), str) and isinstance(entry.get("dst"), str)
                and _is_finite(entry.get("time")) and _is_finite(entry.get("hold"))):
            raise ValueError(
                f"malformed traffic event {entry!r}: id and units must be integers, "
                "time and hold finite numbers, src and dst strings"
            )
        events.append(
            TrafficEvent(entry["id"], float(entry["time"]), entry["src"],
                         entry["dst"], entry["units"], float(entry["hold"]))
        )
    return events


def dump_traffic(events) -> dict:
    return {
        "events": [
            {"id": ev.id, "time": ev.time, "src": ev.src, "dst": ev.dst,
             "units": ev.units, "hold": ev.hold}
            for ev in events
        ]
    }


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
    if not _is_int(count):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not (isinstance(units_range, (tuple, list)) and len(units_range) == 2
            and _is_int(units_range[0]) and _is_int(units_range[1])):
        raise ValueError(f"malformed units range {units_range!r}")
    lo, hi = units_range
    if not 1 <= lo <= hi:
        raise ValueError(f"malformed units range [{lo}, {hi}]")
    if not (_is_finite(mean_hold) and _is_finite(mean_gap) and mean_hold > 0 and mean_gap > 0):
        raise ValueError("mean_hold and mean_gap must be positive and finite")
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
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
    _validate_events(net, events)
    return events


def _validate_events(net: Network, events) -> list[Demand]:
    """Check ids, times and holds and return each event's ``Demand``; errors
    of ``Demand`` and ``validate_demand`` keep their type and gain the id."""
    seen = set()
    demands = []
    for ev in events:
        if not _is_int(ev.id):
            raise ValueError(f"event id {ev.id!r} is not an integer")
        if ev.id in seen:
            raise ValueError(f"duplicate event id {ev.id}")
        seen.add(ev.id)
        try:
            demands.append(Demand(ev.src, ev.dst, ev.units))
            validate_demand(net, demands[-1])
        except ValueError as exc:
            raise type(exc)(f"event {ev.id}: {exc}") from exc
        if not (_is_finite(ev.time) and ev.time >= 0 and _is_finite(ev.hold) and ev.hold > 0):
            raise ValueError(f"event {ev.id} has a malformed time or hold")
    return demands


def run(net: Network, events, opts: SearchOptions = SearchOptions()) -> SimReport:
    """Replay a demand sequence and report blocking and search effort.

    The state is one immutable Link per id, holding its free units as
    canonical intervals, and a heap of departures that carry their own
    allocations.  An allocation or release replaces only the links of its
    routes, and each arrival solves on a snapshot network of the current
    links, validated in full.  After the last departure every link must
    equal its initial one, which is asserted before reporting.
    """
    events = list(events)
    arrivals = sorted(zip(events, _validate_events(net, events)),
                      key=lambda arrival: (arrival[0].time, arrival[0].id))
    links = list(net.links)
    # (time, id, allocations): ids are unique, so allocations never compare
    departures: list[tuple[float, int, list]] = []

    def release(event_id: int, allocations) -> None:
        for link_ids, slots in allocations:
            for link_id in link_ids:
                link = links[link_id]
                if any(iv.lo < slots.hi and slots.lo < iv.hi for iv in link.available):
                    raise RuntimeError(
                        f"double release: link {link_id} already holds units of event {event_id}"
                    )
                links[link_id] = Link(link.id, link.ends, link.cost,
                                      normalize_intervals(link.available + (slots,)))

    routed = blocked = 0
    label_counts: list[int] = []
    wall_times: list[float] = []
    for ev, demand in arrivals:
        while departures and departures[0][0] <= ev.time:
            _, event_id, allocations = heapq.heappop(departures)
            release(event_id, allocations)
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
        heapq.heappush(departures, (ev.time + ev.hold, ev.id, allocations))

    while departures:
        _, event_id, allocations = heapq.heappop(departures)
        release(event_id, allocations)
    for link, initial in zip(links, net.links):
        if link != initial:
            raise RuntimeError(f"spectrum not restored on link {link.id}")

    offered = len(arrivals)
    return SimReport(
        offered=offered,
        routed=routed,
        blocked=blocked,
        blocking_probability=(blocked / offered) if offered else 0.0,
        mean_labels=(sum(label_counts) / offered) if offered else 0.0,
        max_labels=max(label_counts, default=0),
        mean_wall_time=(sum(wall_times) / offered) if offered else 0.0,
    )
