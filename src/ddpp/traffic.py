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
import math
import random
from dataclasses import asdict, dataclass

from .net_model import Demand, Link, Network, NetworkError
from .search import SearchOptions, solve
from .spectrum_core import normalize_intervals, remove_interval


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


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
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    lo, hi = units_range
    if not 1 <= lo <= hi:
        raise ValueError(f"malformed units range [{lo}, {hi}]")
    if not (0 < mean_hold < math.inf and 0 < mean_gap < math.inf):
        raise ValueError("mean_hold and mean_gap must be positive and finite")
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


def _validate_events(net: Network, events) -> None:
    seen = set()
    nodes = set(net.nodes)
    for ev in events:
        if ev.id in seen:
            raise ValueError(f"duplicate event id {ev.id}")
        seen.add(ev.id)
        if ev.src not in nodes or ev.dst not in nodes:
            raise NetworkError(f"event {ev.id} references unknown nodes")
        if ev.src == ev.dst:
            raise ValueError(f"event {ev.id} has equal endpoints")
        if not 1 <= ev.units <= net.unit_count:
            raise ValueError(f"event {ev.id} demands {ev.units} of {net.unit_count} units")
        if not (0 <= ev.time < math.inf and 0 < ev.hold < math.inf):
            raise ValueError(f"event {ev.id} has a malformed time or hold")


def run(net: Network, events, opts: SearchOptions | None = None) -> SimReport:
    """Replay a demand sequence and report blocking and search effort.

    The state is one immutable Link per id, holding its free units as
    canonical intervals, and a heap of departures that carry their own
    allocations.  An allocation or release replaces only the links it
    touches, and each arrival's snapshot network reuses every other link
    as it is.  After the last departure every link must equal its initial
    one, which is asserted before reporting.
    """
    opts = opts if opts is not None else SearchOptions()
    _validate_events(net, events)
    arrivals = sorted(events, key=lambda ev: (ev.time, ev.id))
    links = list(net.links)
    # (time, id, allocations): ids are unique, so allocations never compare
    departures: list[tuple[float, int, list]] = []

    def release(event_id: int, allocations) -> None:
        for link_ids, slots in allocations:
            for link_id in link_ids:
                link = links[link_id]
                if any(iv.intersect(slots) for iv in link.available):
                    raise RuntimeError(
                        f"double release: link {link_id} already holds units of event {event_id}"
                    )
                links[link_id] = Link(link.id, link.ends, link.cost,
                                      normalize_intervals(link.available + (slots,)))

    routed = blocked = 0
    label_counts: list[int] = []
    wall_times: list[float] = []
    for ev in arrivals:
        while departures and departures[0][0] <= ev.time:
            _, event_id, allocations = heapq.heappop(departures)
            release(event_id, allocations)
        snapshot = Network(net.unit_count, net.nodes, tuple(links))
        sol = solve(snapshot, Demand(ev.src, ev.dst, ev.units), opts)
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
