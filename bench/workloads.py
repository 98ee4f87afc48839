"""The benchmark's workloads: seeded instance pools, one closed-loop op each,
and the checks every answer must pass.

Each workload builds a fixed pool of inputs from an instance seed (the
``dev`` pool, or the ``heldout`` pool for re-checking a claim on inputs no
change was tuned on).  The run seed only orders the pool within each pass,
so every pass does the same work and two runs with different seeds
measure the same thing.  A pass is the list returned by ``items()``;
``run(item)`` returns one record ``(latency_s, cycle_s, reference_s,
Solution)`` per op and the outcome that ``check(item, outcome)`` validates
after the timed phase.  ``latency_s`` is the solve call alone; ``cycle_s``
is all the time the op took, which in ``simulate`` adds the arrival's share
of the simulator's own work; ``reference_s`` times a fixed loop just before
the op, to measure how fast the host ran at that moment.

All workloads use the additive cost model: the modulation model is not
exact, so its answers could not be checked.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import ddpp.net_model as net_model
import ddpp.search as search
import ddpp.traffic as traffic
from ddpp.net_model import Demand
from ddpp.oracle import oracle_solve
from ddpp.search import PairSearch, SearchOptions

POOL_SEEDS = {"dev": 20231023, "heldout": 4177}
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Sizes keep one pass of each workload to a few seconds on one core, so a
# run repeats whole passes.  "tiny" exists for the benchmark's own tests.
SIZES = {
    "solve-mixed": {
        # 12-16 nodes, 32 units and 2-4 unit demands: with 20 nodes, 64
        # units or 1-unit demands a single solve can take over 8 s.  Twelve
        # instances keep a pass to 2-4 s, so each op repeats seven to twelve
        # times in a 25 s run.
        "full": {"count": 12, "nodes": (12, 16), "units": 32, "fill": (0.8, 0.9),
                 "demand_units": (2, 4), "oracle_count": 6},
        "tiny": {"count": 3, "nodes": (6, 8), "units": 16, "fill": (0.8, 0.9),
                 "demand_units": (1, 3), "oracle_count": 2},
    },
    "lobe": {"full": {"m": 10}, "tiny": {"m": 4}},
    "simulate": {
        "full": {"nodes": 20, "units": 320, "files": 2, "events": 30,
                 "mean_hold": 10.0, "mean_gap": 1.0, "demand_units": (4, 16)},
        "tiny": {"nodes": 8, "units": 32, "files": 2, "events": 10,
                 "mean_hold": 5.0, "mean_gap": 1.0, "demand_units": (1, 4)},
    },
}
AVG_DEGREE = 3.0
# The oracle enumerates every trail pair, so its instances stay small.
ORACLE_SIZE = {"nodes": (6, 8), "units": 8, "fill": (0.8, 0.9), "demand_units": (1, 3)}


def load_expected(key: str):
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[key]


def round_trip(net):
    """Dump a network to its JSON document and load it back, as a user would."""
    return net_model.load_network(json.loads(json.dumps(net_model.dump_network(net))))


def random_instances(rng: random.Random, count: int, size: dict):
    """Seeded random_network instances, each with one random demand."""
    out = []
    for _ in range(count):
        n = rng.randint(*size["nodes"])
        fill = rng.uniform(*size["fill"])
        net = net_model.random_network(n, AVG_DEGREE, size["units"], fill,
                                       rng.randrange(2**31))
        src, dst = rng.sample(net.nodes, 2)
        out.append((net, Demand(src, dst, rng.randint(*size["demand_units"]))))
    return out


def route_problems(net, demand: Demand, sol, expected) -> list[str]:
    """Why a solution is wrong, or an empty list when it is right.

    ``expected`` is the committed ``[status, cost]``.  A routed answer must
    be two link-disjoint trails from src to dst, each with a slot interval
    ``units`` wide that is free on every link of its route, and its cost
    must be the sum of the link costs.  Checked from the network document's
    data only, without the solver's interval algebra.
    """
    problems = []
    if [sol.status, sol.total_cost] != list(expected):
        problems.append(f"answer {[sol.status, sol.total_cost]}, expected {list(expected)}")
    if not sol.routed:
        return problems
    legs = (sol.working, sol.protecting)
    if set(legs[0].links) & set(legs[1].links):
        problems.append("routes share a link")
    for leg in legs:
        if len(set(leg.links)) != len(leg.links):
            problems.append(f"route {leg.links} repeats a link")
        if leg.nodes[0] != demand.src or leg.nodes[-1] != demand.dst:
            problems.append(f"route {leg.nodes} does not join {demand.src} to {demand.dst}")
        if len(leg.nodes) != len(leg.links) + 1:
            problems.append(f"route {leg.links} has {len(leg.nodes)} nodes")
            continue
        for here, there, link_id in zip(leg.nodes, leg.nodes[1:], leg.links):
            link = net.links[link_id]
            if sorted(link.ends) != sorted((here, there)):
                problems.append(f"link {link_id} does not join {here} and {there}")
            if not any(iv.lo <= leg.slots.lo and leg.slots.hi <= iv.hi
                       for iv in link.available):
                problems.append(f"slots {leg.slots.to_doc()} not free on link {link_id}")
        if leg.slots.hi - leg.slots.lo != demand.units:
            problems.append(f"slots {leg.slots.to_doc()} are not {demand.units} units wide")
    link_cost = sum(net.links[i].cost for leg in legs for i in leg.links)
    if link_cost != sol.total_cost:
        problems.append(f"cost {sol.total_cost} is not the link-cost sum {link_cost}")
    return problems


# On a shared host the speed of one core varies: bursts of one to five
# seconds run up to twice as slow, and the base speed drifts by 20% and
# more over minutes.  A fixed pure-Python loop timed just before each op
# measures the speed at that moment; dividing the op's time by it, times
# REFERENCE_S, gives the time on a host where the loop takes REFERENCE_S
# (the loop's fastest time on a quiet 2-vCPU x86-64 VM, Python 3.11).
REFERENCE_S = 0.00057
_REFERENCE_TABLE = {(i % 16, i % 7): i for i in range(112)}


def reference_s() -> float:
    """One timing of a fixed loop of dict, tuple and int work."""
    started = time.perf_counter()
    total = 0
    for i in range(4000):
        total += _REFERENCE_TABLE[(i % 16, i % 7)] * (i & 3)
    return time.perf_counter() - started


def at_reference_speed(seconds: float, reference: float) -> float:
    """A time measured next to a reference timing, scaled to REFERENCE_S."""
    return seconds * REFERENCE_S / reference


def timed(fn, *args, **kwargs):
    """(latency, reference, result) of one call."""
    reference = reference_s()
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, reference, result


def timed_solve(net, demand: Demand, mode: str):
    return timed(search.solve, net, demand, SearchOptions(mode=mode))


class SolveMixed:
    """Single solves of seeded random instances, each in prime and base mode."""

    name = "solve-mixed"

    def __init__(self, pool: str, size: str, expected=None) -> None:
        self.pool_seed = POOL_SEEDS[pool]
        self.size = SIZES[self.name][size]
        self.expected = (expected if expected is not None
                         else load_expected(f"{self.name}/{pool}/{size}"))
        self.instances = []

    def setup(self) -> None:
        rng = random.Random(self.pool_seed)
        self.instances = [(round_trip(net), demand)
                          for net, demand in random_instances(rng, self.size["count"], self.size)]
        self.run(self.items()[0])

    def items(self) -> list:
        return [(index, mode) for index in range(len(self.instances))
                for mode in ("prime", "base")]

    def run(self, item):
        index, mode = item
        latency, reference, sol = timed_solve(*self.instances[index], mode)
        return [(latency, latency, reference, sol)], sol

    def check(self, item, sol) -> list[str]:
        index, _ = item
        return route_problems(*self.instances[index], sol, self.expected["answers"][index])

    def oracle_cases(self):
        rng = random.Random(self.pool_seed + 1)
        return random_instances(rng, self.size["oracle_count"], ORACLE_SIZE)

    def extra_checks(self) -> list[tuple[str, list[str]]]:
        """Small demands checked against the exhaustive oracle, untimed.

        Returns (op label, problems) for each op."""
        checked = []
        for (net, demand), expected in zip(self.oracle_cases(), self.expected["oracle"]):
            reference = oracle_solve(net, demand)
            answer = [reference.status, reference.min_cost]
            checked.append((f"oracle {demand}",
                            [] if answer == expected else [f"says {answer}, committed {expected}"]))
            for mode in ("prime", "base"):
                _, _, sol = timed_solve(net, demand, mode)
                checked.append((f"oracle case {demand} {mode}",
                                route_problems(net, demand, sol, expected)))
        return checked


class Lobe:
    """Base-mode enumerate_all solves of the worst-case lobe chain."""

    name = "lobe"

    def __init__(self, pool: str, size: str, expected=None) -> None:
        self.m = SIZES[self.name][size]["m"]
        self.net = None

    def setup(self) -> None:
        self.net = round_trip(net_model.lobe_network(self.m, 1))
        self.run("base")

    def items(self) -> list:
        return ["base"]

    def _search(self, mode: str):
        opts = SearchOptions(mode=mode, enumerate_all=True)
        pair = PairSearch(self.net, Demand("n_s", "n_x", 1), opts)
        latency, reference, sol = timed(pair.run)
        return latency, reference, sol, pair.destination_count

    def run(self, item):
        latency, reference, sol, count = self._search(item)
        return [(latency, latency, reference, sol)], (sol, count)

    def _problems(self, mode: str, outcome, want_count: int) -> list[str]:
        sol, count = outcome
        problems = route_problems(self.net, Demand("n_s", "n_x", 1), sol,
                                  ["routed", 2 ** (self.m + 1) - 1])
        if count != want_count:
            problems.append(f"{mode}: {count} destination labels, expected {want_count}")
        return problems

    def check(self, item, outcome) -> list[str]:
        return self._problems(item, outcome, 2**self.m)

    def extra_checks(self) -> list[tuple[str, list[str]]]:
        _, _, sol, count = self._search("prime")
        return [("prime", self._problems("prime", (sol, count), 1))]


class ArrivalProbe:
    """Times each arrival of a replay from outside ``traffic.run``.

    The latency is two clock reads around ``traffic.solve``.  The cycle
    runs from the end of the previous arrival's solve (or the start of the
    replay) to the end of this one, so it adds the departures, snapshot
    and allocation work done for the arrival; the work after the last
    solve goes to the last arrival.  The cycles sum to the replay time,
    less the reference loops timed before each solve.
    """

    def __init__(self) -> None:
        self.records = []
        self._original = None
        self._mark = 0.0

    def __enter__(self):
        self._original = original = traffic.solve

        def probed(*args, **kwargs):
            probe_started = time.perf_counter()
            latency, reference, sol = timed(original, *args, **kwargs)
            ended = time.perf_counter()
            cycle = ended - self._mark - (ended - probe_started - latency)
            self.records.append((latency, cycle, reference, sol))
            self._mark = ended
            return sol

        traffic.solve = probed
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        traffic.solve = self._original
        if self.records:
            latency, cycle, reference, sol = self.records[-1]
            self.records[-1] = (latency, cycle + time.perf_counter() - self._mark,
                                reference, sol)


class Simulate:
    """traffic.run replays of seeded traffic files on one fixed network."""

    name = "simulate"

    def __init__(self, pool: str, size: str, expected=None) -> None:
        self.pool_seed = POOL_SEEDS[pool]
        self.size = SIZES[self.name][size]
        self.expected = (expected if expected is not None
                         else load_expected(f"{self.name}/{pool}/{size}"))
        self.net = None
        self.files = []

    def setup(self) -> None:
        size = self.size
        net = net_model.random_network(size["nodes"], AVG_DEGREE, size["units"], 1.0,
                                       self.pool_seed)
        docs = [
            json.dumps(traffic.dump_traffic(traffic.gen_traffic(
                net, size["events"], size["mean_hold"], size["mean_gap"],
                size["demand_units"], self.pool_seed + 1 + index)))
            for index in range(size["files"])
        ]
        self.net = round_trip(net)
        self.files = [traffic.load_traffic(json.loads(doc)) for doc in docs]
        traffic.run(self.net, self.files[0][:1])

    def items(self) -> list:
        return list(range(len(self.files)))

    def run(self, item):
        with ArrivalProbe() as probe:
            report = traffic.run(self.net, self.files[item])
        return probe.records, report

    def check(self, item, report) -> list[str]:
        got = [report.offered, report.routed, report.blocked]
        want = self.expected["reports"][item]
        return [] if got == want else [f"offered/routed/blocked {got}, expected {want}"]

    def extra_checks(self) -> list[tuple[str, list[str]]]:
        return []


WORKLOADS = {cls.name: cls for cls in (SolveMixed, Lobe, Simulate)}
