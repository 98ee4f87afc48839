"""Acceptance suite: one test per criterion, one printed line per verdict,
and closed-form checks of the paper's two complexity claims: fan networks
reach criterion 3's bound, and limited chains are PARTITION instances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

On any search/oracle disagreement the offending instance is written to
tests/counterexamples/ as a self-contained bundle before the test fails.
"""

import dataclasses
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ddpp import (
    Demand,
    Label,
    Link,
    SearchOptions,
    PairSearch,
    UnitInterval,
    chain_network,
    check_solution,
    dump_traffic,
    fan_network,
    gen_traffic,
    load_traffic,
    lobe_network,
    normalize_intervals,
    random_network,
    run,
    solve,
)
from ddpp.oracle import bundle_doc, compare

from reference import (dominates, extend_both_sides, leq_eq, leq_n, leq_x, partition_routable,
                       random_trait, trait_leq)

COUNTEREXAMPLE_DIR = Path(__file__).parent / "counterexamples"


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({title}): PASS")


# --- corpus shared by criteria 1, 3, and 6 --------------------------------

def _corpus_instances():
    instances = []
    index = 0
    for n in (4, 5, 6, 7, 8):
        for degree in (2.0, 2.5, 3.0):
            for fill in (0.5, 0.7, 1.0):
                for units in (1, 2, 3):
                    for repeat in range(4):
                        seed = 10_000 + index
                        unit_count = 8 if index % 2 else 4
                        net = random_network(n, degree, unit_count, fill, seed)
                        rng = random.Random(seed)
                        nodes = list(net.nodes)
                        src = rng.choice(nodes)
                        dst = rng.choice([x for x in nodes if x != src])
                        instances.append((index, net, Demand(src, dst, units)))
                        index += 1
    return instances


@pytest.fixture(scope="module")
def corpus():
    return _corpus_instances()


@pytest.fixture(scope="module")
def corpus_results(corpus):
    started = time.perf_counter()
    records = [(index, net, demand, compare(net, demand, budget=5_000_000))
               for index, net, demand in corpus]
    return records, time.perf_counter() - started


def _file_bundle(name: str, net, demand, report, max_route_cost=None) -> Path:
    COUNTEREXAMPLE_DIR.mkdir(exist_ok=True)
    path = COUNTEREXAMPLE_DIR / f"{name}.json"
    path.write_text(json.dumps(bundle_doc(net, demand, report, max_route_cost), indent=2))
    return path


def test_criterion_1_oracle_equivalence(corpus_results):
    records, elapsed = corpus_results
    with criterion(1, "oracle equivalence on seeded random corpus"):
        assert len(records) >= 500
        mismatches = []
        for index, net, demand, report in records:
            if not report.matches:
                path = _file_bundle(f"criterion1_{index}", net, demand, report)
                mismatches.append((index, report.verdicts, str(path)))
        assert not mismatches, f"bundles filed: {mismatches}"
        assert elapsed < 120.0, f"corpus took {elapsed:.1f}s"
        routed = sum(1 for r in records if r[3].oracle.routed)
        print(f"  {len(records)} instances ({routed} routed, "
              f"{len(records) - routed} blocked) in {elapsed:.1f}s", end=" ")


def test_criterion_2_lobe_blowup():
    with criterion(2, "worst-case label growth"):
        generated = {}
        prime_wall = {}
        for m in range(1, 15):
            net = lobe_network(m, 1)
            demand = Demand("n_s", "n_x", 1)
            base_search = PairSearch(net, demand,
                                     SearchOptions(mode="base", enumerate_all=True))
            base_sol = base_search.run()
            assert base_search.destination_count == 2**m, m
            assert base_sol.total_cost == 2 ** (m + 1) - 1, m
            generated[m] = base_sol.stats.labels_generated

            prime_search = PairSearch(net, demand,
                                      SearchOptions(mode="prime", enumerate_all=True))
            prime_sol = prime_search.run()
            assert prime_search.destination_count == 1, m
            assert prime_sol.total_cost == 2 ** (m + 1) - 1, m
            prime_wall[m] = prime_sol.stats.wall_time
        for m in range(8, 15):
            ratio = generated[m] / generated[m - 1]
            assert ratio >= 1.8, (m, ratio)
        assert prime_wall[14] < 1.0, prime_wall[14]
        print(f"  base generated {generated[14]} labels at m=14; "
              f"prime wall {prime_wall[14] * 1000:.1f}ms", end=" ")


def test_criterion_3_per_vertex_polynomial_bound(corpus_results):
    records, _ = corpus_results
    with criterion(3, "per-vertex label bound in prime mode"):
        # prime mode keeps at most one label per interval pair, and a slot
        # has W(W+1)/2 intervals at least `units` wide, W = U - units + 1
        worst = 0.0
        for _index, net, demand, report in records:
            prime = report.solutions["prime"]
            width = net.unit_count - demand.units + 1
            bound = (width * (width + 1) // 2) ** 2
            peak = prime.stats.max_labels_per_vertex
            assert peak <= bound, (peak, bound)
            worst = max(worst, peak / bound)
        print(f"  tightest margin: peak/bound = {worst:.4f}", end=" ")


@pytest.mark.parametrize("unit_count, units", [(3, 1), (4, 1), (4, 2), (6, 1), (8, 2)])
@pytest.mark.parametrize("mode", ["prime", "base"])
def test_fan_networks_reach_the_per_vertex_bound(mode, unit_count, units):
    # criterion 3's bound is tight: on a fan every interval pair at (a, b)
    # is one incomparable label, and the destination keeps one label per
    # unordered pair of intervals
    width = unit_count - units + 1
    intervals = width * (width + 1) // 2
    search = PairSearch(fan_network(unit_count, units), Demand("s", "d", units),
                        SearchOptions(mode=mode, enumerate_all=True))
    sol = search.run()
    assert sol.stats.max_labels_per_vertex == intervals**2
    assert search.destination_count == intervals * (intervals + 1) // 2


def test_criterion_4_relation_algebra_exhaustive():
    with criterion(4, "exhaustive relation algebra on the small trait universe"):
        intervals = [(lo, hi) for lo in range(4) for hi in range(lo + 1, 5)]
        traits = [(cost, lo, hi) for cost in range(4) for lo, hi in intervals]
        vertex = ("n", "n")
        labels = [Label(t1, t2, vertex) for t1 in traits for t2 in traits]
        sorted_labels = [l for l in labels if trait_leq(l.trait_a, l.trait_b)]

        # (a) for sorted labels the swapped comparison implies the aligned one
        found_normal_only = None
        for li in sorted_labels:
            for lj in sorted_labels:
                x = leq_x(li, lj)
                n = leq_n(li, lj)
                assert not x or n, (li, lj)
                if n and not x and found_normal_only is None:
                    found_normal_only = (li, lj)
        # (b) some sorted pair is aligned-comparable but not swapped
        assert found_normal_only is not None

        # (c) some unsorted pair is swapped-comparable only, and the
        # effective relation accepts it
        found_cross_only = None
        for li in labels:
            if trait_leq(li.trait_a, li.trait_b):
                continue
            for lj in labels:
                if leq_x(li, lj) and not leq_n(li, lj):
                    assert leq_eq(li, lj)
                    found_cross_only = (li, lj)
                    break
            if found_cross_only:
                break
        assert found_cross_only is not None

        # (d) the effective relation is exactly the disjunction, everywhere
        index_of = {id(t): i for i, t in enumerate(traits)}
        matrix = [[trait_leq(ti, tj) for tj in traits] for ti in traits]
        violations = 0
        for li in labels:
            ai, bi = index_of[id(li.trait_a)], index_of[id(li.trait_b)]
            row_a, row_b = matrix[ai], matrix[bi]
            for lj in labels:
                aj, bj = index_of[id(lj.trait_a)], index_of[id(lj.trait_b)]
                expected = (row_a[aj] and row_b[bj]) or (row_a[bj] and row_b[aj])
                if leq_eq(li, lj) is not expected:
                    violations += 1
        assert violations == 0
        print(f"  {len(labels)}^2 = {len(labels)**2} label pairs checked", end=" ")


# --- criterion 5: randomized domination preservation -----------------------

def _make_link_pool(rng, ends, count=256):
    pool = []
    for _ in range(count):
        avail = normalize_intervals(
            UnitInterval(u, u + 1) for u in range(8) if rng.random() < 0.75
        )
        pool.append(Link(5, ends, rng.randint(0, 10), avail))
    return pool


def _shrunk(rng, base: tuple, units) -> tuple[int, int]:
    _, b_lo, b_hi = base
    lo = rng.randint(b_lo, b_hi - units)
    hi = rng.randint(lo + units, b_hi)
    return lo, hi


def _preservation_violations(mode: str, trials: int, seed: int) -> int:
    rng = random.Random(seed)
    pools = {
        ends: _make_link_pool(rng, ends)
        for ends in (("n", "z"), ("m", "z"), ("m", "n"))
    }
    violations = 0
    for _ in range(trials):
        same = rng.random() < 0.5
        vertex = ("n", "n") if same else ("m", "n")
        units = rng.randint(1, 3)
        good = Label(random_trait(rng, units), random_trait(rng, units), vertex)
        crossed = same and rng.random() < 0.5
        first, second = (
            (good.trait_b, good.trait_a) if crossed else (good.trait_a, good.trait_b)
        )
        if mode == "base":
            bad = Label(
                (first[0] + rng.randint(0, 5), *_shrunk(rng, first, units)),
                (second[0] + rng.randint(0, 5), *_shrunk(rng, second, units)),
                vertex,
            )
        else:
            total = good.trait_a[0] + good.trait_b[0] + rng.randint(0, 6)
            ca = rng.randint(0, total)
            bad = Label(
                (ca, *_shrunk(rng, first, units)),
                (total - ca, *_shrunk(rng, second, units)),
                vertex,
            )
        assert dominates(mode, good, bad)
        ends = ("n", "z") if same else rng.choice((("n", "z"), ("m", "z"), ("m", "n")))
        link = rng.choice(pools[ends])
        derived_good = extend_both_sides(good, link, units)
        for lab in extend_both_sides(bad, link, units):
            if not any(
                cover.vertex == lab.vertex and dominates(mode, cover, lab)
                for cover in derived_good
            ):
                violations += 1
    return violations


def test_criterion_5_domination_preservation():
    with criterion(5, "domination preserved under expansion, 1e5 trials per family"):
        base_violations = _preservation_violations("base", 100_000, seed=424242)
        prime_violations = _preservation_violations("prime", 100_000, seed=434343)
        assert base_violations == 0
        assert prime_violations == 0
        print("  0 violations in 2 x 100000 trials", end=" ")


def test_criterion_6_limited_variant(corpus_results):
    records, _ = corpus_results
    with criterion(6, "route-cost limit matches the limited oracle"):
        leg_costs = []
        for _index, net, _demand, report in records:
            base = report.solutions["base"]
            if base.routed:
                for leg in (base.working, base.protecting):
                    leg_costs.append(sum(net.links[l].cost for l in leg.links))
        assert leg_costs
        leg_costs.sort()
        limit = leg_costs[round(0.6 * (len(leg_costs) - 1))]

        for index, net, demand, _report in records:
            report = compare(net, demand, max_route_cost=limit, budget=5_000_000)
            if not report.matches:
                path = _file_bundle(f"criterion6_{index}", net, demand, report, limit)
                raise AssertionError(f"limited mismatch, bundle filed: {path}")

        with pytest.raises(ValueError):
            SearchOptions(mode="prime", max_route_cost=limit)
        print(f"  K={limit} (60th percentile of {len(leg_costs)} route costs)", end=" ")


def _limited_chain_agrees_with_subset_sums(net, weights, limit):
    demand = Demand(net.nodes[0], net.nodes[-1], 1)
    sol = solve(net, demand, SearchOptions(mode="base", max_route_cost=limit))
    assert sol.routed == partition_routable(weights, limit), (weights, limit)
    if sol.routed:
        assert sol.total_cost == sum(weights)
    assert check_solution(net, demand, sol, limit) == []
    assert sol.stats.max_labels_per_vertex <= limit + 1
    return sol


@settings(max_examples=60)
@given(st.lists(st.integers(1, 100), min_size=8, max_size=16))
def test_limited_chains_are_partition(weights):
    # under a route-cost limit the problem holds PARTITION: a chain routes
    # exactly when its weights split into two sides of at most the limit
    total = sum(weights)
    for limit in (total // 2 - 1, total // 2, (total + 1) // 2, total // 2 + 3):
        _limited_chain_agrees_with_subset_sums(chain_network(weights, 1), weights, limit)


def test_lobe_is_the_power_of_two_partition():
    net, weights = lobe_network(8, 1), [2**i for i in range(9)]
    assert net == chain_network(weights, 1)
    blocked = _limited_chain_agrees_with_subset_sums(net, weights, 255)
    routed = _limited_chain_agrees_with_subset_sums(net, weights, 256)
    assert (blocked.routed, routed.routed, routed.total_cost) == (False, True, 511)
    assert blocked.stats.max_labels_per_vertex == routed.stats.max_labels_per_vertex == 256


def test_criterion_7_simulation_conservation():
    with criterion(7, "simulation conserves spectrum and replays identically"):
        net = random_network(8, 3.0, 8, 0.7, seed=2026)
        events = gen_traffic(net, 1000, mean_hold=3.0, mean_gap=0.3,
                             units_range=(1, 3), seed=17)
        replayed = load_traffic(dump_traffic(events))
        assert replayed == events

        # run() verifies the final spectrum equals the initial one and
        # raises otherwise, so two clean runs double as the conservation
        # check; their reports must agree on everything measured
        first = run(net, replayed, SearchOptions(mode="prime"))
        second = run(net, replayed, SearchOptions(mode="prime"))
        assert first.offered == 1000
        assert first.offered == first.routed + first.blocked
        assert 0 < first.blocked < first.offered
        for field in dataclasses.fields(first):
            if field.name != "mean_wall_time":
                assert getattr(first, field.name) == getattr(second, field.name)
        print(f"  routed {first.routed}, blocked {first.blocked} "
              f"(p_block={first.blocking_probability:.3f})", end=" ")
