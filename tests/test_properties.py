"""Property tests for the relations, derivations, and the efficient set.

Random label pairs are built so the tested precondition holds by
construction (a better label is derived from a worse one, or vice versa);
the conclusions are then checked against the pure relation functions.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from conftest import link_units, peeled_view, unit_runs, usable, view_distances
from reference import NaiveEfficientSet, dominates, efficient_front, trait_leq

from ddpp import (
    Demand,
    Label,
    Link,
    Network,
    PairSearch,
    SearchOptions,
    UnitInterval,
    check_solution,
    label_cost,
    label_extend,
    normalize_intervals,
    oracle_solve,
    random_network,
    trait_extend,
)
from ddpp import search
from ddpp.oracle import _enumerate_route_sets
from ddpp.search import MODES
from ddpp.spectrum_core import remove_interval

UNITS_TOTAL = 8


def interval_strategy(max_units=UNITS_TOTAL):
    return st.integers(0, max_units - 1).flatmap(
        lambda lo: st.integers(lo + 1, max_units).map(lambda hi: UnitInterval(lo, hi))
    )


def trait_strategy():
    return st.builds(lambda cost, ri: (cost, ri.lo, ri.hi),
                     st.integers(0, 20), interval_strategy())


def availability_strategy():
    return st.sets(st.integers(0, UNITS_TOTAL - 1)).map(
        lambda units: normalize_intervals(UnitInterval(u, u + 1) for u in units)
    )


def link_strategy(link_id=0, ends=("p", "q")):
    return st.builds(
        lambda cost, avail: Link(link_id, ends, cost, avail),
        st.integers(0, 10),
        availability_strategy(),
    )


def better_trait(rng: random.Random, worse: tuple) -> tuple:
    """A trait that is better than or equal to the given one."""
    cost, w_lo, w_hi = worse
    lo = rng.randint(0, w_lo)
    hi = rng.randint(w_hi, UNITS_TOTAL)
    return (rng.randint(0, cost), lo, hi)


@settings(max_examples=300, derandomize=True)
@given(trait_strategy(), link_strategy(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_inefficient_trait_yields_inefficient_traits(worse, link, units, rng):
    """Every derivation of a worse trait is covered by one of a better trait."""
    cost, lo, hi = worse
    if hi - lo < units:
        worse = (cost, lo, min(lo + units, UNITS_TOTAL))
    better = better_trait(rng, worse)
    assert trait_leq(better, worse)
    derived_worse = trait_extend(worse, link, units)
    derived_better = trait_extend(better, link, units)
    for t in derived_worse:
        assert any(trait_leq(t2, t) for t2 in derived_better), (better, worse, link, t)


@settings(max_examples=300, derandomize=True)
@given(trait_strategy(), link_strategy(), st.integers(1, 3))
def test_trait_extension_shrinks_interval(trait, link, units):
    t_cost, t_lo, t_hi = trait
    got = trait_extend(trait, link, units)
    for cost, lo, hi in got:
        assert t_lo <= lo and hi <= t_hi
        assert hi - lo >= units
        assert cost == t_cost + link.cost
    # unit-by-unit reference: pins every piece, including the early stop
    expected = unit_runs(set(range(t_lo, t_hi)) & link_units(link), units)
    assert got == [(t_cost + link.cost, lo, hi) for lo, hi in expected]


@settings(max_examples=300, derandomize=True)
@given(st.sets(st.integers(0, 31), min_size=1), st.data())
def test_remove_interval_is_unit_difference(free_units, data):
    """Cutting a window out of the free interval containing it equals the
    unit-set difference, and merging the window back restores the input."""
    available = normalize_intervals(UnitInterval(u, u + 1) for u in free_units)
    host = data.draw(st.sampled_from(available))
    lo = data.draw(st.integers(host.lo, host.hi - 1))
    cut = UnitInterval(lo, data.draw(st.integers(lo + 1, host.hi)))
    remaining = remove_interval(available, cut)
    assert remaining == normalize_intervals(
        UnitInterval(u, u + 1) for u in free_units - set(range(cut.lo, cut.hi)))
    assert normalize_intervals(remaining + (cut,)) == available
    window = data.draw(interval_strategy(32))
    fits = any(iv.lo <= window.lo and window.hi <= iv.hi for iv in available)
    assert (remove_interval(available, window) is None) == (not fits)


class LinkSpectrumMachine(RuleBasedStateMachine):
    """One link's free intervals under the simulator's two writes.

    An allocation cuts a free window out with ``remove_interval``; a
    release merges a held window back with ``normalize_intervals``.  The
    model is the set of free units.
    """

    @initialize(free=st.sets(st.integers(0, 31)))
    def start(self, free):
        self.available = normalize_intervals(UnitInterval(u, u + 1) for u in free)
        self.free = set(free)
        self.held = []

    @precondition(lambda self: self.available)
    @rule(data=st.data())
    def allocate(self, data):
        host = data.draw(st.sampled_from(self.available))
        lo = data.draw(st.integers(host.lo, host.hi - 1))
        slots = UnitInterval(lo, data.draw(st.integers(lo + 1, host.hi)))
        self.available = remove_interval(self.available, slots)
        self.free -= set(range(slots.lo, slots.hi))
        self.held.append(slots)

    @rule(window=interval_strategy(32))
    def refuse_busy_window(self, window):
        if not set(range(window.lo, window.hi)) <= self.free:
            assert remove_interval(self.available, window) is None

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def release(self, data):
        slots = self.held.pop(data.draw(st.integers(0, len(self.held) - 1)))
        self.available = normalize_intervals(self.available + (slots,))
        self.free |= set(range(slots.lo, slots.hi))

    @invariant()
    def canonical_and_equal_to_model(self):
        assert all(iv.lo < iv.hi for iv in self.available)
        assert all(a.hi < b.lo for a, b in zip(self.available, self.available[1:]))
        assert {u for iv in self.available for u in range(iv.lo, iv.hi)} == self.free


TestLinkSpectrum = LinkSpectrumMachine.TestCase
TestLinkSpectrum.settings = settings(max_examples=80, stateful_step_count=30,
                                     derandomize=True, deadline=None)


def _random_label(rng: random.Random, vertex: tuple, units: int) -> Label:
    def trait():
        lo = rng.randint(0, UNITS_TOTAL - units)
        hi = rng.randint(lo + units, UNITS_TOTAL)
        return (rng.randint(0, 20), lo, hi)

    return Label(trait(), trait(), vertex)


def _extend_for_props(label: Label, link: Link, units: int) -> list[Label]:
    """All candidates one appended link can produce from a label.

    Both routes are extended, also at same-node vertices: the covering
    counterpart of a cross-dominated label's extension lives on the other
    slot, so the derivation set of the propositions spans both sides.
    """
    out = []
    for side in ("a", "b"):
        node = label.vertex[0] if side == "a" else label.vertex[1]
        if node in link.ends and not (label.links_a | label.links_b) & (1 << link.id):
            out.extend(label_extend(label, link, link.other_end(node), side, units))
    return out


def test_higher_cost_labels_yield_higher_cost_labels():
    """Label-cost ordering survives extension under the additive model."""
    rng = random.Random(77)
    for _ in range(2000):
        vertex = ("m", "n")
        units = 1
        cheap = _random_label(rng, vertex, units)
        extra = rng.randint(0, 9)
        cost_a, lo_a, hi_a = cheap.trait_a
        pricey = Label((cost_a + extra, lo_a, hi_a), cheap.trait_b, vertex)
        assert label_cost(cheap) <= label_cost(pricey)
        avail = normalize_intervals([UnitInterval(0, UNITS_TOTAL)])
        link = Link(3, ("n", "z"), rng.randint(0, 10), avail)
        for worse in _extend_for_props(pricey, link, units):
            for better in _extend_for_props(cheap, link, units):
                assert label_cost(better) <= label_cost(worse)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.sampled_from(["base", "prime"]),
    st.booleans(),
    st.sampled_from([4, UNITS_TOTAL]).flatmap(
        lambda width: st.lists(
            st.tuples(st.integers(0, 6), interval_strategy(width),
                      st.integers(0, 6), interval_strategy(width)),
            min_size=1,
            max_size=40,
        )
    ),
)
def test_efficient_set_matches_naive_reference(mode, same_node, rows):
    """The interval-indexed set behaves exactly like the pure relations.

    Beside membership, this pins the lazy deletion the search relies on
    (an accepted label is ``alive`` exactly while it is a member) and the
    running peak of the member count.
    """
    from ddpp import EfficientSet

    vertex = ("n", "n") if same_node else ("m", "n")
    fast = EfficientSet(same_node, mode)
    naive = NaiveEfficientSet(mode)
    accepted = []
    peak = 0
    for ca, ia, cb, ib in rows:
        fast_label = Label((ca, ia.lo, ia.hi), (cb, ib.lo, ib.hi), vertex)
        naive_label = Label((ca, ia.lo, ia.hi), (cb, ib.lo, ib.hi), vertex)
        got = fast.insert(fast_label)
        expect = naive.insert(naive_label)
        assert got == expect
        if got[0]:
            accepted.append(fast_label)

        def snapshot(labels):
            return sorted(l.trait_a + l.trait_b for l in labels)

        if mode == "base":
            # each bucket is a staircase: cost_a rising, cost_b falling
            for row in fast._rows.values():
                for cost_a, cost_b, labels in row.values():
                    assert len(cost_a) == len(cost_b) == len(labels)
                    assert all(x < y for x, y in zip(cost_a, cost_a[1:]))
                    assert all(x > y for x, y in zip(cost_b, cost_b[1:]))

        members = fast.alive_labels()
        assert snapshot(members) == snapshot(naive.members)
        assert len(fast) == len(naive.members)
        member_ids = {id(l) for l in members}
        assert all(l.alive == (id(l) in member_ids) for l in accepted)
        peak = max(peak, len(naive.members))
        assert fast.peak == peak


@st.composite
def random_demands(draw):
    """A seeded ``random_network`` of 4-7 nodes and a demand on it."""
    net = random_network(draw(st.integers(4, 7)), draw(st.sampled_from((2.0, 2.5, 3.0))),
                         draw(st.integers(3, 8)), draw(st.sampled_from((0.6, 0.8, 1.0))),
                         draw(st.integers(0, 10_000)))
    src, dst = draw(st.lists(st.sampled_from(net.nodes), min_size=2, max_size=2, unique=True))
    return net, Demand(src, dst, draw(st.integers(1, 3)))


@st.composite
def multigraph_demands(draw):
    """A hand-built network of 3-6 nodes, 2-6 units and n to 2n links, with
    self-loops, parallel links and zero-cost links, and a demand on it.

    More links than 2n can make the oracle's pair enumeration exceed its
    budget.
    """
    n, unit_count = draw(st.integers(3, 6)), draw(st.integers(2, 6))
    nodes = tuple(f"v{i}" for i in range(n))
    specs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                                    st.sampled_from((0, 1, 2, 5, 9)),
                                    st.sets(st.integers(0, unit_count - 1))),
                          min_size=n, max_size=2 * n))
    links = tuple(Link(i, (a, b), cost,
                       normalize_intervals(UnitInterval(u, u + 1) for u in free))
                  for i, (a, b, cost, free) in enumerate(specs))
    src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    units = draw(st.integers(1, min(3, unit_count)))
    return Network(unit_count, nodes, links), Demand(src, dst, units)


@st.composite
def bundled_demands(draw):
    """A hand-built network of 3-6 nodes and 2-6 units whose links come in
    parallel bundles, and a demand on it.

    Each drawn link is followed by up to two copies with the same ends,
    either way round, a cost tied with it or one off, and free units that
    are a subset or a superset of its own, so the free runs of a bundle
    nest and its links shadow one another.  The first n + 3 links are
    kept: bundles multiply the trail pairs the oracle enumerates, and at
    2n links one example can take seconds.
    """
    n, unit_count = draw(st.integers(3, 6)), draw(st.integers(2, 6))
    nodes = tuple(f"v{i}" for i in range(n))
    unit = st.integers(0, unit_count - 1)
    specs = []
    for a, b, cost, free in draw(st.lists(st.tuples(st.sampled_from(nodes),
                                                    st.sampled_from(nodes),
                                                    st.sampled_from((0, 1, 2, 5)),
                                                    st.sets(unit)),
                                          min_size=2, max_size=n)):
        specs.append((a, b, cost, free))
        for _ in range(draw(st.integers(0, 2))):
            ends = draw(st.sampled_from(((a, b), (b, a))))
            twin_cost = draw(st.sampled_from((cost, cost, cost + 1, max(cost - 1, 0))))
            if free and draw(st.booleans()):
                twin_free = draw(st.sets(st.sampled_from(sorted(free))))
            else:
                twin_free = free | draw(st.sets(unit))
            specs.append((*ends, twin_cost, twin_free))
    links = tuple(Link(i, (a, b), cost,
                       normalize_intervals(UnitInterval(u, u + 1) for u in free))
                  for i, (a, b, cost, free) in enumerate(specs[:n + 3]))
    src, dst = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    units = draw(st.integers(1, min(3, unit_count)))
    return Network(unit_count, nodes, links), Demand(src, dst, units)


def walk_links(net: Network, src: str, mask: int) -> list[str] | None:
    """The nodes of the route a link mask holds, walked forward from src
    over ``net.links``: each step takes the one unwalked mask link at the
    current node.  None when a step finds no such link or several, or the
    walk repeats a node."""
    if mask >> len(net.links):
        return None  # a bit past the last link id
    left = {link.id for link in net.links if mask >> link.id & 1}
    nodes = [src]
    while left:
        steps = [i for i in left if nodes[-1] in net.links[i].ends]
        if len(steps) != 1:
            return None
        left.remove(steps[0])
        nodes.append(net.links[steps[0]].other_end(nodes[-1]))
        if nodes[-1] in nodes[:-1]:
            return None
    return nodes


def assert_exact_in_every_combination(net: Network, demand: Demand) -> None:
    """Differential check over mode x route limit x enumerate_all.

    Every solve's status and cost equal the oracle's, every answer passes
    ``check_solution`` under its limit, and an enumerated destination set
    is an antichain whose cheapest label is the optimum and which holds
    one label equivalent to each member of the brute-force front.  Limits
    sit around the unlimited witness's leg costs (base mode only).  Every
    candidate ``expand`` makes holds two paths: each link mask, walked from
    the source, ends at its slot's vertex node and passes the destination
    nowhere before its end.
    """
    real_expand = PairSearch.expand

    def expand_to_paths(search, label):
        cands = real_expand(search, label)
        for cand in cands:
            for mask, end in ((cand.links_a, cand.vertex[0]), (cand.links_b, cand.vertex[1])):
                nodes = walk_links(net, demand.src, mask)
                assert nodes is not None and nodes[-1] == end, (bin(mask), cand.vertex)
                assert demand.dst not in nodes[:-1], (bin(mask), cand.vertex)
        return cands

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(PairSearch, "expand", expand_to_paths)
        unlimited = oracle_solve(net, demand)
        limits = [None]
        if unlimited.routed:
            leg_costs = (unlimited.witness.cost_a, unlimited.witness.cost_b)
            limits += sorted({c + d for c in leg_costs for d in (-1, 0, 1) if c + d >= 0})
        for limit in limits:
            expect = unlimited if limit is None else oracle_solve(net, demand, limit)
            for mode in MODES if limit is None else ("base",):
                for enumerate_all in (False, True):
                    search = PairSearch(net, demand, SearchOptions(mode, limit, enumerate_all))
                    sol = search.run()
                    case = (mode, limit, enumerate_all)
                    assert (sol.status, sol.total_cost) == (expect.status, expect.min_cost), case
                    assert check_solution(net, demand, sol, limit) == [], case
                    if enumerate_all:
                        at_dst = search._sets.get((demand.dst, demand.dst))
                        labels = at_dst.alive_labels() if at_dst is not None else []
                        assert not any(dominates(mode, a, b)
                                       for a in labels for b in labels if a is not b), case
                        assert min(map(label_cost, labels), default=None) == expect.min_cost, case
                        front = efficient_front(net, demand, mode, limit)
                        assert len(labels) == len(front), case
                        assert all(any(dominates(mode, a, b) and dominates(mode, b, a)
                                       for b in front) for a in labels), case


@settings(max_examples=300, derandomize=True, deadline=None)
@given(random_demands())
def test_search_matches_oracle_on_every_combination(instance):
    assert_exact_in_every_combination(*instance)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(multigraph_demands())
def test_search_matches_oracle_on_multigraphs(instance):
    assert_exact_in_every_combination(*instance)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(multigraph_demands())
def test_route_sets_come_in_ascending_order(instance):
    """The oracle's witness names the lesser link sequence first only
    because the trails it pairs come in ascending order."""
    net, demand = instance
    sequences = list(_enumerate_route_sets(net, demand.src, demand.dst, 10**6).values())
    assert all(a < b for a, b in zip(sequences, sequences[1:])), sequences



@settings(max_examples=1000, derandomize=True, deadline=None)
@given(bundled_demands())
def test_search_matches_oracle_on_parallel_bundles(instance):
    assert_exact_in_every_combination(*instance)


def shadowing_savings(net: Network, demand: Demand) -> list[int]:
    """Solve in every mode, route limit and ``enumerate_all`` combination
    with shadows as built and with every shadow zeroed, and assert that
    the answer documents agree apart from ``stats``.  Returns, per
    combination, the labels generated without shadows minus those with
    them, asserted non-negative.  The limits sit at and one below the
    unlimited base answer's dearer leg (base mode only)."""
    unlimited = search.solve(net, demand, SearchOptions("base"))
    limits = [None]
    if unlimited.routed:
        dearer = max(sum(net.links[i].cost for i in leg.links)
                     for leg in (unlimited.working, unlimited.protecting))
        limits += [limit for limit in (dearer - 1, dearer) if limit >= 0]
    savings = []
    for limit in limits:
        for mode in MODES if limit is None else ("base",):
            for enumerate_all in (False, True):
                opts = SearchOptions(mode, limit, enumerate_all)
                shadowed = search.solve(net, demand, opts).to_doc()
                with pytest.MonkeyPatch.context() as monkeypatch:
                    monkeypatch.setattr(search, "_shadowed", lambda steps, units: steps)
                    plain = search.solve(net, demand, opts).to_doc()
                saved = (plain.pop("stats")["labels_generated"]
                         - shadowed.pop("stats")["labels_generated"])
                assert shadowed == plain, (mode, limit, enumerate_all)
                assert saved >= 0, (mode, limit, enumerate_all)
                savings.append(saved)
    return savings


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bundled_demands())
def test_shadowing_changes_only_counters_on_parallel_bundles(instance):
    shadowing_savings(*instance)


def test_shadowing_saves_labels_on_seeded_twins():
    """On seeded random networks where every link has a twin one cost unit
    dearer with the same free units, so each link shadows its twin,
    shadowing changes no answer and generates fewer labels at least once."""
    savings = []
    for seed in range(8):
        net = random_network(6, 2.5, 6, 0.8, seed)
        twins = tuple(Link(len(net.links) + link.id, link.ends[::-1], link.cost + 1,
                           link.available) for link in net.links)
        twinned = Network(net.unit_count, net.nodes, net.links + twins)
        savings += shadowing_savings(twinned, Demand("n0", "n5", 1 + seed % 2))
    assert max(savings) > 0


def simple_path_parts(net: Network, demand: Demand) -> tuple[set, set]:
    """The nodes and link ids of every simple src–dst path over the usable
    links, found by walking every such path from the source."""
    steps = [link for link in net.links if usable(link, demand.units)]
    nodes, link_ids = set(), set()

    def walk(path, used):
        if path[-1] == demand.dst:
            nodes.update(path)
            link_ids.update(used)
            return
        for link in steps:
            if path[-1] in link.ends and link.other_end(path[-1]) not in path:
                walk(path + [link.other_end(path[-1])], used + [link.id])

    walk([demand.src], [])
    return nodes, link_ids


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(multigraph_demands())
def test_peeled_view_keeps_every_simple_path(instance):
    """The view keeps every node and link of a simple src–dst path, drops
    only nodes with fewer than two distinct kept neighbours, and keeps no
    node other than src and dst with fewer than two.  Each node's entries
    and ``h`` match the peeled reference's, self-loops and parallel links
    included."""
    net, demand = instance
    built = PairSearch(net, demand)
    view = built._view
    peeled = peeled_view(net, demand)
    assert {node: [(link.id, bit, far) for link, bit, far, _ in steps]
            for node, steps in view.items()} == {
        node: [(link.id, 1 << link.id, link.other_end(node)) for link in peeled
               if node in link.ends] for node in net.nodes}
    assert built._h == view_distances(net, peeled, demand.dst)
    kept = {node for node, steps in view.items() if steps}
    listed = {link.id for steps in view.values() for link, _, _, _ in steps}
    on_path, path_links = simple_path_parts(net, demand)
    assert on_path <= kept and path_links <= listed
    links = [link for link in net.links if usable(link, demand.units)]
    assert listed == {link.id for link in links if set(link.ends) <= kept}
    for node in net.nodes:
        near = {link.other_end(node) for link in links if node in link.ends} & kept
        if node not in kept:
            assert len(near) < 2, node
        elif node not in (demand.src, demand.dst):
            assert len(near) >= 2, node
