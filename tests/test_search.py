"""Pair search: solve, expansion, efficient sets, and reconstruction."""

import dataclasses
import gc

import pytest

from conftest import make_net, peeled_view, view_distances
from reference import dominates, efficient_front

from ddpp import (
    Demand,
    EfficientSet,
    Label,
    PairSearch,
    SearchOptions,
    check_solution,
    gen_traffic,
    lobe_network,
    oracle_solve,
    random_network,
    run,
    solve,
)

FULL8 = [(0, 8)]


def triangle():
    # two trails from a to c: the two-hop a-b-c and the direct a-c
    return make_net(
        8,
        ["a", "b", "c"],
        [
            ("a", "b", 1, FULL8),
            ("b", "c", 1, FULL8),
            ("a", "c", 5, [(0, 4)]),
        ],
    )


class TestSolveExamples:
    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_lobe_two_segments(self, mode):
        sol = solve(lobe_network(2, 1), Demand("n_s", "n_x", 1), SearchOptions(mode=mode))
        assert sol.routed
        assert sol.total_cost == 7

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_lobe_three_segments_two_units(self, mode):
        sol = solve(lobe_network(3, 2), Demand("n_s", "n_x", 2), SearchOptions(mode=mode))
        assert sol.routed
        assert sol.total_cost == 15

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_single_link_network_blocked(self, mode):
        net = make_net(8, ["a", "b"], [("a", "b", 1, FULL8)])
        sol = solve(net, Demand("a", "b", 1), SearchOptions(mode=mode))
        assert sol.status == "blocked"
        assert sol.total_cost is None and sol.working is None

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_triangle(self, mode):
        net = triangle()
        demand = Demand("a", "c", 2)
        # the independent reference agrees the single feasible pair costs 7
        assert oracle_solve(net, demand).min_cost == 7
        sol = solve(net, demand, SearchOptions(mode=mode))
        assert sol.routed and sol.total_cost == 7
        assert check_solution(net, demand, sol) == []
        legs = {tuple(leg.nodes): leg for leg in (sol.working, sol.protecting)}
        assert set(legs) == {("a", "b", "c"), ("a", "c")}
        assert all(leg.slots.to_doc() == [0, 2] for leg in legs.values())

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_triangle_without_spectrum_blocked(self, mode):
        net = make_net(
            8,
            ["a", "b", "c"],
            [("a", "b", 1, FULL8), ("b", "c", 1, FULL8), ("a", "c", 5, [])],
        )
        demand = Demand("a", "c", 2)
        assert not oracle_solve(net, demand).routed
        assert solve(net, demand, SearchOptions(mode=mode)).status == "blocked"

    def test_invalid_demands_rejected(self):
        net = triangle()
        with pytest.raises(ValueError):
            Demand("a", "a", 1)
        with pytest.raises(ValueError):
            solve(net, Demand("a", "c", 9))

    def test_inconsistent_options_rejected(self):
        with pytest.raises(ValueError, match="max_route_cost requires"):
            solve(triangle(), Demand("a", "c", 1),
                  SearchOptions(mode="prime", max_route_cost=10))
        with pytest.raises(ValueError, match="unknown mode"):
            solve(triangle(), Demand("a", "c", 1), SearchOptions(mode="fancy"))
        for limit in ("5", 2.5, True):
            with pytest.raises(ValueError, match="max_route_cost must be an integer"):
                SearchOptions(mode="base", max_route_cost=limit)

    def test_enumerate_all_must_be_a_bool(self):
        # a truthy string would drain the queue as if True were asked for
        for flag in ("no", 0, 1, None):
            with pytest.raises(ValueError, match="enumerate_all must be True or False"):
                SearchOptions(mode="base", enumerate_all=flag)

    def test_options_are_frozen(self):
        # a search validates its options once, so they must not change after
        net, demand = lobe_network(2, 1), Demand("n_s", "n_x", 1)
        opts = SearchOptions("base", 4)
        search = PairSearch(net, demand, opts)
        for field, value in (("mode", "prime"), ("max_route_cost", None),
                             ("enumerate_all", True)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(opts, field, value)
        # prime mode is not exact under a limit and would block this demand
        sol = search.run()
        assert sol.routed
        assert sol.total_cost == oracle_solve(net, demand, max_route_cost=4).min_cost == 7

    def test_deterministic_documents(self):
        net = triangle()
        demand = Demand("a", "c", 1)
        docs = []
        for _ in range(2):
            doc = solve(net, demand, SearchOptions(mode="base")).to_doc()
            doc["stats"].pop("wall_time")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestExpand:
    def test_root_symmetry_collapse(self):
        # k-d gives k a second neighbour, so k is no dead end
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 1, [(0, 4)]), ("s", "d", 2, [(0, 4)]),
                        ("k", "d", 1, [(0, 4)])])
        search = PairSearch(net, Demand("s", "d", 1), SearchOptions(mode="base"))
        root = Label((0, 0, 4), (0, 0, 4), ("s", "s"))
        cands = search.expand(root)
        # one candidate per incident link, not per link and side
        assert len(cands) == 2
        assert {c.vertex for c in cands} == {("k", "s"), ("d", "s")}

    def test_all_links_used_yields_nothing(self):
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 1, [(0, 4)]), ("s", "d", 2, [(0, 4)])])
        search = PairSearch(net, Demand("s", "d", 1), SearchOptions(mode="base"))
        # route a holds link 0 and route b link 1: every link of k and s is used
        lab = Label((1, 0, 4), (0, 0, 4), ("k", "s"), links_a=0b01, links_b=0b10)
        assert search.expand(lab) == []

    def test_route_cost_limit_drops_candidates(self):
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 11, [(0, 4)]), ("k", "d", 0, [(0, 4)])])
        search = PairSearch(net, Demand("s", "d", 1),
                            SearchOptions(mode="base", max_route_cost=10))
        root = Label((0, 0, 4), (0, 0, 4), ("s", "s"))
        assert search.expand(root) == []
        relaxed = PairSearch(net, Demand("s", "d", 1),
                             SearchOptions(mode="base", max_route_cost=11))
        assert len(relaxed.expand(root)) == 1

    def test_route_cost_limit_counts_cost_to_destination(self):
        # s-k costs 1 but k is 5 from d, so under a limit of 5 only s-d is tried
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 1, [(0, 4)]), ("k", "d", 5, [(0, 4)]),
                        ("s", "d", 4, [(0, 4)])])
        root = Label((0, 0, 4), (0, 0, 4), ("s", "s"))
        for limit, reached in ((5, {("d", "s")}), (6, {("d", "s"), ("k", "s")})):
            search = PairSearch(net, Demand("s", "d", 1),
                                SearchOptions(mode="base", max_route_cost=limit))
            assert {c.vertex for c in search.expand(root)} == reached

    def test_distinct_vertex_expands_both_sides(self):
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 1, [(0, 4)]), ("k", "d", 1, [(0, 4)]),
                        ("s", "k", 2, [(0, 4)])])
        search = PairSearch(net, Demand("s", "d", 1), SearchOptions(mode="base"))
        lab = Label((1, 0, 4), (0, 0, 4), ("k", "s"), links_a=0b001)
        cands = search.expand(lab)
        # side a from k: k-d, not the parallel k-s back to the source;
        # side b from s: the parallel
        assert {c.vertex for c in cands} == {("d", "s"), ("k", "k")}
        assert [(c.vertex, c.links_a, c.links_b) for c in cands] == [
            (("d", "s"), 0b011, 0),
            (("k", "k"), 0b100, 0b001),
        ]

    def test_routes_stay_paths_and_stop_at_the_destination(self):
        full = [(0, 4)]
        net = make_net(4, ["d", "k", "m", "s"],
                       [("s", "k", 1, full), ("k", "d", 1, full), ("k", "d", 1, full),
                        ("k", "m", 1, full), ("m", "k", 1, full), ("s", "d", 1, full),
                        ("m", "d", 1, full), ("s", "s", 1, full)])
        search = PairSearch(net, Demand("s", "d", 1), SearchOptions(mode="base"))
        # the s-s self-loop (link 7) is not in the view, so no route takes it
        root = Label((0, 0, 4), (0, 0, 4), ("s", "s"))
        assert [(c.links_a, c.links_b) for c in search.expand(root)] == [(1 << 0, 0), (1 << 5, 0)]
        # route a is s-d and has arrived; route b is s-k-m
        lab = Label((1, 0, 4), (2, 0, 4), ("d", "m"), links_a=0b100000, links_b=0b001001)
        # not d-k over links 1 and 2 or d-m over 6 (route a is done), nor m-k
        # over link 4 (k is on route b): only m-d
        (cand,) = search.expand(lab)
        assert cand.vertex == ("d", "d")
        # at a same-node vertex the extended route takes slot a
        assert (cand.links_a, cand.links_b) == (0b1001001, 0b100000)

    # parallel-link shadowing: link 0 (cost 3, units 0-1 free) and link 1
    # (cost 1, all units free) both join s and k, written either way round
    def bundle(self, limit=None):
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 3, [(0, 2)]), ("k", "s", 1, [(0, 4)]),
                        ("k", "d", 1, [(0, 4)]), ("s", "d", 2, [(0, 4)])])
        return PairSearch(net, Demand("s", "d", 1), SearchOptions("base", limit))

    ROOT = Label((0, 0, 4), (0, 0, 4), ("s", "s"))

    def test_only_the_cheaper_parallel_link_is_expanded_while_free(self):
        search = self.bundle()
        # link 0 comes first by id, but cheaper link 1 covers its spectrum
        assert [c.links_a for c in search.expand(self.ROOT)] == [0b0010, 0b1000]

    def test_costlier_parallel_link_expanded_once_the_other_route_holds_the_cheaper(self):
        search = self.bundle()
        # route a is s-k over link 1; route b, still at s, may take link 0
        lab = Label((1, 0, 4), (0, 0, 4), ("k", "s"), links_a=0b0010)
        assert [(c.vertex, c.links_a, c.links_b) for c in search.expand(lab)] == [
            (("d", "s"), 0b0110, 0),
            (("k", "k"), 0b0001, 0b0010),
            (("d", "k"), 0b1000, 0b0010),
        ]

    def test_equal_cost_and_spectrum_expands_only_the_lower_id(self):
        full = [(0, 4)]
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 2, full), ("k", "d", 1, full), ("k", "s", 2, full),
                        ("s", "d", 2, full)])
        search = PairSearch(net, Demand("s", "d", 1), SearchOptions(mode="base"))
        assert [shadow for _, _, _, shadow in search._view["s"]] == [0, 0b001, 0]
        assert [c.links_a for c in search.expand(self.ROOT)] == [0b0001, 0b1000]

    def test_cheaper_but_narrower_link_shadows_nothing(self):
        # link 0's run [0, 4) is not inside link 1's [0, 2)
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 3, [(0, 4)]), ("k", "s", 1, [(0, 2)]),
                        ("k", "d", 1, [(0, 4)]), ("s", "d", 2, [(0, 4)])])
        search = PairSearch(net, Demand("s", "d", 1), SearchOptions(mode="base"))
        assert [c.links_a for c in search.expand(self.ROOT)] == [0b0001, 0b0010, 0b1000]
        # a run too narrow for the demand does not count: link 0's [3, 4)
        # is outside link 1's [0, 3), but at 2 units only [0, 2) can carry it
        net = make_net(4, ["d", "k", "s"],
                       [("s", "k", 3, [(0, 2), (3, 4)]), ("k", "s", 1, [(0, 3)]),
                        ("k", "d", 1, [(0, 4)]), ("s", "d", 2, [(0, 4)])])
        # (at 1 unit each of link 0's two runs makes a candidate)
        for units, expanded in ((1, [0b0001, 0b0001, 0b0010, 0b1000]), (2, [0b0010, 0b1000])):
            search = PairSearch(net, Demand("s", "d", units), SearchOptions(mode="base"))
            assert [c.links_a for c in search.expand(self.ROOT)] == expanded, units

    @pytest.mark.parametrize("limit", range(7))
    def test_shadowing_link_passes_a_route_cost_limit_the_skipped_one_passes(self, limit):
        search = self.bundle(limit=limit)
        kept = search.expand(self.ROOT)
        assert all(not c.links_a & 0b0001 for c in kept)
        # the same search with no shadows: each candidate it adds over link
        # 0 is dominated by a kept one at the same vertex
        plain = self.bundle(limit=limit)
        plain._view = {node: [step[:3] + (0,) for step in steps]
                       for node, steps in plain._view.items()}
        skipped = [c for c in plain.expand(self.ROOT) if c.links_a & 0b0001]
        assert len(skipped) == (limit >= 4)  # 3 + h(k), against 1 + h(k) for link 1
        for cand in skipped:
            assert any(c.vertex == cand.vertex and dominates("base", c, cand) for c in kept)

    def test_shadows_are_computed_only_at_nodes_with_parallel_view_links(self, monkeypatch):
        import ddpp.search

        class Computed(Exception):
            pass

        def refuse(steps, units):
            raise Computed

        monkeypatch.setattr(ddpp.search, "_shadowed", refuse)
        # no two links join the same two nodes, so no shadow is computed
        assert solve(triangle(), Demand("a", "c", 1), SearchOptions(mode="base")).routed
        for seed in range(4):
            solve(random_network(10, 3.0, 16, 0.6, seed), Demand("n0", "n9", 2))
        # the only parallel links join a to the stub w, which is peeled
        stub = make_net(8, ["a", "d", "s", "w"],
                        [("s", "a", 1, FULL8), ("a", "w", 1, FULL8), ("w", "a", 2, FULL8),
                         ("a", "d", 1, FULL8), ("s", "d", 3, FULL8)])
        sol = solve(stub, Demand("s", "d", 1), SearchOptions(mode="base"))
        assert sol.routed and sol.total_cost == 5
        with pytest.raises(Computed):
            self.bundle()


def lab_at(v, ca, ia, cb, ib):
    return Label((ca, *ia), (cb, *ib), v)


class TestEfficientSet:
    def test_insert_into_empty_set(self):
        store = EfficientSet(False, "base")
        accepted, removed = store.insert(lab_at(("a", "b"), 1, (0, 4), 2, (0, 4)))
        assert accepted and removed == 0
        assert len(store) == 1

    def test_equal_label_rejected_keep_first(self):
        store = EfficientSet(False, "base")
        first = lab_at(("a", "b"), 1, (0, 4), 2, (0, 4))
        twin = lab_at(("a", "b"), 1, (0, 4), 2, (0, 4))
        assert store.insert(first)[0]
        assert store.insert(twin)[0] is False
        assert store.alive_labels() == [first]
        assert first.alive and twin.alive  # rejection does not flag; caller does

    def test_prime_equal_cost_equal_resources_rejected(self):
        store = EfficientSet(True, "prime")
        v = ("n_1", "n_1")
        assert store.insert(lab_at(v, 0, (0, 1), 3, (0, 1)))[0]
        assert store.insert(lab_at(v, 1, (0, 1), 2, (0, 1)))[0] is False
        assert len(store) == 1

    def test_accepted_candidate_removes_dominated(self):
        store = EfficientSet(False, "base")
        weak = lab_at(("a", "b"), 5, (0, 2), 5, (0, 2))
        assert store.insert(weak)[0]
        strong = lab_at(("a", "b"), 1, (0, 4), 1, (0, 4))
        accepted, removed = store.insert(strong)
        assert accepted and removed == 1
        assert not weak.alive
        assert store.alive_labels() == [strong]

    def test_base_keeps_incomparable_splits(self):
        store = EfficientSet(True, "base")
        v = ("x", "x")
        for c in range(4, 8):
            assert store.insert(lab_at(v, c, (0, 1), 7 - c, (0, 1)))[0]
        assert len(store) == 4
        # the mirror of a stored split is equivalent, not new
        assert store.insert(lab_at(v, 3, (0, 1), 4, (0, 1)))[0] is False


class TestReconstruct:
    def test_lobe_split(self):
        net = lobe_network(1, 1)
        demand = Demand("n_s", "n_x", 1)
        # reference enumerates both disjoint pairs: cost is always 3
        assert oracle_solve(net, demand).min_cost == 3
        sol = solve(net, demand, SearchOptions(mode="base"))
        assert sol.total_cost == 3
        assert check_solution(net, demand, sol) == []
        leg_costs = sorted(
            sum(net.links[l].cost for l in leg.links)
            for leg in (sol.working, sol.protecting)
        )
        assert sum(leg_costs) == 3

    def test_root_label_rejected(self):
        from ddpp import reconstruct

        root = Label((0, 0, 1), (0, 0, 1), ("s", "s"))
        with pytest.raises(ValueError, match="root"):
            reconstruct(root, lobe_network(1, 1), 1)

    def test_link_off_the_walked_node_raises(self):
        from ddpp import reconstruct

        # route a ends at n_x, but its one link, 0, joins n_s and n_1
        lab = Label((0, 0, 1), (0, 0, 1), ("n_x", "n_x"), links_a=0b001, links_b=0b100)
        with pytest.raises(RuntimeError, match="no link of the route touches 'n_x'"):
            reconstruct(lab, lobe_network(1, 1), 1)

    def test_far_end_off_the_link_is_a_malformed_route(self):
        from ddpp import label_extend, reconstruct

        # label_extend trusts its caller's far end; a wrong one ("zz" is not
        # an end of link 2, nor a node of the network) is caught when the
        # route is walked back
        net = make_net(4, ["a", "b", "s"], [("s", "a", 1, [(0, 4)]),
                                             ("s", "b", 1, [(0, 4)]),
                                             ("a", "b", 1, [(0, 4)])])
        lab = Label((1, 0, 4), (1, 0, 4), ("a", "b"), links_a=0b01, links_b=0b10)
        (bad,) = label_extend(lab, net.links[2], "zz", "a", 1)
        assert bad.vertex == ("b", "zz")
        with pytest.raises(RuntimeError, match="malformed route: no link of the route "
                                               "touches 'zz'"):
            reconstruct(bad, net, 1)


class TestStatsAndModes:
    def test_stats_invariants(self):
        for mode in ("base", "prime"):
            sol = solve(lobe_network(3, 2), Demand("n_s", "n_x", 1),
                        SearchOptions(mode=mode, enumerate_all=True))
            st = sol.stats
            assert st.labels_settled <= st.labels_generated
            assert st.labels_settled <= st.queue_pops
            assert st.max_labels_per_vertex >= 1
            assert st.wall_time >= 0.0

    def test_destination_terminal_even_when_enumerating(self):
        net = lobe_network(2, 1)
        search = PairSearch(net, Demand("n_s", "n_x", 1),
                            SearchOptions(mode="base", enumerate_all=True))
        sol = search.run()
        assert sol.routed and sol.total_cost == 7
        assert search.destination_count == 4
        for lab in search._sets[("n_x", "n_x")].alive_labels():
            assert lab.vertex == ("n_x", "n_x")

    # (nodes, links, slots) of both legs, then (labels_generated,
    # labels_dominated, labels_settled, queue_pops, max_labels_per_vertex)
    GOLDEN = {
        (12, 1, 2, "base"): ("blocked", None, None, None, (203, 71, 132, 132, 40)),
        (12, 1, 2, "prime"): ("blocked", None, None, None, (202, 81, 122, 126, 35)),
        (12, 2, 3, "base"): ("routed", 157,
                             (["n0", "n4", "n11"], [14, 2], [2, 5]),
                             (["n0", "n3", "n9", "n11"], [11, 1, 0], [3, 6]),
                             (770, 155, 146, 154, 36)),
        (12, 2, 3, "prime"): ("routed", 157,
                              (["n0", "n4", "n11"], [14, 2], [2, 5]),
                              (["n0", "n3", "n9", "n11"], [11, 1, 0], [3, 6]),
                              (768, 164, 138, 148, 36)),
        (13, 3, 2, "base"): ("routed", 116,
                             (["n0", "n10", "n1", "n12"], [5, 13, 1], [2, 4]),
                             (["n0", "n6", "n7", "n12"], [3, 6, 16], [0, 2]),
                             (1075, 141, 126, 129, 70)),
        (13, 3, 2, "prime"): ("routed", 116,
                              (["n0", "n10", "n1", "n12"], [5, 13, 1], [2, 4]),
                              (["n0", "n6", "n7", "n12"], [3, 6, 16], [0, 2]),
                              (1075, 177, 126, 129, 70)),
        (14, 5, 2, "base"): ("routed", 304,
                             (["n0", "n10", "n2", "n13"], [7, 18, 3], [2, 4]),
                             (["n0", "n3", "n12", "n11", "n5", "n13"], [16, 15, 10, 13, 9],
                              [1, 3]),
                             (2673, 869, 623, 653, 140)),
        (14, 5, 2, "prime"): ("routed", 304,
                              (["n0", "n10", "n2", "n13"], [7, 18, 3], [2, 4]),
                              (["n0", "n3", "n12", "n11", "n5", "n13"], [16, 15, 10, 13, 9],
                               [1, 3]),
                              (2601, 896, 597, 635, 130)),
    }

    @staticmethod
    def _fingerprint(sol):
        legs = [
            None if leg is None else (leg.nodes, leg.links, leg.slots.to_doc())
            for leg in (sol.working, sol.protecting)
        ]
        st = sol.stats
        counters = (st.labels_generated, st.labels_dominated, st.labels_settled,
                    st.queue_pops, st.max_labels_per_vertex)
        return (sol.status, sol.total_cost, legs[0], legs[1], counters)

    def test_counters_match_golden(self):
        """Answers and machine-independent counters stay exact on fixed seeds."""
        for (n, seed, units, mode), expect in self.GOLDEN.items():
            net = random_network(n, 3.0, 32, 0.85, seed)
            sol = solve(net, Demand("n0", f"n{n - 1}", units), SearchOptions(mode=mode))
            assert self._fingerprint(sol) == expect, (n, seed, units, mode)
        sol = solve(lobe_network(6, 1), Demand("n_s", "n_x", 1),
                    SearchOptions(mode="base", enumerate_all=True))
        assert self._fingerprint(sol) == (
            "routed", 127,
            (["n_s", "n_1", "n_2", "n_3", "n_4", "n_5", "n_6", "n_x"],
             [1, 3, 5, 7, 9, 11, 13], [0, 1]),
            (["n_s", "n_1", "n_2", "n_3", "n_4", "n_5", "n_6", "n_x"],
             [0, 2, 4, 6, 8, 10, 12], [0, 1]),
            (432, 57, 375, 375, 64),
        )

    # Larger instances: the lobe benchmark's lobe_network(10, 1), whose sets
    # never exceed one interval bucket, and fragmented random networks whose
    # sets reach many rows and buckets with multi-label staircases.  Each
    # maps to the fingerprint, then the most rows and buckets any one set
    # ends with.
    LOBE10_NODES = ["n_s", *(f"n_{i}" for i in range(1, 11)), "n_x"]
    GOLDEN_LARGER = {
        ("lobe", 10, 1, "base"): (
            ("routed", 2047, (LOBE10_NODES, list(range(1, 22, 2)), [0, 1]),
             (LOBE10_NODES, list(range(0, 22, 2)), [0, 1]),
             (7144, 1013, 6131, 6131, 1024)), 1, 1),
        ("random", 12, 64, 0.85, 3, 2, "base"): (
            ("routed", 309, (["n0", "n5", "n11"], [6, 17], [0, 2]),
             (["n0", "n10", "n7", "n11"], [2, 1, 4], [2, 4]),
             (3506, 1257, 906, 911, 188)), 20, 188),
        ("random", 12, 64, 0.85, 3, 2, "prime"): (
            ("routed", 309, (["n0", "n5", "n11"], [6, 17], [0, 2]),
             (["n0", "n10", "n7", "n11"], [2, 1, 4], [2, 4]),
             (3506, 1278, 899, 904, 174)), 20, 174),
        ("random", 20, 320, 0.9, 11, 8, "base"): (
            ("routed", 307, (["n0", "n8", "n6", "n10", "n19"], [11, 14, 23, 16], [177, 185]),
             (["n0", "n7", "n14", "n17", "n19"], [10, 19, 18, 29], [25, 33]),
             (3878, 603, 856, 856, 225)), 15, 225),
        ("random", 20, 320, 0.9, 11, 8, "prime"): (
            ("routed", 307, (["n0", "n8", "n6", "n10", "n19"], [11, 14, 23, 16], [177, 185]),
             (["n0", "n7", "n14", "n17", "n19"], [10, 19, 18, 29], [25, 33]),
             (3878, 603, 856, 856, 225)), 15, 225),
    }

    def test_counters_match_golden_on_larger_instances(self):
        for case, expect in self.GOLDEN_LARGER.items():
            if case[0] == "lobe":
                _, m, units, mode = case
                net, demand = lobe_network(m, units), Demand("n_s", "n_x", units)
                opts = SearchOptions(mode=mode, enumerate_all=True)
            else:
                _, n, units_total, fill, seed, units, mode = case
                net = random_network(n, 3.0, units_total, fill, seed)
                demand = Demand("n0", f"n{n - 1}", units)
                opts = SearchOptions(mode=mode)
            search = PairSearch(net, demand, opts)
            sol = search.run()
            rows = max(len(s._rows) for s in search._sets.values())
            buckets = max(sum(map(len, s._rows.values())) for s in search._sets.values())
            assert (self._fingerprint(sol), rows, buckets) == expect, case

    def test_decreasing_pop_keys_raise(self, monkeypatch):
        real = PairSearch._distances_to

        def inflated(self, target):
            # h stops being consistent: the source alone is overestimated
            h = real(self, target)
            h[self.demand.src] += 100
            return h

        monkeypatch.setattr(PairSearch, "_distances_to", inflated)
        with pytest.raises(RuntimeError, match="pop keys decreased"):
            solve(lobe_network(2, 1), Demand("n_s", "n_x", 1))
        assert gc.isenabled()  # the collector pause ends when run raises

    def test_run_only_once(self):
        search = PairSearch(lobe_network(1, 1), Demand("n_s", "n_x", 1))
        search.run()
        with pytest.raises(RuntimeError):
            search.run()


class TestPathsOnly:
    """Routes are searched as paths; the oracle still enumerates trails."""

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_zero_cost_multigraph_is_routed(self, mode):
        # the trail search settled a label whose route had walked on past v2
        # ahead of the path that ends there, and reported this demand blocked
        full = [(0, 4)]
        net = make_net(4, ["v0", "v1", "v2", "v3"],
                       [("v1", "v3", 0, full), ("v2", "v2", 0, full), ("v0", "v3", 0, [(0, 2)]),
                        ("v3", "v1", 0, [(2, 3)]), ("v3", "v2", 0, [(3, 4)]),
                        ("v1", "v3", 0, full), ("v2", "v3", 0, [(2, 4)]),
                        ("v2", "v1", 0, full), ("v1", "v2", 0, full), ("v2", "v0", 0, [(0, 2)])])
        demand = Demand("v0", "v2", 1)
        assert oracle_solve(net, demand).min_cost == 0
        sol = solve(net, demand, SearchOptions(mode=mode))
        assert sol.total_cost == 0
        assert check_solution(net, demand, sol) == []

    def test_enumerated_destination_set_is_the_whole_front(self):
        """One destination label per class of the brute-force prime front.

        The trail search kept 142 labels here and missed the class (638,
        [17, 19), [18, 20)), which none of them dominated.
        """
        net = random_network(12, 3.5, 32, 0.7, 643828)
        demand = Demand("n5", "n10", 1)
        search = PairSearch(net, demand, SearchOptions(mode="prime", enumerate_all=True))
        search.run()
        front = efficient_front(net, demand, "prime")
        assert len(front) == 143

        def classes(labels):
            return {(lab.trait_a[0] + lab.trait_b[0],
                     *sorted((lab.trait_a[1:], lab.trait_b[1:]))) for lab in labels}

        found = search._sets[("n10", "n10")].alive_labels()
        assert len(found) == 143
        assert classes(found) == classes(front)
        assert (638, (17, 19), (18, 20)) in classes(found)


class TestCollectorPause:
    """``run`` pauses the cyclic garbage collector and restores the caller's
    setting; the pause is safe only because a search builds no cycles."""

    def test_enabled_again_after_a_solve(self):
        assert gc.isenabled()
        solve(lobe_network(3, 1), Demand("n_s", "n_x", 1))
        assert gc.isenabled()

    def test_paused_inside_the_search(self, monkeypatch):
        seen = []
        real = PairSearch.expand

        def recording(self, label):
            seen.append(gc.isenabled())
            return real(self, label)

        monkeypatch.setattr(PairSearch, "expand", recording)
        solve(lobe_network(3, 1), Demand("n_s", "n_x", 1))
        assert seen and not any(seen)

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            solve(lobe_network(3, 1), Demand("n_s", "n_x", 1))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_search_and_replay_build_no_reference_cycles(self):
        lobe = lobe_network(6, 1)
        routed = random_network(14, 3.0, 32, 0.85, 5)
        blocked = random_network(12, 3.0, 32, 0.85, 1)
        traffic_net = random_network(9, 3.0, 8, 0.8, 2)
        events = gen_traffic(traffic_net, 50, 3.0, 0.25, (1, 2), 2)
        gc.collect()
        gc.disable()
        try:
            for mode in ("base", "prime"):
                assert solve(lobe, Demand("n_s", "n_x", 1),
                             SearchOptions(mode=mode, enumerate_all=True)).routed
                assert solve(routed, Demand("n0", "n13", 2), SearchOptions(mode=mode)).routed
                sol = solve(blocked, Demand("n0", "n11", 2), SearchOptions(mode=mode))
                assert sol.status == "blocked" and sol.stats.queue_pops > 0
            for limit in (63, 64):  # blocked, then routed, by the limit
                solve(lobe, Demand("n_s", "n_x", 1),
                      SearchOptions(mode="base", max_route_cost=limit))
            report = run(traffic_net, events)
            assert report.routed and report.blocked
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_layer_seams_are_called_through_module_attributes(monkeypatch):
    """A per-layer tracer wraps ``search.label_extend`` and
    ``spectrum_core.trait_extend`` by attribute, so a solve must call both
    through those names, one trait extension per label extension."""
    import ddpp.search
    import ddpp.spectrum_core

    calls = {"label_extend": 0, "trait_extend": 0}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    count(ddpp.search, "label_extend")
    count(ddpp.spectrum_core, "trait_extend")
    sol = solve(random_network(8, 3.0, 16, 0.85, 3), Demand("n0", "n7", 2),
                SearchOptions(mode="base"))
    assert sol.stats.labels_generated > 1
    assert calls["label_extend"] > 0
    assert calls["trait_extend"] == calls["label_extend"]


class TestLimitedVariant:
    def test_limit_below_longer_route_blocks_triangle(self):
        net = triangle()
        demand = Demand("a", "c", 2)
        # unlimited optimum uses routes of cost 2 and 5
        for limit in (4, 3, 2):
            expect = oracle_solve(net, demand, max_route_cost=limit)
            got = solve(net, demand, SearchOptions(mode="base", max_route_cost=limit))
            assert got.status == expect.status == "blocked"
        exact = solve(net, demand, SearchOptions(mode="base", max_route_cost=5))
        assert exact.routed and exact.total_cost == 7

    def test_limit_threshold_on_cost_splits(self):
        # every disjoint pair costs 7, but the per-route split varies from
        # (3, 4) to (0, 7); the limit admits exactly the balanced splits
        net = lobe_network(2, 1)
        demand = Demand("n_s", "n_x", 1)
        for limit in (3, 2, 1):
            expect = oracle_solve(net, demand, max_route_cost=limit)
            got = solve(net, demand, SearchOptions(mode="base", max_route_cost=limit))
            assert got.status == expect.status == "blocked"
        for limit in (4, 5, 7):
            expect = oracle_solve(net, demand, max_route_cost=limit)
            got = solve(net, demand, SearchOptions(mode="base", max_route_cost=limit))
            assert got.routed and got.total_cost == expect.min_cost == 7

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_every_leg_within_limit(self, seed):
        # limits at and just below each leg cost of the unlimited optimum:
        # every routed answer must pass the check, leg costs within the limit
        net = random_network(9, 3.0, 16, 0.85, seed)
        demand = Demand("n0", "n8", 2)
        unlimited = solve(net, demand, SearchOptions(mode="base"))
        leg_costs = [sum(net.links[l].cost for l in leg.links)
                     for leg in (unlimited.working, unlimited.protecting)]
        for limit in sorted({c - d for c in leg_costs for d in (0, 1)}):
            sol = solve(net, demand, SearchOptions(mode="base", max_route_cost=limit))
            expect = oracle_solve(net, demand, max_route_cost=limit)
            assert (sol.status, sol.total_cost) == (expect.status, expect.min_cost), limit
            if limit >= max(leg_costs):
                assert sol.total_cost == unlimited.total_cost
            assert check_solution(net, demand, sol, limit) == [], limit


class TestUsableLinkView:
    @pytest.mark.parametrize("seed", range(6))
    def test_h_is_exact_and_consistent(self, seed):
        net = random_network(10, 3.0, 16, 0.6, seed)
        for units in (1, 3, 5):
            demand = Demand("n0", "n9", units)
            search = PairSearch(net, demand)
            links = peeled_view(net, demand)
            h = search._h
            assert h == view_distances(net, links, demand.dst)
            assert h[demand.dst] == 0
            # random_network draws no parallel links, so nothing is shadowed
            assert search._view == {
                node: [(l, 1 << l.id, l.other_end(node), 0) for l in links if node in l.ends]
                for node in net.nodes
            }
            for link in links:
                # closed under view adjacency: both ends have h or neither
                assert (link.ends[0] in h) == (link.ends[1] in h)
                for u, v in (link.ends, link.ends[::-1]):
                    if u in h:
                        assert h[u] <= link.cost + h[v]
            search.run()
            assert all(a in h and b in h for a, b in search._sets)

    def test_view_lists_parallel_links_once_and_no_self_loop(self):
        net = make_net(8, ["a", "b", "c"],
                       [("a", "b", 1, FULL8), ("a", "b", 2, [(0, 1), (3, 4)]),
                        ("b", "b", 1, FULL8), ("a", "b", 3, [(2, 8)]),
                        ("b", "c", 1, FULL8), ("c", "c", 1, [(0, 1)])])
        view = PairSearch(net, Demand("a", "c", 2))._view
        # link 1 has no run two units wide; link 3's run [2, 8) lies in
        # cheaper link 0's [0, 8), so link 0 shadows it at both ends
        assert {node: [(l.id, bit, far, shadow) for l, bit, far, shadow in steps]
                for node, steps in view.items()} == {
            "a": [(0, 1, "b", 0), (3, 8, "b", 1)],
            "b": [(0, 1, "a", 0), (3, 8, "a", 1), (4, 16, "c", 0)],
            "c": [(4, 16, "b", 0)]}

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_destination_beyond_narrow_links_blocked_without_pops(self, mode):
        # d is only reachable over links whose free runs are one unit wide
        net = make_net(8, ["a", "d", "s"],
                       [("s", "a", 1, FULL8), ("s", "a", 1, FULL8),
                        ("a", "d", 1, [(0, 1), (2, 3)]), ("s", "d", 1, [(4, 5)])])
        demand = Demand("s", "d", 2)
        assert not oracle_solve(net, demand).routed
        sol = solve(net, demand, SearchOptions(mode=mode))
        assert sol.status == "blocked"
        assert sol.stats.queue_pops == 0 and sol.stats.labels_generated == 1

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_dead_end_branch_gets_no_efficient_set(self, mode):
        core = [("s", "a", 1, FULL8), ("a", "d", 1, FULL8), ("s", "d", 4, FULL8)]
        # x and y hang off a by a link too narrow for two units
        branch = [("a", "x", 0, [(0, 1)]), ("x", "y", 0, FULL8)]
        net = make_net(8, ["a", "d", "s", "x", "y"], core + branch)
        demand = Demand("s", "d", 2)
        search = PairSearch(net, demand, SearchOptions(mode=mode))
        assert "x" not in search._h and "y" not in search._h
        sol = search.run()
        assert not any({"x", "y"} & set(v) for v in search._sets)
        without = solve(make_net(8, ["a", "d", "s", "x", "y"], core), demand,
                        SearchOptions(mode=mode))
        assert sol.routed and sol.total_cost == without.total_cost == 6
        assert sol.total_cost == oracle_solve(net, demand).min_cost
        assert check_solution(net, demand, sol) == []

    @pytest.mark.parametrize("mode", ["base", "prime"])
    def test_usable_dead_ends_are_peeled(self, mode):
        # the path s-a-d, each hop doubled, with two dead ends off a over
        # free zero-cost links: the tree a-x, x-y, x-z, and the stub w,
        # whose two parallel links give it one neighbour
        nodes = ["a", "d", "s", "w", "x", "y", "z"]
        core = [("s", "a", 1, FULL8), ("a", "s", 2, [(0, 4)]),
                ("a", "d", 1, FULL8), ("d", "a", 2, [(4, 8)])]
        branch = [("a", "x", 0, FULL8), ("x", "y", 0, FULL8), ("x", "z", 0, FULL8),
                  ("a", "w", 0, FULL8), ("w", "a", 0, FULL8)]
        net = make_net(8, nodes, core + branch)
        demand = Demand("s", "d", 2)
        search = PairSearch(net, demand, SearchOptions(mode=mode))
        kept = {"a", "d", "s"}
        assert set(search._h) == kept
        assert {node for node, steps in search._view.items() if steps} == kept
        assert all(far in kept for steps in search._view.values() for _, _, far, _ in steps)
        sol = search.run()
        assert all(set(v) <= kept for v in search._sets)
        without = solve(make_net(8, nodes, core), demand, SearchOptions(mode=mode))
        docs = [sol.to_doc(), without.to_doc()]
        for doc in docs:
            del doc["stats"]["wall_time"]
        assert docs[0] == docs[1]
        assert sol.total_cost == oracle_solve(net, demand).min_cost == 6
        assert check_solution(net, demand, sol) == []
