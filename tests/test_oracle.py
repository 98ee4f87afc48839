"""Brute-force reference solver and the search/oracle comparison harness."""

import dataclasses
import random

import pytest

from conftest import link_units, make_net, unit_runs

from ddpp import (
    BudgetExceeded,
    Demand,
    UnitInterval,
    check_solution,
    compare,
    load_demand,
    load_network,
    lobe_network,
    oracle_solve,
    random_network,
    solve,
)
import ddpp.oracle
from ddpp.oracle import _free_units, _runs, bundle_doc

FULL8 = [(0, 8)]


class TestRouteIntervals:
    """A route's intervals: the runs of the units free on all its links."""

    def test_pairwise_intersection(self):
        net = make_net(8, ["a", "b", "c"],
                       [("a", "b", 1, [(0, 4)]), ("b", "c", 1, [(2, 8)])])
        got = _runs(_free_units(net, [0, 1]), 2)
        assert [g.to_doc() for g in got] == [[2, 4]]
        # independent unit-level recomputation
        expect = unit_runs(link_units(net.links[0]) & link_units(net.links[1]), 2)
        assert [(g.lo, g.hi) for g in got] == expect

    def test_empty_link_kills_route(self):
        net = make_net(8, ["a", "b", "c"],
                       [("a", "b", 1, FULL8), ("b", "c", 1, [])])
        assert _runs(_free_units(net, [0, 1]), 1) == ()

    def test_single_link_route(self):
        net = make_net(8, ["a", "b"], [("a", "b", 1, [(0, 2), (3, 8)])])
        assert [g.to_doc() for g in _runs(_free_units(net, [0]), 3)] == [[3, 8]]
        assert [g.to_doc() for g in _runs(_free_units(net, [0]), 1)] == [[0, 2], [3, 8]]

    def test_order_independence(self):
        net = make_net(8, ["a", "b", "c", "d"],
                       [("a", "b", 1, [(0, 6)]), ("b", "c", 1, [(1, 7)]),
                        ("c", "d", 1, [(2, 8)])])
        forward = _runs(_free_units(net, [0, 1, 2]), 1)
        backward = _runs(_free_units(net, [2, 1, 0]), 1)
        assert forward == backward
        assert [g.to_doc() for g in forward] == [[2, 6]]


class TestOracleSolve:
    def test_lobe_counts_and_minimum(self):
        result = oracle_solve(lobe_network(2, 1), Demand("n_s", "n_x", 1))
        assert result.routed
        assert result.min_cost == 7
        assert result.pair_count == 4

    def test_two_node_single_link_blocked(self):
        net = make_net(8, ["a", "b"], [("a", "b", 1, FULL8)])
        result = oracle_solve(net, Demand("a", "b", 1))
        assert result.status == "blocked" and result.pair_count == 0

    def test_triangle_single_pair(self):
        net = make_net(8, ["a", "b", "c"],
                       [("a", "b", 1, FULL8), ("b", "c", 1, FULL8),
                        ("a", "c", 5, [(0, 4)])])
        result = oracle_solve(net, Demand("a", "c", 2))
        assert result.min_cost == 7 and result.pair_count == 1
        witness = result.witness
        assert (witness.route_a, witness.route_b) == ((0, 1), (2,))
        assert witness.cost_a + witness.cost_b == 7

    def test_route_cost_limit(self):
        net = lobe_network(2, 1)
        limited = oracle_solve(net, Demand("n_s", "n_x", 1), max_route_cost=3)
        assert limited.status == "blocked"
        relaxed = oracle_solve(net, Demand("n_s", "n_x", 1), max_route_cost=4)
        assert relaxed.min_cost == 7

    def test_budget_exceeded_is_an_error(self):
        net = lobe_network(4, 1)
        with pytest.raises(BudgetExceeded):
            oracle_solve(net, Demand("n_s", "n_x", 1), budget=10)
        # four trails fit a budget of 4, their six candidate pairs do not
        with pytest.raises(BudgetExceeded, match="6 candidate route pairs exceed"):
            oracle_solve(lobe_network(1, 1), Demand("n_s", "n_x", 1), budget=4)

    def test_trails_longer_than_the_recursion_limit(self):
        # 1,100 segments: one trail is deeper than the default recursion limit
        with pytest.raises(BudgetExceeded):
            oracle_solve(lobe_network(1099, 1), Demand("n_s", "n_x", 1), budget=10)
        nodes = [f"v{i}" for i in range(1100)]
        chain = make_net(1, nodes, [(a, b, 1, [(0, 1)]) for a, b in zip(nodes, nodes[1:])])
        assert oracle_solve(chain, Demand(nodes[0], nodes[-1], 1)).status == "blocked"

    @pytest.mark.parametrize("limit", ["3", 2.5, True])
    def test_non_integer_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="max_route_cost must be an integer"):
            oracle_solve(lobe_network(2, 1), Demand("n_s", "n_x", 1), max_route_cost=limit)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            oracle_solve(lobe_network(1, 1), Demand("n_s", "n_x", 1), budget=budget)

    @pytest.mark.parametrize("solver", [oracle_solve, compare])
    @pytest.mark.parametrize("budget", ["3", 2.5, True])
    def test_non_integer_budget_rejected(self, solver, budget):
        with pytest.raises(ValueError, match="budget must be an integer"):
            solver(lobe_network(1, 1), Demand("n_s", "n_x", 1), budget=budget)

    def test_deterministic_witness(self):
        net = random_network(7, 3, 4, 0.8, 11)
        demand = Demand(net.nodes[0], net.nodes[-1], 1)
        first = oracle_solve(net, demand)
        second = oracle_solve(net, demand)
        assert first.to_doc() == second.to_doc()


def with_leg(sol, name, **changes):
    return dataclasses.replace(sol, **{name: dataclasses.replace(getattr(sol, name), **changes)})


class TestCheckSolution:
    """One problem per fault, found from the network data alone."""

    # working a-c over link 2, slots [0, 1); protecting a-b-c over links 0, 1
    NET = make_net(8, ["a", "b", "c"],
                   [("a", "b", 1, FULL8), ("b", "c", 1, FULL8), ("a", "c", 5, [(0, 4)]),
                    ("b", "b", 1, FULL8)])
    DEMAND = Demand("a", "c", 1)

    @pytest.mark.parametrize("corrupt, limit, problems", [
        (lambda sol: sol, None, []),
        (lambda sol: sol, 5, []),
        (lambda sol: dataclasses.replace(sol, status="blocked", total_cost=None), 0, []),
        (lambda sol: sol, 4, ["working route costs 5, over the limit 4"]),
        (lambda sol: dataclasses.replace(sol, total_cost=8), None,
         ["cost 8 is not the link-cost sum 7"]),
        (lambda sol: dataclasses.replace(sol, protecting=sol.working), None,
         ["the routes share a link", "cost 7 is not the link-cost sum 10"]),
        (lambda sol: with_leg(sol, "working", nodes=["c", "a"]), None,
         ["working links [2] do not walk ['c', 'a'] from 'a' to 'c'"]),
        (lambda sol: with_leg(sol, "working", links=[9]), None,
         ["working links [9] do not walk ['a', 'c'] from 'a' to 'c'"]),
        (lambda sol: with_leg(sol, "protecting", nodes=["a", "b"], links=[0]), None,
         ["protecting links [0] do not walk ['a', 'b'] from 'a' to 'c'"]),
        (lambda sol: dataclasses.replace(
            with_leg(sol, "protecting", nodes=["a", "b", "b", "c"], links=[0, 3, 1]),
            total_cost=8), None,
         ["protecting route ['a', 'b', 'b', 'c'] repeats a node"]),
        (lambda sol: with_leg(sol, "working", slots=UnitInterval(0, 2)), None,
         ["working slots [0, 2] are not 1 wide"]),
        (lambda sol: with_leg(sol, "working", slots=UnitInterval(5, 6)), None,
         ["working slots [5, 6] are not free on every link"]),
    ], ids=["as-solved", "within-limit", "blocked", "over-limit", "cost", "same-route",
            "reversed-leg", "unknown-link", "short-leg", "repeated-node", "wide-slots",
            "slots-not-free"])
    def test_each_fault_is_named(self, corrupt, limit, problems):
        sol = solve(self.NET, self.DEMAND)
        assert (sol.working.links, sol.protecting.links) == ([2], [0, 1])
        assert check_solution(self.NET, self.DEMAND, corrupt(sol), limit) == problems


class TestCompare:
    def test_lobes_agree_in_both_modes(self):
        for m in range(1, 7):
            report = compare(lobe_network(m, 1), Demand("n_s", "n_x", 1))
            assert report.matches
            assert set(report.solutions) == {"base", "prime"}
            assert report.oracle.min_cost == 2 ** (m + 1) - 1

    def test_limited_compare_runs_base_only(self):
        report = compare(lobe_network(2, 1), Demand("n_s", "n_x", 1), max_route_cost=4)
        assert set(report.solutions) == {"base"}
        assert report.matches

    def test_blocked_instances_agree(self):
        net = make_net(4, ["a", "b"], [("a", "b", 1, [(0, 4)])])
        report = compare(net, Demand("a", "b", 1))
        assert report.matches
        assert not report.oracle.routed
        assert all(not sol.routed for sol in report.solutions.values())

    def test_random_corpus_sample(self):
        rng = random.Random(5)
        for i in range(40):
            net = random_network(rng.choice([5, 6, 7]), 2.5, 4, 0.6, seed=300 + i)
            nodes = list(net.nodes)
            src = rng.choice(nodes)
            dst = rng.choice([x for x in nodes if x != src])
            demand = Demand(src, dst, rng.randint(1, 2))
            report = compare(net, demand)
            assert report.matches, bundle_doc(net, demand, report)

    @pytest.mark.parametrize("corrupt", [
        # the direct a-c link is free only on units 0-3
        lambda leg: dataclasses.replace(leg, slots=UnitInterval(5, 6)),
        lambda leg: dataclasses.replace(leg, nodes=leg.nodes[::-1]),
    ], ids=["slots-not-free", "reversed-leg"])
    def test_right_cost_with_a_wrong_leg_disagrees(self, monkeypatch, corrupt):
        net = make_net(8, ["a", "b", "c"],
                       [("a", "b", 1, FULL8), ("b", "c", 1, FULL8),
                        ("a", "c", 5, [(0, 4)])])
        demand = Demand("a", "c", 1)
        assert compare(net, demand).matches
        real = ddpp.oracle.solve

        def corrupted(*args, **kwargs):
            sol = real(*args, **kwargs)
            assert sol.working.links == [2] and sol.working.slots == UnitInterval(0, 1)
            return dataclasses.replace(sol, working=corrupt(sol.working))

        monkeypatch.setattr(ddpp.oracle, "solve", corrupted)
        report = compare(net, demand)
        assert report.oracle.min_cost == 7
        assert all(sol.total_cost == 7 for sol in report.solutions.values())
        assert report.verdicts == {"base": False, "prime": False}
        assert not report.matches

    def test_bundle_document_replays(self):
        net = lobe_network(2, 1)
        demand = Demand("n_s", "n_x", 1)
        report = compare(net, demand)
        doc = bundle_doc(net, demand, report)
        assert load_network(doc["network"]) == net
        assert load_demand(doc["demand"]) == demand
        assert doc["oracle"]["min_cost"] == 7
        assert set(doc["solutions"]) == {"base", "prime"}
        assert (doc["verdicts"], doc["matches"]) == ({"base": True, "prime": True}, True)
