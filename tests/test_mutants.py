"""Committed mutants: known-wrong variants of the search or the oracle that
an existing check must catch.

Each case swaps one product function for a mutant and runs a check of
``test_properties``, a differential against the oracle or against solves
without the pair bound or a property against brute force, over the test
profile's fixed example set with shrinking off (``CHECK``), or a check on
hand-built or seeded instances that the example set misses, expecting it
to fail.  The unmutated search passes the same checks.  A check that stops
catching its mutant has lost strength, and a case here fails to say so.
"""

import inspect
import textwrap

import pytest
from hypothesis import Phase, given, settings

import test_search
from conftest import narrow_partner_network, reach_limit_trap, second_leg_trap
from test_properties import (EFFICIENT_SET_INPUTS, assert_efficient_set_matches_naive,
                             assert_exact_in_every_combination,
                             assert_expand_matches_reference,
                             assert_suurballe_is_the_cheapest_pair,
                             assert_view_keeps_every_simple_path, bound_savings,
                             multigraph_demands, trap_core_demands)

from ddpp import Demand, oracle, search
from ddpp.search import PairSearch, SearchOptions

# the profile's fixed example set, run once through: no stored examples
# replayed, no shrinking, the first failure reported
CHECK = settings(max_examples=200, database=None, phases=[Phase.generate],
                 report_multiple_bugs=False)

@CHECK
@given(multigraph_demands())
def oracle_differential(instance):
    assert_exact_in_every_combination(*instance)


@CHECK
@given(trap_core_demands())
def bound_differential(instance):
    bound_savings(*instance)


@CHECK
@given(trap_core_demands())
def suurballe_check(instance):
    assert_suurballe_is_the_cheapest_pair(*instance)


@CHECK
@given(multigraph_demands())
def view_check(instance):
    assert_view_keeps_every_simple_path(*instance)


@CHECK
@given(*EFFICIENT_SET_INPUTS)
def efficient_set_check(mode, same_node, rows):
    assert_efficient_set_matches_naive(mode, same_node, rows)


@CHECK
@given(multigraph_demands())
def expand_check(instance):
    assert_expand_matches_reference(*instance)


def h_check():
    for seed in range(6):
        test_search.TestUsableLinkView().test_h_is_exact_and_consistent(seed)


def shadow_check():
    test_search.TestExpand().test_only_the_cheaper_parallel_link_is_expanded_while_free()


def mutant(function, old: str, new: str):
    """``function`` compiled again from its source, in its own module's
    namespace, with the one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    built: dict = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"),
         vars(inspect.getmodule(function)), built)
    return built[function.__name__]


def test_the_unmutated_search_passes():
    oracle_differential()
    bound_differential()
    suurballe_check()
    view_check()
    efficient_set_check()
    expand_check()


def test_bound_one_below_the_pair_is_caught(monkeypatch):
    real = PairSearch._pair_bound

    def lowered(self, cost, out):
        bound = real(self, cost, out)
        return None if bound is None else bound - 1

    monkeypatch.setattr(PairSearch, "_pair_bound", lowered)
    with pytest.raises(AssertionError):
        oracle_differential()


def test_skip_at_the_bound_itself_is_caught(monkeypatch):
    monkeypatch.setattr(PairSearch, "expand", mutant(
        search.PairSearch.expand, "link.cost + h[far] > cap", "link.cost + h[far] >= cap"))
    with pytest.raises(AssertionError):
        oracle_differential()


def test_trail_search_is_caught(monkeypatch):
    # routes may pass a node twice and walk on past the destination
    monkeypatch.setattr(PairSearch, "expand", mutant(
        search.PairSearch.expand, "used & bit or shadow & free or route & touching[far]",
        "used & bit or shadow & free"))
    with pytest.raises(AssertionError):
        oracle_differential()


# the clip expand inlines from trait_extend, and its vertex order: the
# label_extend reference and the oracle differential each catch all three
@pytest.mark.parametrize("check", [expand_check, oracle_differential],
                         ids=["reference", "oracle"])
@pytest.mark.parametrize("old, new", [
    pytest.param("piece_hi - piece_lo >= units", "piece_hi - piece_lo > units",
                 id="clip-wider-than-units"),
    pytest.param("if piece_lo < lo:", "if False:", id="clip-without-lo-clamp"),
    # a grown route that ends at the kept node takes slot b
    pytest.param("ordered = far <= kept", "ordered = far < kept", id="vertex-order-strict"),
])
def test_expand_clip_mutant_is_caught(monkeypatch, old, new, check):
    monkeypatch.setattr(PairSearch, "expand", mutant(search.PairSearch.expand, old, new))
    with pytest.raises(AssertionError):
        check()


@pytest.mark.parametrize("old, new", [
    pytest.param("limit is not None and traits[0][0] > limit", "False", id="limit-off"),
    # the first leg walked, s-t at 9, goes unchecked
    pytest.param("traits[0][0] > limit", "leg and traits[0][0] > limit",
                 id="limit-on-one-leg"),
])
def test_bound_past_the_limit_is_caught(monkeypatch, old, new):
    monkeypatch.setattr(PairSearch, "_pair_bound", mutant(search.PairSearch._pair_bound, old, new))
    with pytest.raises(AssertionError):
        assert_exact_in_every_combination(reach_limit_trap(), Demand("s", "t", 1))


def test_partner_without_a_window_is_caught(monkeypatch):
    # the first leg walked, s-m-t, has no common 2-unit window, and goes
    # unchecked
    monkeypatch.setattr(PairSearch, "_pair_bound", mutant(
        search.PairSearch._pair_bound, "if not traits or", "if leg and not traits or"))
    with pytest.raises(AssertionError):
        assert_exact_in_every_combination(narrow_partner_network(), Demand("s", "t", 2))


def test_window_one_unit_wide_is_caught(monkeypatch):
    monkeypatch.setattr(PairSearch, "_pair_bound", mutant(
        search.PairSearch._pair_bound, "trait_extend(trait, link, units)",
        "trait_extend(trait, link, 1)"))
    with pytest.raises(AssertionError):
        assert_exact_in_every_combination(narrow_partner_network(), Demand("s", "t", 2))


@pytest.mark.parametrize("units, old, new", [
    # s-b-t, the leg walked second, breaks the limit of 9 unchecked
    pytest.param(1, "traits[0][0] > limit", "not leg and traits[0][0] > limit",
                 id="limit-on-first-leg"),
    # s-b-t has no common 2-unit window, and goes unchecked
    pytest.param(2, "if not traits or", "if not leg and not traits or",
                 id="window-on-first-leg"),
])
def test_leg_walked_second_unchecked_is_caught(monkeypatch, units, old, new):
    monkeypatch.setattr(PairSearch, "_pair_bound", mutant(search.PairSearch._pair_bound, old, new))
    with pytest.raises(AssertionError):
        assert_exact_in_every_combination(second_leg_trap(), Demand("s", "t", units))


@pytest.mark.parametrize("name, old, new, error", [
    pytest.param("_peel", " and node not in anchors]", "]", AssertionError,
                 id="peel-without-anchors"),
    # a node listed dead twice is popped twice
    pytest.param("_peel", "len(far) < 2", "len(far) < 3", KeyError, id="peel-below-three"),
    pytest.param("_shadowed", "other_far == far and ", "", AssertionError,
                 id="shadow-any-far-end"),
    pytest.param("_shadowed", "(other.cost, other.id) < (link.cost, link.id)",
                 "other.cost <= link.cost and other is not link", AssertionError,
                 id="shadow-equal-costs"),
    pytest.param("_shadowed", "(other.cost, other.id) < (link.cost, link.id)",
                 "(other.cost, other.id) > (link.cost, link.id)", AssertionError,
                 id="shadow-costlier"),
])
def test_view_mutant_is_caught(monkeypatch, name, old, new, error):
    monkeypatch.setattr(search, name, mutant(getattr(search, name), old, new))
    with pytest.raises(error):
        oracle_differential()


# both differentials miss these: the answers stay the same, or they
# fail with a KeyError rather than an assertion
@pytest.mark.parametrize("old, new, check", [
    # a link is listed when either of its ends survives the peel
    pytest.param("a in near and b in near", "a in near or b in near", view_check,
                 id="either-end-view"),
    pytest.param("a in near and b in near", "a in near or b in near", h_check,
                 id="either-end-h"),
    # shadows only at nodes with two more view links than kept neighbours
    pytest.param("len(far) < len(view[node])", "len(far) + 1 < len(view[node])", shadow_check,
                 id="shadows-two-over"),
    pytest.param("if len(far) < len(view[node]):", "if False:", shadow_check,
                 id="shadows-never-filled"),
    # the usability pass records each usable link at one end only
    pytest.param("near[b].add(a)", "pass", view_check, id="one-direction-usable"),
])
def test_view_build_mutant_is_caught(monkeypatch, old, new, check):
    monkeypatch.setattr(PairSearch, "__init__", mutant(PairSearch.__init__, old, new))
    with pytest.raises(AssertionError):
        check()


def test_leg_at_the_limit_refused_is_caught(monkeypatch):
    # no bound where a leg costs the limit exactly; only the bound pinned at
    # limit 5, the partner's cost, shows it
    monkeypatch.setattr(PairSearch, "_pair_bound", mutant(
        search.PairSearch._pair_bound, "traits[0][0] > limit", "traits[0][0] >= limit"))
    with pytest.raises(AssertionError):
        test_search.TestPairBound().test_limit_the_partner_breaks_gives_no_bound(5, 7)


def test_stats_fields_swapped_are_caught(monkeypatch):
    # only the pinned counters tell labels_settled from queue_pops
    monkeypatch.setattr(PairSearch, "_settle", mutant(
        PairSearch._settle, "SearchStats(generated, dominated, settled, pops,",
        "SearchStats(generated, dominated, pops, settled,"))
    with pytest.raises(AssertionError):
        test_search.TestStatsAndModes().test_counters_match_golden()


def test_prime_under_a_limit_accepted_is_caught(monkeypatch):
    # no exactness check runs the combination; only the option check sees
    # it accepted, and pytest.raises reports that with pytest.fail
    monkeypatch.setattr(SearchOptions, "__post_init__", mutant(
        SearchOptions.__post_init__, 'if self.mode != "base":', "if False:"))
    with pytest.raises(pytest.fail.Exception):
        test_search.TestSolveExamples().test_inconsistent_options_rejected()


@pytest.mark.parametrize("name, old, new", [
    pytest.param("_runs", "hi - lo >= width", "hi - lo > width", id="runs-wider-than-width"),
    pytest.param("_free_units", "set.intersection(", "set.union(", id="free-units-union"),
])
def test_oracle_mutant_is_caught(monkeypatch, name, old, new):
    monkeypatch.setattr(oracle, name, mutant(getattr(oracle, name), old, new))
    with pytest.raises(AssertionError):
        oracle_differential()


def test_greedy_partner_is_caught(monkeypatch):
    # route two may not cross route one's links back: the pair is the
    # shortest route and its cheapest partner, dearer than the optimum
    # wherever the extra links give the trap core's route one a partner
    monkeypatch.setattr(search, "_dijkstra", mutant(
        search._dijkstra, "if toward.get(far) is not link:", "if True:"))
    with pytest.raises(AssertionError):
        bound_differential()
    # against brute force it reports no pair, or a dearer one, where only
    # crossing route one back finds the cheapest
    with pytest.raises(AssertionError):
        suurballe_check()


@pytest.mark.parametrize("old, new", [
    # a same-node vertex compares labels slot-aligned only
    pytest.param("(aligned, (lb, hb, la, ha, cb, ca)) if self._same else (aligned,)",
                 "(aligned,)", id="no-swapped-view"),
    # a member at the candidate's costs survives it
    pytest.param("cost_b[end] >= xb", "cost_b[end] > xb", id="base-evicts-dearer-only"),
    pytest.param("entry[0] >= xa", "entry[0] > xa", id="prime-evicts-dearer-only"),
])
def test_efficient_set_mutant_is_caught(monkeypatch, old, new):
    monkeypatch.setattr(search.EfficientSet, "insert",
                        mutant(search.EfficientSet.insert, old, new))
    with pytest.raises(AssertionError):
        efficient_set_check()


def test_settling_dead_labels_is_caught(monkeypatch):
    # every differential misses it; only pinned counters see the evicted
    # labels settled and expanded
    monkeypatch.setattr(PairSearch, "_settle", mutant(
        PairSearch._settle, "if not label.alive:", "if False:"))
    with pytest.raises(AssertionError):
        test_search.TestPairBound().test_suurballe_trap_is_bounded_by_the_optimum("base", True)
