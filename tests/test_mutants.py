"""Committed mutants: known-wrong variants of the search or the oracle that
an existing check must catch.

A mutant is one row of ``MUTANTS``: a product function, named by its owner
and attribute, one source fragment of it and its replacement, the check
that must catch the variant and the error the check must raise.  A check is
one of ``test_properties``' differentials against the oracle or against
solves without the pair bound, or its properties against brute force, over
the test profile's fixed example set with shrinking off (``CHECK``); or a
check on hand-built or seeded instances that the example set misses.  The
unmutated search passes every check the table names.  A check that stops
catching its mutant has lost strength, and its row fails to say so.
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
from ddpp.search import EfficientSet, PairSearch, SearchOptions

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


def reach_limit_differential():
    assert_exact_in_every_combination(reach_limit_trap(), Demand("s", "t", 1))


def narrow_partner_differential():
    assert_exact_in_every_combination(narrow_partner_network(), Demand("s", "t", 2))


def second_leg_differential():
    for units in (1, 2):
        assert_exact_in_every_combination(second_leg_trap(), Demand("s", "t", units))


def h_check():
    for seed in range(6):
        test_search.TestUsableLinkView().test_h_is_exact_and_consistent(seed)


def shadow_check():
    test_search.TestExpand().test_only_the_cheaper_parallel_link_is_expanded_while_free()


def partner_limit_check():
    test_search.TestPairBound().test_limit_the_partner_breaks_gives_no_bound(5, 7)


def golden_check():
    golden = test_search.TestStatsAndModes()
    golden.test_counters_match_golden()
    golden.test_counters_match_golden_on_larger_instances()


def option_check():
    test_search.TestSolveExamples().test_inconsistent_options_rejected()


def suurballe_trap_check():
    test_search.TestPairBound().test_suurballe_trap_is_bounded_by_the_optimum("base", True)


# owner, attribute, old, new, check, error
MUTANTS = [
    pytest.param(PairSearch, "_pair_bound", "return cost", "return cost - 1",
                 oracle_differential, AssertionError, id="bound-one-below-the-pair"),
    pytest.param(PairSearch, "expand", "link.cost + h[far] > cap", "link.cost + h[far] >= cap",
                 oracle_differential, AssertionError, id="skip-at-the-bound-itself"),
    # routes may pass a node twice and walk on past the destination
    pytest.param(PairSearch, "expand", "used & bit or shadow & free or route & touching[far]",
                 "used & bit or shadow & free", oracle_differential, AssertionError,
                 id="trail-search"),
    # the clip expand inlines from trait_extend, and its vertex order: the
    # label_extend reference and the oracle differential each catch all three
    pytest.param(PairSearch, "expand", "piece_hi - piece_lo >= units",
                 "piece_hi - piece_lo > units", expand_check, AssertionError,
                 id="clip-wider-than-units-reference"),
    pytest.param(PairSearch, "expand", "piece_hi - piece_lo >= units",
                 "piece_hi - piece_lo > units", oracle_differential, AssertionError,
                 id="clip-wider-than-units-oracle"),
    pytest.param(PairSearch, "expand", "if piece_lo < lo:", "if False:",
                 expand_check, AssertionError, id="clip-without-lo-clamp-reference"),
    pytest.param(PairSearch, "expand", "if piece_lo < lo:", "if False:",
                 oracle_differential, AssertionError, id="clip-without-lo-clamp-oracle"),
    # a grown route that ends at the kept node takes slot b
    pytest.param(PairSearch, "expand", "ordered = far <= kept", "ordered = far < kept",
                 expand_check, AssertionError, id="vertex-order-strict-reference"),
    pytest.param(PairSearch, "expand", "ordered = far <= kept", "ordered = far < kept",
                 oracle_differential, AssertionError, id="vertex-order-strict-oracle"),
    pytest.param(PairSearch, "_pair_bound", "limit is not None and traits[0][0] > limit",
                 "False", reach_limit_differential, AssertionError, id="limit-off"),
    # the first leg walked, s-t at 9, goes unchecked
    pytest.param(PairSearch, "_pair_bound", "traits[0][0] > limit",
                 "leg and traits[0][0] > limit", reach_limit_differential, AssertionError,
                 id="limit-on-one-leg"),
    # the first leg walked, s-m-t, has no common 2-unit window, and goes
    # unchecked
    pytest.param(PairSearch, "_pair_bound", "if not traits or", "if leg and not traits or",
                 narrow_partner_differential, AssertionError, id="partner-without-a-window"),
    pytest.param(PairSearch, "_pair_bound", "trait_extend(trait, link, units)",
                 "trait_extend(trait, link, 1)", narrow_partner_differential, AssertionError,
                 id="window-one-unit-wide"),
    # s-b-t, the leg walked second, breaks the limit of 9 unchecked
    pytest.param(PairSearch, "_pair_bound", "traits[0][0] > limit",
                 "not leg and traits[0][0] > limit", second_leg_differential, AssertionError,
                 id="limit-on-first-leg"),
    # s-b-t has no common 2-unit window, and goes unchecked
    pytest.param(PairSearch, "_pair_bound", "if not traits or", "if not leg and not traits or",
                 second_leg_differential, AssertionError, id="window-on-first-leg"),
    # no bound where a leg costs the limit exactly; only the bound pinned at
    # limit 5, the partner's cost, shows it
    pytest.param(PairSearch, "_pair_bound", "traits[0][0] > limit", "traits[0][0] >= limit",
                 partner_limit_check, AssertionError, id="leg-at-the-limit-refused"),
    pytest.param(search, "_peel", " and node not in anchors]", "]",
                 oracle_differential, AssertionError, id="peel-without-anchors"),
    # a node listed dead twice is popped twice
    pytest.param(search, "_peel", "len(far) < 2", "len(far) < 3",
                 oracle_differential, KeyError, id="peel-below-three"),
    pytest.param(search, "_shadowed", "other_far == far and ", "",
                 oracle_differential, AssertionError, id="shadow-any-far-end"),
    pytest.param(search, "_shadowed", "(other.cost, other.id) < (link.cost, link.id)",
                 "other.cost <= link.cost and other is not link",
                 oracle_differential, AssertionError, id="shadow-equal-costs"),
    pytest.param(search, "_shadowed", "(other.cost, other.id) < (link.cost, link.id)",
                 "(other.cost, other.id) > (link.cost, link.id)",
                 oracle_differential, AssertionError, id="shadow-costlier"),
    # both differentials miss the view-build mutants: the answers stay the
    # same, or they fail with a KeyError rather than an assertion
    # a link is listed when either of its ends survives the peel
    pytest.param(PairSearch, "__init__", "a in near and b in near", "a in near or b in near",
                 view_check, AssertionError, id="either-end-view"),
    pytest.param(PairSearch, "__init__", "a in near and b in near", "a in near or b in near",
                 h_check, AssertionError, id="either-end-h"),
    # shadows only at nodes with two more view links than kept neighbours
    pytest.param(PairSearch, "__init__", "len(far) < len(view[node])",
                 "len(far) + 1 < len(view[node])", shadow_check, AssertionError,
                 id="shadows-two-over"),
    pytest.param(PairSearch, "__init__", "if len(far) < len(view[node]):", "if False:",
                 shadow_check, AssertionError, id="shadows-never-filled"),
    # the usability pass records each usable link at one end only
    pytest.param(PairSearch, "__init__", "near[b].add(a)", "pass",
                 view_check, AssertionError, id="one-direction-usable"),
    # route two may not cross route one's links back: the pair is the
    # shortest route and its cheapest partner, dearer than the optimum
    # wherever the extra links give the trap core's route one a partner
    pytest.param(search, "_dijkstra", "if toward.get(far) is not link:", "if True:",
                 bound_differential, AssertionError, id="greedy-partner-bound"),
    # against brute force it reports no pair, or a dearer one, where only
    # crossing route one back finds the cheapest
    pytest.param(search, "_dijkstra", "if toward.get(far) is not link:", "if True:",
                 suurballe_check, AssertionError, id="greedy-partner-suurballe"),
    # route two crosses route one's links back without cancelling them; the
    # oracle differential misses it
    pytest.param(PairSearch, "_suurballe", "if taken >> link.id & 1:", "if False:",
                 suurballe_check, AssertionError, id="route-two-never-cancels"),
    # only the pinned counters tell labels_settled from queue_pops
    pytest.param(PairSearch, "_settle", "SearchStats(generated, dominated, settled, pops,",
                 "SearchStats(generated, dominated, pops, settled,",
                 golden_check, AssertionError, id="stats-fields-swapped"),
    # every differential misses it; only pinned counters see the evicted
    # labels settled and expanded
    pytest.param(PairSearch, "_settle", "if not label.alive:", "if False:",
                 suurballe_trap_check, AssertionError, id="settling-dead-labels"),
    # each leg's slots placed last fit in its window: the answers stay
    # exact, and only the pinned slots show it
    pytest.param(search, "reconstruct", "UnitInterval(trait[1], trait[1] + units)",
                 "UnitInterval(trait[2] - units, trait[2])", golden_check, AssertionError,
                 id="slots-last-fit"),
    # no exactness check runs the combination; only the option check sees
    # it accepted, and pytest.raises reports that with pytest.fail
    pytest.param(SearchOptions, "__post_init__", 'if self.mode != "base":', "if False:",
                 option_check, pytest.fail.Exception, id="prime-under-a-limit-accepted"),
    # a same-node vertex compares labels slot-aligned only
    pytest.param(EfficientSet, "insert",
                 "(aligned, (lb, hb, la, ha, cb, ca)) if self._same else (aligned,)",
                 "(aligned,)", efficient_set_check, AssertionError, id="no-swapped-view"),
    # a member at the candidate's costs survives it
    pytest.param(EfficientSet, "insert", "cost_b[end] >= xb", "cost_b[end] > xb",
                 efficient_set_check, AssertionError, id="base-evicts-dearer-only"),
    pytest.param(EfficientSet, "insert", "entry[0] >= xa", "entry[0] > xa",
                 efficient_set_check, AssertionError, id="prime-evicts-dearer-only"),
    # a member at the candidate's cost no longer rejects it
    pytest.param(EfficientSet, "insert", "if entry[0] <= xa:", "if entry[0] < xa:",
                 efficient_set_check, AssertionError, id="prime-rejects-cheaper-only"),
    pytest.param(oracle, "_runs", "hi - lo >= width", "hi - lo > width",
                 oracle_differential, AssertionError, id="runs-wider-than-width"),
    pytest.param(oracle, "_free_units", "set.intersection(", "set.union(",
                 oracle_differential, AssertionError, id="free-units-union"),
]


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
    for check in dict.fromkeys(row.values[4] for row in MUTANTS):
        check()


@pytest.mark.parametrize("owner, attribute, old, new, check, error", MUTANTS)
def test_mutant_is_caught(monkeypatch, owner, attribute, old, new, check, error):
    monkeypatch.setattr(owner, attribute, mutant(vars(owner)[attribute], old, new))
    with pytest.raises(error):
        check()
