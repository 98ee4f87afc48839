"""Committed mutants: known-wrong variants of the search that an existing
oracle differential must catch.

Each case swaps one product function for a mutant and runs the oracle
differential of ``test_properties`` over a fixed, derandomized example set
with shrinking off, or over one hand-built instance that the example set
misses, expecting it to fail.  The unmutated search passes the same
checks.  A check that stops catching its mutant has lost strength, and a
case here fails to say so.
"""

import inspect
import textwrap

import pytest
from hypothesis import Phase, given, settings

from conftest import narrow_partner_network, reach_limit_trap, suurballe_trap
from test_properties import assert_exact_in_every_combination, bound_savings, multigraph_demands

from ddpp import Demand, search
from ddpp.search import PairSearch


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          phases=[Phase.generate], report_multiple_bugs=False)
@given(multigraph_demands())
def oracle_differential(instance):
    assert_exact_in_every_combination(*instance)


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


def test_bound_one_below_the_pair_is_caught(monkeypatch):
    real = PairSearch._pair_bound

    def lowered(self):
        bound = real(self)
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


@pytest.mark.parametrize("old, new", [
    pytest.param("if limit is not None and max(", "if False and max(", id="limit-off"),
    # the first leg walked, s-t at 9, goes unchecked
    pytest.param("for link in leg) for leg in legs)", "for link in leg) for leg in legs[1:])",
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
        search.PairSearch._pair_bound, "_has_window(leg, units, unit_count) for leg in legs)",
        "_has_window(leg, units, unit_count) for leg in legs[1:])"))
    with pytest.raises(AssertionError):
        assert_exact_in_every_combination(narrow_partner_network(), Demand("s", "t", 2))


def test_window_one_unit_wide_is_caught(monkeypatch):
    monkeypatch.setattr(search, "_has_window", mutant(
        search._has_window, "trait_extend(trait, link, units)", "trait_extend(trait, link, 1)"))
    with pytest.raises(AssertionError):
        assert_exact_in_every_combination(narrow_partner_network(), Demand("s", "t", 2))


def test_greedy_partner_is_caught(monkeypatch):
    # route two may not cross route one's links back: the pair is the
    # shortest route and its cheapest partner, 13 where the optimum is 8
    monkeypatch.setattr(PairSearch, "_pair_bound", mutant(
        search.PairSearch._pair_bound, "if toward.get(far) is not link:", "if True:"))
    with pytest.raises(AssertionError):
        bound_savings(suurballe_trap(), Demand("s", "t", 1))
