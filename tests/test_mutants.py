"""Committed mutants: known-wrong variants of the search that an existing
oracle differential must catch.

Each case swaps one product function for a mutant and runs the oracle
differential of ``test_properties`` over a fixed, derandomized example set
with shrinking off, expecting it to fail.  The unmutated search passes the
same example set.  A check that stops catching its mutant has lost
strength, and a case here fails to say so.
"""

import inspect
import textwrap

import pytest
from hypothesis import Phase, given, settings

from test_properties import assert_exact_in_every_combination, multigraph_demands

from ddpp import search
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
