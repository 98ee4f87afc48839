"""Property tests for the relations, derivations, and the efficient set.

Random label pairs are built so the tested precondition holds by
construction (a better label is derived from a worse one, or vice versa);
the conclusions are then checked against the pure relation functions.
"""

import random

from hypothesis import given, settings, strategies as st

from conftest import NaiveEfficientSet

from ddpp import (
    Label,
    Link,
    Trait,
    UnitInterval,
    Vertex,
    dominates,
    label_cost,
    label_extend,
    leq_n,
    leq_x,
    normalize_intervals,
    trait_extend,
    trait_leq,
)
from ddpp.spectrum_core import remove_interval

UNITS_TOTAL = 8


def interval_strategy(max_units=UNITS_TOTAL):
    return st.integers(0, max_units - 1).flatmap(
        lambda lo: st.integers(lo + 1, max_units).map(lambda hi: UnitInterval(lo, hi))
    )


def trait_strategy():
    return st.builds(Trait, st.integers(0, 20), interval_strategy())


def availability_strategy():
    return st.sets(st.integers(0, UNITS_TOTAL - 1)).map(
        lambda units: normalize_intervals((u, u + 1) for u in units)
    )


def link_strategy(link_id=0, ends=("p", "q")):
    return st.builds(
        lambda cost, avail: Link(link_id, ends, cost, avail),
        st.integers(0, 10),
        availability_strategy(),
    )


def better_trait(rng: random.Random, worse: Trait) -> Trait:
    """A trait that is better than or equal to the given one."""
    lo = rng.randint(0, worse.ri.lo)
    hi = rng.randint(worse.ri.hi, UNITS_TOTAL)
    return Trait(rng.randint(0, worse.cost), UnitInterval(lo, hi))


def worse_trait(rng: random.Random, better: Trait, units: int) -> Trait:
    """A trait worse than or equal to the given one, still wide enough."""
    lo = rng.randint(better.ri.lo, better.ri.hi - units)
    hi = rng.randint(lo + units, better.ri.hi)
    return Trait(better.cost + rng.randint(0, 5), UnitInterval(lo, hi))


@settings(max_examples=300, derandomize=True)
@given(trait_strategy(), link_strategy(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_inefficient_trait_yields_inefficient_traits(worse, link, units, rng):
    """Every derivation of a worse trait is covered by one of a better trait."""
    if worse.ri.length < units:
        worse = Trait(worse.cost, UnitInterval(worse.ri.lo, min(worse.ri.lo + units, UNITS_TOTAL)))
    better = better_trait(rng, worse)
    assert trait_leq(better, worse)
    derived_worse = trait_extend(worse, link, units)
    derived_better = trait_extend(better, link, units)
    for t in derived_worse:
        assert any(trait_leq(t2, t) for t2 in derived_better), (better, worse, link, t)


@settings(max_examples=300, derandomize=True)
@given(trait_strategy(), link_strategy(), st.integers(1, 3))
def test_trait_extension_shrinks_interval(trait, link, units):
    for cand in trait_extend(trait, link, units):
        assert trait.ri.contains(cand.ri)
        assert cand.ri.length >= units
        assert cand.cost == trait.cost + link.cost


@settings(max_examples=300, derandomize=True)
@given(st.sets(st.integers(0, 31), min_size=1), st.data())
def test_remove_interval_is_unit_difference(free_units, data):
    """Cutting a window out of the free interval containing it equals the
    unit-set difference, and merging the window back restores the input."""
    available = normalize_intervals((u, u + 1) for u in free_units)
    host = data.draw(st.sampled_from(available))
    lo = data.draw(st.integers(host.lo, host.hi - 1))
    cut = UnitInterval(lo, data.draw(st.integers(lo + 1, host.hi)))
    remaining = remove_interval(available, cut)
    assert remaining == normalize_intervals(
        (u, u + 1) for u in free_units - set(range(cut.lo, cut.hi)))
    assert normalize_intervals(remaining + (cut,)) == available
    window = data.draw(interval_strategy(32))
    fits = any(iv.contains(window) for iv in available)
    assert (remove_interval(available, window) is None) == (not fits)


def _random_label(rng: random.Random, vertex: Vertex, units: int) -> Label:
    def trait():
        lo = rng.randint(0, UNITS_TOTAL - units)
        hi = rng.randint(lo + units, UNITS_TOTAL)
        return Trait(rng.randint(0, 20), UnitInterval(lo, hi))

    return Label(trait(), trait(), vertex)


def _dominated_label(rng: random.Random, good: Label, mode: str, units: int) -> Label:
    """A label the given one dominates under the given mode, by construction."""
    crossed = good.vertex.same_node and rng.random() < 0.5
    first, second = (good.trait_b, good.trait_a) if crossed else (good.trait_a, good.trait_b)
    if mode == "base":
        return Label(worse_trait(rng, first, units), worse_trait(rng, second, units),
                     good.vertex)
    wa = worse_trait(rng, first, units)
    wb = worse_trait(rng, second, units)
    # cost-sum relation: any per-trait costs work if the sum is no smaller
    total = label_cost(good) + rng.randint(0, 6)
    ca = rng.randint(0, total)
    return Label(Trait(ca, wa.ri), Trait(total - ca, wb.ri), good.vertex)


def _extend_for_props(label: Label, link: Link, units: int) -> list[Label]:
    """All candidates one appended link can produce from a label.

    Both routes are extended, also at same-node vertices: the covering
    counterpart of a cross-dominated label's extension lives on the other
    slot, so the derivation set of the propositions spans both sides.
    """
    out = []
    for side in ("a", "b"):
        node = label.vertex.a if side == "a" else label.vertex.b
        if node in link.ends and not label.uses(link.id):
            out.extend(label_extend(label, link, side, units))
    return out


def _run_domination_preservation(mode: str, trials: int, seed: int) -> int:
    """Returns the number of violations over the given number of trials."""
    rng = random.Random(seed)
    violations = 0
    checked = 0
    while checked < trials:
        same = rng.random() < 0.5
        vertex = Vertex("n", "n") if same else Vertex("m", "n")
        units = rng.randint(1, 3)
        good = _random_label(rng, vertex, units)
        bad = _dominated_label(rng, good, mode, units)
        if not dominates(mode, good, bad):
            # randomized construction missed the precondition; skip
            continue
        ends = ("n", "z") if rng.random() < 0.5 or same else ("m", "z")
        avail = normalize_intervals(
            (u, u + 1) for u in range(UNITS_TOTAL) if rng.random() < 0.75
        )
        link = Link(5, ends, rng.randint(0, 10), avail)
        derived_bad = _extend_for_props(bad, link, units)
        derived_good = _extend_for_props(good, link, units)
        checked += 1
        for lab in derived_bad:
            if not any(
                lab2.vertex == lab.vertex and dominates(mode, lab2, lab)
                for lab2 in derived_good
            ):
                violations += 1
    return violations


def test_domination_preserved_base():
    assert _run_domination_preservation("base", 2000, seed=101) == 0


def test_domination_preserved_prime():
    assert _run_domination_preservation("prime", 2000, seed=202) == 0


def test_higher_cost_labels_yield_higher_cost_labels():
    """Label-cost ordering survives extension under the additive model."""
    rng = random.Random(77)
    for _ in range(2000):
        vertex = Vertex("m", "n")
        units = 1
        cheap = _random_label(rng, vertex, units)
        extra = rng.randint(0, 9)
        pricey = Label(
            Trait(cheap.trait_a.cost + extra, cheap.trait_a.ri),
            Trait(cheap.trait_b.cost, cheap.trait_b.ri),
            vertex,
        )
        assert label_cost(cheap) <= label_cost(pricey)
        avail = normalize_intervals([(0, UNITS_TOTAL)])
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

    vertex = Vertex("n", "n") if same_node else Vertex("m", "n")
    fast = EfficientSet(same_node, mode)
    naive = NaiveEfficientSet(mode)
    accepted = []
    peak = 0
    for ca, ia, cb, ib in rows:
        fast_label = Label(Trait(ca, ia), Trait(cb, ib), vertex)
        naive_label = Label(Trait(ca, ia), Trait(cb, ib), vertex)
        got = fast.insert(fast_label)
        expect = naive.insert(naive_label)
        assert got == expect
        if got[0]:
            accepted.append(fast_label)

        def snapshot(labels):
            return sorted(
                (l.trait_a.cost, l.trait_a.ri.lo, l.trait_a.ri.hi,
                 l.trait_b.cost, l.trait_b.ri.lo, l.trait_b.ri.hi)
                for l in labels
            )

        members = fast.alive_labels()
        assert snapshot(members) == snapshot(naive.members)
        assert len(fast) == len(naive.members)
        member_ids = {id(l) for l in members}
        assert all(l.alive == (id(l) in member_ids) for l in accepted)
        peak = max(peak, len(naive.members))
        assert fast.peak == peak


def test_sorted_cross_implies_normal_witnesses():
    """The two witness pairs that pin the same-node comparison rules."""
    v = Vertex("n", "n")
    # sorted pair where aligned holds and swapped does not
    li = Label(Trait(1, UnitInterval(0, 4)), Trait(3, UnitInterval(0, 4)), v)
    lj = Label(Trait(2, UnitInterval(0, 2)), Trait(3, UnitInterval(0, 2)), v)
    assert leq_n(li, lj) and not leq_x(li, lj)
    # unsorted pair where swapped holds and aligned does not
    ui = Label(Trait(1, UnitInterval(0, 2)), Trait(2, UnitInterval(0, 4)), v)
    uj = Label(Trait(3, UnitInterval(0, 4)), Trait(2, UnitInterval(0, 2)), v)
    assert leq_x(ui, uj) and not leq_n(ui, uj)
