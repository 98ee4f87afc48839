"""Unit tests for traits, labels, and the comparison relations."""

import pytest

from conftest import link_units, unit_runs
from reference import (
    dominates,
    leq_eq,
    leq_n,
    leq_prime,
    leq_x,
    ri_incl_eq,
    ri_incl_n,
    ri_incl_x,
    trait_leq,
)

from ddpp import (
    Label,
    Link,
    UnitInterval,
    label_cost,
    label_extend,
    normalize_intervals,
    trait_extend,
)


def iv(lo, hi):
    return UnitInterval(lo, hi)


def mklink(cost, intervals, link_id=0, ends=("a", "b")):
    return Link(link_id, ends, cost, normalize_intervals(iv(lo, hi) for lo, hi in intervals))


def same_node_label(t1, t2, node="n"):
    return Label(t1, t2, (node, node))


class TestUnitInterval:
    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            iv(3, 3)
        with pytest.raises(ValueError):
            iv(-1, 2)
        with pytest.raises(ValueError):
            iv(5, 2)

    def test_normalize_merges_touching_and_overlapping(self):
        assert normalize_intervals([iv(0, 3), iv(3, 5)]) == (iv(0, 5),)
        assert normalize_intervals([iv(4, 6), iv(0, 2), iv(1, 3)]) == (iv(0, 3), iv(4, 6))
        assert normalize_intervals([]) == ()


class TestTraitRelation:
    def test_both_conjuncts(self):
        assert trait_leq((3, 0, 8), (5, 2, 6))

    def test_incomparable_both_ways(self):
        t1, t2 = (1, 0, 2), (2, 0, 4)
        assert not trait_leq(t1, t2)
        assert not trait_leq(t2, t1)

    def test_reflexive_and_transitive(self):
        t = (4, 1, 5)
        assert trait_leq(t, t)
        a, b, c = (1, 0, 8), (2, 1, 7), (3, 2, 6)
        assert trait_leq(a, b) and trait_leq(b, c) and trait_leq(a, c)


class TestTraitExtend:
    def test_splits_into_maximal_pieces(self):
        # expected values recomputed unit by unit, independent of the
        # interval arithmetic under test
        t = (5, 2, 8)
        k = mklink(3, [(0, 4), (6, 9)])
        expected_runs = unit_runs(set(range(2, 8)) & link_units(k), 2)
        assert expected_runs == [(2, 4), (6, 8)]
        got = trait_extend(t, k, 2)
        assert [(lo, hi) for _, lo, hi in got] == expected_runs
        assert all(cost == 8 for cost, _, _ in got)

    def test_empty_intersection(self):
        assert trait_extend((5, 2, 8), mklink(3, [(0, 2)]), 1) == []

    def test_identity_intersection(self):
        got = trait_extend((0, 0, 8), mklink(7, [(0, 8)]), 1)
        assert got == [(7, 0, 8)]

    def test_candidates_shrink_into_parent(self):
        t = (1, 1, 6)
        for _, lo, hi in trait_extend(t, mklink(2, [(0, 3), (4, 8)]), 1):
            assert t[1] <= lo and hi <= t[2]


class TestLabelExtend:
    def test_moves_one_end_and_keeps_other_trait(self):
        lab = Label((1, 0, 8), (9, 0, 4), ("a", "b"),
                    route_a=(7, None), route_b=(8, None), used_links=1 << 7 | 1 << 8)
        k = mklink(2, [(0, 8)], link_id=3, ends=("a", "k"))
        (cand,) = label_extend(lab, k, k.other_end("a"), "a", 1)
        assert cand.vertex == ("b", "k")
        # node b sorts first, so the kept trait and its route move to slot a
        assert cand.trait_a == (9, 0, 4)
        assert cand.route_a is lab.route_b
        assert cand.trait_b == (3, 0, 8)
        assert cand.route_b == (3, lab.route_a) and cand.route_b[1] is lab.route_a
        assert cand.used_links == lab.used_links | (1 << 3)

    def test_root_expansion_keeps_full_spectrum_twin(self):
        root = Label((0, 0, 8), (0, 0, 8), ("s", "s"))
        k = mklink(4, [(0, 8)], link_id=0, ends=("s", "k"))
        (cand,) = label_extend(root, k, k.other_end("s"), "a", 1)
        assert cand.vertex == ("k", "s")
        assert (cand.route_a, cand.route_b) == ((0, None), None)
        assert cand.trait_b == (0, 0, 8)

    def test_slot_swap_on_canonicalization(self):
        # moving the 'b' end to a node that sorts first flips the slots
        lab = Label((1, 0, 4), (2, 0, 8), ("m", "z"),
                    route_a=(0, None), route_b=(1, None), used_links=0b11)
        k = mklink(1, [(0, 8)], link_id=5, ends=("z", "a"))
        (cand,) = label_extend(lab, k, k.other_end("z"), "b", 1)
        assert cand.vertex == ("a", "m")
        assert cand.trait_a == (3, 0, 8)
        assert cand.route_a == (5, lab.route_b)
        assert cand.trait_b == (1, 0, 4)
        assert cand.route_b is lab.route_a

    # the far end is either end of link.ends, and a self-loop gives the
    # extended node back; moved_slot is where the grown trait lands
    @pytest.mark.parametrize("side, vertex, ends, new_vertex, moved_slot", [
        ("a", ("n", "p"), ("n", "n"), ("n", "p"), "a"),
        ("b", ("m", "n"), ("n", "n"), ("m", "n"), "b"),
        ("a", ("n", "p"), ("x", "n"), ("p", "x"), "b"),
        ("b", ("m", "n"), ("x", "n"), ("m", "x"), "b"),
        ("a", ("n", "p"), ("c", "n"), ("c", "p"), "a"),
        ("b", ("m", "n"), ("c", "n"), ("c", "m"), "a"),
    ], ids=["loop-a", "loop-b", "second-end-a-flips", "second-end-b",
            "second-end-a", "second-end-b-flips"])
    def test_far_end_of_self_loop_or_second_end(self, side, vertex, ends, new_vertex,
                                                moved_slot):
        lab = Label((1, 0, 4), (2, 2, 8), vertex,
                    route_a=(0, None), route_b=(1, None), used_links=0b11, links_a=0b01)
        k = mklink(5, [(0, 8)], link_id=4, ends=ends)
        node = vertex[0] if side == "a" else vertex[1]
        (cand,) = label_extend(lab, k, k.other_end(node), side, 1)
        assert cand.vertex == new_vertex
        slots = {"a": (cand.trait_a, cand.route_a), "b": (cand.trait_b, cand.route_b)}
        grown_trait, grown_route = slots.pop(moved_slot)
        (kept_trait, kept_route), = slots.values()
        if side == "a":
            (cost, lo, hi), route = lab.trait_a, lab.route_a
            other_trait, other_route = lab.trait_b, lab.route_b
        else:
            (cost, lo, hi), route = lab.trait_b, lab.route_b
            other_trait, other_route = lab.trait_a, lab.route_a
        assert grown_trait == (cost + 5, lo, hi)
        assert grown_route == (4, route) and grown_route[1] is route
        assert kept_trait == other_trait and kept_route is other_route
        assert cand.used_links == 0b11 | 1 << 4
        # route a's link set follows route a's slot
        grown_links, kept_links = (0b01 | 1 << 4, 0b10) if side == "a" else (0b10 | 1 << 4, 0b01)
        assert cand.links_a == (grown_links if moved_slot == "a" else kept_links)


class TestDistinctNodeRelation:
    def test_componentwise(self):
        v = ("a", "b")
        li = Label((1, 0, 4), (1, 0, 4), v)
        lj = Label((2, 0, 2), (2, 0, 2), v)
        assert dominates("base", li, lj)
        assert not dominates("base", lj, li)

    def test_incomparable_pair(self):
        v = ("a", "b")
        li = Label((1, 0, 2), (9, 0, 8), v)
        lj = Label((2, 0, 8), (1, 0, 8), v)
        assert not dominates("base", li, lj)
        assert not dominates("base", lj, li)

    def test_different_vertices_rejected(self):
        li = Label((0, 0, 1), (0, 0, 1), ("a", "b"))
        lj = Label((0, 0, 1), (0, 0, 1), ("a", "c"))
        with pytest.raises(ValueError):
            dominates("base", li, lj)
        with pytest.raises(ValueError, match="different vertices"):
            leq_prime(li, lj)


class TestSameNodeRelations:
    def test_normal_without_cross(self):
        # sorted labels where the slot-aligned comparison holds but the
        # swapped one fails
        li = same_node_label((1, 0, 4), (3, 0, 4))
        lj = same_node_label((2, 0, 2), (3, 0, 2))
        assert trait_leq(li.trait_a, li.trait_b) and trait_leq(lj.trait_a, lj.trait_b)
        assert leq_n(li, lj)
        assert not leq_x(li, lj)
        assert leq_eq(li, lj)

    def test_cross_without_normal_unsorted(self):
        # both labels have incomparable traits, so neither can be sorted;
        # only the swapped comparison holds
        li = same_node_label((1, 0, 2), (2, 0, 4))
        lj = same_node_label((3, 0, 4), (2, 0, 2))
        for lab in (li, lj):
            assert not trait_leq(lab.trait_a, lab.trait_b)
            assert not trait_leq(lab.trait_b, lab.trait_a)
        assert not leq_n(li, lj)
        assert leq_x(li, lj)
        assert leq_eq(li, lj)

    def test_incomparable_cost_splits(self):
        # equal-resource labels whose cost splits straddle each other
        li = same_node_label((0, 0, 1), (7, 0, 1))
        lj = same_node_label((1, 0, 1), (6, 0, 1))
        assert not leq_eq(li, lj)
        assert not leq_eq(lj, li)


class TestLabelCostAndInclusion:
    def test_cost_is_trait_sum(self):
        lab = same_node_label((3, 0, 4), (4, 2, 4))
        assert label_cost(lab) == 7

    def test_cross_inclusion_without_normal(self):
        li = same_node_label((0, 0, 4), (0, 2, 4))
        lj = same_node_label((0, 2, 4), (0, 0, 4))
        assert ri_incl_x(li, lj)
        assert not ri_incl_n(li, lj)
        assert ri_incl_eq(li, lj)

    def test_identical_labels_included_every_way(self):
        lab = same_node_label((1, 1, 3), (2, 0, 2))
        assert ri_incl_n(lab, lab)
        assert ri_incl_x(same_node_label(lab.trait_a, lab.trait_a),
                         same_node_label(lab.trait_a, lab.trait_a))
        assert ri_incl_eq(lab, lab)


class TestPrimeRelation:
    def test_equal_cost_equal_resources(self):
        li = same_node_label((0, 0, 1), (7, 0, 1))
        lj = same_node_label((1, 0, 1), (6, 0, 1))
        assert leq_prime(li, lj)
        assert leq_prime(lj, li)

    def test_cost_conjunct_fails(self):
        li = same_node_label((3, 0, 8), (4, 0, 8))
        lj = same_node_label((2, 0, 1), (4, 0, 1))
        assert not leq_prime(li, lj)

    def test_equal_labels_mutually_dominate(self):
        li = same_node_label((2, 0, 3), (5, 1, 3))
        lj = same_node_label((2, 0, 3), (5, 1, 3))
        assert leq_prime(li, lj) and leq_prime(lj, li)


class TestDominatesDispatch:
    def test_identity_true_in_both_modes(self):
        lab = Label((1, 0, 4), (2, 0, 4), ("a", "b"))
        assert dominates("base", lab, lab)
        assert dominates("prime", lab, lab)

    def test_lobe_pair_base_false_prime_true(self):
        li = same_node_label((0, 0, 1), (7, 0, 1))
        lj = same_node_label((1, 0, 1), (6, 0, 1))
        assert not dominates("base", li, lj)
        assert dominates("prime", li, lj)

    def test_distinct_vertices_raise(self):
        li = Label((0, 0, 1), (0, 0, 1), ("a", "b"))
        lj = Label((0, 0, 1), (0, 0, 1), ("a", "c"))
        with pytest.raises(ValueError):
            dominates("base", li, lj)

    def test_unknown_mode_raises(self):
        lab = Label((0, 0, 1), (0, 0, 1), ("a", "b"))
        with pytest.raises(ValueError):
            dominates("fancy", lab, lab)
