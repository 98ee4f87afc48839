"""Network model: documents, validation, and the instance generators."""

import dataclasses
import hashlib
import inspect
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import unit_runs

import ddpp
from ddpp import (
    Demand,
    Link,
    Network,
    NetworkError,
    chain_network,
    dump_demand,
    dump_network,
    fan_network,
    load_demand,
    load_network,
    lobe_network,
    UnitInterval,
    normalize_intervals,
    random_network,
    solve,
)
from ddpp.net_model import validate_demand


def minimal_doc():
    return {
        "units": 8,
        "nodes": ["a", "b"],
        "links": [{"id": 0, "ends": ["a", "b"], "cost": 100, "available": [[0, 8]]}],
    }


class TestLoadNetwork:
    def test_minimal_document(self):
        net = load_network(minimal_doc())
        assert len(net.links) == 1
        assert net.unit_count == 8
        assert net.links[0].available[0].to_doc() == [0, 8]

    def test_adjacent_intervals_merged(self):
        doc = minimal_doc()
        doc["links"][0]["available"] = [[0, 3], [3, 5]]
        net = load_network(doc)
        assert [iv.to_doc() for iv in net.links[0].available] == [[0, 5]]

    def test_overlapping_and_touching_intervals_merged(self):
        doc = minimal_doc()
        doc["links"][0]["available"] = [[6, 8], [1, 3], [0, 2], [3, 4], [6, 7]]
        net = load_network(doc)
        assert [iv.to_doc() for iv in net.links[0].available] == [[0, 4], [6, 8]]

    @pytest.mark.parametrize("index, bad_id", [(0, 0.0), (0, False), (1, True)])
    def test_non_integer_link_id(self, index, bad_id):
        # each id equals its position, so only the type check can catch it
        links = list(random_network(6, 2.5, 8, 0.9, 1).links)
        links[index] = dataclasses.replace(links[index], id=bad_id)
        with pytest.raises(NetworkError, match=f"link id {bad_id!r} is not an integer"):
            Network(8, tuple(f"n{i}" for i in range(6)), tuple(links))

    def test_malformed_interval(self):
        # the integer-bound rule is UnitInterval's own, with the text load_network re-raises
        with pytest.raises(ValueError, match=r"interval \[0.5, 2.7\] must be \[lo, hi\]"):
            UnitInterval(0.5, 2.7)

    @pytest.mark.parametrize("nodes, ends, message", [
        ((["a"],), None, "node identifier ['a'] is not a string"),
        (("a", 1, "c"), ("a", 1), "node identifier 1 is not a string"),
        (("a", "b"), ("a",), "link 0: 'ends' must name two nodes"),
        (("a", "b", "c"), ("a", "b", "c"), "link 0: 'ends' must name two nodes"),
        (("a", "b"), ["a", "b"], "link 0: 'ends' must name two nodes"),
        (("a", "b"), ("a", ["b"]), "link 0 references unknown node ['b']"),
        ((), None, "network has no nodes"),
    ], ids=["unhashable-node", "non-string-node", "one-end", "three-ends",
            "list-ends", "unhashable-end", "no-nodes"])
    def test_model_owns_node_ids_and_link_ends(self, nodes, ends, message):
        links = () if ends is None else (Link(0, ends, 1, (UnitInterval(0, 4),)),)
        with pytest.raises(NetworkError) as caught:
            Network(4, nodes, links)
        assert str(caught.value) == message

    @pytest.mark.parametrize("nodes_as, links_as, message", [
        (iter, tuple, "'nodes' must be a tuple of node identifiers"),
        (tuple, iter, "'links' must be a tuple of Link"),
        (tuple, list, "'links' must be a tuple of Link"),
    ], ids=["nodes-iterator", "links-iterator", "links-list"])
    def test_model_takes_nodes_and_links_as_tuples(self, nodes_as, links_as, message):
        # an iterator of links was consumed by validation, leaving a routable
        # network blocked; an iterator of nodes has no len(); a list of links
        # could be shortened after validation
        net = lobe_network(2, 1)
        with pytest.raises(NetworkError) as caught:
            Network(1, nodes_as(net.nodes), links_as(net.links))
        assert str(caught.value) == message

    @pytest.mark.parametrize("available, message", [
        (iter([UnitInterval(0, 4)]), "link 0: 'available' must be a tuple of UnitInterval"),
        ([UnitInterval(0, 4)], "link 0: 'available' must be a tuple of UnitInterval"),
        (((0, 4),), "link 0: interval (0, 4) must be a UnitInterval"),
        ((UnitInterval(0, 2), UnitInterval(2, 4)),
     "intervals on link 0 are not maximal disjoint"),
    ], ids=["generator", "list", "plain-pair", "adjacent"])
    def test_model_owns_available(self, available, message):
        # a consumed generator left a routable network blocked, a list broke
        # the simulator's first release, and a pair had no `.lo`
        links = (Link(0, ("a", "b"), 1, available),
                 Link(1, ("a", "b"), 2, (UnitInterval(0, 4),)))
        with pytest.raises(NetworkError) as caught:
            Network(4, ("a", "b"), links)
        assert str(caught.value) == message

    def test_missing_keys(self):
        with pytest.raises(NetworkError, match="lacks 'units'"):
            load_network({"nodes": [], "links": []})

    def test_round_trip_identity(self):
        doc = minimal_doc()
        doc["links"][0]["available"] = [[0, 2], [4, 6]]
        net = load_network(doc)
        assert load_network(dump_network(net)) == net

    def test_round_trip_on_generated(self):
        for seed in range(5):
            net = random_network(6, 2.5, 8, 0.6, seed)
            assert load_network(dump_network(net)) == net


def edited(**changes):
    """minimal_doc() with top-level keys replaced (None deletes the key)."""
    doc = minimal_doc()
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


def with_link(**changes):
    """minimal_doc() with link 0's keys replaced (None deletes the key)."""
    doc = minimal_doc()
    for key, value in changes.items():
        if value is None:
            del doc["links"][0][key]
        else:
            doc["links"][0][key] = value
    return doc


GOOD_LINK = {"id": 0, "ends": ["a", "b"], "cost": 100, "available": [[0, 8]]}

# every rejection site of the loaders, with its exact message; a document
# breaking two rules pins which check runs first.  Each row leads with its
# key, which names its test id and never changes, so a row sits in its
# loader group wherever it is added; a new row takes the next free key, 61.
LOADER_MESSAGES = [
    (0, load_network, [], "network document must be an object"),
    (1, load_network, edited(units=None), "network document lacks 'units'"),
    (2, load_network, edited(nodes=None), "network document lacks 'nodes'"),
    (3, load_network, edited(links=None), "network document lacks 'links'"),
    (4, load_network, edited(units=None, links=None), "network document lacks 'units'"),
    (5, load_network, edited(nodes=[]), "'nodes' must be a non-empty list"),
    (6, load_network, edited(nodes="ab"), "'nodes' must be a non-empty list"),
    (7, load_network, edited(nodes=["a", 1, None]), "node identifier 1 is not a string"),
    (8, load_network, edited(nodes=[], links=5), "'nodes' must be a non-empty list"),
    (9, load_network, edited(links={"0": GOOD_LINK}), "'links' must be a list"),
    (10, load_network, edited(links=[5]), "link entry 5 is not an object"),
    (11, load_network, edited(links=[GOOD_LINK, ["x"]]), "link entry ['x'] is not an object"),
    (12, load_network, with_link(cost=None),
     "link entry lacks 'cost': {'id': 0, 'ends': ['a', 'b'], 'available': [[0, 8]]}"),
    (13, load_network, with_link(id=None, available=None),
     "link entry lacks 'id': {'ends': ['a', 'b'], 'cost': 100}"),
    (14, load_network, with_link(id="0"), "link id '0' is not an integer"),
    (15, load_network, with_link(id=True), "link id True is not an integer"),
    (16, load_network, with_link(id=1.0, ends=5), "link id 1.0 is not an integer"),
    (17, load_network, edited(links=[GOOD_LINK, dict(GOOD_LINK)]), "duplicate link id 0"),
    (57, load_network, edited(links=[GOOD_LINK, {"id": 0, "ends": ["a", "b"], "cost": 1,
                                                 "available": []}]), "duplicate link id 0"),
    (18, load_network, with_link(ends=["a"]), "link 0: 'ends' must name two nodes"),
    (19, load_network, with_link(ends="ab"), "link 0: 'ends' must name two nodes"),
    (20, load_network, with_link(ends=["a", "b", "a"]), "link 0: 'ends' must name two nodes"),
    (21, load_network, with_link(ends=["a", 3]), "link 0 references unknown node 3"),
    (22, load_network, with_link(ends=[["a"], "b"], available=5),
     "link 0 references unknown node ['a']"),
    (56, load_network, with_link(ends=["a", ["b"]]), "link 0 references unknown node ['b']"),
    (23, load_network, with_link(available=5),
     "link 0: 'available' must be a list of [lo, hi] pairs"),
    (24, load_network, with_link(available={"0": 8}),
     "link 0: 'available' must be a list of [lo, hi] pairs"),
    (25, load_network, with_link(available=[[0]]), "link 0: interval [0] must be [lo, hi]"),
    (26, load_network, with_link(available=[[0, 2, 4]]),
     "link 0: interval [0, 2, 4] must be [lo, hi]"),
    (27, load_network, with_link(available=[(0, 8)]), "link 0: interval (0, 8) must be [lo, hi]"),
    (28, load_network, with_link(available=[[0, 1.5]]),
     "link 0: interval [0, 1.5] must be [lo, hi]"),
    (29, load_network, with_link(available=[[True, 3]]),
     "link 0: interval [True, 3] must be [lo, hi]"),
    (30, load_network, with_link(available=[["0", 3]]),
     "link 0: interval ['0', 3] must be [lo, hi]"),
    (31, load_network, with_link(available=[[0, 2], None]),
     "link 0: interval None must be [lo, hi]"),
    (32, load_network, with_link(available=[[5, 2]]), "link 0: malformed interval [5, 2)"),
    (33, load_network, with_link(available=[[3, 3]]), "link 0: malformed interval [3, 3)"),
    (34, load_network, with_link(available=[[-1, 2]]), "link 0: malformed interval [-1, 2)"),
    # a neighbour that would merge over the bad pair does not hide it
    (35, load_network, with_link(available=[[0, 6], [4, 2]]), "link 0: malformed interval [4, 2)"),
    (36, load_network, with_link(available=[[5, 2], [0, 1.5]]),
     "link 0: malformed interval [5, 2)"),
    # the loader's checks on a later link run before the model gate
    (37, load_network, edited(links=[dict(GOOD_LINK, cost=-1), {"id": 1}]),
     "link entry lacks 'ends': {'id': 1}"),
    # the model gate, reached through the loader
    (38, load_network, edited(units=0), "'units' must be a positive integer, got 0"),
    (39, load_network, edited(units=8.0), "'units' must be a positive integer, got 8.0"),
    (59, load_network, edited(units=True), "'units' must be a positive integer, got True"),
    (40, load_network, edited(nodes=["a", "b", "a"]), "duplicate node identifiers"),
    (58, load_network, edited(nodes=["a", "a"]), "duplicate node identifiers"),
    (41, load_network, with_link(id=5), "link ids must be dense 0..0; position 0 holds id 5"),
    (42, load_network, with_link(ends=["a", "ghost"]), "link 0 references unknown node 'ghost'"),
    (43, load_network, with_link(cost="1"), "link 0: cost must be an integer, got '1'"),
    # fractional costs would make the search's A* bound sums inexact
    (60, load_network, with_link(cost=1.1), "link 0: cost must be an integer, got 1.1"),
    (44, load_network, with_link(cost=-1), "link 0 has negative cost -1"),
    (45, load_network, with_link(available=[[6, 10]]),
     "interval [6, 10) exceeds unit count 8 on link 0"),
    (46, load_demand, [], "demand document must be an object"),
    (47, load_demand, {"dst": "b", "units": 1}, "demand document lacks 'src'"),
    (48, load_demand, {"src": "a", "units": 1}, "demand document lacks 'dst'"),
    (49, load_demand, {"src": "a", "dst": "b"}, "demand document lacks 'units'"),
    (50, load_demand, {"src": ["a"], "dst": 7, "units": 1}, "demand src ['a'] is not a string"),
    (51, load_demand, {"src": "a", "dst": 7, "units": 1}, "demand dst 7 is not a string"),
    (52, load_demand, {"src": "a", "dst": "a", "units": 1},
     "demand endpoints must differ, got 'a' twice"),
    (53, load_demand, {"src": "a", "dst": "b", "units": True},
     "demand units True is not an integer"),
    (54, load_demand, {"src": "a", "dst": "b", "units": 2.5}, "demand units 2.5 is not an integer"),
    (55, load_demand, {"src": "a", "dst": "b", "units": 0},
     "demanded units must be positive, got 0"),
]


@pytest.mark.parametrize("loader, doc, message", [
    pytest.param(loader, doc, message, id=f"{loader.__name__}-doc{key}-{message}")
    for key, loader, doc, message in LOADER_MESSAGES])
def test_loader_messages_are_pinned(loader, doc, message):
    with pytest.raises(NetworkError) as caught:
        loader(doc)
    assert str(caught.value) == message


CANON_UNITS = 16
valid_pairs = st.lists(
    st.integers(0, CANON_UNITS - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, min(lo + 6, CANON_UNITS)))),
    max_size=8,
)


class TestCanonicalIntervals:
    @settings(max_examples=300)
    @given(valid_pairs)
    def test_loaded_intervals_are_the_maximal_runs(self, pairs):
        units = {u for lo, hi in pairs for u in range(lo, hi)}
        runs = tuple(UnitInterval(lo, hi) for lo, hi in unit_runs(units, 1))
        doc = with_link(available=[[lo, hi] for lo, hi in pairs])
        doc["units"] = CANON_UNITS
        assert load_network(doc).links[0].available == runs
        assert normalize_intervals(UnitInterval(lo, hi) for lo, hi in pairs) == runs
        assert normalize_intervals([UnitInterval(lo, hi) for lo, hi in reversed(pairs)]) == runs

    @settings(max_examples=200)
    @given(valid_pairs, st.integers(0, 8), st.data())
    def test_malformed_pair_raises_inside_a_merged_run(self, pairs, at, data):
        # the bad pair lies within a good one, so a merge would swallow it
        lo, hi = data.draw(valid_pairs.filter(bool))[0]
        bad = data.draw(st.sampled_from([(hi - 1, lo), (lo, lo), (-1, hi)]))
        pairs = pairs + [(lo, hi)]
        pairs.insert(min(at, len(pairs)), bad)
        doc = with_link(available=[list(pair) for pair in pairs])
        doc["units"] = CANON_UNITS
        with pytest.raises(NetworkError) as caught:
            load_network(doc)
        assert str(caught.value) == f"link 0: malformed interval [{bad[0]}, {bad[1]})"

    def test_equal_input_intervals_are_reused(self):
        kept = UnitInterval(0, 2)
        host = UnitInterval(5, 8)
        out = normalize_intervals([host, kept, UnitInterval(6, 7)])
        assert out == (UnitInterval(0, 2), UnitInterval(5, 8))
        assert out[0] is kept
        assert out[1] is host

    def test_extended_run_is_built_anew(self):
        first, second = UnitInterval(0, 3), UnitInterval(2, 5)
        out = normalize_intervals([first, second])
        assert out == (UnitInterval(0, 5),)
        assert out[0] != first and out[0] != second

    @settings(max_examples=300)
    @given(valid_pairs)
    def test_canonical_tuple_comes_back_as_the_same_instances(self, pairs):
        canonical = normalize_intervals(UnitInterval(lo, hi) for lo, hi in pairs)
        for items in (canonical, canonical[::-1]):
            out = normalize_intervals(items)
            assert len(out) == len(canonical)
            assert all(got is kept for got, kept in zip(out, canonical))


class TestDemandDocs:
    def test_round_trip(self):
        demand = load_demand({"src": "a", "dst": "b", "units": 2})
        assert demand == Demand("a", "b", 2)
        assert dump_demand(demand) == {"src": "a", "dst": "b", "units": 2}

    def test_equal_endpoints_rejected(self):
        with pytest.raises(NetworkError):
            load_demand({"src": "a", "dst": "a", "units": 1})

    def test_malformed_demand_documents(self):
        for doc in ({"src": ["a"], "dst": "b", "units": 1},
                    {"src": "a", "dst": 7, "units": 1},
                    {"src": "a", "dst": "b", "units": True},
                    {"src": "a", "dst": "b"}):
            with pytest.raises(NetworkError):
                load_demand(doc)
        for units in (2.5, True):
            with pytest.raises(ValueError, match="is not an integer"):
                Demand("n0", "n5", units)

    def test_demand_owns_its_string_check(self):
        with pytest.raises(ValueError, match=r"demand src \['n_s'\] is not a string"):
            solve(lobe_network(1, 2), Demand(["n_s"], "n_x", 1))

    def test_validate_against_network(self):
        net = load_network(minimal_doc())
        validate_demand(net, Demand("a", "b", 8))
        with pytest.raises(ValueError, match="exceed"):
            validate_demand(net, Demand("a", "b", 9))
        with pytest.raises(NetworkError, match="unknown node"):
            validate_demand(net, Demand("a", "zz", 1))


class TestLobe:
    def test_smallest_instance(self):
        net = lobe_network(1, 1)
        assert len(net.nodes) == 3
        assert len(net.links) == 4
        assert sorted(l.cost for l in net.links if l.cost) == [1, 2]

    def test_consecutive_powers_of_two(self):
        net = lobe_network(2, 1)
        assert len(net.nodes) == 4 and len(net.links) == 6
        assert sorted(l.cost for l in net.links if l.cost) == [1, 2, 4]

    def test_size_and_cost_sum(self):
        for m in range(1, 8):
            net = lobe_network(m, 2)
            assert len(net.nodes) == m + 2
            assert len(net.links) == 2 * (m + 1)
            assert sum(l.cost for l in net.links) == 2 ** (m + 1) - 1
            assert all(iv.to_doc() == [0, 2] for l in net.links for iv in l.available)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            lobe_network(0, 1)
        with pytest.raises(ValueError):
            lobe_network(1, 0)

    @pytest.mark.parametrize("args, message", [
        ((2.0, 1), "segment parameter must be an integer, got 2.0"),
        ((True, 1), "segment parameter must be an integer, got True"),
        ((2, 1.0), "unit count must be an integer, got 1.0"),
        ((2, "4"), "unit count must be an integer, got '4'"),
    ])
    def test_rejects_non_integer_counts(self, args, message):
        with pytest.raises(NetworkError) as caught:
            lobe_network(*args)
        assert str(caught.value) == message

    @pytest.mark.parametrize("builder, args, message", [
        (chain_network, ([1, 2], 0), "unit count must be >= 1, got 0"),
        (chain_network, ([1, 2], 1.0), "unit count must be an integer, got 1.0"),
        (chain_network, ([], 1), "a chain needs at least one weight"),
        # the weights are link costs, checked by Network alone
        (chain_network, ([1, -2], 1), "link 3 has negative cost -2"),
        (chain_network, ([1.5], 1), "link 1: cost must be an integer, got 1.5"),
        (chain_network, ([True], 1), "link 1: cost must be an integer, got True"),
        (fan_network, (0, 1), "unit count must be >= 1, got 0"),
        (fan_network, (4.0, 1), "unit count must be an integer, got 4.0"),
        (fan_network, (4, 0), "units must be >= 1, got 0"),
        (fan_network, (4, "2"), "units must be an integer, got '2'"),
    ])
    def test_builders_reject_bad_inputs(self, builder, args, message):
        with pytest.raises(NetworkError) as caught:
            builder(*args)
        assert str(caught.value) == message

    def test_document_is_pinned(self):
        # link ids fix the search's tie order, and with it every lobe answer
        assert dump_network(lobe_network(2, 2)) == {
            "units": 2,
            "nodes": ["n_s", "n_1", "n_2", "n_x"],
            "links": [
                {"id": 0, "ends": ["n_s", "n_1"], "cost": 0, "available": [[0, 2]]},
                {"id": 1, "ends": ["n_s", "n_1"], "cost": 1, "available": [[0, 2]]},
                {"id": 2, "ends": ["n_1", "n_2"], "cost": 0, "available": [[0, 2]]},
                {"id": 3, "ends": ["n_1", "n_2"], "cost": 2, "available": [[0, 2]]},
                {"id": 4, "ends": ["n_2", "n_x"], "cost": 0, "available": [[0, 2]]},
                {"id": 5, "ends": ["n_2", "n_x"], "cost": 4, "available": [[0, 2]]},
            ],
        }


def test_all_names_every_public_import():
    imported = {name for name, value in vars(ddpp).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert ddpp.__all__ == sorted(imported)


class TestRandomNetwork:
    def test_two_nodes_single_link(self):
        for seed in (0, 7, 99):
            net = random_network(2, 1, 4, 1.0, seed)
            assert len(net.links) == 1

    def test_structure(self):
        net = random_network(8, 3, 8, 0.7, 42)
        assert len(net.nodes) == 8
        assert len(net.links) >= 7
        assert len(net.links) == round(3 * 8 / 2)
        assert all(1 <= l.cost <= 100 for l in net.links)

    def test_connected_for_many_seeds(self):
        for seed in range(30):
            net = random_network(7, 2.5, 4, 0.5, seed)
            reached = {net.nodes[0]}
            frontier = [net.nodes[0]]
            while frontier:
                node = frontier.pop()
                for link in net.links:
                    if node in link.ends:
                        other = link.other_end(node)
                        if other not in reached:
                            reached.add(other)
                            frontier.append(other)
            assert reached == set(net.nodes)

    def test_full_fill(self):
        net = random_network(5, 2, 6, 1.0, 3)
        assert all([iv.to_doc() for iv in l.available] == [[0, 6]] for l in net.links)

    def test_deterministic_per_seed(self):
        assert dump_network(random_network(8, 3, 8, 0.7, 42)) == dump_network(
            random_network(8, 3, 8, 0.7, 42)
        )
        assert dump_network(random_network(8, 3, 8, 0.7, 42)) != dump_network(
            random_network(8, 3, 8, 0.7, 43)
        )

    def test_documents_are_pinned(self):
        # sha256 of each sorted-key document: a change to the draws, their
        # order or the stored runs changes a digest
        pinned = {
            (8, 3.0, 1, 0.0, 11): "76185277194cbc1747d9b98640842aa17c9a20077a3dae1b43a6691b987b2c70",
            (8, 3.0, 32, 0.0, 11): "73ba840d00f2ebab74f5bded7500a692f2a98b95ba9e5460c64cde19a054a93d",
            (8, 3.0, 320, 0.0, 11): "3ed45ce839bd1331b9e0b993dad42379eef096b69e1b32611bb148537955e2b8",
            (8, 3.0, 1, 0.5, 11): "64ecf62c9703e34b912f55a988a8286aeef6a304962f4fccf6302c4fbcda39e2",
            (8, 3.0, 32, 0.5, 11): "e6d4f59fe01cb8f19c87475b0754db2b728f910375bc50354c195b7fdd30cf9b",
            (8, 3.0, 320, 0.5, 11): "f078402016f4e0407f16ece9c811113920a5f48c58cedfed5fd0adf9e4335f40",
            (8, 3.0, 1, 0.85, 11): "141b85e3e6326fffce39f0c60e14557274cdc99df11f30fbae0a75b437a43295",
            (8, 3.0, 32, 0.85, 11): "b6771c4c9272058ee3226d456925ddfb8a7ff628a034317c7329c477b6b6a6b6",
            (8, 3.0, 320, 0.85, 11): "510973b0fdc41ec26bcda533c8c5d6d2ab7e3ed925e47cf1a1b6da25d70b80ff",
            (8, 3.0, 1, 1.0, 11): "b8eaa7ce89a6359b98cc8ed80ab36d12368980215164d2fbe54b2e1708a557ec",
            (8, 3.0, 32, 1.0, 11): "e2b20a3e388c8af180e3ae1b64e63eabced5264740ad98334ecff8063882125b",
            (8, 3.0, 320, 1.0, 11): "dfb46de32724a69c5d7bea3f4cd68e3e1b7246360779e3c7fa1c8e4030209c35",
            # the simulate benchmark's dev network
            (20, 3.0, 320, 1.0, 20231023):
                "3f23c09a765ca49d7a67f208a237043ce433b1f8e50edd32260920e1b53d36bf",
        }
        got = {
            args: hashlib.sha256(json.dumps(dump_network(random_network(*args)),
                                            sort_keys=True).encode()).hexdigest()
            for args in pinned
        }
        assert got == pinned

    @pytest.mark.parametrize("args, message", [
        ((6, 2.5, 8.0, 0.9, 1), "unit count must be an integer, got 8.0"),
        ((6.0, 2.5, 8, 0.9, 1), "node count must be an integer, got 6.0"),
        ((6, 2.5, 8, "0.9", 1), "fill must be a number, got '0.9'"),
        ((6, "3", 8, 0.9, 1), "avg_degree must be a number, got '3'"),
        ((6, 2.5, True, 0.9, 1), "unit count must be an integer, got True"),
        ((6, 2.5, 8, None, 1), "fill must be a number, got None"),
    ])
    def test_rejects_non_numeric_parameters(self, args, message):
        with pytest.raises(NetworkError) as caught:
            random_network(*args)
        assert str(caught.value) == message

    @pytest.mark.parametrize("args, message", [
        ((1, 2.5, 8, 0.9, 1), "need at least 2 nodes, got 1"),
        ((6, 2.5, 8, 1.5, 1), "fill must be within [0, 1], got 1.5"),
        ((6, 2.5, 8, -0.1, 1), "fill must be within [0, 1], got -0.1"),
        ((6, 2.5, 0, 0.9, 1), "unit count must be >= 1, got 0"),
    ])
    def test_rejects_out_of_range_parameters(self, args, message):
        with pytest.raises(NetworkError) as caught:
            random_network(*args)
        assert str(caught.value) == message

    @pytest.mark.parametrize("seed", [None, [1], 1.5, True, "1"],
                             ids=["none", "list", "float", "bool", "string"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(NetworkError) as caught:
            random_network(6, 2.5, 8, 0.9, seed)
        assert str(caught.value) == f"seed must be an integer, got {seed!r}"

    def test_unsatisfiable_degree(self):
        with pytest.raises(NetworkError, match="unsatisfiable degree"):
            random_network(8, 1, 4, 1.0, 0)  # below spanning tree
        with pytest.raises(NetworkError, match="unsatisfiable degree"):
            random_network(4, 3.8, 4, 1.0, 0)  # above complete graph
        for degree in (1e308, -1e308):  # finite, but degree * n / 2 overflows
            with pytest.raises(NetworkError, match="unsatisfiable degree"):
                random_network(8, degree, 4, 1.0, 0)
        for degree in (float("inf"), float("-inf"), float("nan"), 10**400):
            with pytest.raises(NetworkError, match="avg_degree must be finite"):
                random_network(4, degree, 4, 1.0, 0)


class TestLink:
    def test_other_end_rejects_a_node_off_the_link(self):
        link = load_network(minimal_doc()).links[0]
        assert (link.other_end("a"), link.other_end("b")) == ("b", "a")
        with pytest.raises(ValueError, match="link 0 is not incident to node 'c'"):
            link.other_end("c")
