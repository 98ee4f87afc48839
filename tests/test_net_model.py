"""Network model: documents, validation, and the instance generators."""

import random

import pytest

from ddpp import (
    Demand,
    Link,
    Network,
    NetworkError,
    dump_demand,
    dump_network,
    incident_links,
    load_demand,
    load_network,
    lobe_network,
    normalize_intervals,
    random_network,
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

    def test_interval_exceeding_unit_count(self):
        doc = minimal_doc()
        doc["links"][0]["available"] = [[6, 10]]
        with pytest.raises(NetworkError, match="exceeds unit count"):
            load_network(doc)
        net = load_network(minimal_doc())
        for units in (8.0, True):
            with pytest.raises(NetworkError, match="'units' must be a positive integer"):
                Network(units, net.nodes, net.links)

    def test_adjacent_intervals_merged(self):
        doc = minimal_doc()
        doc["links"][0]["available"] = [[0, 3], [3, 5]]
        net = load_network(doc)
        assert [iv.to_doc() for iv in net.links[0].available] == [[0, 5]]

    def test_dangling_endpoint(self):
        doc = minimal_doc()
        doc["links"][0]["ends"] = ["a", "ghost"]
        with pytest.raises(NetworkError, match="unknown node 'ghost'"):
            load_network(doc)
        doc["links"][0]["ends"] = ["a", ["b"]]
        with pytest.raises(NetworkError, match="unknown node"):
            load_network(doc)

    def test_duplicate_link_id(self):
        doc = minimal_doc()
        doc["links"].append({"id": 0, "ends": ["a", "b"], "cost": 1, "available": []})
        with pytest.raises(NetworkError, match="duplicate link id 0"):
            load_network(doc)

    def test_sparse_link_ids(self):
        doc = minimal_doc()
        doc["links"][0]["id"] = 5
        with pytest.raises(NetworkError, match="dense"):
            load_network(doc)

    def test_negative_cost(self):
        doc = minimal_doc()
        doc["links"][0]["cost"] = -1
        with pytest.raises(NetworkError, match="cost"):
            load_network(doc)
        # fractional costs would make the search's A* bound sums inexact
        net = random_network(8, 3.0, 8, 0.9, 0)
        rng = random.Random(0)
        links = tuple(Link(l.id, l.ends, rng.choice((0.1, 0.2, 0.3, 0.7, 1.1)), l.available)
                      for l in net.links)
        with pytest.raises(NetworkError, match="cost must be an integer"):
            Network(net.unit_count, net.nodes, links)

    def test_malformed_interval(self):
        doc = minimal_doc()
        doc["links"][0]["available"] = [[5, 2]]
        with pytest.raises(NetworkError, match="malformed interval"):
            load_network(doc)
        doc["links"][0]["available"] = 5
        with pytest.raises(NetworkError, match="'available' must be a list"):
            load_network(doc)
        # pair bounds are not coerced, so Network sees and rejects them
        assert normalize_intervals([(0.5, 2.7)])[0].to_doc() == [0.5, 2.7]
        link = Link(0, ("a", "b"), 1, normalize_intervals([(0.5, 2.7)]))
        with pytest.raises(NetworkError, match=r"interval \[0.5, 2.7\] must be \[lo, hi\]"):
            Network(8, ("a", "b"), (link,))

    def test_missing_keys(self):
        with pytest.raises(NetworkError, match="lacks 'units'"):
            load_network({"nodes": [], "links": []})

    def test_duplicate_nodes(self):
        doc = minimal_doc()
        doc["nodes"] = ["a", "a"]
        with pytest.raises(NetworkError, match="duplicate node"):
            load_network(doc)

    def test_round_trip_identity(self):
        doc = minimal_doc()
        doc["links"][0]["available"] = [[0, 2], [4, 6]]
        net = load_network(doc)
        assert load_network(dump_network(net)) == net

    def test_round_trip_on_generated(self):
        for seed in range(5):
            net = random_network(6, 2.5, 8, 0.6, seed)
            assert load_network(dump_network(net)) == net


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
                for link in incident_links(net, node):
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

    def test_unsatisfiable_degree(self):
        with pytest.raises(NetworkError, match="unsatisfiable degree"):
            random_network(8, 1, 4, 1.0, 0)  # below spanning tree
        with pytest.raises(NetworkError, match="unsatisfiable degree"):
            random_network(4, 3.8, 4, 1.0, 0)  # above complete graph
        for degree in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(NetworkError, match="avg_degree must be finite"):
                random_network(4, degree, 4, 1.0, 0)


class TestIncidentLinks:
    def test_lobe_middle_node(self):
        net = lobe_network(2, 1)
        links = incident_links(net, "n_1")
        assert len(links) == 4
        assert [l.id for l in links] == sorted(l.id for l in links)

    def test_two_node_endpoint(self):
        net = load_network(minimal_doc())
        assert [l.id for l in incident_links(net, "b")] == [0]

    def test_unknown_node(self):
        net = load_network(minimal_doc())
        with pytest.raises(NetworkError, match="unknown node"):
            incident_links(net, "zz")
