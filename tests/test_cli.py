"""Command-line contract: exit codes, documents on stdout, CSV schema."""

import csv
import io
import json

import pytest

from ddpp import Demand, dump_demand, dump_network, dump_traffic, gen_traffic, lobe_network
from ddpp.cli import main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def lobe_files(tmp_path):
    net = lobe_network(2, 1)
    net_file = write_json(tmp_path / "net.json", dump_network(net))
    demand_file = write_json(tmp_path / "demand.json",
                             dump_demand(Demand("n_s", "n_x", 1)))
    return net_file, demand_file


class TestSolveCommand:
    def test_routed_exit_zero(self, lobe_files, capsys):
        net_file, demand_file = lobe_files
        code = main(["solve", "--net", net_file, "--demand", demand_file,
                     "--relation", "prime"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["status"] == "routed"
        assert doc["cost"] == 7
        assert set(doc) == {"status", "cost", "working", "protecting", "stats"}
        assert captured.err == ""

    def test_blocked_exit_three(self, tmp_path, capsys):
        net_file = write_json(tmp_path / "n.json", {
            "units": 4, "nodes": ["a", "b"],
            "links": [{"id": 0, "ends": ["a", "b"], "cost": 1, "available": [[0, 4]]}],
        })
        demand_file = write_json(tmp_path / "d.json", {"src": "a", "dst": "b", "units": 1})
        code = main(["solve", "--net", net_file, "--demand", demand_file,
                     "--relation", "base"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "blocked"
        assert "cost" not in doc

    def test_prime_with_route_limit_is_usage_error(self, lobe_files, capsys):
        net_file, demand_file = lobe_files
        code = main(["solve", "--net", net_file, "--demand", demand_file,
                     "--relation", "prime", "--max-route-cost", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "max_route_cost" in captured.err

    def test_bad_relation_flag_exits_one(self, lobe_files, capsys):
        net_file, demand_file = lobe_files
        with pytest.raises(SystemExit) as err:
            main(["solve", "--net", net_file, "--demand", demand_file,
                  "--relation", "fancy"])
        assert err.value.code == 1

    def test_unreadable_file_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = main(["solve", "--net", missing, "--demand", missing,
                     "--relation", "base"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_network_document_exits_one(self, tmp_path, capsys):
        net_file = write_json(tmp_path / "n.json", {
            "units": 4, "nodes": ["a", "b"],
            "links": [{"id": 0, "ends": ["a", "b"], "cost": 1, "available": [[0, 9]]}],
        })
        demand_file = write_json(tmp_path / "d.json", {"src": "a", "dst": "b", "units": 1})
        code = main(["solve", "--net", net_file, "--demand", demand_file,
                     "--relation", "base"])
        assert code == 1
        assert "exceeds unit count" in capsys.readouterr().err

    def test_cost_flag_is_usage_error(self, lobe_files, capsys):
        # costs are additive only; the flag that selected a cost is gone
        net_file, demand_file = lobe_files
        with pytest.raises(SystemExit) as err:
            main(["solve", "--net", net_file, "--demand", demand_file,
                  "--relation", "base", "--cost-model", "additive"])
        assert err.value.code == 1
        assert capsys.readouterr().out == ""


LOBE_NET = dump_network(lobe_network(2, 1))
LOBE_LINK = LOBE_NET["links"][0]
DEMAND = {"src": "n_s", "dst": "n_x", "units": 1}
EVENT = {"id": 0, "time": 0.0, "src": "n_s", "dst": "n_x", "units": 1, "hold": 1.0}


@pytest.mark.parametrize("command, net_doc, doc", [
    ("solve", {**LOBE_NET, "links": [{**LOBE_LINK, "available": 5}]}, DEMAND),
    ("solve", {**LOBE_NET, "links": [{**LOBE_LINK, "ends": ["n_s", ["n_1"]]}]}, DEMAND),
    ("solve", LOBE_NET, {**DEMAND, "src": ["n_s"]}),
    ("solve", LOBE_NET, {**DEMAND, "dst": {"n": 1}}),
    ("simulate", LOBE_NET, {"events": None}),
    ("simulate", LOBE_NET, {"events": [{**EVENT, "src": ["n_s"]}]}),
    ("simulate", LOBE_NET, {"events": [{**EVENT, "units": True}]}),
    ("simulate", LOBE_NET, {"events": [{**EVENT, "hold": "inf"}]}),
], ids=["available-int", "ends-nested", "demand-src-list", "demand-dst-object",
        "events-null", "event-src-list", "event-units-bool", "event-hold-string"])
def test_malformed_documents_exit_one_without_traceback(tmp_path, capsys, command,
                                                        net_doc, doc):
    flag = "--demand" if command == "solve" else "--traffic"
    code = main([command, "--relation", "base",
                 "--net", write_json(tmp_path / "net.json", net_doc),
                 flag, write_json(tmp_path / "doc.json", doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("ddpp: error:")


GEN_NET = ["gen-net", "--nodes", "6", "--units", "8", "--fill", "0.9", "--seed", "4"]
GEN_TRAFFIC = ["gen-traffic", "--count", "20", "--seed", "6"]


@pytest.mark.parametrize("argv", [
    GEN_NET + ["--avg-degree", "inf"],
    GEN_NET + ["--avg-degree", "nan"],
    GEN_TRAFFIC + ["--mean-hold", "1.0", "--mean-gap", "inf"],
    GEN_TRAFFIC + ["--mean-hold", "nan", "--mean-gap", "1.0"],
    GEN_TRAFFIC + ["--mean-hold", "1.0", "--mean-gap", "1.0", "--units-max", "99"],
], ids=["avg-degree-inf", "avg-degree-nan", "mean-gap-inf", "mean-hold-nan",
        "units-max-beyond-network"])
def test_bad_generator_inputs_exit_one_without_traceback(tmp_path, capsys, argv):
    if argv[0] == "gen-traffic":
        argv = argv + ["--net", write_json(tmp_path / "net.json",
                                           dump_network(lobe_network(2, 8)))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("ddpp: error:")


class TestOracleAndCompare:
    def test_oracle_document(self, lobe_files, capsys):
        net_file, demand_file = lobe_files
        code = main(["oracle", "--net", net_file, "--demand", demand_file])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_cost"] == 7 and doc["pair_count"] == 4

    def test_oracle_blocked_exit_three(self, tmp_path, capsys):
        net_file = write_json(tmp_path / "n.json", {
            "units": 4, "nodes": ["a", "b"],
            "links": [{"id": 0, "ends": ["a", "b"], "cost": 1, "available": [[0, 4]]}],
        })
        demand_file = write_json(tmp_path / "d.json", {"src": "a", "dst": "b", "units": 1})
        assert main(["oracle", "--net", net_file, "--demand", demand_file]) == 3

    def test_oracle_budget_env_override(self, lobe_files, capsys, monkeypatch):
        net_file, demand_file = lobe_files
        monkeypatch.setenv("DDPP_ORACLE_BUDGET", "2")
        code = main(["oracle", "--net", net_file, "--demand", demand_file])
        assert code == 1
        assert "budget" in capsys.readouterr().err
        # the explicit flag wins over the environment
        code = main(["oracle", "--net", net_file, "--demand", demand_file,
                     "--budget", "100000"])
        assert code == 0
        capsys.readouterr()

    def test_compare_agreement_exit_zero(self, lobe_files, capsys, tmp_path):
        net_file, demand_file = lobe_files
        bundle = str(tmp_path / "bundle.json")
        code = main(["compare", "--net", net_file, "--demand", demand_file,
                     "--bundle", bundle])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matches"] is True
        assert doc["verdicts"] == {"base": True, "prime": True}
        assert not (tmp_path / "bundle.json").exists()


class TestLobeBench:
    def test_csv_schema_and_counts(self, capsys):
        code = main(["lobe-bench", "--m-max", "4", "--relation", "base"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["m", "labels_at_destination", "labels_generated", "wall_time"]
        table = {int(r[0]): r for r in rows[1:]}
        assert len(table) == 4
        assert int(table[1][1]) == 2
        assert int(table[4][1]) == 16

    def test_prime_keeps_one_label(self, capsys):
        code = main(["lobe-bench", "--m-max", "5", "--relation", "prime"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(int(r[1]) == 1 for r in rows[1:])


class TestGenerateAndSimulate:
    def test_gen_net_solve_round_trip(self, tmp_path, capsys):
        code = main(["gen-net", "--nodes", "6", "--avg-degree", "2.5",
                     "--units", "8", "--fill", "0.9", "--seed", "4"])
        assert code == 0
        net_doc = json.loads(capsys.readouterr().out)
        net_file = write_json(tmp_path / "net.json", net_doc)
        demand_file = write_json(
            tmp_path / "d.json",
            {"src": net_doc["nodes"][0], "dst": net_doc["nodes"][-1], "units": 1},
        )
        code = main(["solve", "--net", net_file, "--demand", demand_file,
                     "--relation", "prime"])
        assert code in (0, 3)
        json.loads(capsys.readouterr().out)

    def test_gen_traffic_then_simulate(self, tmp_path, capsys):
        net = lobe_network(2, 2)
        net_file = write_json(tmp_path / "net.json", dump_network(net))
        code = main(["gen-traffic", "--net", net_file, "--count", "30",
                     "--mean-hold", "2.0", "--mean-gap", "0.5",
                     "--units-min", "1", "--units-max", "2", "--seed", "6"])
        assert code == 0
        traffic_doc = json.loads(capsys.readouterr().out)
        assert len(traffic_doc["events"]) == 30
        traffic_file = write_json(tmp_path / "traffic.json", traffic_doc)
        code = main(["simulate", "--net", net_file, "--traffic", traffic_file,
                     "--relation", "prime"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["offered"] == 30
        assert report["offered"] == report["routed"] + report["blocked"]

    def test_gen_traffic_matches_library(self, tmp_path, capsys):
        net = lobe_network(2, 2)
        net_file = write_json(tmp_path / "net.json", dump_network(net))
        main(["gen-traffic", "--net", net_file, "--count", "10",
              "--mean-hold", "1.0", "--mean-gap", "1.0", "--seed", "12"])
        doc = json.loads(capsys.readouterr().out)
        assert doc == dump_traffic(gen_traffic(net, 10, 1.0, 1.0, (1, 1), 12))
