"""Command-line contract: exit codes, documents on stdout, CSV schema."""

import csv
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ddpp.oracle
from ddpp import (
    Demand,
    RouteLeg,
    SearchStats,
    Solution,
    UnitInterval,
    check_solution,
    dump_demand,
    dump_network,
    dump_traffic,
    gen_traffic,
    load_demand,
    load_network,
    lobe_network,
)
from ddpp.cli import main


WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def workflow_run_lines(text: str) -> list[str]:
    """Shell lines of a workflow's ``run:`` steps, read without a YAML
    parser: the value of a one-line ``run:``, or each line of a ``run: |``
    block, which is indented deeper than its key."""
    lines = []
    block = None  # column of the open block's ``run`` key
    for line in text.splitlines():
        stripped = line.strip()
        if block is not None:
            if not stripped or len(line) - len(line.lstrip()) > block:
                if stripped:
                    lines.append(stripped)
                continue
            block = None
        match = re.match(r"(\s*(?:- )?)run:\s*(.*)$", line)
        if match:
            if match.group(2) == "|":
                block = len(match.group(1))
            else:
                lines.append(match.group(2))
    return lines


def write_json(path, doc):
    # a str is written as raw text, for documents json.dumps cannot build
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
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

    @pytest.mark.parametrize("relation", ["base", "prime"])
    def test_all_efficient_gives_the_same_answer(self, lobe_files, capsys, relation):
        net_file, demand_file = lobe_files
        argv = ["solve", "--net", net_file, "--demand", demand_file, "--relation", relation]
        docs = []
        for extra in ([], ["--all-efficient"]):
            assert main(argv + extra) == 0
            docs.append(json.loads(capsys.readouterr().out))
        first, drained = (doc.pop("stats") for doc in docs)
        assert docs[0] == docs[1]
        assert drained["labels_settled"] >= first["labels_settled"]

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
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("command, net_doc, doc", [
    ("solve", {**LOBE_NET, "links": [{**LOBE_LINK, "available": 5}]}, DEMAND),
    ("solve", {**LOBE_NET, "links": [{**LOBE_LINK, "ends": ["n_s", ["n_1"]]}]}, DEMAND),
    ("solve", LOBE_NET, {**DEMAND, "src": ["n_s"]}),
    ("solve", LOBE_NET, {**DEMAND, "dst": {"n": 1}}),
    ("simulate", LOBE_NET, {"events": None}),
    ("simulate", LOBE_NET, {"events": [{**EVENT, "src": ["n_s"]}]}),
    ("simulate", LOBE_NET, {"events": [{**EVENT, "units": True}]}),
    ("simulate", LOBE_NET, {"events": [{**EVENT, "hold": "inf"}]}),
    ("solve", LOBE_NET, DEEP_JSON),
], ids=["available-int", "ends-nested", "demand-src-list", "demand-dst-object",
        "events-null", "event-src-list", "event-units-bool", "event-hold-string",
        "demand-nested-too-deep"])
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
# on lobe_network(1099, 1), 1,100 segments, one trail is deeper than the
# default recursion limit
LONG_CHAIN = ["--budget", "10"]


@pytest.mark.parametrize("argv", [
    GEN_NET + ["--avg-degree", "inf"],
    GEN_NET + ["--avg-degree", "nan"],
    GEN_NET + ["--avg-degree", "1e308"],
    GEN_TRAFFIC + ["--mean-hold", "1.0", "--mean-gap", "inf"],
    GEN_TRAFFIC + ["--mean-hold", "nan", "--mean-gap", "1.0"],
    GEN_TRAFFIC + ["--mean-hold", "1.0", "--mean-gap", "1.0", "--units-max", "99"],
    ["lobe-bench", "--m-max", "0", "--relation", "base"],
    ["oracle", "--max-route-cost", "-1"],
    ["oracle", "--budget", "0"],
    ["compare", "--budget", "-5"],
    ["oracle"] + LONG_CHAIN,
    ["compare"] + LONG_CHAIN,
], ids=["avg-degree-inf", "avg-degree-nan", "avg-degree-overflow", "mean-gap-inf", "mean-hold-nan",
        "units-max-beyond-network", "lobe-m-max-zero",
        "oracle-negative-limit", "oracle-budget-zero", "compare-budget-negative",
        "oracle-long-chain-budget", "compare-long-chain-budget"])
def test_bad_generator_inputs_exit_one_without_traceback(tmp_path, capsys, argv):
    if argv[0] in ("gen-traffic", "oracle", "compare"):
        net = lobe_network(1099, 1) if argv[1:] == LONG_CHAIN else lobe_network(2, 8)
        argv = argv + ["--net", write_json(tmp_path / "net.json", dump_network(net))]
    if argv[0] in ("oracle", "compare"):
        argv = argv + ["--demand", write_json(tmp_path / "demand.json", DEMAND)]
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

    def test_oracle_budget_flag(self, lobe_files, capsys):
        net_file, demand_file = lobe_files
        code = main(["oracle", "--net", net_file, "--demand", demand_file,
                     "--budget", "2"])
        assert code == 1
        assert "budget" in capsys.readouterr().err
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

    def test_compare_disagreement_writes_bundle(self, lobe_files, capsys, tmp_path,
                                                monkeypatch):
        real = ddpp.oracle.solve

        def off_by_one(net, demand, opts):
            sol = real(net, demand, opts)
            return dataclasses.replace(sol, total_cost=sol.total_cost + 1)

        monkeypatch.setattr(ddpp.oracle, "solve", off_by_one)
        net_file, demand_file = lobe_files
        bundle = tmp_path / "bundle.json"
        code = main(["compare", "--net", net_file, "--demand", demand_file,
                     "--bundle", str(bundle)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["matches"] is False
        assert captured.err == f"disagreement: counterexample bundle written to {bundle}\n"
        doc = json.loads(bundle.read_text())
        assert load_network(doc["network"]) == lobe_network(2, 1)
        assert load_demand(doc["demand"]) == Demand("n_s", "n_x", 1)
        assert doc["solutions"]["base"]["cost"] == doc["oracle"]["min_cost"] + 1
        assert (doc["verdicts"], doc["matches"]) == ({"base": False, "prime": False}, False)


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
        # a cost-0 link shadows its cost-2^i twin while it is free
        assert [int(table[m][2]) for m in (1, 2, 4)] == [8, 20, 100]

    def test_prime_keeps_one_label(self, capsys):
        code = main(["lobe-bench", "--m-max", "5", "--relation", "prime"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(int(r[1]) == 1 for r in rows[1:])
        table = {int(r[0]): r for r in rows[1:]}
        assert [int(table[m][2]) for m in (1, 2, 4)] == [7, 13, 31]

    def test_units_flag_is_usage_error(self, capsys):
        # every lobe link has all units free and the demand is 1 unit, so a
        # unit count never reached the table; the flag that set it is gone
        with pytest.raises(SystemExit) as err:
            main(["lobe-bench", "--m-max", "2", "--relation", "base", "--units", "4"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --units 4" in captured.err


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


class TestProcess:
    """``python -m ddpp.cli`` as a separate process: exit codes and streams."""

    @staticmethod
    def _env(**extra):
        src = str(Path(ddpp.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)

    def _run(self, *argv):
        return subprocess.run([sys.executable, "-m", "ddpp.cli", *argv], env=self._env(),
                              capture_output=True, text=True, timeout=120)

    def test_workflow_smoke_commands(self, tmp_path):
        """CI's smoke steps as the workflow states them, each line run by
        ``bash`` with ``ddpp`` a function for ``python -m ddpp.cli`` and
        ``$RUNNER_TEMP`` a temporary directory."""
        commands = [line for line in workflow_run_lines(WORKFLOW.read_text(encoding="utf-8"))
                    if line.split()[0] in ("ddpp", "printf")]
        assert [shlex.split(line)[:2] for line in commands] == [
            ["ddpp", "--version"], ["ddpp", "lobe-bench"], ["ddpp", "lobe-bench"],
            ["ddpp", "gen-net"],
            ["ddpp", "gen-traffic"], ["ddpp", "simulate"], ["ddpp", "simulate"],
            ["printf", '{"events": [{"id": 0, "time": 0, "src": "n0", "dst": "n7", '
                       '"units": 2, "hold": 1}]}'], ["ddpp", "simulate"],
            ["printf", '{"events": [{"id": 1, "time": 1, "src": "n0", "dst": "n7", '
                       '"units": 3, "hold": 1}, {"id": 0, "time": 0, "src": "n0", '
                       '"dst": "n7", "units": 3, "hold": 1}]}'], ["ddpp", "simulate"],
            ["printf", '{"src": "n0", "dst": "n7", "units": 2}'], ["ddpp", "solve"],
            ["ddpp", "solve"], ["ddpp", "solve"], ["ddpp", "compare"], ["ddpp", "oracle"]]
        define = f'ddpp() {{ {shlex.quote(sys.executable)} -m ddpp.cli "$@"; }}\n'
        stdout = {}
        for command in commands:
            done = subprocess.run(["bash", "-c", define + command], cwd=tmp_path,
                                  env=self._env(RUNNER_TEMP=str(tmp_path)),
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, (command, done.stderr)
            stdout.setdefault(command.split()[1], []).append(done.stdout)
        prime, base = (list(csv.reader(io.StringIO(out)))[1:] for out in stdout["lobe-bench"])
        assert [int(row[1]) for row in prime] == [1] * 6
        assert [int(row[1]) for row in base] == [2**m for m in range(1, 7)]
        assert int(base[-1][2]) == 432
        simulated, solved, (compare,), (oracle,) = (
            stdout[name] for name in ("simulate", "solve", "compare", "oracle"))
        *replays, single, pair = simulated
        for simulate in replays:  # prime, then base
            report = json.loads(simulate)
            assert (report["offered"], report["routed"], report["blocked"]) == (40, 27, 13)
        # one event with integer time and hold, loaded as given
        report = json.loads(single)
        assert (report["offered"], report["routed"], report["blocked"]) == (1, 1, 0)
        assert report["max_labels"] == 170
        # two events listed out of time order; 0 leaves as 1 arrives, and
        # both take the most units n0 -> n7 can carry
        report = json.loads(pair)
        assert (report["offered"], report["routed"], report["blocked"]) == (2, 2, 0)
        assert report["max_labels"] == 67
        net = load_network(json.loads((tmp_path / "net.json").read_text()))
        # unlimited, limited to the dearer leg's cost, then with the queue drained
        for solve in solved:
            doc = json.loads(solve)
            assert (doc["status"], doc["cost"]) == ("routed", 232)
            assert (doc["working"]["links"], doc["protecting"]["links"]) == ([9, 3], [4, 11])
            legs = [RouteLeg(leg["nodes"], leg["links"], UnitInterval(*leg["slots"]))
                    for leg in (doc["working"], doc["protecting"])]
            sol = Solution(doc["status"], doc["cost"], *legs, SearchStats())
            assert check_solution(net, Demand("n0", "n7", 2), sol, 124) == []
        assert max(sum(net.links[i].cost for i in leg.links) for leg in legs) == 124
        drained = json.loads(solved[-1])["stats"]
        del drained["wall_time"]
        assert drained == {"labels_generated": 1753, "labels_dominated": 998,
                           "labels_settled": 755, "queue_pops": 791,
                           "max_labels_per_vertex": 43}
        tighter = self._run("solve", "--net", str(tmp_path / "net.json"), "--demand",
                            str(tmp_path / "demand.json"), "--relation", "base",
                            "--max-route-cost", "123")
        assert tighter.returncode == 3, tighter.stderr
        assert json.loads(tighter.stdout)["status"] == "blocked"
        verdict = json.loads(compare)
        assert verdict["matches"] is True
        assert verdict["verdicts"] == {"base": True, "prime": True}
        assert (verdict["oracle"]["status"], verdict["oracle"]["min_cost"]) == ("routed", 232)
        exhaustive = json.loads(oracle)
        assert (exhaustive["status"], exhaustive["min_cost"]) == ("routed", 232)
        assert exhaustive["pair_count"] == 11
        witness = exhaustive["witness"]
        assert ((witness["route_a"]["links"], witness["route_a"]["cost"])
                == ([4, 11], 108))
        assert ((witness["route_b"]["links"], witness["route_b"]["cost"])
                == ([9, 3], 124))

    def test_routed_exit_zero(self, lobe_files):
        net_file, demand_file = lobe_files
        done = self._run("solve", "--net", net_file, "--demand", demand_file,
                         "--relation", "prime")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["cost"] == 7

    def test_blocked_exit_three(self, tmp_path):
        net_file = write_json(tmp_path / "n.json", {
            "units": 4, "nodes": ["a", "b"],
            "links": [{"id": 0, "ends": ["a", "b"], "cost": 1, "available": [[0, 4]]}],
        })
        demand_file = write_json(tmp_path / "d.json", {"src": "a", "dst": "b", "units": 1})
        done = self._run("solve", "--net", net_file, "--demand", demand_file,
                         "--relation", "base")
        assert done.returncode == 3, done.stderr
        assert json.loads(done.stdout)["status"] == "blocked"

    def test_bad_document_exit_one(self, tmp_path, lobe_files):
        _, demand_file = lobe_files
        net_file = write_json(tmp_path / "n.json", {"units": 4, "nodes": ["a"]})
        done = self._run("solve", "--net", net_file, "--demand", demand_file,
                         "--relation", "base")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("ddpp: error:")
