"""The benchmark's own tests, on the tiny pools.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, SolveMixed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def results():
    """Last stdout line of tiny runs, by (workload, trace, seed)."""
    out = {}
    for workload in WORKLOADS:
        for trace, seed in ((0, 1), (1, 1), (1, 2)):
            done = bench(workload, trace, seed)
            assert done.returncode == 0, done.stderr
            out[workload, trace, seed] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_passes_its_checks_and_reports_every_metric(results, workload, trace):
    doc = results[workload, trace, 1]
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in doc["metrics"].items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_search_counts_repeat_exactly_across_seeds(results, workload):
    first, second = results[workload, 1, 1], results[workload, 1, 2]
    for name, metric in first["metrics"].items():
        if name.startswith("search.") and not name.endswith("_s"):
            assert metric == second["metrics"][name], name


def test_traced_spans_nest_and_self_times_are_non_negative(results):
    spans = [json.loads(line) for line in
             (BENCH / "results" / "simulate-dev-tiny-seed1-trace1-spans.jsonl").open()]
    children = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            children[parent] += end - start
    for (name, start, end, parent, op), child_time in zip(spans, children):
        assert child_time <= end - start + 1e-9, name
    assert {span[0] for span in spans} >= {"traffic.run", "traffic.solve", "search.run",
                                          "search.insert", "traffic.snapshot"}


def test_tracer_self_time_is_duration_minus_children():
    def leaf():
        return [1, 2]

    def outer():
        return module.leaf() + module.leaf()

    module = types.SimpleNamespace(leaf=leaf, outer=outer)
    tracer = Tracer()
    patches = [(module, "leaf", "leaf", lambda out: (len(out),)),
               (module, "outer", "search.run", None)]
    with tracer.installed(patches):
        assert module.outer() == [1, 2, 1, 2]
        module.outer()
    assert module.leaf is leaf and module.outer is outer
    assert tracer.calls("leaf") == 4 and tracer.tallies["leaf"] == [8]
    assert tracer.self_time("leaf") == pytest.approx(tracer.total("leaf"))
    assert 0 <= tracer.self_time("search.run") <= tracer.total("search.run")
    assert tracer.self_time("search.run") == pytest.approx(
        tracer.total("search.run") - tracer.total("leaf"))
    assert [span[4] for span in tracer.spans] == [0, 0, 0, 1, 1, 1]


def test_corrupted_answer_is_a_failed_op():
    workload = SolveMixed("dev", "tiny")
    workload.setup()
    item = (0, "prime")
    records, sol = workload.run(item)
    assert sol.routed
    assert run.count_failures(workload, [(item, sol, 1)]) == (0, [])
    wrong_cost = dataclasses.replace(sol, total_cost=sol.total_cost + 1)
    shared = dataclasses.replace(sol, protecting=sol.working)
    for corrupted in (wrong_cost, shared):
        failed, problems = run.count_failures(workload, [(item, corrupted, 1)])
        assert failed == 1 and problems


def test_failed_check_exits_non_zero(monkeypatch, capsys):
    monkeypatch.setattr(SolveMixed, "check", lambda self, item, outcome: ["forced"])
    code = run.main(["--workload", "solve-mixed", "--seed", "1", "--seconds", "0",
                     "--size", "tiny"])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert doc["correct"] is False and doc["failed"] == doc["attempted"] - 6


def test_without_sources_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = bench("lobe", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_metric_map_names_every_layer_metric():
    text = (BENCH / "METRICS.md").read_text(encoding="utf-8")
    for metric in SPEC["per_layer"]:
        assert f"`{metric['name']}`" in text, metric["name"]
