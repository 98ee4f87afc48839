"""ddpp benchmark: one closed-loop workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload solve-mixed --seed 1 --seconds 25 --trace 0

One process and one thread send the next op only when the previous one
has returned.  An op is one solve (``solve-mixed``, ``lobe``) or one
arrival of a ``traffic.run`` replay (``simulate``).  The timed phase
repeats whole passes over the workload's pool until ``--seconds`` have
passed; then every answer is checked, outside the timed phase.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
public functions of the ddpp modules from here (see ``patches``) and
reports the per-layer metrics, plus the tracing overhead against one
untraced pass.  ``BENCHMARK.json`` names every metric; ``bench/METRICS.md``
says which end-to-end metric each layer metric should move, and on which
workload.  The last line of stdout is one JSON object; a fuller result set,
with the environment it was measured in, is written under
``bench/results/``.  The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
SETUP_REPEATS = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-mixed", "lobe", "simulate"))
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the pool within each pass")
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the timed phase; whole passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=("dev", "heldout"), default="dev",
                        help="instance pool; 'heldout' re-checks a claim on inputs "
                             "not used while the change was developed")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' pools are for the benchmark's own tests")
    return parser.parse_args(argv)


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "pool": args.pool,
        "size": args.size,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def timed_passes(workload, rng: random.Random, seconds: float) -> dict:
    """Closed loop over whole passes until `seconds` have passed.

    Returns every op's ``(latency, Solution)`` record, the ``(latency,
    cycle, reference)`` samples of each distinct op (an item, and the op's
    position within it), the outcome of each call for the checks, the
    number of calls that raised, and the elapsed time.
    """
    records, samples, outcomes, raised = [], {}, [], 0
    passes = 0
    started = time.perf_counter()
    while True:
        items = workload.items()
        rng.shuffle(items)
        for item in items:
            try:
                op_records, outcome = workload.run(item)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                raised += 1
                continue
            for position, (latency, cycle, reference, sol) in enumerate(op_records):
                records.append((latency, sol))
                samples.setdefault((item, position), []).append((latency, cycle, reference))
            outcomes.append((item, outcome, len(op_records)))
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return {"records": records, "samples": samples, "outcomes": outcomes,
                    "raised": raised, "passes": passes, "elapsed": elapsed}


def count_failures(workload, outcomes) -> tuple[int, list[str]]:
    """Failed ops among checked outcomes, and the problems found."""
    failed, problems = 0, []
    for item, outcome, ops in outcomes:
        found = workload.check(item, outcome)
        if found:
            failed += ops
            problems += [f"{item}: {p}" for p in found]
    return failed, problems


def quantile_ms(latencies, q: int) -> float:
    """The q-th percentile (inclusive method) in milliseconds."""
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def op_medians(samples) -> dict:
    """Median scaled (latency, cycle) of each distinct op, keyed by its name.

    Each time is scaled by REFERENCE_S over the reference loop timed just
    before it; every pass repeats the same ops, so the median of an op's
    repetitions is its measure.
    """
    from workloads import at_reference_speed

    return {
        str(key): tuple(statistics.median(at_reference_speed(rep[field], rep[2]) for rep in reps)
                        for field in (0, 1))
        for key, reps in samples.items()
    }


def scaled_latencies(samples) -> list:
    """Every timed repetition's latency, scaled as in ``op_medians``."""
    from workloads import at_reference_speed

    return [at_reference_speed(latency, reference)
            for reps in samples.values() for latency, _, reference in reps]


def end_to_end(ops: dict, latencies: list, setup_s: float) -> dict:
    """``ops_per_s`` is the distinct ops over the sum of their median
    cycles.  p50 runs over the distinct ops' median latencies, which keeps
    it steady where it falls between two ops; p90 runs over every scaled
    repetition, so that a tenth of a run's samples lie beyond it rather
    than the two or three slowest distinct ops."""
    return {
        "ops_per_s": (len(ops) / sum(cycle for _, cycle in ops.values()), "1/s"),
        "op_p50_ms": (quantile_ms([latency for latency, _ in ops.values()], 50), "ms"),
        "op_p90_ms": (quantile_ms(latencies, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def patches():
    """(owner, attribute, span name, tally) for every wrapped function."""
    import ddpp.net_model as net_model
    import ddpp.search as search
    import ddpp.spectrum_core as spectrum_core
    import ddpp.traffic as traffic
    import workloads

    return [
        # The reference loop timed before each op is the benchmark's own
        # work: as a span of its own it is never a parent's self time.
        (workloads, "reference_s", "bench.reference", None),
        (search.PairSearch, "run", "search.run", None),
        (search.PairSearch, "expand", "search.expand", None),
        (search.EfficientSet, "insert", "search.insert", lambda out: (int(out[0]),)),
        (search, "reconstruct", "search.reconstruct", None),
        (search, "label_extend", "spectrum.label_extend",
         lambda out: (len(out), int(bool(out)))),
        (spectrum_core, "trait_extend", "spectrum.trait_extend", None),
        (net_model.Network, "__init__", "net_model.network_build", None),
        (net_model, "load_network", "net_model.load_network", None),
        (net_model, "random_network", "net_model.generate", None),
        (net_model, "lobe_network", "net_model.generate", None),
        (traffic, "gen_traffic", "net_model.generate", None),
        (traffic, "run", "traffic.run", None),
        (traffic, "solve", "traffic.solve", None),
        (traffic, "Network", "traffic.snapshot", None),
        (traffic, "Link", "traffic.snapshot", None),
        (traffic, "normalize_intervals", "traffic.snapshot", None),
    ]


def per_layer(tracer, timed, setup_totals: dict, overhead: float) -> dict:
    records = timed["records"]
    ops = len(records)
    stats = [sol.stats for _, sol in records]
    generated = sum(s.labels_generated for s in stats)
    settled = sum(s.labels_settled for s in stats)
    inserts = tracer.calls("search.insert")
    extends = tracer.calls("spectrum.label_extend")
    candidates, nonempty = tracer.tallies.get("spectrum.label_extend", [0, 0])
    accepted = tracer.tallies.get("search.insert", [0])[0]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def split(status):
        chosen = [(latency, sol) for latency, sol in records if sol.status == status]
        return (ratio(sum(latency for latency, _ in chosen), len(chosen)),
                ratio(sum(sol.stats.labels_generated for _, sol in chosen), len(chosen)))

    routed_s, routed_labels = split("routed")
    blocked_s, blocked_labels = split("blocked")
    simulating = tracer.calls("traffic.run") > 0
    return {
        "search.labels_generated": (generated / ops, "count/op"),
        "search.labels_settled": (settled / ops, "count/op"),
        "search.queue_pops": (sum(s.queue_pops for s in stats) / ops, "count/op"),
        "search.max_labels_per_vertex": (max(s.max_labels_per_vertex for s in stats), "count"),
        "search.settle_ratio": (ratio(settled, generated), "ratio"),
        "search.insert_calls": (inserts / ops, "count/op"),
        "search.insert_s": (tracer.total("search.insert") / ops, "s/op"),
        "search.insert_accept_ratio": (ratio(accepted, inserts), "ratio"),
        "search.expand_self_s": (tracer.self_time("search.expand") / ops, "s/op"),
        "search.run_self_s": (tracer.self_time("search.run") / ops, "s/op"),
        "search.reconstruct_s": (tracer.total("search.reconstruct") / ops, "s/op"),
        "spectrum.label_extend_calls": (extends / ops, "count/op"),
        "spectrum.label_extend_s": (tracer.total("spectrum.label_extend") / ops, "s/op"),
        "spectrum.trait_extend_s": (tracer.total("spectrum.trait_extend") / ops, "s/op"),
        "spectrum.pieces_per_extend": (ratio(candidates, extends), "count"),
        "spectrum.extend_yield": (ratio(nonempty, extends), "ratio"),
        "net_model.network_builds": (tracer.calls("net_model.network_build") / ops, "count/op"),
        "net_model.network_build_s": (tracer.total("net_model.network_build") / ops, "s/op"),
        "net_model.setup_network_builds": (setup_totals["builds"], "count"),
        "net_model.setup_network_build_s": (setup_totals["build_s"], "s"),
        "net_model.load_network_s": (setup_totals["load_s"], "s"),
        "net_model.generate_s": (setup_totals["generate_s"], "s"),
        "traffic.snapshot_s": (tracer.total("traffic.snapshot") / ops, "s/op"),
        "traffic.solve_s": (tracer.total("traffic.solve") / ops, "s/op"),
        "traffic.bookkeeping_s": (tracer.self_time("traffic.run") / ops, "s/op"),
        "traffic.routed_solve_s": (routed_s if simulating else 0.0, "s"),
        "traffic.blocked_solve_s": (blocked_s if simulating else 0.0, "s"),
        "traffic.routed_labels": (routed_labels if simulating else 0.0, "count"),
        "traffic.blocked_labels": (blocked_labels if simulating else 0.0, "count"),
        "trace.overhead_x": (overhead, "ratio"),
    }


def traced_run(workload, rng, seconds):
    """Traced set-up, untraced passes for a quarter of `seconds`, then
    traced passes for `seconds`.  The tracing overhead compares the two at
    the reference host speed."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed(patches()):
        workload.setup()
    setup_totals = {
        "builds": tracer.calls("net_model.network_build"),
        "build_s": tracer.total("net_model.network_build"),
        "load_s": tracer.total("net_model.load_network"),
        "generate_s": tracer.total("net_model.generate"),
    }
    baseline = timed_passes(workload, rng, seconds / 4)
    tracer.reset()
    with tracer.installed(patches()):
        timed = timed_passes(workload, rng, seconds)

    def total_cycle(passes):
        return sum(cycle for _, cycle in op_medians(passes["samples"]).values())

    overhead = total_cycle(timed) / total_cycle(baseline)
    return timed, per_layer(tracer, timed, setup_totals, overhead), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ddpp" / "__init__.py").is_file():
        print(f"bench: no ddpp sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, at_reference_speed, timed as timed_call

    env = environment(args)
    workload = WORKLOADS[args.workload](args.pool, args.size)
    rng = random.Random(args.seed)
    tracer = ops = latencies = None
    if args.trace:
        timed, metrics, tracer = traced_run(workload, rng, args.seconds)
    else:
        setup_s = statistics.median(at_reference_speed(*timed_call(workload.setup)[:2])
                                    for _ in range(SETUP_REPEATS))
        timed = timed_passes(workload, rng, args.seconds)
        ops = op_medians(timed["samples"])
        latencies = scaled_latencies(timed["samples"])
        metrics = end_to_end(ops, latencies, setup_s)

    failed, problems = count_failures(workload, timed["outcomes"])
    extra = workload.extra_checks()
    for label, found in extra:
        failed += bool(found)
        problems += [f"{label}: {p}" for p in found]
    failed += timed["raised"]
    attempted = len(timed["records"]) + timed["raised"] + len(extra)
    correct = not problems and not timed["raised"]

    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} ({args.pool} pool, seed {args.seed}): "
          f"{len(timed['records'])} timed ops ({len(timed['samples'])} distinct, "
          f"{timed['passes']} passes) in {timed['elapsed']:.2f} s; "
          f"{attempted} ops attempted, {failed} failed")
    if latencies is not None:
        print(f"op_p50_ms over {len(ops)} distinct ops; op_p90_ms over "
              f"{len(latencies)} samples, {len(latencies) // 10} beyond it")
    print(f"environment {json.dumps(env)}")
    print(f"ops_failed_frac {failed / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.pool}-{args.size}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "timed_ops": len(timed["records"]),
        "distinct_ops": len(timed["samples"]),
        "latency_samples": None if latencies is None else len(latencies),
        "raw_ops_per_s": len(timed["records"]) / timed["elapsed"],
        "op_latency_cycle_s": ops,
        "passes": timed["passes"],
        "elapsed_s": timed["elapsed"],
        "problems": problems,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
