"""Command-line front end.

Exit codes: 0 success/routed, 1 usage or input error, 2 search/oracle
disagreement (compare), 3 demand blocked.  stdout carries only the result
document; diagnostics go to stderr.  The oracle's enumeration budget is
set by --budget alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .net_model import (
    Demand,
    dump_network,
    load_demand,
    load_network,
    lobe_network,
    random_network,
)
from .oracle import DEFAULT_PAIR_BUDGET, BudgetExceeded, bundle_doc, compare, oracle_solve
from .search import MODES, PairSearch, SearchOptions, solve
from .spectrum_core import _require_int
from .traffic import dump_traffic, gen_traffic, load_traffic, run

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_BLOCKED = 3


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, keeping 2 free for compare mismatches
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON document is nested too deeply") from None


def cmd_solve(args) -> int:
    net = load_network(_read_json(args.net))
    demand = load_demand(_read_json(args.demand))
    opts = SearchOptions(mode=args.relation, max_route_cost=args.max_route_cost,
                         enumerate_all=args.all_efficient)
    sol = solve(net, demand, opts)
    _emit(sol.to_doc())
    return EXIT_OK if sol.routed else EXIT_BLOCKED


def cmd_oracle(args) -> int:
    net = load_network(_read_json(args.net))
    demand = load_demand(_read_json(args.demand))
    result = oracle_solve(net, demand, args.max_route_cost, args.budget)
    _emit(result.to_doc())
    return EXIT_OK if result.routed else EXIT_BLOCKED


def cmd_compare(args) -> int:
    net = load_network(_read_json(args.net))
    demand = load_demand(_read_json(args.demand))
    report = compare(net, demand, args.max_route_cost, args.budget)
    _emit(report.to_doc())
    if not report.matches:
        with open(args.bundle, "w", encoding="utf-8") as handle:
            json.dump(bundle_doc(net, demand, report, args.max_route_cost), handle, indent=2)
        print(f"disagreement: counterexample bundle written to {args.bundle}",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_lobe_bench(args) -> int:
    _require_int("--m-max", args.m_max, 1)
    writer = csv.writer(sys.stdout)
    writer.writerow(["m", "labels_at_destination", "labels_generated", "wall_time"])
    for m in range(1, args.m_max + 1):
        net = lobe_network(m, 1)
        opts = SearchOptions(mode=args.relation, enumerate_all=True)
        search = PairSearch(net, Demand("n_s", "n_x", 1), opts)
        sol = search.run()
        writer.writerow(
            [m, search.destination_count, sol.stats.labels_generated,
             f"{sol.stats.wall_time:.6f}"]
        )
    return EXIT_OK


def cmd_gen_net(args) -> int:
    net = random_network(args.nodes, args.avg_degree, args.units, args.fill, args.seed)
    _emit(dump_network(net))
    return EXIT_OK


def cmd_gen_traffic(args) -> int:
    net = load_network(_read_json(args.net))
    events = gen_traffic(
        net, args.count, args.mean_hold, args.mean_gap,
        (args.units_min, args.units_max), args.seed,
    )
    _emit(dump_traffic(events))
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = load_network(_read_json(args.net))
    events = load_traffic(_read_json(args.traffic))
    report = run(net, events, SearchOptions(mode=args.relation))
    _emit(report.to_doc())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ddpp",
        description="Exact dedicated path protection solver for elastic optical networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="route one demand")
    solve_p.add_argument("--net", required=True, help="network document (JSON)")
    solve_p.add_argument("--demand", required=True, help="demand document (JSON)")
    solve_p.add_argument("--relation", required=True, choices=MODES)
    solve_p.add_argument("--max-route-cost", type=int, default=None,
                         help="per-route cost limit (base relation only)")
    solve_p.add_argument("--all-efficient", action="store_true",
                         help="run the search to exhaustion instead of stopping "
                              "at the first settled destination label")
    solve_p.set_defaults(handler=cmd_solve)

    oracle_p = sub.add_parser("oracle", help="exhaustive reference answer")
    oracle_p.add_argument("--net", required=True)
    oracle_p.add_argument("--demand", required=True)
    oracle_p.add_argument("--max-route-cost", type=int, default=None)
    oracle_p.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)
    oracle_p.set_defaults(handler=cmd_oracle)

    compare_p = sub.add_parser("compare", help="search vs oracle agreement check")
    compare_p.add_argument("--net", required=True)
    compare_p.add_argument("--demand", required=True)
    compare_p.add_argument("--max-route-cost", type=int, default=None)
    compare_p.add_argument("--budget", type=int, default=DEFAULT_PAIR_BUDGET)
    compare_p.add_argument("--bundle", default="counterexample.json",
                           help="where to write the bundle on disagreement")
    compare_p.set_defaults(handler=cmd_compare)

    bench_p = sub.add_parser("lobe-bench", help="worst-case growth table (CSV)")
    bench_p.add_argument("--m-max", type=int, required=True)
    bench_p.add_argument("--relation", required=True, choices=MODES)
    bench_p.set_defaults(handler=cmd_lobe_bench)

    gen_net_p = sub.add_parser("gen-net", help="random connected instance")
    gen_net_p.add_argument("--nodes", type=int, required=True)
    gen_net_p.add_argument("--avg-degree", type=float, required=True)
    gen_net_p.add_argument("--units", type=int, required=True)
    gen_net_p.add_argument("--fill", type=float, required=True)
    gen_net_p.add_argument("--seed", type=int, required=True)
    gen_net_p.set_defaults(handler=cmd_gen_net)

    gen_traffic_p = sub.add_parser("gen-traffic", help="synthetic demand sequence")
    gen_traffic_p.add_argument("--net", required=True)
    gen_traffic_p.add_argument("--count", type=int, required=True)
    gen_traffic_p.add_argument("--mean-hold", type=float, required=True)
    gen_traffic_p.add_argument("--mean-gap", type=float, required=True)
    gen_traffic_p.add_argument("--units-min", type=int, default=1)
    gen_traffic_p.add_argument("--units-max", type=int, default=1)
    gen_traffic_p.add_argument("--seed", type=int, required=True)
    gen_traffic_p.set_defaults(handler=cmd_gen_traffic)

    simulate_p = sub.add_parser("simulate", help="replay a traffic file")
    simulate_p.add_argument("--net", required=True)
    simulate_p.add_argument("--traffic", required=True)
    simulate_p.add_argument("--relation", required=True, choices=MODES)
    simulate_p.set_defaults(handler=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, BudgetExceeded, OSError) as exc:
        print(f"ddpp: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
