"""Write bench/expected.json, the committed answers the benchmark checks against.

    PYTHONPATH=src python3 bench/record_expected.py

Rerun only when a pool or a size in ``workloads.py`` changes.  Solve-mixed
answers are recorded only when prime and base mode agree and every routed
answer passes the route checks; oracle answers come from ``oracle_solve``
and must match both modes.  Simulate records each replay's counts.
"""

from __future__ import annotations

import json

from workloads import EXPECTED_PATH, SolveMixed, Simulate, route_problems, timed_solve
from ddpp.oracle import oracle_solve

RECORDED = [("dev", "full"), ("heldout", "full"), ("dev", "tiny")]


def answer(net, demand) -> list:
    answers = []
    for mode in ("prime", "base"):
        _, _, sol = timed_solve(net, demand, mode)
        answers.append([sol.status, sol.total_cost])
        problems = route_problems(net, demand, sol, answers[0])
        if problems:
            raise SystemExit(f"{demand} {mode}: {problems}")
    return answers[0]


def main() -> None:
    expected = {}
    for pool, size in RECORDED:
        workload = SolveMixed(pool, size, expected={})
        workload.setup()
        oracle = []
        for net, demand in workload.oracle_cases():
            reference = oracle_solve(net, demand)
            oracle.append([reference.status, reference.min_cost])
            if answer(net, demand) != oracle[-1]:
                raise SystemExit(f"search disagrees with the oracle on {demand}")
        expected[f"solve-mixed/{pool}/{size}"] = {
            "answers": [answer(net, demand) for net, demand in workload.instances],
            "oracle": oracle,
        }
        workload = Simulate(pool, size, expected={})
        workload.setup()
        reports = [workload.run(item)[1] for item in workload.items()]
        expected[f"simulate/{pool}/{size}"] = {
            "reports": [[r.offered, r.routed, r.blocked] for r in reports],
        }
        print(pool, size, expected[f"solve-mixed/{pool}/{size}"],
              expected[f"simulate/{pool}/{size}"], flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
