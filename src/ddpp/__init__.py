"""Exact dedicated path protection solver for elastic optical networks.

Finds two link-disjoint routes of minimal total cost on which a demanded
number of contiguous frequency-slot units is available on every link of
each route, plus the supporting cast: a brute-force oracle, worst-case and
random instance generators, and a dynamic-traffic simulation harness.
"""

from .net_model import (
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
    random_network,
)
from .oracle import (
    BudgetExceeded,
    CompareReport,
    OracleResult,
    RoutePair,
    check_solution,
    compare,
    oracle_solve,
)
from .search import (
    EfficientSet,
    PairSearch,
    RouteLeg,
    SearchOptions,
    SearchStats,
    Solution,
    reconstruct,
    solve,
)
from .spectrum_core import (
    Label,
    UnitInterval,
    label_cost,
    label_extend,
    normalize_intervals,
    trait_extend,
)
from .traffic import SimReport, TrafficEvent, dump_traffic, gen_traffic, load_traffic, run

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CompareReport",
    "Demand",
    "EfficientSet",
    "Label",
    "Link",
    "Network",
    "NetworkError",
    "OracleResult",
    "PairSearch",
    "RouteLeg",
    "RoutePair",
    "SearchOptions",
    "SearchStats",
    "SimReport",
    "Solution",
    "TrafficEvent",
    "UnitInterval",
    "chain_network",
    "check_solution",
    "compare",
    "dump_demand",
    "dump_network",
    "dump_traffic",
    "fan_network",
    "gen_traffic",
    "label_cost",
    "label_extend",
    "load_demand",
    "load_network",
    "load_traffic",
    "lobe_network",
    "normalize_intervals",
    "oracle_solve",
    "random_network",
    "reconstruct",
    "run",
    "solve",
    "trait_extend",
]
