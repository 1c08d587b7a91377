"""Self-test of the benchmark's output checks.

Feeds the checks outputs that are known to be wrong and asserts that each
one is flagged, and a known-good output that must pass. The benchmark runs
it before every measurement; it also runs on its own:

    PYTHONPATH=src python3 bench/selftest.py
"""

import sys

import checks

from vpembed.constraints import ConstraintSet
from vpembed.graph import EdgeMetrics, ResidualOverlay, build_graph
from vpembed.paths import PathResult, path_from_edges

# X=0, A=1, B=2, Y=3 with [bandwidth] link and [delay] path metrics; under
# bw >= 5 and delay < 5 the feasible route is X->B->A->Y (edges 1, 3, 4).
EDGES = [
    (0, 1, EdgeMetrics((5.0,), (5.0,))),
    (0, 2, EdgeMetrics((9.0,), (1.0,))),
    (1, 2, EdgeMetrics((8.0,), (1.0,))),
    (2, 1, EdgeMetrics((8.0,), (1.0,))),
    (1, 3, EdgeMetrics((7.0,), (2.0,))),
    (2, 3, EdgeMetrics((4.0,), (1.0,))),
]
BOUNDS = ConstraintSet(((0, 5.0),), ((0, 5.0),))


def run() -> list[str]:
    """Return a description of every check that failed to behave."""
    g = build_graph(4, EDGES, [10.0] * 4)
    failures = []

    good = path_from_edges(g, [0, 2, 1, 3], [1, 3, 4])
    if checks.check_path(g, good, 0, 3, BOUNDS):
        failures.append("a feasible path was flagged")

    # X->A->Y sums to delay 7 against the bound < 5
    over_bound = path_from_edges(g, [0, 1, 3], [0, 4])
    if not any("bound" in p for p in checks.check_path(g, over_bound, 0, 3, BOUNDS)):
        failures.append("a path breaking its path bound was not flagged")

    # a sum exactly on the bound passes only under non-strict comparison
    on_bound = ConstraintSet(((0, 5.0),), ((0, 4.0),))
    if not checks.check_path(g, good, 0, 3, on_bound):
        failures.append("a sum equal to a strict bound was not flagged")
    non_strict = ConstraintSet(((0, 5.0),), ((0, 4.0),), strict=False)
    if checks.check_path(g, good, 0, 3, non_strict):
        failures.append("a sum equal to a non-strict bound was flagged")

    # edge 2 is A->B, not B->A, so the handles do not chain the nodes
    unchained = PathResult((0, 2, 1, 3), (1, 2, 4), good.accumulated, good.min_link_metrics)
    if not any("does not join" in p for p in checks.check_path(g, unchained, 0, 3, BOUNDS)):
        failures.append("a path whose edges do not chain was not flagged")

    looped = PathResult((0, 2, 1, 2, 3), (1, 3, 2, 5), (4.0,), (4.0,))
    if not any("twice" in p for p in checks.check_path(g, looped, 0, 3, BOUNDS)):
        failures.append("a path with a loop was not flagged")

    # B->Y carries bandwidth 4 against the bound >= 5
    thin = path_from_edges(g, [0, 2, 3], [1, 5])
    if not any("link metric" in p for p in checks.check_path(g, thin, 0, 3, BOUNDS)):
        failures.append("a path breaking its link bound was not flagged")

    overlay = ResidualOverlay(g)
    demand = (2.0,)
    overlay.reserve(good, demand)
    overlay.reserve(good, demand)
    overlay.reserve_node(2, 3.0)
    booked: dict = {}
    checks.add_path_demand(booked, good, demand)
    checks.add_path_demand(booked, good, demand)
    if checks.check_ledger(g, overlay, booked, {2: 3.0}):
        failures.append("a balanced ledger was flagged")
    short: dict = {}
    checks.add_path_demand(short, good, demand)
    if not checks.check_ledger(g, overlay, short, {2: 3.0}):
        failures.append("a ledger off by one link demand was not flagged")
    if not checks.check_ledger(g, overlay, booked, {}):
        failures.append("a ledger off by one node demand was not flagged")

    line = "status=ok hops=3 path=0,2,1,3 sums=4.0 mins=7.0 micros=123"
    if checks.strip_micros(line) != "status=ok hops=3 path=0,2,1,3 sums=4.0 mins=7.0":
        failures.append("strip_micros kept the timing field or changed the line")
    return failures


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
