"""
The worked four-node example
============================

A tiny directed network over X, A, B, Y where every edge carries
[bandwidth, delay]. We ask for a route from X to Y with bw >= 5 and
delay < 5 and watch each solver deal with it.
"""

from vpembed import (
    ConstraintSet,
    EdgeMetrics,
    InfeasibleError,
    build_graph,
    solve_edijkstra,
    solve_general,
    solve_ksp,
    solve_l1,
)

E = EdgeMetrics
X, A, B, Y = 0, 1, 2, 3
NAMES = "XABY"

edges = [
    (X, A, E((5,), (5,))),  # enough bandwidth, but burns the whole delay budget
    (X, B, E((9,), (1,))),
    (A, B, E((8,), (1,))),
    (B, A, E((8,), (1,))),
    (A, Y, E((7,), (2,))),
    (B, Y, E((4,), (1,))),  # fast but too thin: 4 Gbps < the 5 Gbps bound
]
g = build_graph(4, edges, [10.0] * 4, labels=list(NAMES))
c = ConstraintSet(link_bounds=((0, 5.0),), path_bounds=((0, 5.0),))


def fmt(nodes):
    return "->".join(NAMES[n] for n in nodes)


# Y is two hops from X, along two routes. Each one meets one bound only:
# with just the bandwidth bound the solver takes X->A->Y, whose delay is 7;
# with just the delay bound it takes X->B->Y, whose B->Y link is too thin.
bw_only = ConstraintSet(link_bounds=c.link_bounds)
delay_only = ConstraintSet(path_bounds=c.path_bounds)
for name, bound in (("bandwidth", bw_only), ("delay", delay_only)):
    p = solve_general(g, X, Y, bound)
    print(f"{name} bound only: {fmt(p.nodes)}  hops={p.hop_count} "
          f"delay={p.accumulated[0]} min_bw={p.min_link_metrics[0]}")

# With both bounds neither 2-hop route survives, so the solver deepens by
# one level and lands on the 3-hop detour.
best = solve_general(g, X, Y, c)
print(f"general solver: {fmt(best.nodes)}  hops={best.hop_count} "
      f"delay={best.accumulated[0]} min_bw={best.min_link_metrics[0]}")

# The polynomial single-path-bound variant agrees.
fast = solve_l1(g, X, Y, c)
print(f"single-bound solver: {fmt(fast.nodes)}  hops={fast.hop_count}")

# Pruned Dijkstra happens to find the same route here; in general it only
# minimizes delay and may return longer paths.
ed = solve_edijkstra(g, X, Y, c)
print(f"pruned Dijkstra: {fmt(ed.nodes)}  delay={ed.accumulated[0]}")

# A k=1 shortest-path embedder inspects only X->A->Y and gives up.
try:
    solve_ksp(g, X, Y, c, k=1)
except InfeasibleError as exc:
    print(f"ksp k=1: infeasible ({exc})")
print("ksp k=4:", fmt(solve_ksp(g, X, Y, c, k=4).nodes))
