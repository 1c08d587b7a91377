"""Comparison solvers: pruned Dijkstra, k-shortest-paths, exhaustive search.

These give the experiment harness its reference points. The exhaustive
search doubles as the correctness oracle for the level-sweep solvers: it
enumerates every loop-free path (within a size guard) and therefore defines
the true minimum feasible hop count.
"""

import heapq
import math
from dataclasses import dataclass

from .constraints import ConstraintSet, path_feasible
from .errors import (
    InfeasibleError,
    NegativeMetricError,
    ResourceLimitError,
    UnreachableError,
)
from .neighborhoods import _check_query, _hop_distances_to, _usable_mask
from .paths import PathResult, path_from_edges

DEFAULT_EXPANSION_LIMIT = 10**6

RANKINGS = ("by_hops", "by_path_metric")


@dataclass(frozen=True)
class KspConfig:
    """Candidate count and ranking for the k-shortest-path solver."""

    k: int
    ranking: str = "by_hops"
    metric_index: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.ranking not in RANKINGS:
            raise ValueError(f"ranking must be one of {RANKINGS}, got {self.ranking!r}")


def _chain_nodes(pred: list[int], node: int) -> tuple[int, ...]:
    out = [node]
    while pred[node] >= 0:
        node = pred[node]
        out.append(node)
    out.reverse()
    return tuple(out)


def solve_edijkstra(g, src: int, dst: int, c: ConstraintSet) -> PathResult:
    """Pruned least-path-metric search (single path bound).

    Prunes edges failing the link bounds, then runs Dijkstra on the single
    declared path metric and returns the minimum-accumulated path. Hop count
    is NOT minimized; ties on the metric break by fewer hops, then by
    lexicographic node sequence.

    Raises:
        UnreachableError: dst unreachable on the pruned graph.
        InfeasibleError: the minimum accumulated metric violates the bound.
        NegativeMetricError: a surviving edge has a negative path metric.
        ValueError: c does not have exactly one path bound.
    """
    if c.path_count != 1:
        raise ValueError(f"solve_edijkstra requires exactly one path bound, got {c.path_count}")
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial

    n = g.node_count
    p_idx, p_bound = c.path_bounds[0]
    usable = _usable_mask(g, c)
    wcol = g.path_cols[p_idx]
    for e, w in enumerate(wcol):
        if w < 0 and usable[e]:
            raise NegativeMetricError(f"edge {e} has negative path metric {w}")

    adj = g.adjacency
    dist = [math.inf] * n
    hops = [0] * n
    pred = [-1] * n
    pred_edge = [-1] * n
    dist[src] = 0.0
    heap = [(0.0, 0, src)]
    settled = bytearray(n)
    while heap:
        d, h, u = heapq.heappop(heap)
        if settled[u] or d != dist[u] or h != hops[u]:
            continue
        if u == dst:
            break
        settled[u] = 1
        for v, e in adj[u]:
            if not usable[e] or settled[v]:
                continue
            nd = d + wcol[e]
            nh = h + 1
            if (nd, nh) < (dist[v], hops[v]):
                dist[v] = nd
                hops[v] = nh
                pred[v] = u
                pred_edge[v] = e
                heapq.heappush(heap, (nd, nh, v))
            elif (nd, nh) == (dist[v], hops[v]) and pred[v] >= 0:
                # exact tie: keep the lexicographically smaller node sequence
                if _chain_nodes(pred, u) + (v,) < _chain_nodes(pred, v):
                    pred[v] = u
                    pred_edge[v] = e

    if dist[dst] == math.inf:
        raise UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")
    if not c.sum_ok(dist[dst], p_bound):
        raise InfeasibleError(
            f"minimum accumulated metric {dist[dst]} violates the bound {p_bound}"
        )
    nodes = list(_chain_nodes(pred, dst))
    edges = []
    v = dst
    while pred[v] >= 0:
        edges.append(pred_edge[v])
        v = pred[v]
    edges.reverse()
    return path_from_edges(g, nodes, edges)


def solve_ksp(
    g,
    src: int,
    dst: int,
    c: ConstraintSet,
    cfg: KspConfig,
    *,
    expansion_limit: int = DEFAULT_EXPANSION_LIMIT,
) -> PathResult:
    """First feasible path among the k best loop-free candidates.

    Candidates are enumerated on the raw topology in cfg.ranking order
    (ties broken lexicographically) and only then tested against c, so a
    saturated shortest path is re-examined rather than routed around --
    the behavior of embedders that rank paths once and cache them.

    Raises:
        UnreachableError: no loop-free path exists at all.
        InfeasibleError: none of the first k candidates satisfies c.
        ResourceLimitError: enumeration exceeded expansion_limit pushes.
    """
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial

    n = g.node_count
    if cfg.ranking == "by_hops":
        lower = _hop_distances_to(g, dst, bytearray([1]) * g.edge_count)
        if lower[src] == math.inf:
            raise UnreachableError(f"no path from {src} to {dst}")
        cost = None
    else:
        if cfg.metric_index >= g.path_arity:
            raise ValueError(f"metric index {cfg.metric_index} >= path arity {g.path_arity}")
        cost = g.path_cols[cfg.metric_index]
        for w in cost:
            if w < 0:
                raise ValueError("by_path_metric ranking requires nonnegative metrics")
        lower = [0.0] * n

    adj = g.adjacency
    # heap of (rank lower bound, node sequence, edge sequence); completed
    # paths pop in exact (rank, lexicographic) order
    heap = [(lower[src], (src,), ())]
    pushes = 0
    examined = 0
    found_any = False
    while heap:
        f, nodes, edges = heapq.heappop(heap)
        u = nodes[-1]
        if u == dst:
            found_any = True
            examined += 1
            cand = path_from_edges(g, list(nodes), list(edges))
            links_ok = all(cand.min_link_metrics[j] >= bound for j, bound in c.link_bounds)
            if links_ok and path_feasible(cand.accumulated, c):
                return cand
            if examined >= cfg.k:
                raise InfeasibleError(f"none of the first {cfg.k} candidate paths satisfies c")
            continue
        for v, e in adj[u]:
            if v in nodes:
                continue
            if cost is None:
                nf = len(nodes) + lower[v]
                if nf == math.inf:
                    continue
            else:
                nf = f - lower[u] + cost[e]
                nf = nf + lower[v]
            pushes += 1
            if pushes > expansion_limit:
                raise ResourceLimitError(f"candidate enumeration exceeded {expansion_limit} pushes")
            heapq.heappush(heap, (nf, nodes + (v,), edges + (e,)))
    if found_any:
        raise InfeasibleError(f"only {examined} candidate paths exist; none satisfies c")
    raise UnreachableError(f"no path from {src} to {dst}")


def solve_exhaustive(g, src: int, dst: int, c: ConstraintSet, *, max_nodes: int = 14) -> PathResult:
    """Enumerate every loop-free path and return the feasible one minimizing
    (hop count, lexicographic node sequence). Exponential; guarded by size.

    Iterative deepening: for each hop budget in ascending order, a DFS in
    ascending adjacency order visits exactly the simple paths of that
    length, so the first feasible hit is the answer.

    Raises:
        ResourceLimitError: node_count exceeds max_nodes.
        UnreachableError / InfeasibleError: as for the other solvers.
    """
    n = g.node_count
    if n > max_nodes:
        raise ResourceLimitError(f"{n} nodes exceeds the exhaustive-search guard {max_nodes}")
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial

    usable = _usable_mask(g, c)
    lower = _hop_distances_to(g, dst, usable)
    if lower[src] == math.inf:
        raise UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")

    # partial-sum pruning is sound only for bounds on nonnegative metrics
    prunable = []
    for j, bound in c.path_bounds:
        if all(w >= 0 for w in g.path_cols[j]):
            prunable.append((j, bound))

    adj = g.adjacency
    path_cols = g.path_cols
    sums = [0.0] * g.path_arity
    on_path = bytearray(n)

    def dfs(u: int, depth: int, budget: int):
        if depth == budget:
            if u == dst and path_feasible(sums, c):
                return True
            return False
        for v, e in adj[u]:
            if not usable[e] or on_path[v] or depth + 1 + lower[v] > budget:
                continue
            for j in range(g.path_arity):
                sums[j] += path_cols[j][e]
            ok = all(c.sum_ok(sums[j], b) for j, b in prunable)
            if ok:
                on_path[v] = 1
                nodes.append(v)
                edges.append(e)
                if dfs(v, depth + 1, budget):
                    return True
                nodes.pop()
                edges.pop()
                on_path[v] = 0
            for j in range(g.path_arity):
                sums[j] -= path_cols[j][e]
        return False

    for budget in range(int(lower[src]), n):
        nodes = [src]
        edges: list[int] = []
        on_path = bytearray(n)
        on_path[src] = 1
        for j in range(g.path_arity):
            sums[j] = 0.0
        if dfs(src, 0, budget):
            return path_from_edges(g, nodes, edges)
    raise InfeasibleError(f"no loop-free path from {src} to {dst} satisfies the constraints")
