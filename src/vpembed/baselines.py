"""Comparison solvers: pruned Dijkstra, k-shortest-paths, exhaustive search.

These give the experiment harness its reference points. The exhaustive
search doubles as the correctness oracle for the level-sweep solvers: it
enumerates every loop-free path (within a size guard) and therefore defines
the true minimum feasible hop count.
"""

import heapq
import itertools
import math

from .constraints import ConstraintSet, path_feasible
from .errors import (
    InfeasibleError,
    NegativeMetricError,
    ResourceLimitError,
    UnreachableError,
)
from .neighborhoods import (
    _answer,
    _check_query,
    _floor_to,
    _hop_distances_to,
    _iter_fixed_length_paths,
    _no_path,
    _search_l1,
    _usable_mask,
)
from .paths import PathResult, path_from_edges

EXHAUSTIVE_NODE_LIMIT = 14


def _chain_precedes(pred: list[int], a: int, b: int) -> bool:
    """True when the pred chain ending at a is lexicographically smaller
    than the one ending at b. Both chains must have the same length, so a
    lockstep walk back from a and b meets at their last common node; the
    pair just after it is the first position where the chains differ."""
    first_a = first_b = -1
    while a != b:
        first_a, first_b = a, b
        a = pred[a]
        b = pred[b]
    return first_a < first_b


def solve_edijkstra(g, src: int, dst: int, c: ConstraintSet) -> PathResult:
    """Pruned least-path-metric search (single path bound).

    Prunes edges failing the link bounds, then runs Dijkstra on the single
    declared path metric and returns the minimum-accumulated path. Hop count
    is NOT minimized; ties on the metric break by fewer hops, then by
    lexicographic node sequence. An exact tie costs a walk back to the two
    chains' last common node and allocates nothing.

    The mask comes from g's memo and a repeat of a query on an unchanged
    mask returns the last answer without a search (``neighborhoods._answer``).
    The sign check reads ``g.path_nonneg``, so only a metric that has
    negative values costs a pass over the edge list.

    The search is guided by a delay floor towards dst, a reverse Dijkstra
    kept in the memo beside the mask and reused by every query to dst while
    mask bits only clear, as a steering run's re-solves of a pair do
    (``neighborhoods._floor_to``). An A* pass on it finds the sum of some
    route; the Dijkstra then skips the nodes no route of that sum passes
    through (:func:`_search_edijkstra`), and answers as the unguided one.

    Raises:
        UnreachableError: dst unreachable on the pruned graph.
        InfeasibleError: dst reachable, but the minimum accumulated metric
            violates the bound or is not finite. Under a non-strict
            infinite bound a +inf sum is feasible: when no route has a
            finite sum, nm-l1's least-hop route without a NaN sum is returned.
        NegativeMetricError: a surviving edge has a negative path metric.
        ValueError: c does not have exactly one path bound.
    """
    if c.path_count != 1:
        raise ValueError(f"solve_edijkstra requires exactly one path bound, got {c.path_count}")
    return _answer(g, src, dst, c, "edijkstra", _search_edijkstra)


def _guided_sum(adj, wcol, usable: bytearray, floor: list[float], src: int, dst: int) -> float:
    """Sum of the first usable src->dst route an A* search ordered by
    dist + floor reaches, math.inf when no route has a finite sum. The
    route is some usable one, not always a least one; only its sum is kept."""
    dist = [math.inf] * len(adj)
    dist[src] = 0.0
    heap = [(floor[src], 0.0, src)]
    while heap:
        _, d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == dst:
            return d
        for v, e in adj[u]:
            if not usable[e]:
                continue
            nd = d + wcol[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd + floor[v], nd, v))
    return math.inf


def _search_edijkstra(g, src: int, dst: int, c: ConstraintSet, usable: bytearray) -> PathResult:
    """:func:`solve_edijkstra`'s search on the pruning mask usable, in two
    passes guided by the memo's delay floor towards dst (a lower bound on
    every node's least sum to dst, ``neighborhoods._floor_to``).

    The first pass (:func:`_guided_sum`) takes the sum S of some usable
    route. The second is the plain Dijkstra, popping in (sum, hops, node)
    order, which skips an offer to v whose sum plus v's floor exceeds
    S * (1 + 2**-30). Such a v lies on no route, through that offer, whose
    folded sum is at most S: a k-hop fold's relative error is below
    k * 2**-52, which the margin covers for fewer than 2**20 nodes. A label
    with no such continuation is never the one that settles a node the
    answer passes through (a smaller sum continues at least as well), so
    every path, tie-break and verdict is the plain Dijkstra's.

    A src with an infinite floor skips both passes. A floor stopped at a
    settled node caps every entry at that node's finite sum, so an infinite
    entry comes from a completed reverse search that found no finite-sum
    route from src; the floor's mask has only lost bits since. The verdict
    is then :func:`_no_path`'s, or nm-l1's sweep under a non-strict infinite
    bound."""
    n = g.node_count
    p_idx, p_bound = c.path_bounds[0]
    wcol = g.path_cols[p_idx]
    if not g.path_nonneg[p_idx]:
        for e, w in enumerate(wcol):
            if w < 0 and usable[e]:
                raise NegativeMetricError(f"edge {e} has negative path metric {w}")

    adj = g.adjacency
    floor = _floor_to(g, p_idx, dst, src, usable)
    reach = math.inf
    if floor[src] < math.inf:
        reach = _guided_sum(adj, wcol, usable, floor, src, dst)
    if reach == math.inf:
        # no route has a finite sum: +inf and NaN metrics are never relaxed.
        # Under a non-strict infinite bound a +inf sum is still feasible,
        # and nm-l1's polynomial sweep finds the least-hop such route
        if not c.strict and p_bound == math.inf:
            return _search_l1(g, src, dst, c, usable)
        raise _no_path(g, src, dst, usable)
    cap = reach * (1 + 2**-30)

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
        nh = h + 1
        for v, e in adj[u]:
            if not usable[e] or settled[v]:
                continue
            nd = d + wcol[e]
            if not nd + floor[v] <= cap:
                continue
            dv = dist[v]
            if nd < dv or (nd == dv and nh < hops[v]):
                dist[v] = nd
                hops[v] = nh
                pred[v] = u
                pred_edge[v] = e
                heapq.heappush(heap, (nd, nh, v))
            elif nd == dv and nh == hops[v] and pred[v] >= 0:
                # exact tie: keep the lexicographically smaller node sequence
                if _chain_precedes(pred, u, pred[v]):
                    pred[v] = u
                    pred_edge[v] = e

    if not c.sum_ok(dist[dst], p_bound):
        raise InfeasibleError(
            f"minimum accumulated metric {dist[dst]} violates the bound {p_bound}"
        )
    nodes = [dst]
    edges = []
    v = dst
    while pred[v] >= 0:
        edges.append(pred_edge[v])
        v = pred[v]
        nodes.append(v)
    nodes.reverse()
    edges.reverse()
    return path_from_edges(g, nodes, edges)


def _ranked_paths(g, src: int, dst: int):
    """Yield (nodes, edge_handles) for every loop-free src->dst path of the
    bare topology in (hop count, lexicographic) order: one all-ones reverse
    BFS, then nm-general's fixed-length enumerator at each hop count. Yields
    nothing when dst is unreachable.

    Raises:
        ResourceLimitError: candidate expansion at one hop count exceeded
            neighborhoods.DEFAULT_CANDIDATE_LIMIT partial paths.
    """
    all_ones = bytearray([1]) * g.edge_count
    to_dst = _hop_distances_to(g, dst, all_ones)
    if to_dst[src] == math.inf:
        return
    for depth in range(to_dst[src], g.node_count):
        yield from _iter_fixed_length_paths(g, depth, src, dst, all_ones, to_dst)


def solve_ksp(g, src: int, dst: int, c: ConstraintSet, k: int) -> PathResult:
    """First feasible path among the k best loop-free candidates.

    Candidates are the loop-free paths of the raw topology in (hop count,
    lexicographic) order -- nm-general's fixed-length enumerator run on an
    all-ones mask -- and only then tested against c, so a saturated
    shortest path is re-examined rather than routed around: the behavior
    of embedders that rank paths once and cache them.

    The ranking depends on the topology alone, so it is done once per
    topology: ``g.ranked_paths`` maps (src, dst) to the candidates ranked so
    far and whether that list is complete, and a ResidualOverlay shares its
    base's dict. A query reads candidate i from there and enumerates (BFS
    included, from the first candidate) only when candidate i is needed and
    not yet ranked, stopping at the candidate it needs; a repeated query
    tests feasibility only. Each extension replaces the entry whole; one
    that raises ResourceLimitError stores nothing, so a repeat raises again.

    Raises:
        ValueError: k < 1.
        UnreachableError: no path exists at all.
        InfeasibleError: none of the first k candidates satisfies c.
        ResourceLimitError: candidate expansion at one hop count exceeded
            neighborhoods.DEFAULT_CANDIDATE_LIMIT partial paths.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial

    key = (src, dst)
    ranked, exhausted = g.ranked_paths.get(key, ((), False))
    more = None
    for i in range(k):
        if i == len(ranked) and not exhausted:
            if more is None:
                more = itertools.islice(_ranked_paths(g, src, dst), i, None)
            nxt = next(more, None)
            exhausted = nxt is None
            if not exhausted:
                ranked += ((tuple(nxt[0]), tuple(nxt[1])),)
            g.ranked_paths[key] = (ranked, exhausted)
        if i == len(ranked):
            break
        nodes, edges = ranked[i]
        cand = path_from_edges(g, nodes, edges)
        links_ok = all(cand.min_link_metrics[j] >= bound for j, bound in c.link_bounds)
        if links_ok and path_feasible(cand.accumulated, c):
            return cand
    else:
        raise InfeasibleError(f"none of the first {k} candidate paths satisfies c")
    if not ranked:
        raise UnreachableError(f"no path from {src} to {dst}")
    raise InfeasibleError(f"only {len(ranked)} candidate paths exist; none satisfies c")


def solve_exhaustive(g, src: int, dst: int, c: ConstraintSet) -> PathResult:
    """Enumerate every loop-free path and return the feasible one minimizing
    (hop count, lexicographic node sequence). Exponential; guarded by size.

    Iterative deepening: for each hop budget in ascending order, a DFS in
    ascending adjacency order visits exactly the simple paths of that
    length, so the first feasible hit is the answer.

    Raises:
        ResourceLimitError: node_count exceeds EXHAUSTIVE_NODE_LIMIT, read
            at call time.
        UnreachableError / InfeasibleError: as for the other solvers.
    """
    n = g.node_count
    limit = EXHAUSTIVE_NODE_LIMIT
    if n > limit:
        raise ResourceLimitError(f"{n} nodes exceeds the exhaustive-search guard {limit}")
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial

    usable = _usable_mask(g, c)
    lower = _hop_distances_to(g, dst, usable)
    if lower[src] == math.inf:
        raise UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")

    # partial-sum pruning is sound only for bounds on nonnegative metrics;
    # a NaN prefix sum already fails sum_ok, so NaN values do not stop it
    prunable = [(j, bound) for j, bound in c.path_bounds if g.path_nonneg[j]]

    adj = g.adjacency
    path_cols = g.path_cols
    # prefix sums of the path so far, one entry per node on it: a branch
    # pops its own, so siblings never see a NaN, inf or rounding left behind
    sums = [[0.0] * g.path_arity]

    def dfs(u: int, depth: int, budget: int):
        if depth == budget:
            return u == dst and path_feasible(sums[-1], c)
        for v, e in adj[u]:
            if not usable[e] or on_path[v] or depth + 1 + lower[v] > budget:
                continue
            prefix = [s + path_cols[j][e] for j, s in enumerate(sums[-1])]
            if not all(c.sum_ok(prefix[j], b) for j, b in prunable):
                continue
            on_path[v] = 1
            nodes.append(v)
            edges.append(e)
            sums.append(prefix)
            if dfs(v, depth + 1, budget):
                return True
            nodes.pop()
            edges.pop()
            sums.pop()
            on_path[v] = 0
        return False

    for budget in range(int(lower[src]), n):
        nodes = [src]
        edges: list[int] = []
        on_path = bytearray(n)
        on_path[src] = 1
        if dfs(src, 0, budget):
            return path_from_edges(g, nodes, edges)
    raise InfeasibleError(f"no loop-free path from {src} to {dst} satisfies the constraints")
