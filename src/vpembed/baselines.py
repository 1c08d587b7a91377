"""Comparison solvers: pruned Dijkstra and k-shortest-paths.

These model the existing path embedding solutions that the experiment
harness measures the Neighborhood Method against. Neither is a
correctness oracle: the tests check the solvers against
``tests/oracle.py``, whose brute force over raw edge lists calls no
library code.
"""

import heapq
import itertools
import math

from .constraints import ConstraintSet, path_feasible
from .errors import InfeasibleError, NegativeMetricError, UnreachableError
from .neighborhoods import (
    _MaskMemo,
    _answer,
    _check_query,
    _floor_to,
    _hop_horizon,
    _iter_fixed_length_paths,
    _l1_path,
    _no_path,
)
from .paths import PathResult, path_from_edges


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

    A bidirectional BFS on the pruned graph comes first, as in nm-l1, and
    every no-path verdict reads the hop distances it gives. The search is
    guided by a delay floor towards dst, a reverse Dijkstra kept in the
    memo beside the mask and reused by every query to dst while mask bits
    only clear, as a steering run's re-solves of a pair do
    (``neighborhoods._floor_to``). One A* pass on it stops once no label
    left can reach dst within the least sum found there, and answers as the
    unguided Dijkstra (:func:`_search_edijkstra`). A pass that would
    relabel a node it has already expanded, which only rounding or a floor
    that is not consistent allows, is run again on a zero floor, which
    never does.

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


def _search_edijkstra(g, src: int, dst: int, c: ConstraintSet, memo: _MaskMemo) -> PathResult:
    """:func:`solve_edijkstra`'s search on the pruning mask of the record
    memo (``neighborhoods._MaskMemo``), in one A* pass (:func:`_guided_pass`)
    guided by the record's delay floor towards dst: a lower bound on every
    node's least sum to dst (``neighborhoods._floor_to``).

    The hop horizon (:func:`_hop_horizon`) comes first, as in nm-l1, and
    :func:`_no_path` reads every verdict without a path from it: on a dst
    cut off from src, on a src whose floor is infinite, where no pass
    runs, and on a pass that labels no finite-sum route, except that
    nm-l1's sweep answers those two under a non-strict infinite bound.

    Why the pass answers as the plain Dijkstra. Order labels (sum, hops)
    lexicographically, and extend one along an edge by folding the edge's
    value into the sum and adding a hop; an extension is strictly larger
    than the label it extends. The plain Dijkstra settles nodes in label
    order, so the label L(v) it settles v with is the least extension,
    over v's usable in-edges, of the labels their tails settle with, and
    its chain is the lexicographically least among the tails that give
    L(v), through the first such parallel edge. Since extensions strictly
    increase, these equations have one solution, even where rounding lets
    a larger sum extend to a label with fewer hops: at a node of least
    label where two solutions differ, the smaller label extends a tail's
    label on which both agree. A pass that ends without a rerun (see
    :func:`_guided_pass`) expands each node at most once and never
    relabels a node it has expanded, so it ends in a state that meets
    them on every node the answer depends on:

    - Every label is its pred's current label extended: only an expanded
      node offers, and its label does not change after it offers. So each
      pred was expanded before the nodes it labels, pred chains never
      loop, each has as many nodes as its hop count (which
      :func:`_chain_precedes` needs), and every sum folds a simple path, so
      it is not below L's.
    - No offer that passes the final cap is beaten at the end: the cap only
      falls, so the pass weighed the offer, and a label only falls until
      its node is expanded. A labeled node other than dst, which is never
      expanded, whose key (sum plus floor) is within the final cap was
      expanded on its final label and chain: the heap entry it was last
      offered with is popped before the pass ends, and an offer that came
      after the node's expansion would have ended the pass.
    - The cap is the least sum an offer gave dst, times 1 + 2**-30. That
      sum folds a route, so it is not below L(dst)'s sum S. Call v
      relevant when some route from v to dst, folded onto L(v)'s sum,
      ends at most at S. Then L(v) passes the cap, as the floor is a lower
      bound and a k-hop fold's relative error is below k * 2**-52, which
      the margin covers for fewer than 2**20 nodes. A tail whose extension
      gives a relevant node its L sum is relevant too.

    Suppose some relevant node ends below its L label, or some relevant v
    with L(v) <= L(dst) ends above it or unlabeled, and take the one with
    the least of its two labels. If L(v) is the lesser, v's pred under L is
    relevant, below it and so holds its L label: its key is within the cap,
    it was expanded, and its offer L(v) is not beaten. If v's label is the
    lesser, its sum is L(v)'s, and its pred p is relevant and below it, so
    p's label is not below L(p). If p's sum is L(p)'s, p's extension is
    not below L(v); if it is larger, L(p) < L(dst), so p holds L(p). Each
    case contradicts, so every relevant node up to L(dst), dst and its
    chain included, ends on its L label, and by induction on L on its
    chain.

    With exact sums and a consistent floor, as the reverse Dijkstra's is,
    the heap order (sum + floor, sum, hops) puts every tail that gives a
    node its label before the node, so no pass is rerun. A zero floor is
    consistent whatever the rounding: the heap then pops in (sum, hops)
    order, every extension is strictly larger than the label it extends,
    so no offer to an expanded node wins, and the rerun answers in one
    pass. Both passes share the cap's margin and the tie-breaks.
    """
    p_idx, p_bound = c.path_bounds[0]
    wcol = g.path_cols[p_idx]
    usable = memo.mask
    if not g.path_nonneg[p_idx]:
        for e, w in enumerate(wcol):
            if w < 0 and usable[e]:
                raise NegativeMetricError(f"edge {e} has negative path metric {w}")

    to_dst = _hop_horizon(g, src, dst, usable)
    if to_dst[src] == math.inf:
        raise _no_path(src, dst, to_dst)
    floor = _floor_to(g, p_idx, dst, src, memo)
    reach = math.inf
    if floor[src] < math.inf:
        reach, pred, pred_edge = _guided_pass(g, wcol, usable, floor, src, dst)
    if reach == math.inf:
        # no route has a finite sum: +inf and NaN metrics are never relaxed.
        # Under a non-strict infinite bound a +inf sum is still feasible,
        # and nm-l1's polynomial sweep finds the least-hop such route on
        # the horizon taken above
        if not c.strict and p_bound == math.inf:
            return _l1_path(g, src, dst, c, usable, to_dst)
        raise _no_path(src, dst, to_dst)

    if not c.sum_ok(reach, p_bound):
        raise InfeasibleError(
            f"minimum accumulated metric {reach} violates the bound {p_bound}"
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


def _guided_pass(g, wcol, usable: bytearray, floor: list[float], src: int, dst: int):
    """The A* pass of :func:`_search_edijkstra` from src towards dst: a
    heap keyed (sum + floor, sum, hops, node), offers taken as the plain
    Dijkstra takes them (smaller sum, then fewer hops, then
    :func:`_chain_precedes`) and skipped when their sum plus the target's
    floor exceeds the cap. The cap starts at +inf, and each offer dst takes
    lowers it to that sum times 1 + 2**-30. The pass ends when the least
    key exceeds the cap; dst is never expanded. An offer that a node
    already expanded would take, a better label or an equal one through a
    smaller chain, ends the pass in the same pass on a zero floor, which
    makes no such offer.

    Returns (sum, pred, pred_edge): dst's sum, math.inf when no route has
    a finite one, and the pred links of the labels."""
    n = g.node_count
    adj = g.adjacency
    dist = [math.inf] * n
    hops = [0] * n
    pred = [-1] * n
    pred_edge = [-1] * n
    done = bytearray(n)
    dist[src] = 0.0
    heap = [(floor[src], 0.0, 0, src)]
    cap = math.inf
    while heap:
        key, d, h, u = heapq.heappop(heap)
        if key > cap:
            break
        if done[u] or d != dist[u] or h != hops[u] or u == dst:
            continue
        done[u] = 1
        nh = h + 1
        for v, e in adj[u]:
            if not usable[e]:
                continue
            nd = d + wcol[e]
            if not nd + floor[v] <= cap:
                continue
            dv = dist[v]
            if nd < dv or (nd == dv and nh < hops[v]):
                dist[v] = nd
                hops[v] = nh
                if v == dst and nd * (1 + 2**-30) < cap:
                    cap = nd * (1 + 2**-30)
            elif nd != dv or nh != hops[v] or pred[v] < 0 or not _chain_precedes(pred, u, pred[v]):
                continue
            if done[v]:
                # an expanded node would take a better label or chain: the
                # floor is not consistent here, or rounding broke the order.
                # A zero floor pops in label order, so that pass never does
                return _guided_pass(g, wcol, usable, [0.0] * n, src, dst)
            # a better label, or an exact tie won by the lexicographically
            # smaller node sequence
            pred[v] = u
            pred_edge[v] = e
            heapq.heappush(heap, (nd + floor[v], nd, nh, v))
    return dist[dst], pred, pred_edge


def _ranked_paths(g, src: int, dst: int):
    """Yield (nodes, edge_handles) for every loop-free src->dst path of the
    bare topology in (hop count, lexicographic) order: the hop horizon on
    an all-ones mask (``neighborhoods._hop_horizon``), then nm-general's
    fixed-length enumerator at each hop count. Yields nothing when dst is
    unreachable.

    Raises:
        ResourceLimitError: candidate expansion at one hop count exceeded
            neighborhoods.DEFAULT_CANDIDATE_LIMIT partial paths.
    """
    all_ones = bytearray([1]) * g.edge_count
    to_dst = _hop_horizon(g, src, dst, all_ones)
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
