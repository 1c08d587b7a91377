"""Minimum-hop constrained path search by level-by-level frontier expansion.

The search grows "neighborhood" levels outward from the source on the
link-bound-pruned graph: level k holds the nodes reached at sweep round k.
Two solvers share this skeleton:

- :func:`solve_general` accepts any number of link and path bounds. Level k
  is the union of level k-1's out-neighbors; at each depth where dst
  appears it enumerates the loop-free candidate paths of exactly that many
  hops (worst-case exponential) and returns the first feasible candidate in
  lexicographic order.
- :func:`solve_l1` accepts exactly one path bound and runs in polynomial
  time: each round keeps one best accumulated value per node and re-labels
  a node only when a strictly better value arrives that still respects the
  bound; the nodes re-labeled in a round form the next frontier.

Rounds in solve_l1 are synchronous: offers made during round k compare
against the values committed at round k-1, and every label keeps an
immutable link to the parent label it extended. Both points matter for
hop optimality -- without them a node improved mid-round can propagate one
round early and the back track can splice a detour into the answer.
"""

import math

from .constraints import ConstraintSet, path_feasible
from .errors import (
    InfeasibleError,
    NegativeWeightCycleError,
    ResourceLimitError,
    UnreachableError,
)
from .paths import PathResult, path_from_edges

DEFAULT_CANDIDATE_LIMIT = 10**6


def _check_query(g, src: int, dst: int, c: ConstraintSet) -> PathResult | None:
    """Validate a query and answer it outright when src == dst.

    Returns the zero-hop path when src == dst, None when a search is needed.

    Raises:
        IndexError: src or dst is not a node of g.
        ArityMismatchError: c names a metric g does not declare.
        InfeasibleError: src == dst and the zero-hop path violates a path bound.
    """
    n = g.node_count
    if not (0 <= src < n) or not (0 <= dst < n):
        raise IndexError(f"src/dst ({src}, {dst}) outside [0, {n})")
    c.validate_arity(g.link_arity, g.path_arity)
    if src != dst:
        return None
    if not path_feasible([0.0] * g.path_arity, c):
        raise InfeasibleError("zero-hop path violates a path bound")
    return PathResult.trivial(src, g.link_arity, g.path_arity)


def _usable_mask(g, c: ConstraintSet) -> bytearray:
    """Per-edge link-bound feasibility: ``mask[e]`` is 1 when edge e meets
    every link bound of c, 0 when it is pruned. All ones when c has no link
    bounds."""
    mask = bytearray([1]) * g.edge_count
    for j, bound in c.link_bounds:
        col = g.link_cols[j]
        for e, value in enumerate(col):
            if value < bound:
                mask[e] = 0
    return mask


def _min_sums_to(g, dst: int, col, usable: bytearray) -> list[float]:
    """Minimum accumulated value of one metric column from every node to
    dst on the pruned graph (reverse Dijkstra; requires nonnegative col)."""
    import heapq

    dist = [math.inf] * g.node_count
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    in_adj = g.in_adjacency
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, e in in_adj[v]:
            if not usable[e]:
                continue
            nd = d + col[e]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def _hop_distances_to(g, dst: int, usable: bytearray) -> list[float]:
    """Hop distance from every node to dst on the pruned graph, ignoring
    path bounds (reverse BFS); math.inf where dst is unreachable."""
    dist = [math.inf] * g.node_count
    dist[dst] = 0
    queue = [dst]
    in_adj = g.in_adjacency
    while queue:
        nxt = []
        for v in queue:
            for u, e in in_adj[v]:
                if dist[u] == math.inf and usable[e]:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        queue = nxt
    return dist


def _grow_levels(g, src: int, usable: bytearray):
    """Forward pass of the general sweep: yield levels 1, 2, ... in turn.

    Level k is the set of out-neighbors of level k-1 on the pruned graph
    (level 0 is {src}), so a node may recur in several levels. Stops at the
    first empty level, which is not yielded, or after level node_count - 1,
    the length of the longest loop-free path.
    """
    adj = g.adjacency
    level = {src}
    for _ in range(g.node_count - 1):
        level = {v for u in level for v, e in adj[u] if usable[e]}
        if not level:
            return
        yield level


def _iter_fixed_length_paths(g, levels, src, dst, usable, limit, cost_floor=None):
    """Yield (nodes, edge_handles) for every loop-free src->dst path whose
    hop count equals len(levels) - 1, in lexicographic order.

    Walks forward through the levels in ascending (neighbor, handle) order,
    restricted to nodes from which dst stays reachable level-by-level (the
    per-level intersection of in-neighbors with the previous level).

    cost_floor optionally lists (metric col, per-node remaining-sum lower
    bound, effective upper bound) triples; prefixes that already provably
    exceed a bound are skipped. Only sound for nonnegative metrics, so the
    caller decides what to pass.
    """
    depth = len(levels) - 1
    if depth == 0:
        if src == dst:
            yield [src], []
        return

    # survivors[k]: members of level k that can still reach dst on schedule
    survivors: list[set[int]] = [set() for _ in range(depth + 1)]
    if dst not in levels[depth]:
        return
    survivors[depth] = {dst}
    in_adj = g.in_adjacency
    for k in range(depth - 1, -1, -1):
        cur = survivors[k]
        lev = levels[k]
        for v in survivors[k + 1]:
            for u, e in in_adj[v]:
                if usable[e] and u in lev:
                    cur.add(u)
    if src not in survivors[0]:
        return

    adj = g.adjacency
    on_path = bytearray(g.node_count)
    on_path[src] = 1
    nodes = [src]
    edges: list[int] = []
    stack = [iter(adj[src])]
    sums = [[0.0] for _ in cost_floor] if cost_floor else []
    steps = 0
    while stack:
        descended = False
        for v, e in stack[-1]:
            if not usable[e]:
                continue
            k = len(stack)
            if v not in survivors[k] or on_path[v]:
                continue
            if cost_floor:
                dead = False
                for (col, floor, bound), partial in zip(cost_floor, sums):
                    if partial[-1] + col[e] + floor[v] >= bound:
                        dead = True
                        break
                if dead:
                    continue
            steps += 1
            if steps > limit:
                raise ResourceLimitError(f"candidate expansion exceeded {limit} partial paths")
            nodes.append(v)
            edges.append(e)
            if k == depth:
                yield list(nodes), list(edges)
                nodes.pop()
                edges.pop()
                continue
            on_path[v] = 1
            for (col, _f, _b), partial in zip(cost_floor, sums) if cost_floor else ():
                partial.append(partial[-1] + col[e])
            stack.append(iter(adj[v]))
            descended = True
            break
        if not descended:
            stack.pop()
            if stack:
                u = nodes.pop()
                edges.pop()
                on_path[u] = 0
                for partial in sums:
                    partial.pop()


def solve_general(
    g,
    src: int,
    dst: int,
    c: ConstraintSet,
    *,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
) -> PathResult:
    """Minimum-hop loop-free path satisfying any mix of link and path bounds.

    Prunes link-infeasible edges, then deepens the neighborhood levels; at
    every depth where dst appears, candidates of exactly that hop count are
    generated in lexicographic order and the first one meeting all path
    bounds is returned. Depth never exceeds node_count - 1 hops.

    Raises:
        UnreachableError: dst never appears in any level.
        InfeasibleError: dst reachable but no loop-free path satisfies c.
        ResourceLimitError: candidate expansion exceeded candidate_limit.
    """
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial

    usable = _usable_mask(g, c)

    # admissible remaining-cost pruning, sound only for nonnegative metrics;
    # it also settles obviously hopeless queries without any enumeration
    cost_floor = []
    for j, bound in c.path_bounds:
        col = g.path_cols[j]
        if any(w < 0 for w in col):
            continue
        floor = _min_sums_to(g, dst, col, usable)
        bound_eff = bound if c.strict else math.nextafter(bound, math.inf)
        if floor[src] == math.inf:
            raise UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")
        if floor[src] >= bound_eff:
            raise InfeasibleError(
                f"minimum accumulated metric {floor[src]} already violates the bound {bound}"
            )
        cost_floor.append((col, floor, bound_eff))

    levels: list[set[int]] = [{src}]
    seen_dst = False
    for level in _grow_levels(g, src, usable):
        levels.append(level)
        if dst in level:
            seen_dst = True
            for nodes, edges in _iter_fixed_length_paths(
                g, levels, src, dst, usable, candidate_limit, cost_floor
            ):
                cand = path_from_edges(g, nodes, edges)
                if path_feasible(cand.accumulated, c):
                    return cand
    if seen_dst:
        raise InfeasibleError(f"no loop-free path from {src} to {dst} satisfies the constraints")
    raise UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")


def _l1_forward(g, src: int, dst: int, c: ConstraintSet):
    """Synchronous round sweep for the single-path-bound case (src != dst).

    Returns (status, rounds, label, usable) where status is one of "found",
    "stalled", "negcycle" and rounds counts the committed rounds.
    ``label[v]`` is an immutable (node, edge, parent_label) chain recording
    how v's current distance was reached.
    """
    p_idx, p_bound = c.path_bounds[0]
    p_eff = p_bound if c.strict else math.nextafter(p_bound, math.inf)
    usable = _usable_mask(g, c)
    n = g.node_count
    adj = g.adjacency
    wcol = g.path_cols[p_idx]

    dist = [math.inf] * n
    dist[src] = 0.0
    label: list[tuple | None] = [None] * n
    label[src] = (src, -1, None)
    frontier = [src]
    rounds = 0
    while True:
        # Offers compare against the distances committed last round; the
        # best offer per node within a round wins.
        updates: dict[int, tuple[float, tuple]] = {}
        for u in frontier:
            du = dist[u]
            lu = label[u]
            for v, e in adj[u]:
                if not usable[e]:
                    continue
                nd = du + wcol[e]
                if nd >= p_eff or nd >= dist[v]:
                    continue
                got = updates.get(v)
                if got is None or nd < got[0]:
                    updates[v] = (nd, (v, e, lu))
        if not updates:
            return "stalled", rounds, label, usable
        if rounds >= n - 1:
            return "negcycle", rounds, label, usable
        rounds += 1
        for v, (nd, lab) in updates.items():
            dist[v] = nd
            label[v] = lab
        if dst in updates:
            return "found", rounds, label, usable
        # the next frontier is the re-labeled nodes in first-offer order
        frontier = updates


def solve_l1(g, src: int, dst: int, c: ConstraintSet) -> PathResult:
    """Minimum-hop loop-free path under link bounds plus exactly one path bound.

    Pre-routing marks link-infeasible edges unusable; each round of the
    forward sweep relabels a node only when a strictly smaller accumulated
    value arrives that stays under the bound, and the relabeled nodes are
    the next round's frontier; the sweep stops in the first round that
    relabels dst, and the back track follows the recorded parent chain
    from dst.

    Hop-optimal for nonnegative path metrics. With negative metrics the
    bound guard rejects prefixes that spike over the bound before coming
    back down, so feasibility is conservative there; the supported use of
    negative values is cycle detection.

    When the sweep stalls, a reverse BFS from dst on the pruned topology
    (:func:`_hop_distances_to`) tells an infeasible query from an
    unreachable one.

    Raises:
        UnreachableError: dst unreachable on the pruned topology.
        InfeasibleError: dst reachable ignoring the path bound, but the
            sweep stalled (the bound rejects every extension).
        NegativeWeightCycleError: relabeling was still active after
            node_count - 1 rounds.
        ValueError: c does not have exactly one path bound.
    """
    if c.path_count != 1:
        raise ValueError(f"solve_l1 requires exactly one path bound, got {c.path_count}")
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial

    status, _rounds, label, usable = _l1_forward(g, src, dst, c)
    if status == "negcycle":
        raise NegativeWeightCycleError("round count reached the node count; relaxation is cycling")
    if status == "stalled":
        if _hop_distances_to(g, dst, usable)[src] < math.inf:
            raise InfeasibleError(f"the path bound rejects every route from {src} to {dst}")
        raise UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")

    nodes = []
    edges = []
    chain = label[dst]
    seen = set()
    while chain is not None:
        node, edge, parent = chain
        if node in seen:
            raise NegativeWeightCycleError("predecessor chain loops; negative cycle reached dst")
        seen.add(node)
        nodes.append(node)
        if parent is not None:
            edges.append(edge)
        chain = parent
    nodes.reverse()
    edges.reverse()
    return path_from_edges(g, nodes, edges)
