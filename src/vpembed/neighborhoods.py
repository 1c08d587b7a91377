"""Minimum-hop constrained path search on the link-bound-pruned graph.

Both solvers first drop the edges that break a link bound, then take
the hop horizon (:func:`_hop_horizon`): a bidirectional BFS between src
and dst that settles an unreachable dst, finds src's hop distance H and
bounds every other node's hop distance to dst from below. Then:

- :func:`solve_general` accepts any number of link and path bounds. It
  deepens from H to node_count - 1 hops, and at each depth enumerates the
  loop-free candidate paths of exactly that many hops (worst-case
  exponential) in lexicographic order, extending a prefix only while its
  hop count plus its end's lower bound fits the depth. The first
  candidate that meets every path bound is the answer. Most queries take
  the first candidate at depth H, so it is tested alone before the search
  builds any cost floor (:func:`_min_sums_to`, one per finite path bound
  on a nonnegative metric) to prune the rest by.
- :func:`solve_l1` accepts exactly one path bound and runs in polynomial
  time: each round keeps one best accumulated value per node and re-labels
  a node only when a strictly better value arrives that still respects the
  bound; the nodes re-labeled in a round form the next frontier. On every
  path metric, whatever its sign, the sweep is bounded by H: round k offers
  only to nodes that the lower bound does not put more than H - k hops
  from dst. The bounded sweep returns the plain sweep's answer whenever
  that answer has H hops; when it stalls, the plain sweep runs.

Rounds in solve_l1 are synchronous: offers made during round k compare
against the values committed at round k-1, and every label keeps an
immutable link to the parent label it extended. Both points matter for
hop optimality -- without them a node improved mid-round can propagate one
round early and the back track can splice a detour into the answer.

Both solvers, and baselines.solve_edijkstra, read link state only through
the pruning mask, so one front (:func:`_answer`) returns each one's last
answer again, without a search, to the same query on the same mask. Each
search, and baselines' ksp ranking too, first takes the hop horizon on its
mask, and one rule tells unreachable from infeasible on the hop distances
it gave (:func:`_no_path`). The mask's memo record (:class:`_MaskMemo`)
also keeps solve_edijkstra's delay floor towards one dst
(:func:`_floor_to`), a reverse Dijkstra
(:func:`_min_sums_to`) that stays a lower bound while mask bits only
clear; solve_edijkstra's one A* pass is keyed on it.
"""

import heapq
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


class _MaskMemo:
    """What a graph keeps of the last link-bound set it was queried with
    (``g.mask_memo``): built by :func:`_usable_mask`, kept exact through
    reserve and release by :func:`_refresh_mask`, and replaced whole by a
    query under other link bounds. Its slots:

    - bounds: the link bounds (``c.link_bounds``) the mask was scanned for;
    - mask: the pruning mask, ``mask[e]`` 1 when edge e meets every bound;
    - answer: None, or ``(key, nodes, edge_handles)``, the last path a
      search found on the mask, key being ``(solver name, src, dst, c)``
      (:func:`_answer`); emptied when a bit flips;
    - floor: None, or ``((p_idx, dst), floor)``, solve_edijkstra's delay
      floor of path metric p_idx towards dst on the mask (:func:`_floor_to`);
      dropped when a bit is set.

    A search is handed the record and reads its mask there, so what it
    keeps lands on the record of the mask it searched, even after a query
    under other bounds has replaced g's record."""

    __slots__ = ("bounds", "mask", "answer", "floor")

    def __init__(self, bounds, mask: bytearray):
        self.bounds = bounds
        self.mask = mask
        self.answer = None
        self.floor = None


def _usable_mask(g, c: ConstraintSet) -> bytearray:
    """Per-edge link-bound feasibility: ``mask[e]`` is 1 when edge e meets
    every link bound of c, 0 when it is pruned. All ones when c has no link
    bounds.

    The mask is memoized on g (``g.mask_memo``, a :class:`_MaskMemo`) and
    returned as is, never copied, when the link bounds equal the record's;
    callers must only read it. A ResidualOverlay keeps its record exact
    through reserve and release (:func:`_refresh_mask`), so a run that
    re-solves under the same bounds scans the edge list once. Other bounds
    cost one full scan and a new record.
    """
    memo = g.mask_memo
    if memo is not None and memo.bounds == c.link_bounds:
        return memo.mask
    mask = bytearray([1]) * g.edge_count
    for j, bound in c.link_bounds:
        col = g.link_cols[j]
        for e, value in enumerate(col):
            if value < bound:
                mask[e] = 0
    g.mask_memo = _MaskMemo(c.link_bounds, mask)
    return mask


def _refresh_mask(g, handles) -> None:
    """Recompute g's memoized mask bit of each given edge with the full
    scan's rule, 0 when some link metric is below its bound, after those
    edges' link metrics changed (ResidualOverlay.reserve and release).
    Empties the record's answer when a bit flips, and only then. Drops its
    floor when a bit is set: a cleared bit only removes routes, so a floor
    taken before it stays a lower bound."""
    memo = g.mask_memo
    if memo is None:
        return
    bounds, mask = memo.bounds, memo.mask
    cols = g.link_cols
    for e in handles:
        bit = 1
        for j, bound in bounds:
            if cols[j][e] < bound:
                bit = 0
                break
        if mask[e] != bit:
            mask[e] = bit
            memo.answer = None
            if bit:
                memo.floor = None


def _answer(g, src: int, dst: int, c: ConstraintSet, name: str, search) -> PathResult:
    """Answer a query of a solver that reads link state only through the
    mask: validate it, take the mask's record once, and return the path
    kept as its answer under ``(name, src, dst, c)``, rebuilt on g's current
    residuals; else keep and return ``search(g, src, dst, c, memo)``, which
    reads ``memo.mask`` (a NoPathError is not kept). While no mask bit
    changes, the answer cannot: :func:`_refresh_mask` empties it when a bit
    flips. Should a query under other bounds replace g's record between the
    scan and this read, the search runs on a record of its own."""
    trivial = _check_query(g, src, dst, c)
    if trivial is not None:
        return trivial
    usable = _usable_mask(g, c)
    memo = g.mask_memo
    if memo.mask is not usable:
        memo = _MaskMemo(c.link_bounds, usable)
    key = (name, src, dst, c)
    kept = memo.answer
    if kept is not None and kept[0] == key:
        return path_from_edges(g, kept[1], kept[2])
    result = search(g, src, dst, c, memo)
    memo.answer = (key, result.nodes, result.edge_handles)
    return result


def _no_path(src: int, dst: int, to_dst) -> UnreachableError | InfeasibleError:
    """The verdict on a query whose search found no path: UnreachableError
    when dst is cut off from src, InfeasibleError otherwise. to_dst holds
    src's exact hop distance to dst on the search's mask, from the hop
    horizon the search already took (:func:`_hop_horizon`)."""
    if to_dst[src] == math.inf:
        return UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")
    return InfeasibleError(f"the path bound rejects every route from {src} to {dst}")


def _min_sums_to(g, dst: int, col, usable: bytearray, stop: int = -1) -> list[float]:
    """Minimum accumulated value of one metric column from every node to
    dst on the pruned graph (reverse Dijkstra; requires nonnegative col).

    Given a node stop other than dst, the search returns as soon as it
    settles stop, with every entry above stop's value lowered to it: a node
    not settled by then is at least that far from dst, so each entry is
    still a lower bound on its node's minimum, exact up to stop's value."""
    dist = [math.inf] * g.node_count
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    in_adj = g.in_adjacency
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if v == stop:
            return [x if x < d else d for x in dist]
        for u, e in in_adj[v]:
            if not usable[e]:
                continue
            nd = d + col[e]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def _floor_to(g, p_idx: int, dst: int, src: int, memo: _MaskMemo) -> list[float]:
    """The delay floor of path metric p_idx towards dst on the mask of the
    record memo, by which baselines.solve_edijkstra guides its search: a
    lower bound on every node's least sum to dst. Returns the floor memo
    keeps for (p_idx, dst), else builds one (:func:`_min_sums_to` stopped
    at src) and keeps it as memo's floor, for any later query towards dst
    while the mask's bits only clear; :func:`_refresh_mask` drops it when
    one is set, and it goes with the record when the link bounds change."""
    kept = memo.floor
    if kept is not None and kept[0] == (p_idx, dst):
        return kept[1]
    floor = _min_sums_to(g, dst, g.path_cols[p_idx], memo.mask, src)
    memo.floor = ((p_idx, dst), floor)
    return floor


def _hop_horizon(g, src: int, dst: int, usable: bytearray) -> list[int | float]:
    """src's hop distance H to dst on the pruned graph (src != dst), ignoring
    path bounds, in a list that bounds every other node's from below: the
    one hop-distance BFS of every solver, and all that the candidate
    enumerator (:func:`_iter_fixed_length_paths`) needs.

    A bidirectional BFS (Pohl 1971). Each step labels the next level of the
    forward ball around src (over g.adjacency) or of the reverse ball around
    dst (over g.in_adjacency), whichever has the smaller frontier, and the
    search stops at the first node that both balls hold. Before that step
    the balls held every node within f hops of src and within r hops of dst
    and shared none, so H > f + r; the node found has a route of at most
    f + r + 1 hops through its two levels, so the sum of its levels is H.

    Entry v is v's reverse level where the reverse ball holds v, else b + 1,
    b being the last level the reverse ball holds whole; entry src is H.
    Every node off the ball is more than b hops from dst, so no entry
    exceeds its node's hop distance, and entry u <= 1 + entry v on every
    usable edge u->v with u != src. When either frontier empties first, dst
    is unreachable and entry src is math.inf; that costs the smaller side,
    not dst's whole reverse component."""
    adj = g.adjacency
    in_adj = g.in_adjacency
    ahead = {src: 0}
    back = {dst: 0}
    front = [src]
    rear = [dst]
    f = b = 0
    horizon = math.inf
    while front and rear and horizon == math.inf:
        nxt = []
        if len(front) <= len(rear):
            f += 1
            for u in front:
                for v, e in adj[u]:
                    if v not in ahead and usable[e]:
                        if v in back:
                            horizon = f + back[v]
                            break
                        ahead[v] = f
                        nxt.append(v)
                if horizon != math.inf:
                    break
            front = nxt
        else:
            level = b + 1
            for v in rear:
                for u, e in in_adj[v]:
                    if u not in back and usable[e]:
                        back[u] = level
                        if u in ahead:
                            horizon = ahead[u] + level
                            break
                        nxt.append(u)
                if horizon != math.inf:
                    break
            else:
                b = level
            rear = nxt
    bound = [b + 1] * g.node_count
    for v, level in back.items():
        bound[v] = level
    bound[src] = horizon
    return bound


def _iter_fixed_length_paths(g, depth, src, dst, usable, to_dst, cost_floor=None):
    """Yield (nodes, edge_handles) for every loop-free src->dst path of
    exactly depth >= 1 hops, in lexicographic order. Both solve_general and
    baselines.solve_ksp take their candidates from here, so the order is
    part of both answers.

    Walks forward from src in ascending (neighbor, handle) order. A prefix
    that ends k hops out at v is extended only while k + to_dst[v] <= depth,
    to_dst being :func:`_hop_horizon` of (src, dst) on the same mask. Its
    entries never exceed their nodes' hop distances to dst, so no prefix
    that can still become a loop-free path of depth hops is cut: any such
    lower bound yields the same paths in the same order, and a tighter one
    only expands fewer dead prefixes.

    cost_floor optionally lists (metric col, per-node remaining-sum lower
    bound, effective upper bound) triples; prefixes that already provably
    exceed a bound are skipped. Only sound for nonnegative metrics, so the
    caller decides what to pass.

    Raises:
        ResourceLimitError: more than DEFAULT_CANDIDATE_LIMIT partial paths
            were expanded; the constant is read when the enumeration starts.
    """
    limit = DEFAULT_CANDIDATE_LIMIT
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
            if on_path[v] or k + to_dst[v] > depth:
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


def solve_general(g, src: int, dst: int, c: ConstraintSet) -> PathResult:
    """Minimum-hop loop-free path satisfying any mix of link and path bounds.

    Prunes link-infeasible edges and takes the hop horizon on what is left
    (:func:`_hop_horizon`): src's hop distance to dst, and a lower bound on
    every other node's. Then, for each depth from src's hop distance up to
    node_count - 1, it generates the candidates of exactly that hop count
    in lexicographic order and returns the first one meeting all path
    bounds. The first candidate is tested before any cost floor is built;
    only when it fails does each finite bound on a nonnegative metric get
    a floor, which answers a hopeless query at once and otherwise prunes
    the prefixes that cannot meet the bound. DEFAULT_CANDIDATE_LIMIT, read
    at call time, caps the partial paths expanded at each depth. A repeat
    of a query on an unchanged mask returns the last answer without a
    search (:func:`_answer`).

    Raises:
        UnreachableError: dst is unreachable from src on the pruned graph.
        InfeasibleError: dst reachable but no loop-free path satisfies c.
        ResourceLimitError: candidate expansion at one depth exceeded
            DEFAULT_CANDIDATE_LIMIT partial paths.
    """
    return _answer(g, src, dst, c, "nm-general", _search_general)


def _search_general(g, src: int, dst: int, c: ConstraintSet, memo: _MaskMemo) -> PathResult:
    """:func:`solve_general`'s search on the pruning mask of the record memo."""
    usable = memo.mask
    to_dst = _hop_horizon(g, src, dst, usable)
    if to_dst[src] == math.inf:
        raise _no_path(src, dst, to_dst)

    # most queries take the first candidate at src's hop distance, so it is
    # tested before any cost floor is built: a feasible path is never pruned
    # by the floors below, so they would yield it first too. Should its walk
    # hit the candidate limit, the floors may still settle the query
    try:
        first = next(_iter_fixed_length_paths(g, to_dst[src], src, dst, usable, to_dst), None)
    except ResourceLimitError:
        first = None
    if first is not None:
        cand = path_from_edges(g, *first)
        if path_feasible(cand.accumulated, c):
            return cand

    # admissible remaining-cost pruning, sound only for nonnegative metrics;
    # it also settles hopeless queries without enumerating past the first
    # candidate. An infinite bound leaves every finite prefix hopeful, so it
    # gets no floor. A floor sums from dst's end and a candidate from src's,
    # so the bound takes edijkstra's rounding margin, 1 + 2**-30, which
    # covers a fold's relative error for fewer than 2**20 nodes
    cost_floor = []
    for j, bound in c.path_bounds:
        if not g.path_nonneg[j] or bound == math.inf:
            continue
        col = g.path_cols[j]
        floor = _min_sums_to(g, dst, col, usable)
        bound_eff = (bound if c.strict else math.nextafter(bound, math.inf)) * (1 + 2**-30)
        if floor[src] >= bound_eff:
            raise InfeasibleError(
                f"minimum accumulated metric {floor[src]} already violates the bound {bound}"
            )
        cost_floor.append((col, floor, bound_eff))

    for depth in range(to_dst[src], g.node_count):
        candidates = _iter_fixed_length_paths(g, depth, src, dst, usable, to_dst, cost_floor)
        for nodes, edges in candidates:
            cand = path_from_edges(g, nodes, edges)
            if path_feasible(cand.accumulated, c):
                return cand
    raise InfeasibleError(f"no loop-free path from {src} to {dst} satisfies the constraints")


def _l1_forward(g, src: int, dst: int, c: ConstraintSet, usable: bytearray, to_dst=None):
    """Synchronous round sweep for the single-path-bound case (src != dst)
    on the pruning mask usable (:func:`_usable_mask` of c).

    Returns (status, rounds, label) where status is one of "found",
    "stalled", "negcycle" and rounds counts the committed rounds.
    ``label[v]`` is an immutable (node, edge, parent_label) chain recording
    how v's current distance was reached. An offer is made only when its
    accumulated value meets the bound (:meth:`ConstraintSet.sum_ok`), so a
    NaN value is never offered, and a +inf one only under ``<= inf``.

    to_dst, when given, bounds every node's hop distance d(v) to dst on
    usable from below and is exact at src, H = to_dst[src] = d(src)
    (:func:`_hop_horizon`). It bounds the sweep by that hop horizon: round
    k skips an offer to v when k + to_dst[v] > H, so the sweep stalls after
    round H at the latest. The bounded sweep finds dst exactly when the
    plain one finds it in round H, with the same label chain. Call v live
    at round k when k + d(v) <= H; only a label that a live node commits
    can lie on dst's chain of round H. Since d(u) <= 1 + d(v) on every
    usable edge u->v, a node that offers to a live node was itself live a
    round earlier, and since to_dst[v] <= d(v), the bound skips no offer to
    a live node. So, round by round, a live node receives the same offers
    in the same order as in the plain sweep, and keeps the same distance,
    label and first-offer place among the live nodes of the frontier.
    """
    p_idx, p_bound = c.path_bounds[0]
    closed = not c.strict
    n = g.node_count
    adj = g.adjacency
    wcol = g.path_cols[p_idx]
    if to_dst is None:
        # the plain sweep: a horizon that no round reaches
        to_dst, horizon = [0] * n, n
    else:
        horizon = to_dst[src]

    # NaN compares false, so an unlabeled node takes any admissible offer, +inf too
    dist = [math.nan] * n
    dist[src] = 0.0
    label: list[tuple | None] = [None] * n
    label[src] = (src, -1, None)
    frontier = [src]
    rounds = 0
    while True:
        # Offers compare against the distances committed last round; the
        # best offer per node within a round wins. This round commits
        # round rounds + 1, which leaves v limit hops to reach dst in.
        limit = horizon - rounds - 1
        updates: dict[int, tuple[float, tuple]] = {}
        for u in frontier:
            du = dist[u]
            lu = label[u]
            for v, e in adj[u]:
                if not usable[e] or to_dst[v] > limit:
                    continue
                nd = du + wcol[e]
                if not (nd < p_bound or (closed and nd == p_bound)) or nd >= dist[v]:
                    continue
                got = updates.get(v)
                if got is None or nd < got[0]:
                    updates[v] = (nd, (v, e, lu))
        if not updates:
            return "stalled", rounds, label
        if rounds >= n - 1:
            return "negcycle", rounds, label
        rounds += 1
        for v, (nd, lab) in updates.items():
            dist[v] = nd
            label[v] = lab
        if dst in updates:
            return "found", rounds, label
        # the next frontier is the re-labeled nodes in first-offer order
        frontier = updates


def solve_l1(g, src: int, dst: int, c: ConstraintSet) -> PathResult:
    """Minimum-hop loop-free path under link bounds plus exactly one path bound.

    Pre-routing marks link-infeasible edges unusable; each round of the
    forward sweep relabels a node only when a strictly smaller accumulated
    value arrives that meets the bound, and the relabeled nodes are
    the next round's frontier; the sweep stops in the first round that
    relabels dst, and the back track follows the recorded parent chain
    from dst.

    Hop-optimal for nonnegative path metrics. With negative metrics the
    bound guard rejects prefixes that spike over the bound before coming
    back down, so feasibility is conservative there; the supported use of
    negative values is cycle detection.

    A bidirectional BFS on the pruned topology comes first, whatever the
    path metric's sign, and stops where the balls around src and dst meet
    (:func:`_hop_horizon`). When they never do, dst is unreachable and no
    sweep runs, even if a negative cycle is reachable from src. Else the
    sweep is bounded by the hop horizon H, src's hop distance to dst (see
    :func:`_l1_forward`, which argues why that answer is exact without
    reading the metric's sign), and it finds any answer of H hops; on a
    stall the plain sweep runs.

    When the plain sweep stalls too, :func:`_no_path` gives the verdict. A
    repeat of a query on an unchanged mask returns the last answer
    (:func:`_answer`). A non-strict bound admits a sum equal to it, so
    ``<= inf`` admits +inf sums and rejects only NaN ones.

    Raises:
        UnreachableError: dst unreachable on the pruned topology, from the
            bidirectional BFS taken before any sweep.
        InfeasibleError: dst reachable ignoring the path bound, but the
            sweep stalled (the bound rejects every extension).
        NegativeWeightCycleError: relabeling was still active after
            node_count - 1 rounds.
        ValueError: c does not have exactly one path bound.
    """
    if c.path_count != 1:
        raise ValueError(f"solve_l1 requires exactly one path bound, got {c.path_count}")
    return _answer(g, src, dst, c, "nm-l1", _search_l1)


def _search_l1(g, src: int, dst: int, c: ConstraintSet, memo: _MaskMemo) -> PathResult:
    """:func:`solve_l1`'s hop horizon, then its sweeps (:func:`_l1_path`)
    on the pruning mask of the record memo."""
    usable = memo.mask
    to_dst = _hop_horizon(g, src, dst, usable)
    if to_dst[src] == math.inf:
        raise _no_path(src, dst, to_dst)
    return _l1_path(g, src, dst, c, usable, to_dst)


def _l1_path(g, src: int, dst: int, c: ConstraintSet, usable: bytearray, to_dst) -> PathResult:
    """:func:`solve_l1`'s forward sweeps and back track on the mask usable,
    bounded by the hop horizon to_dst that the caller took, with
    ``to_dst[src]`` finite."""
    status, _rounds, label = _l1_forward(g, src, dst, c, usable, to_dst)
    if status == "stalled":
        status, _rounds, label = _l1_forward(g, src, dst, c, usable)
    if status == "negcycle":
        raise NegativeWeightCycleError("round count reached the node count; relaxation is cycling")
    if status == "stalled":
        raise _no_path(src, dst, to_dst)

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
