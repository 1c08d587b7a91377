"""Reference implementations, independent of the library's search code.
This is the test oracle that every solver is checked against; the
library holds none of its own. Most are brute force, deliberately dumb:
plain recursion over raw edge lists (reference_outcome gives the verdict
a solver must reach). edijkstra_reference keeps the plain Dijkstra that
solve_edijkstra's A* pass on its delay floor must match answer for
answer, a rerun on a zero floor included; waxman_pairs_reference and
bridge_components_reference keep the one-shot Waxman draw and the plain
bridging loop that topogen's blockwise versions must match bit for bit."""

import math


def all_simple_paths(node_count, edge_list, src, dst):
    """Every loop-free src->dst path as (nodes, edge_indices), enumerated by
    naive DFS over the raw edge list."""
    out = []

    def rec(u, nodes, edges):
        if u == dst:
            out.append((list(nodes), list(edges)))
            return
        for idx, (a, b, _m) in enumerate(edge_list):
            if a == u and b not in nodes:
                nodes.append(b)
                edges.append(idx)
                rec(b, nodes, edges)
                nodes.pop()
                edges.pop()

    rec(src, [src], [])
    return out


def path_metrics(edge_list, edges):
    """(sums, mins) accumulated over an edge-index sequence."""
    if edges:
        link_arity = len(edge_list[edges[0]][2].link_metrics)
        path_arity = len(edge_list[edges[0]][2].path_metrics)
    elif edge_list:
        link_arity = len(edge_list[0][2].link_metrics)
        path_arity = len(edge_list[0][2].path_metrics)
    else:
        link_arity = path_arity = 0
    sums = [0.0] * path_arity
    mins = [math.inf] * link_arity
    for idx in edges:
        m = edge_list[idx][2]
        for j in range(path_arity):
            sums[j] += m.path_metrics[j]
        for j in range(link_arity):
            mins[j] = min(mins[j], m.link_metrics[j])
    return sums, mins


def feasible(edge_list, edges, c):
    """Constraint check straight from the definitions."""
    sums, mins = path_metrics(edge_list, edges)
    for j, bound in c.link_bounds:
        if edges and mins[j] < bound:
            return False
        for idx in edges:
            if edge_list[idx][2].link_metrics[j] < bound:
                return False
    for j, bound in c.path_bounds:
        ok = sums[j] < bound if c.strict else sums[j] <= bound
        if not ok:
            return False
    return True


def min_feasible_hops(node_count, edge_list, src, dst, c):
    """Minimum hop count over all feasible simple paths, or None."""
    if src == dst:
        zero_ok = all(
            (0.0 < b if c.strict else 0.0 <= b) for _j, b in c.path_bounds
        )
        return 0 if zero_ok else None
    best = None
    for nodes, edges in all_simple_paths(node_count, edge_list, src, dst):
        if feasible(edge_list, edges, c):
            hops = len(nodes) - 1
            if best is None or hops < best:
                best = hops
    return best


def reachable(node_count, edge_list, src, dst):
    seen = {src}
    queue = [src]
    while queue:
        u = queue.pop()
        for a, b, _m in edge_list:
            if a == u and b not in seen:
                seen.add(b)
                queue.append(b)
    return dst in seen


def reference_outcome(node_count, edge_list, src, dst, c):
    """The verdict a hop-minimizing solver must give: the least hop count
    among feasible simple paths, else "unreachable" when dst cannot be
    reached over the edges that pass c's link bounds, else "infeasible"."""
    hops = min_feasible_hops(node_count, edge_list, src, dst, c)
    if hops is not None:
        return hops
    link_ok = [
        (a, b, m) for a, b, m in edge_list
        if all(m.link_metrics[j] >= bound for j, bound in c.link_bounds)
    ]
    return "infeasible" if reachable(node_count, link_ok, src, dst) else "unreachable"


def hop_distances_reference(node_count, edge_list, dst, usable):
    """Hop distance from every node to dst over the edges whose mask bit is
    set, by a plain reverse BFS over the raw edge list: ints, math.inf
    where dst is unreachable, 0 at dst."""
    dist = [math.inf] * node_count
    dist[dst] = 0
    level = {dst}
    while level:
        nxt = set()
        for idx, (a, b, _m) in enumerate(edge_list):
            if usable[idx] and b in level and dist[a] == math.inf:
                dist[a] = dist[b] + 1
                nxt.add(a)
        level = nxt
    return dist


def edijkstra_reference(g, src, dst, c, usable):
    """solve_edijkstra's search as it was before the delay floor guided it:
    one Dijkstra over the whole pruned graph on the single path metric,
    ties broken by fewer hops, then by the lexicographically smaller node
    sequence. usable is the link-bound mask of c on g's current residuals.
    Returns the PathResult or raises the NoPathError solve_edijkstra gives;
    a query with no finite-sum route gets its verdict from
    hop_distances_reference, or under a non-strict infinite bound nm-l1's
    answer, as solve_edijkstra hands it that query."""
    import heapq

    from vpembed import InfeasibleError, NegativeMetricError, UnreachableError
    from vpembed.neighborhoods import _MaskMemo, _search_l1
    from vpembed.paths import path_from_edges

    def chain_precedes(pred, a, b):
        first_a = first_b = -1
        while a != b:
            first_a, first_b = a, b
            a = pred[a]
            b = pred[b]
        return first_a < first_b

    n = g.node_count
    p_idx, p_bound = c.path_bounds[0]
    wcol = g.path_cols[p_idx]
    for e, w in enumerate(wcol):
        if w < 0 and usable[e]:
            raise NegativeMetricError(f"edge {e} has negative path metric {w}")
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
        for v, e in g.adjacency[u]:
            if not usable[e] or settled[v]:
                continue
            nd = d + wcol[e]
            dv = dist[v]
            if nd < dv or (nd == dv and nh < hops[v]):
                dist[v] = nd
                hops[v] = nh
                pred[v] = u
                pred_edge[v] = e
                heapq.heappush(heap, (nd, nh, v))
            elif nd == dv and nh == hops[v] and pred[v] >= 0:
                if chain_precedes(pred, u, pred[v]):
                    pred[v] = u
                    pred_edge[v] = e
    if dist[dst] == math.inf:
        if not c.strict and p_bound == math.inf:
            return _search_l1(g, src, dst, c, _MaskMemo(c.link_bounds, usable))
        if hop_distances_reference(n, g.edges, dst, usable)[src] == math.inf:
            raise UnreachableError(f"node {dst} is unreachable from {src} on the pruned graph")
        raise InfeasibleError(f"the path bound rejects every route from {src} to {dst}")
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


def waxman_pairs_reference(n, coords, uniform, beta, alpha, target):
    """topogen._waxman_pairs as one draw of the whole upper triangle:
    uniform holds one value per pair in triangle order. Returns the chosen
    (iu, iv, d) arrays or raises DegreeUnreachableError as topogen does."""
    import numpy as np

    from vpembed import DegreeUnreachableError

    iu, iv = np.triu_indices(n, 1)
    d = np.hypot(coords[iu, 0] - coords[iv, 0], coords[iu, 1] - coords[iv, 1])
    scale = np.exp(-d / (beta * math.sqrt(2.0)))
    if target is None:
        chosen = uniform < alpha * scale
    else:
        want = round(target * n / 2)
        if want < 1 or want >= len(d):
            raise DegreeUnreachableError(f"degree {target} out of range for {n} nodes")
        ratio = uniform / scale
        cut = float(np.partition(ratio, want)[want])
        if cut > 1.0:
            count = int((ratio < 1.0).sum())
            if count < math.ceil(0.9 * target * n / 2):
                raise DegreeUnreachableError(
                    f"degree {target} unreachable: alpha=1 realizes only {2 * count / n:.2f}"
                )
            cut = 1.0
        chosen = ratio < cut
    return iu[chosen], iv[chosen], d[chosen]


def bridge_components_reference(comps, coords, pairs, pair_dist):
    """topogen._bridge_components as a plain loop: each secondary component
    (largest first) joins the core by the first strict minimum of
    math.hypot over core x other, core nodes outer."""
    comps = sorted(comps, key=len, reverse=True)
    core = list(comps[0])
    pairs = list(pairs)
    pair_dist = list(pair_dist)
    for other in comps[1:]:
        best = None
        for a in core:
            ax, ay = coords[a]
            for b in other:
                d = math.hypot(ax - coords[b, 0], ay - coords[b, 1])
                if best is None or d < best[0]:
                    best = (d, min(a, b), max(a, b))
        d, a, b = best
        pairs.append((a, b))
        pair_dist.append(d)
        core.extend(other)
    return pairs, pair_dist
