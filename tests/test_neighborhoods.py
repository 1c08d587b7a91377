import math
import random
import sys
import time

import pytest

from conftest import A, B, X, Y, random_instance, random_l1_bounds, random_multigraph
from oracle import (
    all_simple_paths,
    feasible,
    hop_distances_reference,
    min_feasible_hops,
    reachable,
)
from vpembed import neighborhoods
from vpembed import (
    ConstraintSet,
    EdgeMetrics,
    GenSpec,
    InfeasibleError,
    NegativeWeightCycleError,
    NoPathError,
    ResourceLimitError,
    UnreachableError,
    build_graph,
    generate,
    solve_general,
    solve_l1,
)
from vpembed.neighborhoods import (
    _hop_horizon,
    _iter_fixed_length_paths,
    _l1_forward,
    _usable_mask,
)
from vpembed.paths import path_from_edges

E = EdgeMetrics


def _all_usable(g):
    return bytearray([1]) * g.edge_count


def _candidates(g, depth, src, dst, usable=None):
    """Every candidate of exactly depth hops, pruned by the hop horizon of
    (src, dst) as solve_general prunes them."""
    if usable is None:
        usable = _all_usable(g)
    to_dst = _hop_horizon(g, src, dst, usable)
    return [
        path_from_edges(g, nodes, edges)
        for nodes, edges in _iter_fixed_length_paths(g, depth, src, dst, usable, to_dst)
    ]


# --- candidate enumeration --------------------------------------------------


def test_fig_candidates_by_depth(fig_graph, fig_constraints):
    assert [c.nodes for c in _candidates(fig_graph, 2, X, Y)] == [(X, A, Y), (X, B, Y)]
    assert [c.nodes for c in _candidates(fig_graph, 3, X, Y)] == [(X, A, B, Y), (X, B, A, Y)]
    # pruning B->Y (bw 4 < 5) leaves one candidate per depth, both through A->Y
    usable = _usable_mask(fig_graph, fig_constraints)
    assert [c.nodes for c in _candidates(fig_graph, 2, X, Y, usable)] == [(X, A, Y)]
    assert [c.nodes for c in _candidates(fig_graph, 3, X, Y, usable)] == [(X, B, A, Y)]


def test_hop_horizon_on_the_fig_graph(fig_graph, fig_constraints):
    # exact at src, int entries, none above its node's hop distance to Y:
    # [2, 1, 1, 0] on the bare graph, [2, 1, 2, 0] once B->Y is pruned
    bound = _hop_horizon(fig_graph, X, Y, _all_usable(fig_graph))
    assert bound[X] == 2 and all(low <= d for low, d in zip(bound, [2, 1, 1, 0]))
    usable = _usable_mask(fig_graph, fig_constraints)
    bound = _hop_horizon(fig_graph, X, Y, usable)
    assert bound[X] == 2 and all(low <= d for low, d in zip(bound, [2, 1, 2, 0]))
    assert all(type(low) is int for low in bound)
    # no edge enters X, so X is cut off from every other node
    for src in (A, B, Y):
        assert _hop_horizon(fig_graph, src, X, usable)[src] == math.inf


def test_hop_horizon_is_exact_at_src_and_a_consistent_lower_bound():
    # seeded multigraphs under random link-bound masks, every src != dst:
    # the bidirectional BFS gives src's reverse-BFS distance (inf when dst
    # is cut off), no entry above its node's distance, and entry u at most
    # 1 + entry v on every usable edge u->v leaving a node other than src
    rng = random.Random(1971)
    seen = {"reachable": 0, "unreachable": 0}
    for _ in range(1000):
        n, edges = random_multigraph(rng)
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        usable = _usable_mask(g, ConstraintSet(((0, float(rng.randint(1, 9))),), ()))
        for dst in range(n):
            dist = hop_distances_reference(n, edges, dst, usable)
            for src in range(n):
                if src == dst:
                    continue
                bound = _hop_horizon(g, src, dst, usable)
                assert bound[src] == dist[src]
                seen["unreachable" if dist[src] == math.inf else "reachable"] += 1
                assert all(low <= d for low, d in zip(bound, dist))
                for u in range(n):
                    if u != src:
                        for v, e in g.adjacency[u]:
                            assert not usable[e] or bound[u] <= 1 + bound[v]
    assert min(seen.values()) > 10_000


def test_disconnected_unreachable():
    g = build_graph(4, [(0, 1, E((1.0,), (1.0,))), (2, 3, E((1.0,), (1.0,)))], [0.0] * 4)
    with pytest.raises(UnreachableError):
        solve_general(g, 0, 3, ConstraintSet((), ()))


def test_fig_two_hop_candidates(fig_graph):
    cands = _candidates(fig_graph, 2, X, Y)
    assert [c.nodes for c in cands] == [(X, A, Y), (X, B, Y)]


def test_fig_three_hop_candidates_include_detour(fig_graph):
    cands = _candidates(fig_graph, 3, X, Y)
    assert (X, B, A, Y) in [c.nodes for c in cands]


def test_single_edge_single_candidate():
    g = build_graph(2, [(0, 1, E((1.0,), (1.0,)))], [0.0, 0.0])
    cands = _candidates(g, 1, 0, 1)
    assert [c.nodes for c in cands] == [(0, 1)]


def test_backward_pass_complete_against_enumeration():
    # at every depth from src's hop distance to n - 1, the candidates are
    # exactly the simple paths of that many hops, in lexicographic order
    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        g, edges = random_instance(rng, max_nodes=10)
        src, dst = 0, g.node_count - 1
        first = hop_distances_reference(g.node_count, edges, dst, _all_usable(g))[src]
        if first == math.inf:
            continue
        simple = [tuple(nodes) for nodes, _e in all_simple_paths(g.node_count, edges, src, dst)]
        for depth in range(first, g.node_count):
            expected = sorted(nodes for nodes in simple if len(nodes) - 1 == depth)
            assert [c.nodes for c in _candidates(g, depth, src, dst)] == expected
            checked += 1
    assert checked > 100


def test_horizon_pruning_enumerates_as_the_exact_distances_do():
    # seeded multigraphs with parallel edges under random link-bound masks,
    # every src != dst that can reach dst: at every depth from H to n - 1
    # the enumerator pruned by the hop horizon yields the same (nodes,
    # edges) sequence as when pruned by the exact reverse-BFS distances
    rng = random.Random(25)
    depths = looser = 0
    for _ in range(150):
        n, edges = random_multigraph(rng, max_nodes=8)
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        usable = _usable_mask(g, ConstraintSet(((0, float(rng.randint(1, 6))),), ()))
        for dst in range(n):
            exact = hop_distances_reference(n, edges, dst, usable)
            for src in range(n):
                if src == dst or exact[src] == math.inf:
                    continue
                bound = _hop_horizon(g, src, dst, usable)
                assert bound[src] == exact[src]
                looser += bound != exact
                for depth in range(bound[src], n):
                    by_bound = _iter_fixed_length_paths(g, depth, src, dst, usable, bound)
                    by_exact = _iter_fixed_length_paths(g, depth, src, dst, usable, exact)
                    assert list(by_bound) == list(by_exact)
                    depths += 1
    assert depths > 2000 and looser > 500


def test_backward_pass_accumulates_metrics(fig_graph):
    cands = _candidates(fig_graph, 2, X, Y)
    xay = {c.nodes: c for c in cands}[(X, A, Y)]
    assert xay.accumulated == (7.0,)
    assert xay.min_link_metrics == (5.0,)


# --- general solver -------------------------------------------------------


def test_fig_general_solution(fig_graph, fig_constraints):
    result = solve_general(fig_graph, X, Y, fig_constraints)
    assert result.nodes == (X, B, A, Y)
    assert result.hop_count == 3
    assert result.accumulated == (4.0,)
    assert result.min_link_metrics == (7.0,)


def test_general_src_equals_dst(fig_graph, fig_constraints):
    result = solve_general(fig_graph, X, X, fig_constraints)
    assert result.nodes == (X,)
    assert result.hop_count == 0
    assert result.accumulated == (0.0,)


def test_general_unreachable_vs_infeasible():
    edges = [(0, 1, E((2.0,), (1.0,)))]
    g = build_graph(3, edges, [0.0] * 3)
    with pytest.raises(UnreachableError):
        solve_general(g, 0, 2, ConstraintSet((), ()))
    # reachable topologically, but the path bound rejects the only route
    with pytest.raises(InfeasibleError):
        solve_general(g, 0, 1, ConstraintSet((), ((0, 1.0),)))


def test_general_candidate_limit(monkeypatch):
    # complete graph, unsatisfiable bound, one negative metric so the
    # remaining-cost pruning cannot help: expansion must hit the cap
    monkeypatch.setattr(neighborhoods, "DEFAULT_CANDIDATE_LIMIT", 50)
    edges = []
    for u in range(7):
        for v in range(7):
            if u != v:
                w = -0.5 if (u, v) == (0, 1) else 1.0
                edges.append((u, v, E((1.0,), (w,))))
    g = build_graph(7, edges, [0.0] * 7)
    c = ConstraintSet((), ((0, 0.5),))  # best possible total is exactly 0.5
    with pytest.raises(ResourceLimitError):
        solve_general(g, 0, 6, c)


def test_general_short_circuits_hopeless_bound(monkeypatch):
    # with nonnegative metrics the same query answers infeasible instantly
    monkeypatch.setattr(neighborhoods, "DEFAULT_CANDIDATE_LIMIT", 50)
    edges = []
    for u in range(7):
        for v in range(7):
            if u != v:
                edges.append((u, v, E((1.0,), (1.0,))))
    g = build_graph(7, edges, [0.0] * 7)
    with pytest.raises(InfeasibleError):
        solve_general(g, 0, 6, ConstraintSet((), ((0, 0.5),)))


def test_general_matches_oracle_with_two_path_bounds():
    rng = random.Random(101)
    trials = 0
    while trials < 500:
        n = rng.randint(2, 10)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    edges.append(
                        (
                            u,
                            v,
                            E(
                                (float(rng.randint(1, 9)),),
                                (float(rng.randint(1, 10)), float(rng.randint(1, 10))),
                            ),
                        )
                    )
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=2)
        c = ConstraintSet(
            ((0, float(rng.randint(1, 9))),),
            ((0, float(rng.randint(3, 25))), (1, float(rng.randint(3, 25)))),
        )
        src, dst = 0, n - 1
        expected = min_feasible_hops(n, edges, src, dst, c)
        try:
            result = solve_general(g, src, dst, c)
            assert expected == result.hop_count
            assert feasible(edges, list(result.edge_handles), c)
        except NoPathError:
            assert expected is None
        trials += 1


def _two_bound_oracle_check(n, edges, src, dst, rng, statuses):
    """solve_general against min_feasible_hops for one random two-path-bound
    query from src to dst on the given edge list."""
    g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=2)
    c = ConstraintSet(
        ((0, float(rng.randint(1, 4))),) if rng.random() < 0.5 else (),
        ((0, float(rng.randint(-2, 20))), (1, float(rng.randint(-2, 20)))),
        strict=rng.random() < 0.5,
    )
    expected = min_feasible_hops(n, edges, src, dst, c)
    try:
        result = solve_general(g, src, dst, c)
    except NoPathError as exc:
        assert expected is None
        statuses[exc.status] = statuses.get(exc.status, 0) + 1
        return
    assert result.hop_count == expected
    assert feasible(edges, list(result.edge_handles), c)
    statuses["ok"] = statuses.get("ok", 0) + 1


def _random_metrics(rng, negative):
    low = -3 if negative else 0
    return E((float(rng.randint(1, 9)),), (float(rng.randint(low, 9)), float(rng.randint(low, 9))))


@pytest.mark.parametrize("negative", [False, True], ids=["nonneg", "negative"])
def test_general_matches_oracle_on_bipartite_grids(negative):
    # on a grid every src->dst path has the parity of their distance, which
    # the hop-distance bound alone does not see; with both metrics negative
    # somewhere there is no cost floor to prune by either
    rng = random.Random(61 + negative)
    statuses = {}
    for _ in range(150):
        rows, cols = rng.randint(2, 3), rng.randint(2, 4)
        edges = []
        for i in range(rows):
            for j in range(cols):
                u = i * cols + j
                for v in ((u + 1,) if j + 1 < cols else ()) + ((u + cols,) if i + 1 < rows else ()):
                    edges.append((u, v, _random_metrics(rng, negative)))
                    edges.append((v, u, _random_metrics(rng, negative)))
        n = rows * cols
        _two_bound_oracle_check(n, edges, *rng.sample(range(n), 2), rng, statuses)
    assert statuses.get("ok", 0) > 30 and statuses.get("infeasible", 0) > 30


@pytest.mark.parametrize("negative", [False, True], ids=["nonneg", "negative"])
def test_general_matches_oracle_on_dags(negative):
    # on a DAG no path is longer than the longest chain, so every depth past
    # it enumerates nothing; the answer must not change
    rng = random.Random(71 + negative)
    statuses = {}
    for _ in range(150):
        n = rng.randint(2, 10)
        order = list(range(n))
        rng.shuffle(order)
        edges = [
            (order[a], order[b], _random_metrics(rng, negative))
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.5
        ]
        a, b = sorted(rng.sample(range(n), 2))
        _two_bound_oracle_check(n, edges, order[a], order[b], rng, statuses)
    assert statuses.get("ok", 0) > 20 and statuses.get("infeasible", 0) > 10


def _reliability_graph(node_count, seed):
    """A generated graph with a second path metric, -ln(reliability), drawn
    per undirected link from U[0.95, 0.9999]."""
    g = generate(GenSpec(node_count=node_count, target_avg_degree=4.0, seed=seed))
    rng = random.Random(seed)
    cost = {}
    edges = []
    for u, v, m in g.edges:
        key = (min(u, v), max(u, v))
        if key not in cost:
            cost[key] = -math.log(rng.uniform(0.95, 0.9999))
        edges.append((u, v, E(m.link_metrics, (m.path_metrics[0], cost[key]))))
    return build_graph(g.node_count, edges, g.node_capacity)


def test_general_infeasible_two_bound_query_is_fast():
    # each bound alone is met, so both cost floors pass and the solver
    # enumerates every depth up to n - 1 hops before it can answer
    # infeasible: each of those ~300 depths must stay cheap
    g = _reliability_graph(300, 1)
    delay = (0, 2.5 * max(g.path_cols[0]))
    cost = (1, 0.1)
    for bound in (delay, cost):
        assert solve_general(g, 14, 117, ConstraintSet(((0, 1.0),), (bound,))).hop_count > 0
    start = time.process_time()
    with pytest.raises(InfeasibleError):
        solve_general(g, 14, 117, ConstraintSet(((0, 1.0),), (delay, cost)))
    assert time.process_time() - start < 1.0


# --- single-path-bound solver ----------------------------------------------


def test_fig_l1_solution(fig_graph, fig_constraints):
    result = solve_l1(fig_graph, X, Y, fig_constraints)
    assert result.nodes == (X, B, A, Y)
    assert result.hop_count == 3


def test_l1_requires_single_path_bound(fig_graph):
    with pytest.raises(ValueError):
        solve_l1(fig_graph, X, Y, ConstraintSet((), ()))


def test_l1_src_equals_dst(fig_graph, fig_constraints):
    result = solve_l1(fig_graph, X, X, fig_constraints)
    assert result.hop_count == 0


def test_l1_negative_cycle_detected():
    # X -> A -> B -> C -> A loops with total -1; Y sits behind a
    # bound-violating edge so the sweep keeps relabeling until the level
    # count hits the node count
    edges = [
        (0, 1, E((9.0,), (1.0,))),
        (1, 2, E((9.0,), (1.0,))),
        (2, 3, E((9.0,), (1.0,))),
        (3, 1, E((9.0,), (-3.0,))),
        (3, 4, E((9.0,), (100.0,))),
    ]
    cycle_sum = 1.0 + 1.0 - 3.0
    assert cycle_sum < 0  # the fixture really contains a negative cycle
    g = build_graph(5, edges, [0.0] * 5)
    with pytest.raises(NegativeWeightCycleError):
        solve_l1(g, 0, 4, ConstraintSet((), ((0, 10.0),)))


def test_l1_unreachable_is_reported_before_a_negative_cycle(monkeypatch):
    # the reverse BFS comes first whatever the metric's sign: node 4 is cut
    # off, so it is unreachable although the cycle 1->2->3->1 (total -1) is
    # reachable from 0, no sweep runs, and nm-general says the same
    edges = [
        (0, 1, E((9.0,), (1.0,))),
        (1, 2, E((9.0,), (1.0,))),
        (2, 3, E((9.0,), (1.0,))),
        (3, 1, E((9.0,), (-3.0,))),
    ]
    sweeps = []
    forward = neighborhoods._l1_forward
    monkeypatch.setattr(
        neighborhoods, "_l1_forward", lambda *args: sweeps.append(1) or forward(*args)
    )
    g = build_graph(5, edges, [0.0] * 5)
    for solver in (solve_l1, solve_general):
        with pytest.raises(UnreachableError, match="node 4 is unreachable from 0"):
            solver(g, 0, 4, ConstraintSet(((0, 1.0),), ((0, 100.0),)))
    assert sweeps == []
    # on a nonnegative metric the reverse BFS settles it with no sweep
    g = build_graph(5, edges[:3], [0.0] * 5)
    with pytest.raises(UnreachableError, match="node 4 is unreachable from 0"):
        solve_l1(g, 0, 4, ConstraintSet(((0, 1.0),), ((0, 100.0),)))
    assert sweeps == []
    assert solve_l1(g, 0, 3, ConstraintSet(((0, 1.0),), ((0, 100.0),))).hop_count == 3
    assert len(sweeps) == 1


def test_l1_positive_cycle_reports_infeasible_not_negcycle():
    edges = [
        (0, 1, E((9.0,), (1.0,))),
        (1, 2, E((9.0,), (1.0,))),
        (2, 3, E((9.0,), (1.0,))),
        (3, 1, E((9.0,), (1.0,))),
        (3, 4, E((9.0,), (100.0,))),
    ]
    g = build_graph(5, edges, [0.0] * 5)
    with pytest.raises(InfeasibleError):
        solve_l1(g, 0, 4, ConstraintSet((), ((0, 10.0),)))


def test_l1_unreachable_vs_infeasible():
    edges = [(0, 1, E((2.0,), (6.0,)))]
    g = build_graph(3, edges, [0.0] * 3)
    # partitioned destination
    with pytest.raises(UnreachableError):
        solve_l1(g, 0, 2, ConstraintSet((), ((0, 10.0),)))
    # link-bound pruning disconnects: also unreachable
    with pytest.raises(UnreachableError):
        solve_l1(g, 0, 1, ConstraintSet(((0, 5.0),), ((0, 10.0),)))
    # reachable after pruning, killed by the path bound alone
    with pytest.raises(InfeasibleError):
        solve_l1(g, 0, 1, ConstraintSet((), ((0, 5.0),)))


def test_l1_rounds_equal_hop_count():
    # round k relabels nodes with k-hop labels, so the round that finds dst
    # is the hop count of the returned path, in the plain sweep and in the
    # one bounded by the hop horizon to_dst[src]
    rng = random.Random(77)
    found = bounded_found = 0
    for _ in range(60):
        g, _edges = random_instance(rng, max_nodes=10)
        c = random_l1_bounds(rng)
        dst = g.node_count - 1
        usable = _usable_mask(g, c)
        to_dst = _hop_horizon(g, 0, dst, usable)
        status, rounds, _label = _l1_forward(g, 0, dst, c, usable)
        if status == "found":
            hops = solve_l1(g, 0, dst, c).hop_count
            assert rounds == hops
            found += 1
        if to_dst[0] == math.inf:
            continue
        status, rounds, _label = _l1_forward(g, 0, dst, c, usable, to_dst)
        assert rounds <= to_dst[0]
        if status == "found":
            assert rounds == hops == to_dst[0]
            bounded_found += 1
    assert found > 10 and bounded_found > 5


def _back_track(label, dst):
    """dst's label chain as (nodes, edges); None when the chain loops."""
    nodes, edges = [], []
    chain = label[dst]
    while chain is not None:
        node, edge, chain = chain
        if node in nodes:
            return None
        nodes.append(node)
        if chain is not None:
            edges.append(edge)
    return tuple(reversed(nodes)), tuple(reversed(edges))


def test_l1_hop_horizon_matches_the_plain_sweep(monkeypatch):
    # seeded multigraphs with integer delays, 0 included, so that equal
    # sums tie; the last 300 also draw negative delays and bounds. Every
    # (src, dst) under strict and non-strict bounds. Where the reverse BFS
    # cuts src off, the search says unreachable with no sweep, even where
    # the plain sweep cycles; elsewhere it gives the plain sweep's status,
    # path and round count, and a found chain that loops is a negative cycle
    last = []

    def recording(*args):
        last[:] = [forward(*args)]
        return last[0]

    forward = neighborhoods._l1_forward
    monkeypatch.setattr(neighborhoods, "_l1_forward", recording)
    rng = random.Random(1414)
    seen = dict.fromkeys(("bounded", "fallback", "infeasible", "unreachable"), 0)
    signed_seen = dict.fromkeys(("negcycle", "looped", "cut-off-cycle"), 0)
    for graph in range(1300):
        low, bound_low = (-3, -2) if graph >= 1000 else (0, 0)
        n = rng.randint(2, 12)
        edges = []
        for u in range(n):
            for v in range(n):
                while u != v and rng.random() < 0.3:
                    edges.append(
                        (u, v, E((float(rng.randint(1, 9)),), (float(rng.randint(low, 4)),)))
                    )
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        c = ConstraintSet(
            ((0, float(rng.randint(1, 5))),) if rng.random() < 0.7 else (),
            ((0, float(rng.randint(bound_low, 12))),),
            strict=rng.random() < 0.5,
        )
        usable = _usable_mask(g, c)
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                status, rounds, label = forward(g, src, dst, c, usable)
                path = _back_track(label, dst) if status == "found" else None
                horizon = hop_distances_reference(n, edges, dst, usable)[src]
                last.clear()
                try:
                    result = solve_l1(g, src, dst, c)
                except NoPathError as exc:
                    if horizon == math.inf:
                        assert exc.status == "unreachable" and not last
                        assert status == "stalled" or low < 0
                        signed_seen["cut-off-cycle"] += status == "negcycle"
                    else:
                        assert last[0][:2] == (status, rounds)
                        if status == "found":
                            assert exc.status == "negcycle" and path is None
                            signed_seen["looped"] += 1
                        else:
                            expected = "infeasible" if status == "stalled" else "negcycle"
                            assert exc.status == expected
                    if exc.status == "negcycle":
                        signed_seen["negcycle"] += 1
                    else:
                        seen[exc.status] += 1
                    continue
                assert status == "found" and last[0][:2] == (status, rounds)
                assert (result.nodes, result.edge_handles) == path
                seen["bounded" if rounds == horizon else "fallback"] += 1
    assert min(seen.values()) > 500, seen
    assert min(signed_seen.values()) > 10, signed_seen


def test_l1_matches_oracle_seeded():
    rng = random.Random(2024)
    for _ in range(150):
        g, edges = random_instance(rng, max_nodes=10)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        expected = min_feasible_hops(g.node_count, edges, src, dst, c)
        try:
            result = solve_l1(g, src, dst, c)
            assert result.hop_count == expected
            assert feasible(edges, list(result.edge_handles), c)
            assert len(set(result.nodes)) == len(result.nodes)
        except NoPathError:
            assert expected is None


def test_l1_nan_path_metric_never_breaks_the_bound():
    # a NaN sum compares false against everything, so a sweep that skipped
    # an offer only when nd >= bound carried (nan,) to dst and returned it
    nan = float("nan")
    g = build_graph(3, [(0, 1, E((1.0,), (nan,))), (1, 2, E((1.0,), (1.0,)))], [0.0] * 3)
    for strict in (True, False):
        c = ConstraintSet((), ((0, 10.0),), strict=strict)
        for solver in (solve_l1, solve_general):
            with pytest.raises(InfeasibleError):
                solver(g, 0, 2, c)
    # a NaN shortcut loses to a longer path with a real sum
    g = build_graph(
        3,
        [(0, 2, E((1.0,), (nan,))), (0, 1, E((1.0,), (1.0,))), (1, 2, E((1.0,), (1.0,)))],
        [0.0] * 3,
    )
    result = solve_l1(g, 0, 2, ConstraintSet((), ((0, 10.0),)))
    assert result.nodes == (0, 1, 2) and result.accumulated == (2.0,)


def test_l1_matches_oracle_with_nan_path_metrics():
    rng = random.Random(4077)
    statuses = {}
    for _ in range(300):
        _g, edges = random_instance(rng, max_nodes=9, edge_prob=0.35)
        edges = [
            (u, v, E(m.link_metrics, (float("nan"),))) if rng.random() < 0.2 else (u, v, m)
            for u, v, m in edges
        ]
        n = _g.node_count
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        bw, delay = random_l1_bounds(rng).link_bounds[0][1], float(rng.randint(3, 25))
        c = ConstraintSet(((0, bw),), ((0, delay),), strict=rng.random() < 0.5)
        src, dst = rng.sample(range(n), 2)
        expected = min_feasible_hops(n, edges, src, dst, c)
        try:
            result = solve_l1(g, src, dst, c)
        except NoPathError as exc:
            assert expected is None
            link_ok = [(u, v, m) for u, v, m in edges if m.link_metrics[0] >= bw]
            reach = reachable(n, link_ok, src, dst)
            assert exc.status == ("infeasible" if reach else "unreachable")
            statuses[exc.status] = statuses.get(exc.status, 0) + 1
            continue
        assert result.hop_count == expected
        assert feasible(edges, list(result.edge_handles), c)
        statuses["ok"] = statuses.get("ok", 0) + 1
    assert min(statuses.get(s, 0) for s in ("ok", "infeasible", "unreachable")) > 20


def _l1_outcome(g, src, dst, c):
    try:
        result = solve_l1(g, src, dst, c)
    except NoPathError as exc:
        return exc.status
    return result.nodes, result.edge_handles


def test_l1_infinite_bound_answers_as_the_largest_finite_bound():
    # with no +-inf metric no sum is infinite, so "<= inf" and "<= max
    # float" admit the same sums and the sweep must give the same answer,
    # negative cycles included; NaN delays meet neither bound
    rng = random.Random(1818)
    seen = set()
    for _ in range(600):
        n = rng.randint(2, 9)
        edges = []
        for u in range(n):
            for v in range(n):
                while u != v and rng.random() < 0.3:
                    delay = float(rng.randint(-2, 6)) if rng.random() < 0.9 else math.nan
                    edges.append((u, v, E((float(rng.randint(1, 9)),), (delay,))))
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        link = ((0, float(rng.randint(1, 9))),) if rng.random() < 0.5 else ()
        src, dst = rng.sample(range(n), 2)
        outcomes = [
            _l1_outcome(g, src, dst, ConstraintSet(link, ((0, bound),), strict=False))
            for bound in (math.inf, sys.float_info.max)
        ]
        assert outcomes[0] == outcomes[1], (edges, link, src, dst)
        seen.add(outcomes[0] if isinstance(outcomes[0], str) else "ok")
    assert seen == {"ok", "unreachable", "infeasible", "negcycle"}, seen


def test_general_and_l1_agree_on_hop_count():
    rng = random.Random(31337)
    for _ in range(150):
        g, _edges = random_instance(rng, max_nodes=9)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        general = l1 = None
        try:
            general = solve_general(g, src, dst, c).hop_count
        except NoPathError:
            pass
        try:
            l1 = solve_l1(g, src, dst, c).hop_count
        except NoPathError:
            pass
        assert general == l1


def test_returned_paths_are_loop_free_and_adjacent():
    rng = random.Random(555)
    for _ in range(100):
        g, _edges = random_instance(rng, max_nodes=10)
        c = random_l1_bounds(rng)
        try:
            r = solve_l1(g, 0, g.node_count - 1, c)
        except NoPathError:
            continue
        assert len(set(r.nodes)) == len(r.nodes)
        for (u, v), e in zip(zip(r.nodes, r.nodes[1:]), r.edge_handles):
            assert g.edges[e][0] == u and g.edges[e][1] == v


def test_strict_vs_non_strict_boundary():
    g = build_graph(2, [(0, 1, E((9.0,), (5.0,)))], [0.0, 0.0])
    strict = ConstraintSet((), ((0, 5.0),))
    with pytest.raises(InfeasibleError):
        solve_l1(g, 0, 1, strict)
    lax = ConstraintSet((), ((0, 5.0),), strict=False)
    assert solve_l1(g, 0, 1, lax).hop_count == 1
