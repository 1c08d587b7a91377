import math
import random

import pytest

from conftest import (
    A,
    B,
    FIG_EDGES,
    X,
    Y,
    random_instance,
    random_l1_bounds,
    random_multigraph,
)
from oracle import all_simple_paths, feasible, min_feasible_hops, path_metrics, reachable
from vpembed import baselines
from vpembed import (
    ConstraintSet,
    ResidualOverlay,
    build_graph,
    EdgeMetrics,
    InfeasibleError,
    NegativeMetricError,
    NoPathError,
    ResourceLimitError,
    UnreachableError,
    solve_edijkstra,
    solve_exhaustive,
    solve_general,
    solve_ksp,
    solve_l1,
)

E = EdgeMetrics


# --- extended Dijkstra -----------------------------------------------------


def test_edijkstra_fig_min_delay(fig_graph, fig_constraints):
    result = solve_edijkstra(fig_graph, X, Y, fig_constraints)
    assert result.nodes == (X, B, A, Y)
    assert result.accumulated == (4.0,)
    assert result.hop_count >= 3


def test_edijkstra_src_equals_dst(fig_graph, fig_constraints):
    result = solve_edijkstra(fig_graph, X, X, fig_constraints)
    assert result.hop_count == 0
    assert result.accumulated == (0.0,)


def test_edijkstra_all_edges_pruned(fig_graph):
    c = ConstraintSet(((0, 100.0),), ((0, 10.0),))
    with pytest.raises(UnreachableError):
        solve_edijkstra(fig_graph, X, Y, c)


def test_edijkstra_infeasible_bound(fig_graph):
    c = ConstraintSet(((0, 5.0),), ((0, 2.0),))  # best feasible delay is 4
    with pytest.raises(InfeasibleError):
        solve_edijkstra(fig_graph, X, Y, c)


def test_edijkstra_rejects_negative_metric():
    g = build_graph(
        2, [(0, 1, E((1.0,), (-1.0,)))], [0.0, 0.0]
    )
    with pytest.raises(NegativeMetricError):
        solve_edijkstra(g, 0, 1, ConstraintSet((), ((0, 10.0),)))


def test_edijkstra_minimizes_metric_not_hops():
    rng = random.Random(42)
    for _ in range(120):
        g, edges = random_instance(rng, max_nodes=9)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        try:
            result = solve_edijkstra(g, src, dst, c)
        except NoPathError:
            continue
        best = math.inf
        for _nodes, handles in all_simple_paths(g.node_count, edges, src, dst):
            if all(edges[e][2].link_metrics[0] >= c.link_bounds[0][1] for e in handles):
                sums, _ = path_metrics(edges, handles)
                best = min(best, sums[0])
        assert abs(result.accumulated[0] - best) < 1e-9


def test_edijkstra_breaks_ties_by_hops_then_node_sequence():
    # delays in {0, 1} make exact ties on (delay, hops) common, zero-delay
    # plateaus included; parallel edges tie on the node sequence too
    rng = random.Random(7117)
    ties = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        edges = [
            (u, v, E((float(rng.randint(1, 3)),), (float(rng.randint(0, 1)),)))
            for u in range(n)
            for v in range(n)
            for _copy in range(rng.choice((1, 1, 2)))
            if u != v and rng.random() < 0.45
        ]
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        c = ConstraintSet(((0, float(rng.randint(1, 2))),), ((0, math.inf),))
        src, dst = rng.sample(range(n), 2)
        keys = []
        for nodes, handles in all_simple_paths(n, edges, src, dst):
            if all(edges[e][2].link_metrics[0] >= c.link_bounds[0][1] for e in handles):
                keys.append((path_metrics(edges, handles)[0][0], len(handles), nodes))
        if not keys:
            with pytest.raises(UnreachableError):
                solve_edijkstra(g, src, dst, c)
            continue
        keys.sort()
        ties += len(keys) > 1 and keys[0][:2] == keys[1][:2]
        result = solve_edijkstra(g, src, dst, c)
        assert (result.accumulated[0], result.hop_count, list(result.nodes)) == keys[0]
    assert ties > 25


def test_l1_dominates_edijkstra_on_hops():
    rng = random.Random(4242)
    dominated = 0
    for _ in range(300):
        g, _edges = random_instance(rng, max_nodes=10)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        try:
            ed = solve_edijkstra(g, src, dst, c)
        except NoPathError:
            continue
        nm = solve_l1(g, src, dst, c)  # must succeed whenever EDijkstra does
        assert nm.hop_count <= ed.hop_count
        dominated += 1
    assert dominated > 30


# --- the no-path verdict of the mask-reading solvers --------------------------

MASK_SOLVERS = (solve_edijkstra, solve_l1, solve_general)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_a_route_with_no_finite_sum_is_infeasible_not_unreachable(value):
    # dst is reachable, but only through a +inf or NaN delay: every solver
    # must say infeasible, although edijkstra never relaxes such an edge and
    # so never reaches dst
    g = build_graph(3, [(0, 1, E((5.0,), (value,))), (1, 2, E((5.0,), (1.0,)))], [0.0] * 3)
    for strict in (True, False):
        c = ConstraintSet(((0, 1.0),), ((0, 10.0),), strict=strict)
        for solver in MASK_SOLVERS:
            with pytest.raises(InfeasibleError):
                solver(g, 0, 2, c)
    # once the link bound prunes the cut, the same route is unreachable
    g = build_graph(3, [(0, 1, E((2.0,), (value,))), (1, 2, E((5.0,), (1.0,)))], [0.0] * 3)
    for solver in MASK_SOLVERS:
        with pytest.raises(UnreachableError):
            solver(g, 0, 2, ConstraintSet(((0, 3.0),), ((0, 10.0),)))


def test_edijkstra_verdict_matches_oracle_with_nan_and_inf_delays():
    rng = random.Random(6021)
    statuses = {}
    for _ in range(300):
        _g, edges = random_instance(rng, max_nodes=9, edge_prob=0.35)
        edges = [
            (u, v, E(m.link_metrics, (rng.choice((math.inf, math.nan)),)))
            if rng.random() < 0.2 else (u, v, m)
            for u, v, m in edges
        ]
        n = _g.node_count
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        bw, delay = random_l1_bounds(rng).link_bounds[0][1], float(rng.randint(3, 25))
        c = ConstraintSet(((0, bw),), ((0, delay),), strict=rng.random() < 0.5)
        src, dst = rng.sample(range(n), 2)
        try:
            result = solve_edijkstra(g, src, dst, c)
        except NoPathError as exc:
            # the least-sum path clears the bound whenever any path does
            assert min_feasible_hops(n, edges, src, dst, c) is None
            link_ok = [(u, v, m) for u, v, m in edges if m.link_metrics[0] >= bw]
            reach = reachable(n, link_ok, src, dst)
            assert exc.status == ("infeasible" if reach else "unreachable")
            statuses[exc.status] = statuses.get(exc.status, 0) + 1
            continue
        assert feasible(edges, list(result.edge_handles), c)
        statuses["ok"] = statuses.get("ok", 0) + 1
    assert min(statuses.get(s, 0) for s in ("ok", "infeasible", "unreachable")) > 20


# --- k shortest paths ------------------------------------------------------


def test_ksp_fig_k1_infeasible(fig_graph, fig_constraints):
    with pytest.raises(InfeasibleError):
        solve_ksp(fig_graph, X, Y, fig_constraints, 1)


def test_ksp_fig_k4_finds_detour(fig_graph, fig_constraints):
    result = solve_ksp(fig_graph, X, Y, fig_constraints, 4)
    assert result.nodes == (X, B, A, Y)
    assert result.hop_count == 3


def test_ksp_unconstrained_k1_is_shortest_path():
    rng = random.Random(99)
    empty = ConstraintSet((), ())
    for _ in range(80):
        g, edges = random_instance(rng, max_nodes=9)
        src, dst = 0, g.node_count - 1
        expected = min_feasible_hops(g.node_count, edges, src, dst, empty)
        try:
            result = solve_ksp(g, src, dst, empty, 1)
            assert result.hop_count == expected
        except UnreachableError:
            assert expected is None


def test_ksp_monotone_in_k():
    rng = random.Random(7)
    for _ in range(60):
        g, _edges = random_instance(rng, max_nodes=8)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        solved_at = []
        for k in (1, 2, 4, 8):
            try:
                solve_ksp(g, src, dst, c, k)
                solved_at.append(True)
            except NoPathError:
                solved_at.append(False)
        # once solved, stays solved for larger k
        for earlier, later in zip(solved_at, solved_at[1:]):
            assert later or not earlier


def test_ksp_general_dominates_on_hops():
    rng = random.Random(2718)
    for _ in range(80):
        g, _edges = random_instance(rng, max_nodes=8)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        for k in (1, 3):
            try:
                ksp = solve_ksp(g, src, dst, c, k)
            except NoPathError:
                continue
            nm = solve_general(g, src, dst, c)
            assert nm.hop_count <= ksp.hop_count


def test_ksp_config_validation(fig_graph, fig_constraints):
    with pytest.raises(ValueError):
        solve_ksp(fig_graph, X, Y, fig_constraints, 0)


def test_ksp_parallel_edges_follow_the_enumerator_order():
    # P = 0->1->2->4 and Q = 0->1->3->4 over a doubled 0->1; P breaks the
    # delay bound. Candidates come in (node, handle) order along the path, so
    # the second candidate is Q over handle 0, not P over handle 1.
    edges = [
        (0, 1, E((1.0,), (1.0,))),
        (0, 1, E((1.0,), (1.0,))),
        (1, 2, E((1.0,), (1.0,))),
        (1, 3, E((1.0,), (1.0,))),
        (2, 4, E((1.0,), (10.0,))),
        (3, 4, E((1.0,), (1.0,))),
    ]
    g = build_graph(5, edges, [0.0] * 5)
    c = ConstraintSet((), ((0, 5.0),))
    with pytest.raises(InfeasibleError):
        solve_ksp(g, 0, 4, c, 1)
    result = solve_ksp(g, 0, 4, c, 2)
    assert result.nodes == (0, 1, 3, 4)
    assert result.edge_handles == (0, 3, 5)
    assert solve_general(g, 0, 4, c).edge_handles == result.edge_handles


def test_ksp_unreachable(fig_graph, fig_constraints):
    g = build_graph(3, [(0, 1, E((1.0,), (1.0,)))], [0.0] * 3)
    with pytest.raises(UnreachableError):
        solve_ksp(g, 0, 2, ConstraintSet((), ()), 2)


# --- ksp's ranked-candidate cache ---------------------------------------------


def _ksp_outcome(g, src, dst, c, k):
    try:
        result = solve_ksp(g, src, dst, c, k)
    except NoPathError as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.nodes, result.edge_handles


def _random_query(rng, n):
    link = ((0, float(rng.randint(1, 9))),) if rng.random() < 0.7 else ()
    path = ((0, float(rng.randint(3, 40))),) if rng.random() < 0.7 else ()
    c = ConstraintSet(link, path, strict=rng.random() < 0.5)
    return rng.randrange(n), rng.randrange(n), c, rng.randint(1, 6)


def test_ksp_cache_answers_like_a_fresh_graph():
    # a graph warmed by earlier queries, large k first or small k first,
    # answers every query exactly as a freshly built graph does; so does an
    # overlay of a warm graph after random reservations
    rng = random.Random(90901)
    statuses = set()
    for _ in range(120):
        n, edges = random_multigraph(rng)

        def build():
            return build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)

        queries = [_random_query(rng, n) for _ in range(12)]
        # the first pair is also asked with k = 1..6 under one bound set
        src, dst, c, _k = queries[0]
        queries += [(src, dst, c, k) for k in range(1, 7)]
        for order in (-1, 1):
            warm = build()
            for q in sorted(queries, key=lambda q: order * q[3]) * 2:
                got = _ksp_outcome(warm, *q)
                assert got == _ksp_outcome(build(), *q)
                statuses.add(got[0] if got[0] == "ok" else got[1].split()[0])
        overlay, fresh_overlay = ResidualOverlay(warm), ResidualOverlay(build())
        for _ in range(rng.randint(1, 6) if edges else 0):
            e = rng.randrange(len(edges))
            cap = int(overlay.link_cols[0][e])
            if cap >= 1:
                amount = (float(rng.randint(1, cap)),)
                overlay.reserve([e], amount)
                fresh_overlay.reserve([e], amount)
        for q in queries:
            assert _ksp_outcome(overlay, *q) == _ksp_outcome(fresh_overlay, *q)
    # "none of the first k", "only n candidates exist", "no path"
    assert statuses == {"ok", "none", "only", "no"}


def test_ksp_cache_is_shared_and_skips_the_search_on_repeat(monkeypatch):
    calls = {"_iter_fixed_length_paths": 0, "_hop_distances_to": 0}
    for name in calls:
        original = getattr(baselines, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(baselines, name, counting)

    g = build_graph(4, FIG_EDGES, [10.0] * 4)
    overlay = ResidualOverlay(g)
    assert overlay.ranked_paths is g.ranked_paths
    c = ConstraintSet(((0, 5.0),), ((0, 5.0),))
    blocked = ConstraintSet((), ((0, 0.5),))

    def queries():
        # the fourth and last X->Y candidate is the answer; Y reaches nothing
        assert solve_ksp(overlay, X, Y, c, 4).nodes == (X, B, A, Y)
        with pytest.raises(InfeasibleError, match="only 4 "):
            solve_ksp(overlay, X, Y, blocked, 6)
        with pytest.raises(UnreachableError):
            solve_ksp(overlay, Y, X, c, 2)

    queries()
    assert calls["_hop_distances_to"] == 3 and calls["_iter_fixed_length_paths"] > 0
    # the overlay ranked on its base's dict: an exhausted entry per pair
    assert g.ranked_paths[(X, Y)][1] and g.ranked_paths[(Y, X)] == ((), True)
    assert len(g.ranked_paths[(X, Y)][0]) == 4
    calls.update(dict.fromkeys(calls, 0))
    queries()
    overlay = ResidualOverlay(g)
    queries()
    with pytest.raises(InfeasibleError, match="first 2 "):
        solve_ksp(g, X, Y, c, 2)
    assert calls == {"_iter_fixed_length_paths": 0, "_hop_distances_to": 0}


def test_ksp_resource_limit_repeats_and_caches_nothing_new(monkeypatch):
    # on a complete 7-node graph the 2-hop candidates 0->v->6 cost two
    # expansions each, so a limit of 6 per hop count lets the 1-hop path and
    # three 2-hop ones through and stops the search for the fifth candidate
    monkeypatch.setattr(baselines, "DEFAULT_CANDIDATE_LIMIT", 6)
    n = 7
    edges = [(u, v, E((1.0,), (1.0,))) for u in range(n) for v in range(n) if u != v]
    g = build_graph(n, edges, [0.0] * n)
    blocked = ConstraintSet((), ((0, 0.5),))  # no path fits
    assert solve_ksp(g, 0, 6, ConstraintSet((), ((0, 2.5),)), 1).nodes == (0, 6)
    with pytest.raises(InfeasibleError, match="first 4 "):
        solve_ksp(g, 0, 6, blocked, 4)
    ranked = g.ranked_paths[(0, 6)]
    assert len(ranked[0]) == 4 and not ranked[1]
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            solve_ksp(g, 0, 6, blocked, 5)
        assert g.ranked_paths[(0, 6)] is ranked
    fresh = build_graph(n, edges, [0.0] * n)
    with pytest.raises(ResourceLimitError):
        solve_ksp(fresh, 0, 6, blocked, 5)
    assert fresh.ranked_paths[(0, 6)] == ranked


# --- exhaustive search ------------------------------------------------------


def test_exhaustive_fig(fig_graph, fig_constraints):
    result = solve_exhaustive(fig_graph, X, Y, fig_constraints)
    assert result.nodes == (X, B, A, Y)
    assert result.hop_count == 3


def test_exhaustive_complete_graph_unconstrained():
    edges = []
    for u in range(5):
        for v in range(5):
            if u != v:
                edges.append((u, v, E((1.0,), (1.0,))))
    g = build_graph(5, edges, [0.0] * 5)
    result = solve_exhaustive(g, 0, 4, ConstraintSet((), ()))
    assert result.nodes == (0, 4)


def test_exhaustive_size_guard(monkeypatch):
    edges = [(i, i + 1, E((1.0,), (1.0,))) for i in range(15)]
    g = build_graph(16, edges, [0.0] * 16)
    empty = ConstraintSet((), ())
    with pytest.raises(ResourceLimitError):
        solve_exhaustive(g, 0, 15, empty)
    monkeypatch.setattr(baselines, "EXHAUSTIVE_NODE_LIMIT", 16)
    assert solve_exhaustive(g, 0, 15, empty).hop_count == 15


def test_exhaustive_matches_naive_enumeration():
    # hygiene for the oracle itself: agree with the dumbest possible
    # enumerator on statuses and hop counts
    rng = random.Random(1234)
    for _ in range(120):
        g, edges = random_instance(rng, max_nodes=8)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        expected = min_feasible_hops(g.node_count, edges, src, dst, c)
        try:
            result = solve_exhaustive(g, src, dst, c)
            assert result.hop_count == expected
            assert feasible(edges, list(result.edge_handles), c)
            # lexicographically smallest among feasible min-hop paths
            best = min(
                tuple(nodes)
                for nodes, handles in all_simple_paths(g.node_count, edges, src, dst)
                if len(nodes) - 1 == expected and feasible(edges, handles, c)
            )
            assert result.nodes == best
        except NoPathError:
            assert expected is None


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_exhaustive_survives_a_nan_or_inf_sibling(value):
    # running sums restored by subtraction stayed NaN after the 0->1 branch
    # (nan - nan, inf - inf), so the sibling 0->2->3 looked infeasible too
    edges = [
        (0, 1, E((1.0,), (value,))),
        (0, 2, E((1.0,), (1.0,))),
        (1, 3, E((1.0,), (1.0,))),
        (2, 3, E((1.0,), (1.0,))),
    ]
    g = build_graph(4, edges, [0.0] * 4)
    for strict in (True, False):
        c = ConstraintSet((), ((0, 10.0),), strict=strict)
        assert solve_exhaustive(g, 0, 3, c).nodes == (0, 2, 3)
        assert solve_general(g, 0, 3, c).nodes == (0, 2, 3)


def test_exhaustive_matches_naive_enumeration_with_nan_and_inf():
    rng = random.Random(31337)
    found = 0
    for _ in range(300):
        _g, edges = random_instance(rng, max_nodes=8, edge_prob=0.4)
        edges = [
            (u, v, E(m.link_metrics, (rng.choice((math.nan, math.inf)),)))
            if rng.random() < 0.2
            else (u, v, m)
            for u, v, m in edges
        ]
        n = _g.node_count
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        c = ConstraintSet(
            random_l1_bounds(rng).link_bounds, ((0, float(rng.randint(3, 25))),),
            strict=rng.random() < 0.5,
        )
        src, dst = rng.sample(range(n), 2)
        expected = min_feasible_hops(n, edges, src, dst, c)
        try:
            result = solve_exhaustive(g, src, dst, c)
        except NoPathError:
            assert expected is None
            continue
        assert result.hop_count == expected
        assert feasible(edges, list(result.edge_handles), c)
        best = min(
            tuple(nodes)
            for nodes, handles in all_simple_paths(n, edges, src, dst)
            if len(nodes) - 1 == expected and feasible(edges, handles, c)
        )
        assert result.nodes == best
        found += 1
    assert found > 40


def test_exhaustive_never_contradicted_by_other_solvers():
    # oracle supremacy: when the oracle says no path, nobody returns ok
    rng = random.Random(888)
    for _ in range(100):
        g, _edges = random_instance(rng, max_nodes=9)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        try:
            solve_exhaustive(g, src, dst, c)
            continue
        except NoPathError:
            pass
        for solver in (solve_l1, solve_general, solve_edijkstra):
            with pytest.raises(NoPathError):
                solver(g, src, dst, c)
