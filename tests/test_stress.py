"""Adversarial seeded suites: degenerate metrics, parallel edges, dense
graphs, boundary bounds. Everything is cross-checked against the naive
enumeration oracle."""

import random

import pytest

from oracle import feasible, min_feasible_hops
from vpembed import harness
from vpembed import (
    ConstraintSet,
    EdgeMetrics,
    NoPathError,
    ResidualOverlay,
    build_graph,
    resolve_backend,
    solve_exhaustive,
    solve_general,
    solve_l1,
)
from vpembed.topogen import resolve_constraint_severity

E = EdgeMetrics


def _instance(rng, max_nodes, edge_prob, bw_pool, delay_pool, parallel_prob=0.0):
    n = rng.randint(2, max_nodes)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < edge_prob:
                edges.append((u, v, E((rng.choice(bw_pool),), (rng.choice(delay_pool),))))
                while rng.random() < parallel_prob:
                    edges.append((u, v, E((rng.choice(bw_pool),), (rng.choice(delay_pool),))))
    return build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1), edges


def _check_l1_against_oracle(g, edges, c, src, dst):
    expected = min_feasible_hops(g.node_count, edges, src, dst, c)
    try:
        result = solve_l1(g, src, dst, c)
    except NoPathError:
        assert expected is None
        return
    assert result.hop_count == expected
    assert feasible(edges, list(result.edge_handles), c)
    assert len(set(result.nodes)) == len(result.nodes)


def test_l1_with_parallel_edges():
    rng = random.Random(60601)
    for _ in range(150):
        g, edges = _instance(
            rng, 8, 0.3, bw_pool=range(1, 10), delay_pool=range(1, 11), parallel_prob=0.4
        )
        c = ConstraintSet(((0, float(rng.randint(1, 9))),), ((0, float(rng.randint(3, 25))),))
        _check_l1_against_oracle(g, edges, c, 0, g.node_count - 1)


def test_general_with_parallel_edges():
    rng = random.Random(60602)
    for _ in range(100):
        g, edges = _instance(
            rng, 7, 0.3, bw_pool=range(1, 10), delay_pool=range(1, 11), parallel_prob=0.4
        )
        c = ConstraintSet(((0, float(rng.randint(1, 9))),), ((0, float(rng.randint(3, 25))),))
        src, dst = 0, g.node_count - 1
        expected = min_feasible_hops(g.node_count, edges, src, dst, c)
        try:
            result = solve_general(g, src, dst, c)
        except NoPathError:
            assert expected is None
            continue
        assert result.hop_count == expected
        assert feasible(edges, list(result.edge_handles), c)


def test_ksp_matches_general_on_parallel_edges():
    # without link bounds both walk the same candidates in the same order, so
    # a ksp answer is nm-general's answer, parallel-edge ties included
    rng = random.Random(60616)
    found = 0
    for _ in range(150):
        g, _edges = _instance(
            rng, 7, 0.35, bw_pool=range(1, 10), delay_pool=range(1, 11), parallel_prob=0.5
        )
        c = ConstraintSet((), ((0, float(rng.randint(2, 25))),), strict=rng.random() < 0.5)
        src, dst = 0, g.node_count - 1
        for k in range(1, 7):
            try:
                ksp = resolve_backend(f"ksp:{k}")(g, src, dst, c)
            except NoPathError:
                continue
            general = solve_general(g, src, dst, c)
            assert (ksp.nodes, ksp.edge_handles) == (general.nodes, general.edge_handles)
            found += 1
    assert found > 100


def test_l1_with_zero_delays_and_ties():
    rng = random.Random(60603)
    for _ in range(200):
        g, edges = _instance(rng, 9, 0.35, bw_pool=range(1, 4), delay_pool=(0, 0, 1, 2))
        c = ConstraintSet(((0, float(rng.randint(1, 3))),), ((0, float(rng.randint(1, 8))),))
        _check_l1_against_oracle(g, edges, c, 0, g.node_count - 1)


def test_l1_with_float_metrics_and_tight_bounds():
    rng = random.Random(60604)
    for _ in range(200):
        n = rng.randint(2, 9)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    edges.append((u, v, E((rng.uniform(0, 10),), (rng.uniform(0, 10),))))
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        c = ConstraintSet(((0, rng.uniform(0, 10)),), ((0, rng.uniform(0, 30)),))
        _check_l1_against_oracle(g, edges, c, 0, n - 1)


def test_l1_dense_graphs():
    rng = random.Random(60605)
    for _ in range(60):
        g, edges = _instance(rng, 7, 0.8, bw_pool=range(1, 10), delay_pool=range(1, 11))
        c = ConstraintSet(((0, float(rng.randint(1, 9))),), ((0, float(rng.randint(3, 25))),))
        _check_l1_against_oracle(g, edges, c, 0, g.node_count - 1)


def test_l1_multiple_link_bounds():
    rng = random.Random(60606)
    for _ in range(150):
        n = rng.randint(2, 8)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    edges.append(
                        (u, v, E((float(rng.randint(1, 9)), float(rng.randint(1, 5))),
                                 (float(rng.randint(1, 10)),)))
                    )
        g = build_graph(n, edges, [0.0] * n, link_arity=2, path_arity=1)
        c = ConstraintSet(
            ((0, float(rng.randint(1, 9))), (1, float(rng.randint(1, 5)))),
            ((0, float(rng.randint(3, 25))),),
        )
        _check_l1_against_oracle(g, edges, c, 0, n - 1)


def test_l1_no_link_bounds():
    rng = random.Random(60607)
    for _ in range(100):
        g, edges = _instance(rng, 9, 0.35, bw_pool=range(1, 10), delay_pool=range(1, 11))
        c = ConstraintSet((), ((0, float(rng.randint(3, 25))),))
        _check_l1_against_oracle(g, edges, c, 0, g.node_count - 1)


def test_non_strict_mode_matches_oracle():
    # exact boundary hits are common with integer metrics, so <= vs < matters
    rng = random.Random(60608)
    for _ in range(200):
        g, edges = _instance(rng, 8, 0.35, bw_pool=range(1, 10), delay_pool=range(1, 6))
        bound = float(rng.randint(2, 12))
        for strict in (True, False):
            c = ConstraintSet(((0, float(rng.randint(1, 9))),), ((0, bound),), strict=strict)
            _check_l1_against_oracle(g, edges, c, 0, g.node_count - 1)


def test_general_with_negative_metrics():
    # candidates are validated on complete sums, so the general solver stays
    # exact when some path metrics are negative (no negative cycles drawn
    # here: all cycles get positive totals by construction)
    rng = random.Random(60609)
    for _ in range(100):
        n = rng.randint(3, 7)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    # forward edges may dip negative, back edges stay large
                    w = rng.uniform(-2, 6) if u < v else rng.uniform(4, 8)
                    edges.append((u, v, E((float(rng.randint(1, 9)),), (w,))))
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
        c = ConstraintSet(((0, float(rng.randint(1, 6))),), ((0, rng.uniform(1, 15)),))
        src, dst = 0, n - 1
        expected = min_feasible_hops(n, edges, src, dst, c)
        try:
            result = solve_general(g, src, dst, c)
        except NoPathError:
            assert expected is None
            continue
        assert result.hop_count == expected
        assert feasible(edges, list(result.edge_handles), c)


def test_general_pruning_differential():
    # the remaining-cost pruning must never change an answer: compare against
    # a run with pruning structurally disabled by a spurious negative metric
    rng = random.Random(60610)
    for _ in range(80):
        n = rng.randint(3, 8)
        base_edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    base_edges.append(
                        (u, v, E((float(rng.randint(1, 9)),),
                                 (float(rng.randint(1, 10)), 0.0)))
                    )
        if not base_edges:
            continue
        pruned_g = build_graph(n, base_edges, [0.0] * n, link_arity=1, path_arity=2)
        # same graph, second metric column carries one negative value, which
        # turns pruning off for it while bound inf keeps it irrelevant
        noprune_edges = [
            (u, v, E(m.link_metrics, (m.path_metrics[0], -1.0)))
            for u, v, m in base_edges
        ]
        noprune_g = build_graph(n, noprune_edges, [0.0] * n, link_arity=1, path_arity=2)
        c = ConstraintSet(
            ((0, float(rng.randint(1, 9))),),
            ((0, float(rng.randint(3, 25))), (1, float("inf"))),
        )
        outcomes = []
        for graph in (pruned_g, noprune_g):
            try:
                outcomes.append(solve_general(graph, 0, n - 1, c).nodes)
            except NoPathError as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1]


def test_solvers_do_not_mutate_the_graph():
    rng = random.Random(60611)
    g, edges = _instance(rng, 10, 0.4, bw_pool=range(1, 10), delay_pool=range(1, 11))
    snapshot_links = [col.copy() for col in g.link_cols]
    snapshot_paths = [col.copy() for col in g.path_cols]
    c = ConstraintSet(((0, 3.0),), ((0, 20.0),))
    for solver in (solve_l1, solve_general, solve_exhaustive):
        try:
            solver(g, 0, g.node_count - 1, c)
        except NoPathError:
            pass
    assert g.link_cols == snapshot_links
    assert g.path_cols == snapshot_paths


def test_overlay_and_equivalent_graph_agree():
    # solving against a reserved overlay equals solving a graph built with
    # the residual metrics baked in
    rng = random.Random(60612)
    for _ in range(40):
        g, edges = _instance(rng, 8, 0.5, bw_pool=range(2, 10), delay_pool=range(1, 6))
        overlay = ResidualOverlay(g)
        for e in rng.sample(range(g.edge_count), k=min(4, g.edge_count)):
            amount = min(1.0, overlay.link_cols[0][e])
            overlay.reserve([e], (amount,))
        rebuilt_edges = [
            (u, v, E((overlay.link_cols[0][i],), m.path_metrics))
            for i, (u, v, m) in enumerate(g.edges)
        ]
        rebuilt = build_graph(g.node_count, rebuilt_edges, g.node_capacity)
        c = ConstraintSet(((0, 2.0),), ((0, 12.0),))
        src, dst = 0, g.node_count - 1
        for solver in (solve_l1, solve_general):
            a = b = None
            try:
                a = solver(overlay, src, dst, c).nodes
            except NoPathError as exc:
                a = type(exc).__name__
            try:
                b = solver(rebuilt, src, dst, c).nodes
            except NoPathError as exc:
                b = type(exc).__name__
            assert a == b


def _outcome(solver, g, src, dst, c):
    try:
        return solver(g, src, dst, c)
    except NoPathError as exc:
        return exc.status


def test_solvers_match_oracle_on_residual_overlays():
    # queries mid-run see a residual graph: the sweep solvers must still
    # agree with exhaustive search on it, and ksp may only return paths that
    # are feasible on the residual metrics
    rng = random.Random(60615)
    nm_l1, nm_general, ksp3 = (resolve_backend(b) for b in ("nm-l1", "nm-general", "ksp:3"))
    found = 0
    for _ in range(200):
        g, _edges = _instance(rng, 10, 0.4, bw_pool=range(1, 10), delay_pool=range(1, 11))
        overlay = ResidualOverlay(g)
        for _ in range(rng.randint(1, 6)):
            e = rng.randrange(g.edge_count) if g.edge_count else None
            if e is not None and overlay.link_cols[0][e] >= 1.0:
                overlay.reserve([e], (float(rng.randint(1, int(overlay.link_cols[0][e]))),))
        residual_edges = [
            (u, v, E((overlay.link_cols[0][i],), m.path_metrics))
            for i, (u, v, m) in enumerate(g.edges)
        ]
        c = ConstraintSet(((0, float(rng.randint(1, 6))),), ((0, float(rng.randint(3, 25))),))
        src, dst = rng.sample(range(g.node_count), 2)
        oracle = _outcome(solve_exhaustive, overlay, src, dst, c)
        oracle_hops = oracle if isinstance(oracle, str) else oracle.hop_count
        for solver in (nm_l1, nm_general):
            got = _outcome(solver, overlay, src, dst, c)
            assert (got if isinstance(got, str) else got.hop_count) == oracle_hops
        got = _outcome(ksp3, overlay, src, dst, c)
        if not isinstance(got, str):
            assert feasible(residual_edges, list(got.edge_handles), c)
            assert isinstance(oracle_hops, int) and got.hop_count >= oracle_hops
            found += 1
    assert found > 20


def test_solvers_match_oracle_on_steering_snapshots(monkeypatch):
    # overlays captured mid-steering carry whole paths reserved by
    # run_steering, a pattern the single-edge reservations above never make
    snapshots = []
    resolve = harness.resolve_backend

    def recording(name):
        solver = resolve(name)

        def solve(overlay, src, dst, c):
            cols = [col.copy() for col in overlay.link_cols]
            if cols != overlay.base.link_cols:
                snapshots.append((overlay.base, cols, src, dst, c))
            return solver(overlay, src, dst, c)

        return solve

    monkeypatch.setattr(harness, "resolve_backend", recording)
    rng = random.Random(60616)
    while len(snapshots) < 200:
        g, _edges = _instance(rng, 10, 0.4, bw_pool=range(1, 10), delay_pool=range(1, 11))
        c = ConstraintSet(((0, float(rng.randint(1, 4))),), ((0, float(rng.randint(5, 25))),))
        backend = rng.choice(("nm-l1", "nm-general", "edijkstra"))
        pairs = min(4, g.node_count * (g.node_count - 1))
        harness.run_steering(g, pairs, c, backend, seed=rng.randrange(2**31))

    for g, cols, src, dst, c in snapshots:
        overlay = ResidualOverlay(g)
        overlay.link_cols = cols
        oracle = _outcome(solve_exhaustive, overlay, src, dst, c)
        oracle_hops = oracle if isinstance(oracle, str) else oracle.hop_count
        for solver in (solve_l1, solve_general):
            got = _outcome(solver, overlay, src, dst, c)
            assert (got if isinstance(got, str) else got.hop_count) == oracle_hops


def test_src_dst_roles_random():
    # querying arbitrary endpoint pairs, not just corner ids
    rng = random.Random(60613)
    for _ in range(150):
        g, edges = _instance(rng, 9, 0.35, bw_pool=range(1, 10), delay_pool=range(1, 11))
        src = rng.randrange(g.node_count)
        dst = rng.randrange(g.node_count)
        c = ConstraintSet(((0, float(rng.randint(1, 9))),), ((0, float(rng.randint(3, 25))),))
        if src == dst:
            assert solve_l1(g, src, dst, c).hop_count == 0
            continue
        _check_l1_against_oracle(g, edges, c, src, dst)


def test_steering_like_repeated_reservation_stays_consistent():
    # emulate the steering loop at small scale and re-verify every path
    # against the residual state it was granted under
    rng = random.Random(60614)
    g, _ = _instance(rng, 10, 0.6, bw_pool=range(3, 10), delay_pool=range(1, 5))
    overlay = ResidualOverlay(g)
    c = ConstraintSet(((0, 2.0),), ((0, 10.0),))
    granted = 0
    while granted < 50:
        try:
            path = solve_l1(overlay, 0, g.node_count - 1, c)
        except NoPathError:
            break
        for e in path.edge_handles:
            assert overlay.link_cols[0][e] >= 2.0 - 1e-9
        overlay.reserve(path, (2.0,))
        granted += 1
    # all residuals within [0, base]
    for e in range(g.edge_count):
        assert -1e-9 <= overlay.link_cols[0][e] <= g.link_cols[0][e] + 1e-9
