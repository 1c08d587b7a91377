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
from oracle import (
    all_simple_paths,
    edijkstra_reference,
    feasible,
    min_feasible_hops,
    path_metrics,
    reachable,
    reference_outcome,
)
from vpembed import baselines, harness, neighborhoods
from vpembed import (
    ConstraintSet,
    ResidualOverlay,
    build_graph,
    EdgeMetrics,
    GenSpec,
    InfeasibleError,
    NegativeMetricError,
    NoPathError,
    ResourceLimitError,
    UnreachableError,
    generate,
    resolve_constraint_severity,
    run_steering,
    solve_edijkstra,
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


# --- edijkstra's delay floor against the plain Dijkstra -----------------------

# delay pools: integers with 0 (exact ties on sum, hops and node sequence),
# and floats whose sums absorb the small ones next to 1e16
DELAY_POOLS = ((0.0, 1.0, 2.0, 3.0), (1e16, 1.0, 0.1, 1e-9))
PATH_BOUNDS = {
    DELAY_POOLS[0]: (0.0, 2.0, 4.0, 7.0, math.inf),
    DELAY_POOLS[1]: (1e-9, 1.1, 1e16, 2e16, 3e16, math.inf),
}


def _delay_graph(rng, n):
    """≤ n-node multigraph with bandwidth 1..6 and delays from one pool,
    plus an occasional NaN or +inf delay."""
    pool = rng.choice(DELAY_POOLS)

    def edge(u, v):
        odd = rng.random()
        delay = math.nan if odd < 0.03 else math.inf if odd < 0.06 else rng.choice(pool)
        return u, v, E((float(rng.randint(1, 6)),), (delay,))

    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.3:
                edges.append(edge(u, v))
                while rng.random() < 0.4:
                    edges.append(edge(u, v))
    return pool, edges


def _scanned(g, c):
    return bytearray(
        all(g.link_cols[j][e] >= bound for j, bound in c.link_bounds)
        for e in range(g.edge_count)
    )


def _outcome(run):
    try:
        result = run()
    except NoPathError as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.nodes, result.edge_handles, result.accumulated, result.min_link_metrics


def test_edijkstra_floor_answers_like_the_plain_dijkstra():
    # random overlays through reserve and release sequences, so floors are
    # both reused and rebuilt; every query is solved by solve_edijkstra and
    # by the unguided reference on the overlay's current mask
    rng = random.Random(8128)
    statuses = {}
    reused = built = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        pool, edges = _delay_graph(rng, n)
        if not edges:
            continue
        overlay = ResidualOverlay(build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1))
        bounds = [
            ConstraintSet(
                ((0, float(rng.randint(1, 4))),) if rng.random() < 0.8 else (),
                ((0, rng.choice(PATH_BOUNDS[pool])),),
                strict=rng.random() < 0.5,
            )
            for _ in range(2)
        ]
        outstanding = []
        dst = rng.randrange(n)
        for _ in range(30):
            roll = rng.random()
            if roll < 0.15 and outstanding:
                overlay.release(*outstanding.pop(rng.randrange(len(outstanding))))
                continue
            if roll < 0.3:
                handles = rng.sample(range(len(edges)), rng.randint(1, min(3, len(edges))))
                room = int(min(overlay.link_cols[0][e] for e in handles))
                if room >= 1:
                    demand = (float(rng.randint(1, room)),)
                    overlay.reserve(handles, demand)
                    outstanding.append((handles, demand))
                continue
            # most queries go to the last dst, so its floor is reused
            if rng.random() < 0.3:
                dst = rng.randrange(n)
            src = rng.choice([v for v in range(n) if v != dst])
            c = rng.choice(bounds)
            memo = overlay.mask_memo
            before = memo[3] if memo is not None and memo[0] == c.link_bounds else None
            mask = _scanned(overlay, c)
            want = _outcome(lambda: edijkstra_reference(overlay, src, dst, c, mask))
            got = _outcome(lambda: solve_edijkstra(overlay, src, dst, c))
            assert got == want, (n, edges, src, dst, c)
            statuses[got[0]] = statuses.get(got[0], 0) + 1
            after = overlay.mask_memo[3]
            if after is not None and after is before:
                reused += 1
            elif after is not None:
                built += 1
            if got[0] == "ok" and got[2] and rng.random() < 0.6:
                # steering: reserve on the path found, then ask again
                room = int(min(overlay.link_cols[0][e] for e in got[2]))
                if room >= 1:
                    demand = (float(rng.randint(1, room)),)
                    overlay.reserve(got[2], demand)
                    outstanding.append((got[2], demand))
    assert min(statuses.get(s, 0) for s in ("ok", "InfeasibleError", "UnreachableError")) > 50
    assert reused > 300 and built > 300


def _record_passes(monkeypatch):
    """Wrap baselines._guided_pass so that each pass appends (depth, floor)
    to the list returned: depth 0 for the pass a search runs, 1 for a
    rerun that pass ends in, and so on."""
    passes = []
    running = []
    guided = baselines._guided_pass

    def recording(g, wcol, usable, floor, src, dst):
        passes.append((len(running), list(floor)))
        running.append(dst)
        try:
            return guided(g, wcol, usable, floor, src, dst)
        finally:
            running.pop()

    monkeypatch.setattr(baselines, "_guided_pass", recording)
    return passes


def test_edijkstra_floor_that_is_not_consistent_answers_like_the_plain_dijkstra(monkeypatch):
    # the test above again, with every floor built scaled by a random factor
    # per node in [0, 1]: still a lower bound, but no longer consistent, so
    # the A* pass expands nodes before their final label and must rerun on
    # a zero floor
    rng = random.Random(1)
    build = baselines._floor_to

    def scaled_floor(g, p_idx, dst, src, usable):
        floor = build(g, p_idx, dst, src, usable)
        floor[:] = [
            x * rng.choice((0.0, 1.0, rng.random())) if x < math.inf else x for x in floor
        ]
        return floor

    monkeypatch.setattr(baselines, "_floor_to", scaled_floor)
    passes = _record_passes(monkeypatch)
    test_edijkstra_floor_answers_like_the_plain_dijkstra()
    assert sum(depth > 0 and not any(floor) for depth, floor in passes) > 50


def test_edijkstra_reruns_at_most_once_and_on_a_zero_floor(monkeypatch):
    # the inconsistent floors above again, with the passes of each search
    # told apart: a search runs one pass, and a rerun once more
    starts = []
    search = baselines._search_edijkstra

    def searching(*args):
        starts.append(len(passes))
        return search(*args)

    monkeypatch.setattr(baselines, "_search_edijkstra", searching)
    passes = _record_passes(monkeypatch)
    test_edijkstra_floor_that_is_not_consistent_answers_like_the_plain_dijkstra(monkeypatch)
    ends = starts[1:] + [len(passes)]
    assert max(end - start for start, end in zip(starts, ends)) == 2
    for start, end in zip(starts, ends):
        assert not any(any(floor) for _depth, floor in passes[start + 1:end])


def test_edijkstra_steering_substrate_runs_no_zero_floor_pass(monkeypatch):
    # the 200-node substrate of the steering test below: its reverse
    # Dijkstra floors are consistent up to rounding, so no pass reruns; a
    # floor change that made them rerun would double the cost of a search
    passes = _record_passes(monkeypatch)
    g = generate(GenSpec(node_count=200, target_avg_degree=4.0, seed=11))
    for delay_level in ("high", "low"):
        c = resolve_constraint_severity(g, "low", delay_level)
        run_steering(g, 20, c, "edijkstra", seed=3)
    assert len(passes) > 100
    assert all(depth == 0 for depth, _floor in passes)


def test_edijkstra_reopened_node_answers_like_the_plain_dijkstra(monkeypatch):
    # s=0 reaches z=1 by one 0.1 edge and by three 0 edges through a=4 and
    # b=5, and u=3 by 0.1 then 0 through c=2; v=6 hangs off z and u by 1e16
    # edges, which absorb every smaller sum. The floor, 1e16 at a and 0
    # elsewhere, is a lower bound, but it sends the pass through z on its
    # one-hop label first: v takes (1e16, 2) from z and turns down u's
    # (1e16, 3). When z's three-hop label arrives, v's label through z
    # becomes (1e16, 4): v's label through u, which is expanded and never
    # offers again, is the plain Dijkstra's, and the pass must find it
    s, z, c, u, a, b, v, t = range(8)
    edges = [
        (s, z, E((5.0,), (0.1,))),
        (s, a, E((5.0,), (0.0,))),
        (s, c, E((5.0,), (0.1,))),
        (c, u, E((5.0,), (0.0,))),
        (u, v, E((5.0,), (1e16,))),
        (z, v, E((5.0,), (1e16,))),
        (a, b, E((5.0,), (0.0,))),
        (b, z, E((5.0,), (0.0,))),
        (v, t, E((5.0,), (0.0,))),
    ]
    g = build_graph(8, edges, [0.0] * 8)
    floor = [0.0] * 8
    floor[a] = 1e16
    monkeypatch.setattr(baselines, "_floor_to", lambda *args: floor)
    c1 = ConstraintSet(((0, 1.0),), ((0, math.inf),))
    want = edijkstra_reference(g, s, t, c1, _scanned(g, c1))
    assert want.nodes == (s, c, u, v, t)
    assert solve_edijkstra(g, s, t, c1).nodes == want.nodes


def test_edijkstra_cap_margin_keeps_a_route_whose_key_rounds_above_the_cap():
    # 0 -> 1 -> 2 -> 3 by 0.3, 0.2, 0.1 folds to 0.6 from 0, but at 1 the
    # key is 0.3 plus the floor 0.2 + 0.1 = 0.30000000000000004, which rounds
    # one ulp above 0.6. The four-hop route by 0.05, 0.05, 0.15, 0.35 folds
    # to 0.6 too, with keys of at most 0.6, so it labels 3 first and sets
    # the cap; the three-hop route wins the tie on hops only if the cap's
    # margin lets 1's key through
    delays = [(0, 1, 0.3), (1, 2, 0.2), (2, 3, 0.1),
              (0, 4, 0.05), (4, 5, 0.05), (5, 6, 0.15), (6, 3, 0.35)]
    g = build_graph(7, [(u, v, E((5.0,), (d,))) for u, v, d in delays], [0.0] * 7)
    c = ConstraintSet(((0, 1.0),), ((0, math.inf),))
    want = edijkstra_reference(g, 0, 3, c, _scanned(g, c))
    assert want.nodes == (0, 1, 2, 3)
    assert solve_edijkstra(g, 0, 3, c).nodes == want.nodes


@pytest.mark.parametrize("delay_level", ["high", "low"])
def test_steering_on_edijkstra_allocates_like_the_plain_dijkstra(monkeypatch, delay_level):
    g = generate(GenSpec(node_count=200, target_avg_degree=4.0, seed=11))
    c = resolve_constraint_severity(g, "low", delay_level)
    got = run_steering(g, 20, c, "edijkstra", seed=3)
    monkeypatch.setattr(
        harness,
        "resolve_backend",
        lambda _name: lambda g, src, dst, c: edijkstra_reference(g, src, dst, c, _scanned(g, c)),
    )
    want = run_steering(g, 20, c, "edijkstra", seed=3)
    assert got.vl_count >= 15
    assert [(u, v, p.edge_handles) for u, v, p in got.allocations] == [
        (u, v, p.edge_handles) for u, v, p in want.allocations
    ]


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


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_edijkstra_src_with_an_infinite_floor_runs_no_guided_pass(monkeypatch, value):
    # no route from 0 has a finite sum, so the delay floor of 0 is +inf and
    # the verdict comes from _no_path (or nm-l1's sweep under <= inf) with
    # no A* pass
    passes = []
    original = baselines._guided_pass

    def counting(*args):
        passes.append(args)
        return original(*args)

    monkeypatch.setattr(baselines, "_guided_pass", counting)
    g = build_graph(3, [(0, 1, E((5.0,), (value,))), (1, 2, E((5.0,), (1.0,)))], [0.0] * 3)
    outcomes = {}
    for bw in (1.0, 6.0):
        for strict, bound in ((True, 10.0), (False, math.inf)):
            c = ConstraintSet(((0, bw),), ((0, bound),), strict=strict)
            try:
                outcome = solve_edijkstra(g, 0, 2, c).nodes
            except NoPathError as exc:
                outcome = exc.status
            outcomes[bw, bound] = outcome
    # a +inf sum meets <= inf, a NaN sum meets no bound
    assert outcomes == {
        (1.0, 10.0): "infeasible",
        (1.0, math.inf): (0, 1, 2) if value == math.inf else "infeasible",
        (6.0, 10.0): "unreachable",
        (6.0, math.inf): "unreachable",
    }
    assert passes == []


def test_edijkstra_kept_floor_after_dst_is_cut_off_runs_no_guided_pass(monkeypatch):
    # 0->1->3 and 2->3: the first query keeps a floor finite at 0; a
    # reservation then prunes 0->1, so dst still has usable in-edges but
    # no route from 0. The re-solve reuses the kept floor and must get its
    # verdict from the hop horizon, with no A* pass
    passes = []
    original = baselines._guided_pass

    def counting(*args):
        passes.append(args)
        return original(*args)

    monkeypatch.setattr(baselines, "_guided_pass", counting)
    edges = [
        (0, 1, E((5.0,), (1.0,))),
        (1, 3, E((5.0,), (1.0,))),
        (2, 3, E((5.0,), (1.0,))),
    ]
    overlay = ResidualOverlay(build_graph(4, edges, [0.0] * 4))
    c = ConstraintSet(((0, 3.0),), ((0, 10.0),))
    assert solve_edijkstra(overlay, 0, 3, c).nodes == (0, 1, 3)
    assert len(passes) == 1
    kept = overlay.mask_memo[3]
    assert kept[0] == (0, 3) and kept[1][0] == 2.0
    overlay.reserve([0], (3.0,))
    for strict, bound in ((True, 10.0), (False, math.inf)):
        with pytest.raises(UnreachableError):
            solve_edijkstra(overlay, 0, 3, ConstraintSet(((0, 3.0),), ((0, bound),), strict))
    assert overlay.mask_memo[3] is kept
    assert len(passes) == 1
    # a dst with no usable in-edge is refused before any pass, too
    overlay.reserve([1, 2], (3.0,))
    with pytest.raises(UnreachableError):
        solve_edijkstra(overlay, 2, 3, c)
    assert len(passes) == 1


def test_edijkstra_takes_the_hop_horizon_once_when_no_route_has_a_finite_sum(monkeypatch):
    # 0->1->3 by 1 each, and 0->2->3 by 1 then inf. The first query keeps a
    # floor finite at 0; a reservation then prunes 0->1, so the re-solve
    # reuses it, and its pass labels 3 with no finite sum. The verdict comes
    # from the hop horizon the search opened with, not from a second one
    horizons = []
    original = neighborhoods._hop_horizon

    def counting(*args):
        horizons.append(args)
        return original(*args)

    # baselines binds the name itself, so both bindings are counted
    monkeypatch.setattr(baselines, "_hop_horizon", counting)
    monkeypatch.setattr(neighborhoods, "_hop_horizon", counting)
    edges = [
        (0, 1, E((5.0,), (1.0,))),
        (1, 3, E((5.0,), (1.0,))),
        (0, 2, E((5.0,), (1.0,))),
        (2, 3, E((5.0,), (math.inf,))),
    ]
    overlay = ResidualOverlay(build_graph(4, edges, [0.0] * 4))
    c = ConstraintSet(((0, 3.0),), ((0, 10.0),))
    assert solve_edijkstra(overlay, 0, 3, c).nodes == (0, 1, 3)
    kept = overlay.mask_memo[3]
    overlay.reserve([0], (3.0,))
    horizons.clear()
    with pytest.raises(InfeasibleError):
        solve_edijkstra(overlay, 0, 3, c)
    assert overlay.mask_memo[3] is kept
    assert len(horizons) == 1
    # under <= inf the same pass hands the query to nm-l1's sweeps, which
    # take the horizon the search opened with, too
    horizons.clear()
    c_inf = ConstraintSet(((0, 3.0),), ((0, math.inf),), strict=False)
    assert solve_edijkstra(overlay, 0, 3, c_inf).nodes == (0, 2, 3)
    assert overlay.mask_memo[3] is kept
    assert len(horizons) == 1


# every solver, ksp with a k past any candidate count (so it is exact)
INF_BOUND_SOLVERS = {
    "nm-l1": solve_l1,
    "nm-general": solve_general,
    "edijkstra": solve_edijkstra,
    "ksp": lambda g, src, dst, c: solve_ksp(g, src, dst, c, 10**6),
}


def _inf_bound_outcomes(n, edges, src, dst, c):
    """Each solver's (status, hop count) next to the brute-force oracle's:
    the least hop count among feasible paths, else unreachable when the
    link bounds cut dst off (on the bare topology for ksp, which ranks
    before it prunes), else infeasible. edijkstra minimizes the sum, not
    hops, so its hop count is compared only on a route with no finite sum,
    which it picks by least hops."""
    g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1)
    oracle = reference_outcome(n, edges, src, dst, c)
    hops = oracle if isinstance(oracle, int) else None
    for name, solver in INF_BOUND_SOLVERS.items():
        try:
            result = solver(g, src, dst, c)
        except NoPathError as exc:
            got = (exc.status, None)
        else:
            assert feasible(edges, list(result.edge_handles), c), name
            got = ("ok", result.hop_count)
            if name == "edijkstra" and math.isfinite(result.accumulated[0]):
                got = ("ok", hops)
        if hops is not None:
            want = ("ok", hops)
        elif name == "ksp":
            want = ("infeasible" if reachable(n, edges, src, dst) else "unreachable", None)
        else:
            want = (oracle, None)
        assert got == want, (name, c.strict)
    return hops


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
def test_an_infinite_path_bound_gets_the_oracle_verdict_from_every_solver(strict, monkeypatch):
    # under "<= inf" a +inf sum is feasible and only a NaN sum is not; under
    # "< inf" both are rejected. nm-l1's sweep offers a +inf sum only under
    # "<= inf", and edijkstra's Dijkstra never does, so both must still
    # agree with the oracle. Both stay polynomial: nm-l1 answers by its own
    # sweep, and edijkstra hands a route with no finite sum to that sweep, so
    # neither calls nm-general's search or the candidate enumerator
    polynomial = ("nm-l1", "edijkstra")
    calls = {(solver, name): 0 for solver in polynomial
             for name in ("_search_general", "_iter_fixed_length_paths")}
    running = [None]
    for module in (neighborhoods, baselines):
        for name in ("_search_general", "_iter_fixed_length_paths"):
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original):
                if running[0] is not None:
                    calls[running[0], _name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counting)

    for solver in polynomial:
        def tracked(g, src, dst, c, _solver=solver, _original=INF_BOUND_SOLVERS[solver]):
            running[0] = _solver
            try:
                return _original(g, src, dst, c)
            finally:
                running[0] = None

        monkeypatch.setitem(INF_BOUND_SOLVERS, solver, tracked)
    c = ConstraintSet((), ((0, math.inf),), strict=strict)
    direct = [(0, 1, E((5.0,), (1.0,))), (1, 2, E((5.0,), (1.0,))), (0, 2, E((5.0,), (math.inf,)))]
    assert _inf_bound_outcomes(3, direct, 0, 2, c) == (2 if strict else 1)
    only_inf = [(0, 1, E((5.0,), (math.inf,))), (1, 2, E((5.0,), (1.0,)))]
    assert _inf_bound_outcomes(3, only_inf, 0, 2, c) == (None if strict else 2)
    rng = random.Random(4242 + strict)
    seen = set()
    for _ in range(250):
        _g, edges = random_instance(rng, max_nodes=9, edge_prob=0.35)
        edges = [
            (u, v, E(m.link_metrics, (rng.choice((math.inf, math.nan)),)))
            if rng.random() < 0.25 else (u, v, m)
            for u, v, m in edges
        ]
        link = ((0, float(rng.randint(1, 9))),) if rng.random() < 0.5 else ()
        bound = ConstraintSet(link, ((0, math.inf),), strict=strict)
        src, dst = rng.sample(range(_g.node_count), 2)
        hops = _inf_bound_outcomes(_g.node_count, edges, src, dst, bound)
        seen.add("no path" if hops is None else "ok")
    assert seen == {"ok", "no path"}
    assert calls == dict.fromkeys(calls, 0)


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
    calls = {"_iter_fixed_length_paths": 0, "_hop_horizon": 0}
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
    assert calls["_hop_horizon"] == 3 and calls["_iter_fixed_length_paths"] > 0
    # the overlay ranked on its base's dict: an exhausted entry per pair
    assert g.ranked_paths[(X, Y)][1] and g.ranked_paths[(Y, X)] == ((), True)
    assert len(g.ranked_paths[(X, Y)][0]) == 4
    calls.update(dict.fromkeys(calls, 0))
    queries()
    overlay = ResidualOverlay(g)
    queries()
    with pytest.raises(InfeasibleError, match="first 2 "):
        solve_ksp(g, X, Y, c, 2)
    assert calls == {"_iter_fixed_length_paths": 0, "_hop_horizon": 0}


def test_ksp_resource_limit_repeats_and_caches_nothing_new(monkeypatch):
    # on a complete 7-node graph the 2-hop candidates 0->v->6 cost two
    # expansions each, so a limit of 6 per hop count lets the 1-hop path and
    # three 2-hop ones through and stops the search for the fifth candidate
    monkeypatch.setattr(neighborhoods, "DEFAULT_CANDIDATE_LIMIT", 6)
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


# --- against the brute-force oracle ----------------------------------------


def _naive_least_path(n, edges, src, dst, c, hops):
    """The lexicographically least feasible path of hops hops, by brute force."""
    return min(
        tuple(nodes)
        for nodes, handles in all_simple_paths(n, edges, src, dst)
        if len(nodes) - 1 == hops and feasible(edges, handles, c)
    )


def test_general_matches_naive_enumeration():
    # nm-general returns the lexicographically first feasible min-hop path:
    # agree with the dumbest possible enumerator on statuses, hop counts
    # and node sequences
    rng = random.Random(1234)
    for _ in range(120):
        g, edges = random_instance(rng, max_nodes=8)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        expected = min_feasible_hops(g.node_count, edges, src, dst, c)
        try:
            result = solve_general(g, src, dst, c)
            assert result.hop_count == expected
            assert feasible(edges, list(result.edge_handles), c)
            assert result.nodes == _naive_least_path(g.node_count, edges, src, dst, c, expected)
        except NoPathError:
            assert expected is None


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_general_survives_a_nan_or_inf_sibling(value):
    # the NaN or inf that the 0->1 branch adds to the running sum must not
    # stay behind to make the sibling 0->2->3 look infeasible too
    edges = [
        (0, 1, E((1.0,), (value,))),
        (0, 2, E((1.0,), (1.0,))),
        (1, 3, E((1.0,), (1.0,))),
        (2, 3, E((1.0,), (1.0,))),
    ]
    g = build_graph(4, edges, [0.0] * 4)
    for strict in (True, False):
        c = ConstraintSet((), ((0, 10.0),), strict=strict)
        assert solve_general(g, 0, 3, c).nodes == (0, 2, 3)


def test_general_matches_naive_enumeration_with_nan_and_inf():
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
            result = solve_general(g, src, dst, c)
        except NoPathError:
            assert expected is None
            continue
        assert result.hop_count == expected
        assert feasible(edges, list(result.edge_handles), c)
        assert result.nodes == _naive_least_path(n, edges, src, dst, c, expected)
        found += 1
    assert found > 40


def test_no_solver_finds_a_path_the_oracle_rules_out():
    # oracle supremacy: when the brute force finds no path, nobody returns ok
    rng = random.Random(888)
    for _ in range(100):
        g, edges = random_instance(rng, max_nodes=9)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        if isinstance(reference_outcome(g.node_count, edges, src, dst, c), int):
            continue
        for solver in (solve_l1, solve_general, solve_edijkstra):
            with pytest.raises(NoPathError):
                solver(g, src, dst, c)
