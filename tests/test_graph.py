import heapq
import math
import random

import pytest

from conftest import A, B, FIG_EDGES, X, Y, random_multigraph
from vpembed import baselines, neighborhoods
from vpembed import (
    ArityMismatchError,
    ConstraintSet,
    EdgeMetrics,
    GenSpec,
    InsufficientResidualError,
    NoPathError,
    OverReleaseError,
    PathResult,
    PhysicalGraph,
    ResidualOverlay,
    SelfLoopError,
    UnreachableError,
    build_graph,
    generate,
    harness,
    resolve_constraint_severity,
    run_steering,
    solve_edijkstra,
    solve_general,
    solve_l1,
)
from vpembed.neighborhoods import _usable_mask

E = EdgeMetrics


def test_two_node_graph_adjacency():
    g = build_graph(2, [(0, 1, E((5.0,), (5.0,)))], [1.0, 1.0])
    assert g.adjacency[0] == [(1, 0)]
    assert g.adjacency[1] == []
    assert g.in_adjacency[1] == [(0, 0)]


def test_single_node_no_edges():
    g = build_graph(1, [], [3.0])
    assert g.adjacency == [[]]
    assert g.edge_count == 0


def test_fig_instance_accepted(fig_graph):
    assert fig_graph.node_count == 4
    assert fig_graph.edge_count == 6
    # handle order preserves input order
    assert fig_graph.edges[5][0:2] == (2, 3)


def test_adjacency_sorted_and_deterministic():
    edges = [
        (0, 3, E((1.0,), (1.0,))),
        (0, 1, E((2.0,), (1.0,))),
        (0, 2, E((3.0,), (1.0,))),
        (0, 1, E((4.0,), (1.0,))),  # parallel edge, later handle
    ]
    g1 = build_graph(4, edges, [0.0] * 4)
    g2 = build_graph(4, list(edges), [0.0] * 4)
    assert g1.adjacency[0] == [(1, 1), (1, 3), (2, 2), (3, 0)]
    assert g1.adjacency[0] == g2.adjacency[0]


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(1, 1, E((1.0,), (1.0,)))], [0.0, 0.0])


def test_out_of_range_rejected():
    with pytest.raises(IndexError):
        build_graph(2, [(0, 2, E((1.0,), (1.0,)))], [0.0, 0.0])


def test_arity_mismatch_rejected():
    edges = [(0, 1, E((1.0,), (1.0,))), (1, 0, E((1.0, 2.0), (1.0,)))]
    with pytest.raises(ArityMismatchError):
        build_graph(2, edges, [0.0, 0.0])


def test_negative_link_metric_rejected():
    with pytest.raises(ArityMismatchError):
        E((-1.0,), (1.0,))


def test_nan_link_metric_rejected():
    # a NaN bandwidth would pass every link bound
    with pytest.raises(ArityMismatchError):
        E((float("nan"),), (1.0,))


@pytest.mark.parametrize("cap", [math.nan, -5.0, -math.inf], ids=["nan", "negative", "-inf"])
def test_bad_node_capacity_rejected(cap):
    # a NaN host would take any reserve_node and keep a NaN ledger
    with pytest.raises(ValueError, match=f"node 1 capacity must be >= 0, got {cap}"):
        build_graph(2, [], [1.0, cap])


def test_constructor_is_the_checked_build_graph():
    # one way to build a graph, and it checks what it is given
    assert build_graph is PhysicalGraph
    with pytest.raises(ValueError, match="node 0 capacity must be >= 0, got nan"):
        PhysicalGraph(2, [], [math.nan, 1.0])
    with pytest.raises(SelfLoopError):
        PhysicalGraph(2, [(1, 1, E((1.0,), (1.0,)))])


def test_zero_node_capacity_accepted():
    g = build_graph(2, [], [0.0, 0])
    assert g.node_capacity == [0.0, 0.0]
    ResidualOverlay(g).reserve_node(0, 0.0)


def test_negative_path_metric_allowed():
    m = E((1.0,), (-3.0,))
    assert m.path_metrics == (-3.0,)


def _chain_graph(residuals):
    edges = [(i, i + 1, E((r,), (1.0,))) for i, r in enumerate(residuals)]
    g = build_graph(len(residuals) + 1, edges, [0.0] * (len(residuals) + 1))
    return g, list(range(len(residuals)))


def test_reserve_arithmetic():
    g, handles = _chain_graph([9.0, 9.0, 9.0])
    overlay = ResidualOverlay(g)
    overlay.reserve(handles, (4.0,))
    assert overlay.link_cols[0] == [5.0, 5.0, 5.0]


def test_reserve_atomicity():
    g, handles = _chain_graph([9.0, 3.0, 9.0])
    overlay = ResidualOverlay(g)
    with pytest.raises(InsufficientResidualError):
        overlay.reserve(handles, (4.0,))
    assert overlay.link_cols[0] == [9.0, 3.0, 9.0]


def test_reserve_release_inverse():
    g, handles = _chain_graph([9.0, 9.0, 9.0])
    overlay = ResidualOverlay(g)
    before = [col.copy() for col in overlay.link_cols]
    overlay.reserve(handles, (4.0,))
    overlay.release(handles, (4.0,))
    assert overlay.link_cols == before


def test_release_to_base():
    g, handles = _chain_graph([9.0])
    overlay = ResidualOverlay(g)
    overlay.reserve(handles, (4.0,))
    overlay.release(handles, (4.0,))
    assert overlay.link_cols[0] == [9.0]


def test_over_release():
    g, handles = _chain_graph([9.0])
    overlay = ResidualOverlay(g)
    with pytest.raises(OverReleaseError):
        overlay.release(handles, (4.0,))
    assert overlay.link_cols[0] == [9.0]


def test_release_without_matching_reserve_succeeds_with_headroom():
    # the overlay does not track provenance; pairing is the caller's job
    g, handles = _chain_graph([9.0])
    overlay = ResidualOverlay(g)
    overlay.reserve(handles, (6.0,))
    overlay.release(handles, (2.0,))
    assert overlay.link_cols[0] == [5.0]


def test_reserve_accepts_path_result():
    g, handles = _chain_graph([9.0, 9.0])
    overlay = ResidualOverlay(g)
    path = PathResult((0, 1, 2), tuple(handles), (2.0,), (9.0,))
    overlay.reserve(path, (4.0,))
    assert overlay.link_cols[0] == [5.0, 5.0]


@pytest.mark.parametrize("verb", ["reserve", "release"])
@pytest.mark.parametrize(
    "handles, demand, error",
    [([0, 0], 4.0, ValueError), ([1, 0, 1], 4.0, ValueError), ([-1], 4.0, IndexError),
     ([2], 4.0, IndexError), ([0, 2], 4.0, IndexError), ([0], -4.0, ValueError),
     ([0], math.nan, ValueError)],
    ids=["repeat", "repeat-apart", "negative", "past-the-end", "second-past-the-end",
         "negative-demand", "nan-demand"],
)
def test_ledger_refuses_repeated_or_out_of_range_edges(verb, handles, demand, error):
    # a repeated handle would take the demand once per occurrence (5 - 2 * 4
    # = -3), -1 would reach the last edge, a negative demand would lift a
    # residual above its base (5 + 4 = 9) and a NaN one would leave NaN: all
    # are refused before the residuals or the mask change
    g, _ = _chain_graph([5.0, 5.0])
    overlay = ResidualOverlay(g)
    if verb == "release":
        overlay.reserve([0, 1], (4.0,))
    c = ConstraintSet(((0, 1.0),))
    mask = bytes(_usable_mask(overlay, c))
    before = overlay.link_cols[0].copy()
    with pytest.raises(error):
        getattr(overlay, verb)(handles, (demand,))
    assert overlay.link_cols[0] == before
    assert bytes(_usable_mask(overlay, c)) == mask


@pytest.mark.parametrize("verb", ["reserve_node", "release_node"])
@pytest.mark.parametrize(
    "node, cpu, error",
    [(-1, 1.0, IndexError), (2, 1.0, IndexError), (0, -2.0, ValueError),
     (0, math.nan, ValueError)],
    ids=["-1", "2", "negative-cpu", "nan-cpu"],
)
def test_ledger_refuses_a_node_out_of_range(verb, node, cpu, error):
    g, _ = _chain_graph([5.0])
    g.node_capacity[:] = [4.0, 6.0]
    overlay = ResidualOverlay(g)
    if verb == "release_node":
        overlay.reserve_node(0, 1.0)
        overlay.reserve_node(1, 1.0)
    before = list(overlay.node_capacity)
    with pytest.raises(error):
        getattr(overlay, verb)(node, cpu)
    assert overlay.node_capacity == before


def test_ledger_refuses_an_infinite_demand_on_an_infinite_capacity():
    # inf - inf would leave a NaN residual that every later check passes
    g = build_graph(2, [(0, 1, E((math.inf,), (1.0,)))], [math.inf, 1.0])
    overlay = ResidualOverlay(g)
    c = ConstraintSet(((0, 1.0),))
    mask = bytes(_usable_mask(overlay, c))
    for verb, args in (
        ("reserve_node", (0, math.inf)),
        ("release_node", (0, math.inf)),
        ("reserve", ([0], (math.inf,))),
        ("release", ([0], (math.inf,))),
    ):
        with pytest.raises(ValueError, match="inf"):
            getattr(overlay, verb)(*args)
    assert overlay.node_capacity == [math.inf, 1.0]
    assert overlay.link_cols == [[math.inf]]
    assert bytes(_usable_mask(overlay, c)) == mask
    # a finite demand still fits, and the host stays infinite
    overlay.reserve_node(0, 5.0)
    overlay.reserve([0], (5.0,))
    assert overlay.node_capacity == [math.inf, 1.0]
    assert overlay.link_cols == [[math.inf]]


def test_ledger_takes_a_zero_demand():
    # steering demands are 0 on the link metrics a query leaves unbounded
    g, _ = _chain_graph([5.0])
    overlay = ResidualOverlay(g)
    overlay.reserve([0], (0.0,))
    overlay.reserve_node(0, 0.0)
    overlay.release([0], (0.0,))
    overlay.release_node(0, 0.0)
    assert overlay.link_cols == g.link_cols
    assert overlay.node_capacity == g.node_capacity


def test_residuals_stay_within_base_over_random_sequences():
    rng = random.Random(7)
    g, handles = _chain_graph([8.0, 8.0, 8.0, 8.0])
    overlay = ResidualOverlay(g)
    outstanding = []
    for _ in range(500):
        if outstanding and rng.random() < 0.5:
            overlay.release(*outstanding.pop(rng.randrange(len(outstanding))))
        else:
            demand = (float(rng.randint(1, 3)),)
            sub = sorted(rng.sample(handles, rng.randint(1, 4)))
            try:
                overlay.reserve(sub, demand)
            except InsufficientResidualError:
                continue
            outstanding.append((sub, demand))
        for e in handles:
            assert -1e-9 <= overlay.link_cols[0][e] <= g.link_cols[0][e] + 1e-9


def test_overlay_is_a_graph_owning_its_residuals():
    g = build_graph(2, [(0, 1, E((5.0,), (5.0,)))], [3.0, 4.0], labels=["a", None])
    overlay = ResidualOverlay(g)
    assert isinstance(overlay, PhysicalGraph)
    assert overlay.link_cols == g.link_cols
    assert all(mine is not theirs for mine, theirs in zip(overlay.link_cols, g.link_cols))
    assert overlay.node_capacity == g.node_capacity
    assert overlay.node_capacity is not g.node_capacity
    assert overlay.adjacency is g.adjacency and overlay.path_cols is g.path_cols
    assert overlay.edge_count == 1
    assert [overlay.label_of(v) for v in range(2)] == ["a", "1"]
    overlay.reserve([0], (2.0,))
    overlay.reserve_node(0, 1.0)
    assert g.link_cols[0][0] == 5.0 and g.node_capacity[0] == 3.0


def test_node_capacity_reserve_release():
    g, _ = _chain_graph([5.0])
    g.node_capacity[0] = 10.0
    overlay = ResidualOverlay(g)
    overlay.reserve_node(0, 4.0)
    assert overlay.node_capacity[0] == 6.0
    overlay.release_node(0, 4.0)
    assert overlay.node_capacity[0] == 10.0
    with pytest.raises(OverReleaseError):
        overlay.release_node(0, 1.0)


def test_shuffled_release_tolerates_drift_at_large_capacity():
    # at capacity 1e5 the rounding drift of four reserves released in
    # another order exceeds any fixed absolute slack; the ledger must
    # still accept every exact pairing
    base = 1e5
    g = build_graph(2, [(0, 1, E((base,), (1.0,)))], [base, 0.0])
    rng = random.Random(0)
    for _ in range(2000):
        overlay = ResidualOverlay(g)
        demands = [rng.uniform(0, base / 4) for _ in range(4)]
        for d in demands:
            overlay.reserve([0], (d,))
            overlay.reserve_node(0, d)
        rng.shuffle(demands)
        for d in demands:
            overlay.release([0], (d,))
        rng.shuffle(demands)
        for d in demands:
            overlay.release_node(0, d)
        assert abs(overlay.link_cols[0][0] - base) < 1e-6
        assert abs(overlay.node_capacity[0] - base) < 1e-6
    # the slack stays a rounding allowance: a real over-release still fails
    overlay = ResidualOverlay(g)
    overlay.reserve([0], (1.0,))
    with pytest.raises(OverReleaseError):
        overlay.release([0], (1.001,))


def _drifted_overlay(base, rng):
    """An overlay over one edge and one node of base value base, after
    reserves released in another order (no drift at base 0)."""
    g = build_graph(2, [(0, 1, E((base,), (1.0,)))], [base, 0.0])
    overlay = ResidualOverlay(g)
    demands = [rng.uniform(0, min(base, 1e5) / 4) for _ in range(4)]
    for d in demands:
        overlay.reserve([0], (d,))
        overlay.reserve_node(0, d)
    rng.shuffle(demands)
    for d in demands:
        overlay.release([0], (d,))
        overlay.release_node(0, d)
    return overlay


def _ledger_calls(overlay):
    """(call, headroom, error) per ledger call on edge 0 / node 0: call(x)
    asks for x, which just fits when x equals headroom."""
    link, cpu = overlay.link_cols[0][0], overlay.node_capacity[0]
    link_base, cpu_base = overlay.base.link_cols[0][0], overlay.base.node_capacity[0]
    return [
        (lambda x: overlay.reserve([0], (x,)), link, InsufficientResidualError),
        (lambda x: overlay.release([0], (x,)), link_base - link, OverReleaseError),
        (lambda x: overlay.reserve_node(0, x), cpu, InsufficientResidualError),
        (lambda x: overlay.release_node(0, x), cpu_base - cpu, OverReleaseError),
    ]


@pytest.mark.parametrize("base", [0.0, 1.0, 1e5])
@pytest.mark.parametrize("call", range(4))
@pytest.mark.parametrize("drift_seed", [None, 0, 1, 2])
def test_ledger_slack_boundary(base, call, drift_seed):
    # every ledger call allows an overshoot of up to one slack of the base
    # value, with or without rounding drift behind it; twice the slack is
    # refused before anything changes
    slack = 1e-12 * max(1.0, base)

    def overlay():
        if drift_seed is None:
            g = build_graph(2, [(0, 1, E((base,), (1.0,)))], [base, 0.0])
            return ResidualOverlay(g)
        return _drifted_overlay(base, random.Random(drift_seed))

    ov = overlay()
    ask, headroom, _ = _ledger_calls(ov)[call]
    ask(headroom + slack / 2)
    ov = overlay()
    ask, headroom, error = _ledger_calls(ov)[call]
    links, nodes = [col.copy() for col in ov.link_cols], list(ov.node_capacity)
    with pytest.raises(error):
        ask(headroom + 2 * slack)
    assert ov.link_cols == links and ov.node_capacity == nodes


@pytest.mark.parametrize("call", range(4))
def test_ledger_at_infinite_base_takes_any_finite_demand(call):
    # the slack of an infinite base is infinite: no finite demand is refused
    ov = _drifted_overlay(math.inf, random.Random(call))
    ask, _, _ = _ledger_calls(ov)[call]
    for x in (0.0, 1.0, 1e300):
        ask(x)


# --- the memoized pruning mask ----------------------------------------------


def _scanned_mask(g, c):
    """The pruning mask straight from its definition, with no memo."""
    return bytearray(
        0 if any(g.link_cols[j][e] < bound for j, bound in c.link_bounds) else 1
        for e in range(g.edge_count)
    )


def _two_metric_graph(rng, max_nodes=12):
    n = rng.randint(2, max_nodes)
    edges = [
        (u, v, E((float(rng.randint(1, 9)), float(rng.randint(1, 5))), (1.0,)))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.3
    ]
    return build_graph(n, edges, [0.0] * n, link_arity=2, path_arity=1)


def test_path_nonneg_is_fixed_at_construction():
    edges = [(0, 1, E((1.0,), (2.0, -1.0, float("nan")))), (1, 0, E((1.0,), (0.0, 3.0, 1.0)))]
    g = build_graph(2, edges, [0.0, 0.0])
    assert g.path_nonneg == [True, False, True]
    assert ResidualOverlay(g).path_nonneg is g.path_nonneg


def test_overlay_mask_stays_exact_over_shuffled_reserve_release():
    rng = random.Random(5150)
    checks = 0
    for _ in range(60):
        g = _two_metric_graph(rng)
        if not g.edge_count:
            continue
        overlay = ResidualOverlay(g)
        one = ConstraintSet(((0, float(rng.randint(1, 6))),))
        two = ConstraintSet(((0, float(rng.randint(1, 6))), (1, float(rng.randint(1, 3)))))
        c = one
        outstanding = []
        for _ in range(40):
            if outstanding and rng.random() < 0.4:
                overlay.release(*outstanding.pop(rng.randrange(len(outstanding))))
            else:
                handles = rng.sample(range(g.edge_count), rng.randint(1, min(4, g.edge_count)))
                e = handles[0]
                # half the time leave the first edge exactly at the bound
                exact = {j: overlay.link_cols[j][e] - b for j, b in c.link_bounds}
                demand = tuple(
                    exact[j] if j in exact and exact[j] > 0 and rng.random() < 0.5
                    else float(rng.randint(0, 2))
                    for j in range(2)
                )
                try:
                    overlay.reserve(handles, demand)
                except InsufficientResidualError:
                    continue
                outstanding.append((handles, demand))
            if rng.random() < 0.2:
                c = two if c is one else one
            assert _usable_mask(overlay, c) == _scanned_mask(overlay, c)
            checks += 1
    assert checks > 1000


def test_overlay_reserve_leaves_the_base_mask_and_answers_alone():
    rng = random.Random(8080)
    for _ in range(30):
        g = _two_metric_graph(rng, max_nodes=9)
        c = ConstraintSet(((0, float(rng.randint(1, 5))),), ((0, 100.0),))
        pairs = [(u, v) for u in range(g.node_count) for v in range(g.node_count) if u != v]

        def answers(graph):
            out = []
            for u, v in pairs:
                try:
                    out.append(solve_l1(graph, u, v, c).nodes)
                except NoPathError as exc:
                    out.append(exc.status)
            return out

        base_answers = answers(g)
        base_mask = bytes(_usable_mask(g, c))
        overlay = ResidualOverlay(g)
        assert overlay.mask_memo is None
        answers(overlay)
        for e in range(g.edge_count):
            overlay.reserve([e], (overlay.link_cols[0][e], 0.0))
        assert not any(_usable_mask(overlay, c))
        assert bytes(_usable_mask(g, c)) == base_mask == bytes(_scanned_mask(g, c))
        assert answers(g) == base_answers


def test_steering_cell_solves_on_one_mask(monkeypatch):
    # the mask is built once per cell: reserve keeps it current, so no solve
    # after the first scans the edge list
    masks = []
    resolve = harness.resolve_backend

    def recording(name):
        solver = resolve(name)

        def solve(overlay, src, dst, c):
            try:
                return solver(overlay, src, dst, c)
            finally:
                masks.append(overlay.mask_memo.mask)
                assert masks[-1] == _scanned_mask(overlay, c)

        return solve

    monkeypatch.setattr(harness, "resolve_backend", recording)
    g = generate(GenSpec(node_count=60, target_avg_degree=4.0, seed=1))
    c = resolve_constraint_severity(g, "low", "high")
    for backend in ("nm-l1", "edijkstra", "nm-general"):
        masks.clear()
        report = run_steering(g, 8, c, backend, seed=3)
        assert report.solve_calls == len(masks) > 8
        assert report.vl_count > 0
        assert all(mask is masks[0] for mask in masks)


# --- the answer slot of the mask memo -----------------------------------------

SOLVERS = {"nm-l1": solve_l1, "edijkstra": solve_edijkstra, "nm-general": solve_general}


def _answer(solver, g, src, dst, c):
    try:
        result = solver(g, src, dst, c)
    except NoPathError as exc:
        return type(exc).__name__, str(exc)
    return "ok", result.nodes, result.edge_handles, result.accumulated, result.min_link_metrics


def test_answer_slot_answers_like_a_graph_without_memo(monkeypatch):
    # random reserve/release sequences on an overlay of a <= 10-node
    # multigraph, with every query repeated by random solvers and paths
    # reserved as steering does; each answer equals the one a graph rebuilt
    # from the overlay's residuals gives with an empty memo
    # a hit is a query on the overlay that runs no search
    hits = {"n": 0}
    for module, search in (
        (neighborhoods, "_search_l1"),
        (neighborhoods, "_search_general"),
        (baselines, "_search_edijkstra"),
    ):

        def counting(g, *args, _original=getattr(module, search)):
            hits["n"] -= g is overlay
            return _original(g, *args)

        monkeypatch.setattr(module, search, counting)

    rng = random.Random(271828)
    statuses = set()
    for _ in range(80):
        n, edges = random_multigraph(rng, max_nodes=10)
        if not edges:
            continue
        overlay = ResidualOverlay(build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=1))
        bounds = [
            ConstraintSet(
                ((0, float(rng.randint(1, 6))),) if rng.random() < 0.8 else (),
                ((0, float(rng.randint(3, 30))),),
                strict=rng.random() < 0.5,
            )
            for _ in range(2)
        ]
        outstanding = []
        for _ in range(40):
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
            src, dst = rng.sample(range(n), 2)
            c = rng.choice(bounds)
            # the query again, by the same solver or another one
            for name in rng.choices(sorted(SOLVERS), k=rng.randint(2, 4)):
                fresh = build_graph(
                    n,
                    [(u, v, E((overlay.link_cols[0][e],), m.path_metrics))
                     for e, (u, v, m) in enumerate(edges)],
                    [0.0] * n,
                    link_arity=1,
                    path_arity=1,
                )
                got = _answer(SOLVERS[name], overlay, src, dst, c)
                hits["n"] += 1
                assert got == _answer(SOLVERS[name], fresh, src, dst, c)
                statuses.add(got[0])
                if got[0] != "ok" or rng.random() < 0.5:
                    continue
                # steering: reserve on the path found, then ask again
                room = int(min(overlay.link_cols[0][e] for e in got[2]))
                if room >= 1:
                    demand = (float(rng.randint(1, room)),)
                    overlay.reserve(got[2], demand)
                    outstanding.append((got[2], demand))
    assert statuses == {"ok", "InfeasibleError", "UnreachableError"}
    assert hits["n"] > 200


@pytest.fixture
def searches(monkeypatch):
    """Count the searches each solver runs: nm-l1's bidirectional BFS and
    forward sweep (an unreachable dst is settled by the BFS alone),
    nm-general's bidirectional BFS, and edijkstra's bidirectional BFS and
    heap pops (an unreachable dst is settled by that BFS alone, which
    baselines binds itself, so it is counted there too)."""
    counts = dict.fromkeys(SOLVERS, 0)

    def counting(names, original):
        def wrapper(*args):
            for name in names:
                counts[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(
        neighborhoods, "_l1_forward", counting(["nm-l1"], neighborhoods._l1_forward)
    )
    monkeypatch.setattr(
        neighborhoods,
        "_hop_horizon",
        counting(["nm-l1", "nm-general", "edijkstra"], neighborhoods._hop_horizon),
    )
    monkeypatch.setattr(
        baselines, "_hop_horizon", counting(["edijkstra"], baselines._hop_horizon)
    )
    monkeypatch.setattr(heapq, "heappop", counting(["edijkstra"], heapq.heappop))
    return counts


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_answer_slot_decides_when_a_search_runs(name, searches):
    solver = SOLVERS[name]
    base = build_graph(4, FIG_EDGES, [10.0] * 4)
    overlay = ResidualOverlay(base)
    c = ConstraintSet(((0, 5.0),), ((0, 5.0),))

    def solve(graph=overlay, src=X, dst=Y, bounds=c):
        # how many searches the query ran, and its answer
        before = searches[name]
        result = solver(graph, src, dst, bounds)
        return searches[name] - before > 0, result

    searched, first = solve()
    assert searched and first.nodes == (X, B, A, Y) and first.min_link_metrics == (7.0,)
    # a repeat on an unchanged mask
    assert solve() == (False, first)
    # a reserve that flips no bit: 9, 8, 7 -> 8, 7, 6 against >= 5
    overlay.reserve(first, (1.0,))
    searched, again = solve()
    assert not searched and again.edge_handles == first.edge_handles
    assert again.min_link_metrics == (6.0,)
    # a reserve that flips a bit, off the path: X->A 5 -> 4
    overlay.reserve([0], (1.0,))
    assert solve()[0]
    assert not solve()[0]
    # and a release that flips it back
    overlay.release([0], (1.0,))
    assert solve()[0]
    # another src, dst, path bound or strictness
    for query in (
        {"src": B},
        {"dst": A},
        {"bounds": ConstraintSet(((0, 5.0),), ((0, 6.0),))},
        {"bounds": ConstraintSet(((0, 5.0),), ((0, 5.0),), strict=False)},
    ):
        solve()
        assert solve(**query)[0], query
    # two overlays of one base, and the base itself, keep their own slots
    solve()
    assert solve(graph=base)[0]
    other = ResidualOverlay(base)
    assert solve(graph=other)[0]
    assert not solve(graph=base)[0]
    assert not solve(graph=other)[0]
    assert not solve()[0]
    # no path is kept: an unreachable query (nothing enters X) searches
    # every time, and the slot still holds the last path found
    for _ in range(2):
        before = searches[name]
        with pytest.raises(UnreachableError):
            solver(overlay, Y, X, c)
        assert searches[name] > before
    assert not solve()[0]



def test_delay_floor_is_built_once_per_dst_while_bits_only_clear(monkeypatch):
    # edijkstra's delay floor lives in the mask memo under (metric, dst)
    sums_to = []

    def counting(*args):
        sums_to.append(args[1])
        return original(*args)

    original = neighborhoods._min_sums_to
    monkeypatch.setattr(neighborhoods, "_min_sums_to", counting)
    base = build_graph(4, FIG_EDGES, [10.0] * 4)
    c = ConstraintSet(((0, 5.0),), ((0, 5.0),))

    def script(solver):
        # (floor built, floor in the memo) after each query of a fixed script
        overlay = ResidualOverlay(base)
        seen = []

        def solve(src=X, dst=Y, bounds=c):
            memo = overlay.mask_memo
            before = memo.floor if memo is not None else None
            try:
                solver(overlay, src, dst, bounds)
            except NoPathError:
                pass
            after = overlay.mask_memo.floor
            seen.append((after is not None and after is not before, after is not None))

        solve()
        solve()  # a repeat
        overlay.reserve([0], (1.0,))  # clears X->A's bit (5 -> 4)
        solve()
        solve(src=B)  # another src, the same dst
        solve(bounds=ConstraintSet(((0, 5.0),), ((0, 6.0),)))  # another path bound
        solve(dst=A)  # another dst
        solve()
        overlay.release([0], (1.0,))  # sets X->A's bit again
        solve()
        overlay.reserve([1], (1.0,))  # X->B 9 -> 8, no bit changes
        overlay.release([1], (1.0,))
        solve(src=A)
        solve(bounds=ConstraintSet(((0, 4.0),), ((0, 5.0),)))  # other link bounds
        return seen

    built = [b for b, _ in script(solve_edijkstra)]
    assert built == [True, False, False, False, False, True, True, True, False, True]
    assert sums_to == [Y, A, Y, Y, Y]  # one reverse search per floor built
    for solver in (solve_l1, solve_general):
        assert not any(kept for _, kept in script(solver))


def test_delay_floor_is_kept_only_in_the_memo_of_its_mask():
    # a search that took its record before a query under other bounds
    # replaced g's (in another thread) builds its floor on the mask it
    # holds and keeps it on that record; g's current record keeps its own
    g = build_graph(4, FIG_EDGES, [10.0] * 4)
    _usable_mask(g, ConstraintSet(((0, 5.0),), ((0, 5.0),)))
    held = g.mask_memo
    solve_edijkstra(g, X, B, ConstraintSet(((0, 8.0),), ((0, 5.0),)))
    assert g.mask_memo is not held and g.mask_memo.floor[0] == (0, B)
    theirs = ((0, Y), [0.0] * 4)
    g.mask_memo.floor = theirs
    floor = neighborhoods._floor_to(g, 0, Y, X, held)
    # on g's mask (link bound 8) nothing reaches Y
    assert floor == [4.0, 2.0, 3.0, 0.0]
    assert held.floor[0] == (0, Y) and held.floor[1] is floor
    assert g.mask_memo.floor is theirs
    assert neighborhoods._floor_to(g, 0, Y, X, held) is floor


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_search_runs_on_its_own_mask_when_the_record_is_replaced(name, monkeypatch):
    # a query under other bounds (in another thread) replaces g's record
    # between a query's scan and its read of the record: the search still
    # runs on the mask of its own bounds and keeps nothing on their record
    g = build_graph(4, FIG_EDGES, [10.0] * 4)
    scan = neighborhoods._usable_mask
    theirs = neighborhoods._MaskMemo(((0, 100.0),), bytearray(g.edge_count))

    def racing(graph, c):
        mask = scan(graph, c)
        graph.mask_memo = theirs
        return mask

    monkeypatch.setattr(neighborhoods, "_usable_mask", racing)
    c = ConstraintSet(((0, 5.0),), ((0, 5.0),))
    assert SOLVERS[name](g, X, Y, c).nodes == (X, B, A, Y)
    assert g.mask_memo is theirs and theirs.answer is None and theirs.floor is None
