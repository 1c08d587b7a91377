import random

import pytest

from vpembed import (
    ArityMismatchError,
    EdgeMetrics,
    InsufficientResidualError,
    OverReleaseError,
    PathResult,
    PhysicalGraph,
    ResidualOverlay,
    SelfLoopError,
    build_graph,
)

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
