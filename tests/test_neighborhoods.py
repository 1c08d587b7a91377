import random

import pytest

from conftest import A, B, X, Y, random_instance, random_l1_bounds
from oracle import all_simple_paths, feasible, min_feasible_hops
from vpembed import (
    ConstraintSet,
    EdgeMetrics,
    InfeasibleError,
    NegativeWeightCycleError,
    NoPathError,
    ResourceLimitError,
    UnreachableError,
    build_graph,
    solve_general,
    solve_l1,
)
from vpembed.neighborhoods import (
    _grow_levels,
    _iter_fixed_length_paths,
    _l1_forward,
    _usable_mask,
)
from vpembed.paths import path_from_edges

E = EdgeMetrics


def _levels_until(g, src, dst, usable=None):
    """Levels 0..k of the general sweep, k being the first level holding dst."""
    levels = [{src}]
    for level in _grow_levels(g, src, usable):
        levels.append(level)
        if dst in level:
            break
    return levels


def _candidates(g, levels, src, dst, usable=None):
    return [
        path_from_edges(g, nodes, edges)
        for nodes, edges in _iter_fixed_length_paths(g, levels, src, dst, usable, 10**6)
    ]


# --- forward pass ---------------------------------------------------------


def test_fig_levels(fig_graph, fig_constraints):
    assert _levels_until(fig_graph, X, Y) == [{X}, {A, B}, {A, B, Y}]
    # pruning B->Y (bw 4 < 5) leaves Y at level 2, reached through A
    usable = _usable_mask(fig_graph, fig_constraints)
    assert _levels_until(fig_graph, X, Y, usable) == [{X}, {A, B}, {A, B, Y}]
    # the A<->B cycle never empties a level: growth stops at node_count - 1
    assert len(list(_grow_levels(fig_graph, X, None))) == fig_graph.node_count - 1


def test_src_equals_dst_levels(fig_graph):
    # depth 0: the level list is just {src} and the only path is the empty one
    assert list(_iter_fixed_length_paths(fig_graph, [{X}], X, X, None, 10)) == [([X], [])]


def test_disconnected_unreachable():
    g = build_graph(4, [(0, 1, E((1.0,), (1.0,))), (2, 3, E((1.0,), (1.0,)))], [0.0] * 4)
    assert list(_grow_levels(g, 0, None)) == [{1}]
    with pytest.raises(UnreachableError):
        solve_general(g, 0, 3, ConstraintSet((), ()))


def test_levels_at_most_node_count():
    rng = random.Random(5)
    for _ in range(50):
        g, _ = random_instance(rng, max_nodes=8)
        levels = list(_grow_levels(g, 0, None))
        assert len(levels) <= g.node_count - 1
        assert all(levels)  # an empty level ends the growth instead of being yielded


# --- backward pass --------------------------------------------------------


def test_fig_two_hop_candidates(fig_graph):
    cands = _candidates(fig_graph, _levels_until(fig_graph, X, Y), X, Y)
    assert [c.nodes for c in cands] == [(X, A, Y), (X, B, Y)]


def test_fig_three_hop_candidates_include_detour(fig_graph):
    levels = _levels_until(fig_graph, X, Y) + [{A, B, Y}]  # one more level
    cands = _candidates(fig_graph, levels, X, Y)
    assert (X, B, A, Y) in [c.nodes for c in cands]


def test_single_edge_single_candidate():
    g = build_graph(2, [(0, 1, E((1.0,), (1.0,)))], [0.0, 0.0])
    cands = _candidates(g, _levels_until(g, 0, 1), 0, 1)
    assert [c.nodes for c in cands] == [(0, 1)]


def test_backward_pass_complete_against_enumeration():
    # candidates at depth d = exactly the simple paths with d hops
    rng = random.Random(23)
    checked = 0
    for _ in range(80):
        g, edges = random_instance(rng, max_nodes=10)
        src, dst = 0, g.node_count - 1
        levels = _levels_until(g, src, dst)
        if dst not in levels[-1]:
            continue
        depth = len(levels) - 1
        cands = _candidates(g, levels, src, dst)
        expected = sorted(
            tuple(nodes)
            for nodes, _e in all_simple_paths(g.node_count, edges, src, dst)
            if len(nodes) - 1 == depth
        )
        got = [c.nodes for c in cands]
        assert sorted(set(got)) == expected
        assert got == sorted(got)  # lexicographic output order
        checked += 1
    assert checked > 20


def test_backward_pass_accumulates_metrics(fig_graph):
    cands = _candidates(fig_graph, _levels_until(fig_graph, X, Y), X, Y)
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


def test_general_candidate_limit():
    # complete graph, unsatisfiable bound, one negative metric so the
    # remaining-cost pruning cannot help: expansion must hit the cap
    edges = []
    for u in range(7):
        for v in range(7):
            if u != v:
                w = -0.5 if (u, v) == (0, 1) else 1.0
                edges.append((u, v, E((1.0,), (w,))))
    g = build_graph(7, edges, [0.0] * 7)
    c = ConstraintSet((), ((0, 0.5),))  # best possible total is exactly 0.5
    with pytest.raises(ResourceLimitError):
        solve_general(g, 0, 6, c, candidate_limit=50)


def test_general_short_circuits_hopeless_bound():
    # with nonnegative metrics the same query answers infeasible instantly
    edges = []
    for u in range(7):
        for v in range(7):
            if u != v:
                edges.append((u, v, E((1.0,), (1.0,))))
    g = build_graph(7, edges, [0.0] * 7)
    with pytest.raises(InfeasibleError):
        solve_general(g, 0, 6, ConstraintSet((), ((0, 0.5),)), candidate_limit=50)


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
    # is the hop count of the returned path
    rng = random.Random(77)
    found = 0
    for _ in range(60):
        g, _edges = random_instance(rng, max_nodes=10)
        c = random_l1_bounds(rng)
        dst = g.node_count - 1
        status, rounds, _label, _usable = _l1_forward(g, 0, dst, c)
        if status == "found":
            assert rounds == solve_l1(g, 0, dst, c).hop_count
            found += 1
    assert found > 10


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
