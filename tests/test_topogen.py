import pytest

from vpembed import DegreeUnreachableError, GenSpec, build_graph, generate
from vpembed.topogen import (
    DELAY_LEVEL_FACTOR,
    constraints_from_percent,
    max_link_delay,
    realized_avg_degree,
    resolve_constraint_severity,
)


def _connected(g) -> bool:
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for v, _e in g.adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
        for v, _e in g.in_adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == g.node_count


def test_waxman_constant_capacity():
    g = generate(GenSpec(node_count=100, target_avg_degree=4.0, cpu_units=200.0, seed=3))
    assert g.node_capacity == [200.0] * 100


def test_barabasi_determinism():
    a = generate(GenSpec(model="barabasi_albert", node_count=10, m=2, seed=7))
    b = generate(GenSpec(model="barabasi_albert", node_count=10, m=2, seed=7))
    assert a.edges == b.edges
    assert a.node_capacity == b.node_capacity


def test_waxman_determinism():
    a = generate(GenSpec(node_count=200, target_avg_degree=4.0, seed=11))
    b = generate(GenSpec(node_count=200, target_avg_degree=4.0, seed=11))
    assert a.edges == b.edges


def test_waxman_degree_calibration():
    # realized degree within 10% of the target, measured over 20 seeds
    for seed in range(20):
        g = generate(GenSpec(node_count=1000, target_avg_degree=4.0, seed=seed))
        assert abs(realized_avg_degree(g) - 4.0) <= 0.4
    for seed in range(10):
        g = generate(GenSpec(node_count=300, target_avg_degree=4.0, seed=seed))
        assert abs(realized_avg_degree(g) - 4.0) <= 0.4


def test_symmetric_directed_pairs():
    g = generate(GenSpec(node_count=150, target_avg_degree=4.0, seed=5))
    by_pair = {}
    for src, dst, m in g.edges:
        by_pair[(src, dst)] = m
    for (src, dst), m in by_pair.items():
        assert by_pair[(dst, src)] == m


def test_connectivity_across_models_and_seeds():
    for seed in range(5):
        g = generate(GenSpec(node_count=400, target_avg_degree=4.0, seed=seed))
        assert _connected(g)
    for seed in range(3):
        g = generate(GenSpec(model="barabasi_albert", node_count=200, m=2, seed=seed))
        assert _connected(g)


def test_bandwidth_distribution_mean():
    total = 0.0
    count = 0
    for seed in range(4):
        g = generate(GenSpec(node_count=1000, target_avg_degree=6.0, bw_range=(1.0, 9.0), seed=seed))
        col = g.link_cols[0]
        total += sum(col)
        count += len(col)
    assert count >= 10_000
    mean = total / count
    assert abs(mean - 5.0) / 5.0 <= 0.02


def test_euclidean_delay_scaling():
    g = generate(GenSpec(node_count=200, target_avg_degree=4.0, max_delay=10.0, seed=2))
    assert abs(max_link_delay(g) - 10.0) < 1e-9
    assert min(g.path_cols[0]) >= 0


def test_max_link_delay_of_an_edgeless_graph_is_zero():
    assert max_link_delay(build_graph(3, [], link_arity=1, path_arity=1)) == 0.0


def test_uniform_delay_model():
    g = generate(
        GenSpec(node_count=100, target_avg_degree=4.0, delay_model="uniform",
                delay_range=(2.0, 3.0), seed=2)
    )
    assert all(2.0 <= d <= 3.0 for d in g.path_cols[0])


def test_degree_unreachable():
    with pytest.raises(DegreeUnreachableError):
        generate(GenSpec(node_count=10, target_avg_degree=9.5, seed=1))


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(node_count=1)
    with pytest.raises(ValueError):
        GenSpec(alpha=0.0)
    with pytest.raises(ValueError):
        GenSpec(bw_range=(5.0, 1.0))
    with pytest.raises(ValueError):
        GenSpec(model="random")
    with pytest.raises(ValueError):
        GenSpec(cpu_units=float("nan"))
    # a preferential-attachment degree target needs m = round(target / 2) <
    # node_count, and m(n - m) links realize degree 2m(n - m)/n, which may
    # fall at most 10% short of it: 3.2 for 3.5 passes, 3.2 for 4.0 does not
    spec = GenSpec(model="barabasi_albert", node_count=10, target_avg_degree=3.5)
    assert spec.attachment_count == 2
    with pytest.raises(ValueError, match="degree target 4.0 unreachable: .* only 3.20"):
        GenSpec(model="barabasi_albert", node_count=10, target_avg_degree=4.0)
    with pytest.raises(ValueError, match="degree target 18.0 unreachable: .* only 1.80"):
        GenSpec(model="barabasi_albert", node_count=10, target_avg_degree=18.0)
    with pytest.raises(ValueError, match="degree target 19.0 .* at most m=9"):
        GenSpec(model="barabasi_albert", node_count=10, target_avg_degree=19.0)
    # an explicit m is taken as given
    assert GenSpec(model="barabasi_albert", node_count=10, m=9).attachment_count == 9
    # the Waxman model has no attachment count to refuse
    GenSpec(node_count=10, target_avg_degree=19.0)


def test_severity_resolution():
    g = generate(GenSpec(node_count=50, target_avg_degree=4.0, max_delay=10.0, seed=1))
    c = resolve_constraint_severity(g, "high", "high")
    assert c.link_bounds == ((0, 7.0),)
    assert abs(c.path_bounds[0][1] - 40.0) < 1e-9
    c = resolve_constraint_severity(g, "low", "low")
    assert c.link_bounds == ((0, 1.0),)
    assert abs(c.path_bounds[0][1] - 8.0) < 1e-9
    with pytest.raises(ValueError):
        resolve_constraint_severity(g, "medium", "high")
    with pytest.raises(ValueError):
        resolve_constraint_severity(g, "high", "medium")
    # the delay bound is exactly the level's factor times the largest link delay
    for level, factor in DELAY_LEVEL_FACTOR.items():
        c = resolve_constraint_severity(g, "med", level)
        assert c.path_bounds == ((0, factor * max_link_delay(g)),)


def test_constraints_from_percent():
    g = generate(GenSpec(node_count=50, target_avg_degree=4.0, max_delay=10.0, seed=1))
    c = constraints_from_percent(g, "med", 250.0)
    assert c.link_bounds == ((0, 4.0),)
    assert abs(c.path_bounds[0][1] - 25.0) < 1e-9
