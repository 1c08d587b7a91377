import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vpembed import ConstraintSet, EdgeMetrics, build_graph, harness

# The 4-node worked example: directed graph over X=0, A=1, B=2, Y=3 with
# [bandwidth, delay] per edge. Under bw >= 5 and delay < 5 the only feasible
# route is the 3-hop X->B->A->Y; both 2-hop candidates fail (X->A->Y on
# delay, X->B->Y on the bandwidth of B->Y, which pre-routing prunes).
FIG_EDGES = [
    (0, 1, EdgeMetrics((5.0,), (5.0,))),  # X->A
    (0, 2, EdgeMetrics((9.0,), (1.0,))),  # X->B
    (1, 2, EdgeMetrics((8.0,), (1.0,))),  # A->B
    (2, 1, EdgeMetrics((8.0,), (1.0,))),  # B->A
    (1, 3, EdgeMetrics((7.0,), (2.0,))),  # A->Y
    (2, 3, EdgeMetrics((4.0,), (1.0,))),  # B->Y
]
FIG_LABELS = ["X", "A", "B", "Y"]
X, A, B, Y = 0, 1, 2, 3


@pytest.fixture
def fig_graph():
    return build_graph(4, FIG_EDGES, [10.0] * 4, labels=list(FIG_LABELS))


@pytest.fixture
def fig_constraints():
    return ConstraintSet(((0, 5.0),), ((0, 5.0),))


def random_instance(rng: random.Random, max_nodes=12, edge_prob=0.3):
    """Seeded directed graph with bw in {1..9} and delay in {1..10}."""
    n = rng.randint(2, max_nodes)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < edge_prob:
                edges.append(
                    (u, v, EdgeMetrics((float(rng.randint(1, 9)),), (float(rng.randint(1, 10)),)))
                )
    g = build_graph(n, edges, [1.0] * n, link_arity=1, path_arity=1)
    return g, edges


def random_l1_bounds(rng: random.Random) -> ConstraintSet:
    return ConstraintSet(
        ((0, float(rng.randint(1, 9))),),
        ((0, float(rng.randint(3, 25))),),
    )


def random_multigraph(rng: random.Random, max_nodes=12):
    """Seeded multigraph of 2..max_nodes nodes, bw in {1..9} and delay in
    {1..10}: about one ordered pair in four is linked, and a linked pair gets
    a parallel edge with probability 0.4. Returns (node count, edge list)."""
    n = rng.randint(2, max_nodes)
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.25:
                edges.append(
                    (u, v, EdgeMetrics((float(rng.randint(1, 9)),), (float(rng.randint(1, 10)),)))
                )
                while rng.random() < 0.4:
                    edges.append(
                        (
                            u,
                            v,
                            EdgeMetrics((float(rng.randint(1, 9)),), (float(rng.randint(1, 10)),)),
                        )
                    )
    return n, edges


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the sweep's process pool by an in-process stand-in, so no
    process is started; returns the list of worker counts it was given."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return seen
