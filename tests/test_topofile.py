import math
import pickle

import pytest

from conftest import FIG_LABELS
from vpembed import ArityMismatchError, EdgeMetrics, TopologyParseError, build_graph
from vpembed import topofile
from vpembed.topogen import GenSpec, generate

FIG_TEXT = """\
# worked example fixture
nodes 4 link_metrics 1 path_metrics 1
node 0 cap 10  # X
node 1 cap 10  # A
node 2 cap 10  # B
node 3 cap 10  # Y
edge 0 1 5 5
edge 0 2 9 1
edge 1 2 8 1
edge 2 1 8 1
edge 1 3 7 2
edge 2 3 4 1
"""


def test_loads_fig_fixture():
    g = topofile.loads(FIG_TEXT)
    assert g.node_count == 4
    assert g.edge_count == 6
    assert g.labels == FIG_LABELS
    assert g.node_capacity == [10.0] * 4
    assert g.edges[0][2].link_metrics == (5.0,)
    assert g.edges[0][2].path_metrics == (5.0,)


def test_round_trip(fig_graph):
    text = topofile.dumps(fig_graph)
    g2 = topofile.loads(text)
    assert g2.edges == fig_graph.edges
    assert g2.node_capacity == fig_graph.node_capacity
    assert g2.labels == fig_graph.labels
    assert topofile.dumps(g2) == text


def test_round_trip_fractional_values():
    from vpembed import EdgeMetrics

    g = build_graph(2, [(0, 1, EdgeMetrics((1.25,), (0.1,)))], [3.5, 0.0])
    g2 = topofile.loads(topofile.dumps(g))
    assert g2.edges == g.edges
    assert g2.node_capacity == g.node_capacity


def _exact(value):
    """value with every float replaced by its repr, so that a NaN equals a
    NaN and two floats are equal only when they are the same number."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, EdgeMetrics):
        return [_exact(value.link_metrics), _exact(value.path_metrics)]
    return value


def _hand_built_graphs():
    nan, inf = math.nan, math.inf
    e = EdgeMetrics
    yield build_graph(
        4,
        [
            (0, 1, e((5.0, 2.5), (1.0, -3.0))),
            (0, 1, e((5.0, 2.5), (1.0, -3.0))),  # a parallel twin
            (0, 1, e((0.0, 1e300), (inf, nan))),
            (1, 2, e((7.0, 0.1), (-inf, 0.3))),
            (2, 1, e((inf, 8.0), (nan, nan))),
            (2, 3, e((1.0, 2.0), (-0.5, 1e-300))),
            (3, 0, e((3.0, 4.0), (2.0**60, -(2.0**-30)))),
        ],
        [10.0, 0.0, 2.5, 1e20],
        labels=["X", None, "B with spaces", "Y"],
    )
    yield build_graph(3, [], [1.0, 2.0, 3.0], link_arity=2, path_arity=1, labels=["a", "b", "c"])
    yield build_graph(2, [(0, 1, e((), ())), (1, 0, e((), ()))], [0.0, 0.0])


def _generated_graphs():
    for seed in (1, 2):
        yield generate(GenSpec(node_count=40, target_avg_degree=4.0, seed=seed))
    yield generate(GenSpec(model="barabasi_albert", node_count=40, m=2, seed=3,
                           target_avg_degree=None, delay_model="uniform"))


@pytest.mark.parametrize("make", [_hand_built_graphs, _generated_graphs])
def test_loads_reproduces_every_dumped_structure_exactly(make):
    for g in make():
        g2 = topofile.loads(topofile.dumps(g))
        for name in ("edges", "link_cols", "path_cols", "node_capacity"):
            assert _exact(getattr(g2, name)) == _exact(getattr(g, name)), name
        for name in ("adjacency", "in_adjacency", "labels", "path_nonneg"):
            assert getattr(g2, name) == getattr(g, name), name
        stored = [v for _s, _d, m in g2.edges for v in (*m.link_metrics, *m.path_metrics)]
        assert all(type(v) is float for v in stored + g2.node_capacity)


def test_loaded_edge_metrics_equal_and_hash_as_constructed_ones():
    g = next(_hand_built_graphs())
    lines = [line for line in topofile.dumps(g).splitlines() if line.startswith("edge")]
    for (_s, _d, got), line in zip(topofile.loads(topofile.dumps(g)).edges, lines):
        values = line.split()[3:]
        if "nan" in values:
            continue  # NaN equals nothing, itself included
        # built the other way: from a list, and from ints where they are exact
        built = EdgeMetrics(
            [int(float(v)) if float(v).is_integer() else float(v) for v in values[:2]],
            [float(v) for v in values[2:]],
        )
        assert got == built and hash(got) == hash(built)
        assert type(got.link_metrics) is type(built.link_metrics) is tuple


def test_edge_metrics_store_tuples_of_floats_whatever_they_are_given():
    m = EdgeMetrics([1, True], iter([2, -3.5]))
    assert m == EdgeMetrics((1.0, 1.0), (2.0, -3.5))
    assert all(type(v) is float for v in (*m.link_metrics, *m.path_metrics))
    assert type(m.link_metrics) is tuple and type(m.path_metrics) is tuple
    for bad in (-1, math.nan, -math.inf):
        with pytest.raises(ArityMismatchError, match="link metrics must be >= 0"):
            EdgeMetrics((1.0, bad), ())


def test_round_trip_infinite_metric():
    text = "nodes 2 link_metrics 1 path_metrics 1\nedge 0 1 inf 1\n"
    g = topofile.loads(text)
    dumped = topofile.dumps(g)
    assert "edge 0 1 inf 1" in dumped
    g2 = topofile.loads(dumped)
    assert g2.edges == g.edges
    assert topofile.dumps(g2) == dumped


def test_parse_error_reports_line_number():
    bad = "nodes 2 link_metrics 1 path_metrics 1\nnode 0 cap 1\nedge 0 1 5\n"
    with pytest.raises(TopologyParseError) as err:
        topofile.loads(bad)
    assert err.value.line == 3


def test_parse_error_survives_pickling():
    # worker processes of a parallel sweep hand the error back pickled
    with pytest.raises(TopologyParseError) as err:
        topofile.loads("nodes 2 link_metrics 1 path_metrics 1\nedge 0 1 5\n")
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is TopologyParseError
    assert copy.line == 2
    assert str(copy) == str(err.value) == "line 2: expected 5 fields on an edge line, got 4"


HEADED = "nodes 2 link_metrics 1 path_metrics 1\n# nodes\nnode 0 cap 1\nnode 1 cap 1\n\n"


@pytest.mark.parametrize(
    "edge, message",
    [
        ("edge 0 1 -1 5", "link metrics must be >= 0, got -1.0"),
        ("edge 0 1 nan 5", "link metrics must be >= 0, got nan"),
        ("edge 0 9 5 5", "edge (0, 9) outside [0, 2)"),
        ("edge 1 1 5 5", "self-loop at node 1"),
    ],
    ids=["negative-link-metric", "nan-link-metric", "endpoint-out-of-range", "self-loop"],
)
def test_bad_edge_names_its_line(edge, message):
    with pytest.raises(TopologyParseError) as err:
        topofile.loads(HEADED + edge + "\n")
    assert (err.value.line, err.value.args[0]) == (6, message)


@pytest.mark.parametrize(
    "node, message",
    [
        ("node 0 cap nan", "node 0 capacity must be >= 0, got nan"),
        ("node 1 cap -5", "node 1 capacity must be >= 0, got -5.0"),
        # a second line for node 0 would overwrite its capacity and keep
        # the first line's label
        ("node 0 cap 2", "repeated node 0"),
    ],
    ids=["nan-capacity", "negative-capacity", "repeated-node"],
)
def test_bad_node_capacity_names_its_line(node, message):
    text = "nodes 2 link_metrics 1 path_metrics 1\nnode 0 cap 1\n" + node + "\n"
    with pytest.raises(TopologyParseError) as err:
        topofile.loads(text)
    assert (err.value.line, err.value.args[0]) == (3, message)


def test_zero_node_capacity_parses():
    g = topofile.loads("nodes 1 link_metrics 0 path_metrics 0\nnode 0 cap 0\n")
    assert g.node_capacity == [0.0]


def test_nan_path_metric_parses():
    g = topofile.loads(HEADED + "edge 0 1 5 nan\n")
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "text, line",
    [
        ("# counts\nnodes -2 link_metrics 1 path_metrics 1\n", 2),
        ("nodes 2 link_metrics 1 path_metrics -1\n", 1),
        (HEADED + "edge 0 1 5 5\nnodes 1 link_metrics 1 path_metrics 1\n", 7),
    ],
    ids=["negative-node-count", "negative-arity", "repeated-header"],
)
def test_bad_header_names_its_line(text, line):
    with pytest.raises(TopologyParseError) as err:
        topofile.loads(text)
    assert err.value.line == line


def test_missing_header():
    with pytest.raises(TopologyParseError):
        topofile.loads("node 0 cap 1\n")


def test_unknown_line_kind():
    with pytest.raises(TopologyParseError) as err:
        topofile.loads("nodes 1 link_metrics 0 path_metrics 0\nfoo bar\n")
    assert err.value.line == 2


def test_node_id_out_of_range():
    with pytest.raises(TopologyParseError) as err:
        topofile.loads("nodes 1 link_metrics 0 path_metrics 0\nnode 5 cap 1\n")
    assert err.value.line == 2


def test_file_round_trip(tmp_path, fig_graph):
    path = tmp_path / "fig.top"
    topofile.dump(fig_graph, path)
    g2 = topofile.load(path)
    assert g2.edges == fig_graph.edges
