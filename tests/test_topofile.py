import pickle

import pytest

from conftest import FIG_LABELS
from vpembed import TopologyParseError, build_graph
from vpembed import topofile

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
