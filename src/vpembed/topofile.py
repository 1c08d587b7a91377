"""Line-oriented topology file format.

    # comment
    nodes <N> link_metrics <l_arity> path_metrics <p_arity>
    node <id> cap <cpu>         # optional trailing label comment
    edge <src> <dst> <lm_1 ... lm_l> <pm_1 ... pm_p>

All values are decimal; node capacities and link metrics must be >= 0.
A trailing ``# <text>`` on a node line is kept as that node's display
label. Parse errors report the 1-based number of the offending line
(line 1 for a missing header).
"""

from .errors import ArityMismatchError, TopologyParseError
from .graph import EdgeMetrics, PhysicalGraph, build_graph


def loads(text: str) -> PhysicalGraph:
    """Parse topology text into a PhysicalGraph."""
    node_count = None
    link_arity = path_arity = 0
    caps: list[float] = []
    labels: list[str | None] = []
    declared: set[int] = set()
    edges: list[tuple[int, int, EdgeMetrics]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        fields = line.split()
        if not fields:
            continue
        kind = fields[0]
        try:
            if kind == "nodes":
                if len(fields) != 6 or fields[2] != "link_metrics" or fields[4] != "path_metrics":
                    raise ValueError("expected: nodes <N> link_metrics <l> path_metrics <p>")
                if node_count is not None:
                    raise ValueError("repeated nodes header")
                node_count = int(fields[1])
                link_arity = int(fields[3])
                path_arity = int(fields[5])
                if min(node_count, link_arity, path_arity) < 0:
                    raise ValueError("node count and metric arities must be >= 0")
                caps = [0.0] * node_count
                labels = [None] * node_count
            elif kind == "node":
                if node_count is None:
                    raise ValueError("node line before the nodes header")
                if len(fields) != 4 or fields[2] != "cap":
                    raise ValueError("expected: node <id> cap <cpu>")
                idx = int(fields[1])
                if not (0 <= idx < node_count):
                    raise ValueError(f"node id {idx} outside [0, {node_count})")
                cap = float(fields[3])
                if not cap >= 0:
                    raise ValueError(f"node {idx} capacity must be >= 0, got {cap}")
                if idx in declared:
                    raise ValueError(f"repeated node {idx}")
                declared.add(idx)
                caps[idx] = cap
                label = comment.strip()
                if label:
                    labels[idx] = label
            elif kind == "edge":
                if node_count is None:
                    raise ValueError("edge line before the nodes header")
                expected = 3 + link_arity + path_arity
                if len(fields) != expected:
                    raise ValueError(f"expected {expected} fields on an edge line, got {len(fields)}")
                src, dst = int(fields[1]), int(fields[2])
                if not (0 <= src < node_count and 0 <= dst < node_count):
                    raise ValueError(f"edge ({src}, {dst}) outside [0, {node_count})")
                if src == dst:
                    raise ValueError(f"self-loop at node {src}")
                # each value is converted once, here: EdgeMetrics keeps float tuples as given
                path_start = 3 + link_arity
                metrics = EdgeMetrics(
                    tuple(map(float, fields[3:path_start])), tuple(map(float, fields[path_start:]))
                )
                edges.append((src, dst, metrics))
            else:
                raise ValueError(f"unknown line kind {kind!r}")
        except (ValueError, IndexError, ArityMismatchError) as exc:
            raise TopologyParseError(str(exc), lineno) from exc

    if node_count is None:
        raise TopologyParseError("missing nodes header", 1)
    # every line is checked above, so the graph builds
    return build_graph(
        node_count,
        edges,
        caps,
        link_arity=link_arity,
        path_arity=path_arity,
        labels=labels if any(lab is not None for lab in labels) else None,
    )


def dumps(g: PhysicalGraph) -> str:
    """Serialize a PhysicalGraph to topology text (inverse of loads)."""
    out = [f"nodes {g.node_count} link_metrics {g.link_arity} path_metrics {g.path_arity}"]
    for i in range(g.node_count):
        line = f"node {i} cap {fmt(g.node_capacity[i])}"
        if g.labels is not None and g.labels[i] is not None:
            line += f"  # {g.labels[i]}"
        out.append(line)
    for src, dst, m in g.edges:
        values = " ".join(fmt(v) for v in (*m.link_metrics, *m.path_metrics))
        out.append(f"edge {src} {dst} {values}")
    return "\n".join(out) + "\n"


def fmt(value: float) -> str:
    """Decimal rendering that round-trips and drops trailing .0 on integers.
    The magnitude test comes first: it is false for inf and nan, which int()
    rejects, so they render as repr gives them."""
    if abs(value) < 1e15 and value == int(value):
        return str(int(value))
    return repr(value)


def load(path) -> PhysicalGraph:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def dump(g: PhysicalGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(g))
