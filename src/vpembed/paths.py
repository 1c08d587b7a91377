"""Loop-free path results returned by every solver."""

import math
from collections import namedtuple

from .errors import NoPathError


class PathResult(namedtuple("PathResult", "nodes edge_handles accumulated min_link_metrics")):
    """A loop-free node sequence with its accumulated metrics: an immutable
    record, equal and hashed by value (it is a tuple of its fields).

    Attributes (each a tuple, of ints for nodes and edge_handles and of
    floats for the metrics):
        nodes: node ids from source to destination; pairwise distinct.
        edge_handles: the edge taken at each hop (len(nodes) - 1 entries);
            kept explicitly because parallel edges make the node sequence
            ambiguous, and reservations need exact edges.
        accumulated: component-wise sum of path metrics along the edges.
        min_link_metrics: component-wise minimum of link metrics along the
            edges; +inf per component for a zero-hop path.
    """

    __slots__ = ()

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    @staticmethod
    def trivial(node: int, link_arity: int, path_arity: int) -> "PathResult":
        """Zero-hop path for src == dst queries."""
        return PathResult(
            nodes=(node,),
            edge_handles=(),
            accumulated=(0.0,) * path_arity,
            min_link_metrics=(math.inf,) * link_arity,
        )


def path_from_edges(g, nodes: list[int], edge_handles: list[int]) -> PathResult:
    """Build a PathResult by accumulating metrics over the given edges of g."""
    sums = [0.0] * g.path_arity
    mins = [math.inf] * g.link_arity
    link_cols = g.link_cols
    path_cols = g.path_cols
    for e in edge_handles:
        for j in range(g.path_arity):
            sums[j] += path_cols[j][e]
        for j in range(g.link_arity):
            if link_cols[j][e] < mins[j]:
                mins[j] = link_cols[j][e]
    return PathResult(tuple(nodes), tuple(edge_handles), tuple(sums), tuple(mins))


def format_result_line(
    result: PathResult | NoPathError, micros: int | None = None, labels=None
) -> str:
    """One-line result serialization.

    ``status=<ok|unreachable|infeasible|negcycle|limit> hops=<n>
    path=<id,...> sums=<v,...> mins=<v,...> micros=<t>``
    """
    t = "" if micros is None else str(int(micros))
    if isinstance(result, NoPathError):
        return f"status={result.status} hops=-1 path= sums= mins= micros={t}"
    if labels is not None:
        ids = ",".join(labels(n) for n in result.nodes)
    else:
        ids = ",".join(str(n) for n in result.nodes)
    sums = ",".join(repr(v) for v in result.accumulated)
    mins = ",".join(repr(v) for v in result.min_link_metrics)
    return (
        f"status=ok hops={result.hop_count} path={ids} sums={sums} mins={mins} micros={t}"
    )
