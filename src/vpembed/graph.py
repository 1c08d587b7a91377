"""Directed multigraph with typed edge metrics and a residual-capacity overlay.

Nodes are dense integer ids in ``[0, node_count)``. Every edge carries two
metric vectors: *link* metrics are checked per edge against lower bounds
(e.g. bandwidth in Gbps) and *path* metrics are summed along a path against
upper bounds (e.g. delay in ms). Metric arities are declared graph-wide so
constraint validation is O(1).

A :class:`PhysicalGraph` is built by one checked constructor, also bound
as ``build_graph``, and its topology and metrics are fixed after
construction. Its two mutable slots are caches that solvers fill:
``mask_memo``, the record of the link-bound pruning mask of the last bound
set queried (``neighborhoods._MaskMemo``), which only ``neighborhoods``
reads or writes; and ``ranked_paths``, ksp's candidates per (src, dst) (see
``baselines.solve_ksp``), a pure function of the topology. Bandwidth
reservations live in a :class:`ResidualOverlay`, which owns residual
copies of the consumable columns and its own mask memo, and shares its
base's ``ranked_paths``. Writing ``link_cols`` other than through
``reserve``/``release`` once a solve has run leaves the memo stale and is
unsupported. An overlay is single-writer: concurrent reserve or release
calls, and solves racing them, must be serialized externally.
"""

import math
from collections import namedtuple

from .errors import (
    ArityMismatchError,
    InsufficientResidualError,
    OverReleaseError,
    SelfLoopError,
)
from .neighborhoods import _refresh_mask


def _floats(values) -> tuple[float, ...]:
    """values as a tuple of floats: values itself when it is a tuple of
    floats already, as a topology file's or the generator's are."""
    if type(values) is tuple:
        for v in values:
            if type(v) is not float:
                break
        else:
            return values
    return tuple(map(float, values))


class EdgeMetrics(namedtuple("EdgeMetrics", "link_metrics path_metrics")):
    """Per-edge metric vectors: an immutable record, equal and hashed by
    value (it is a tuple of its fields).

    link_metrics must be nonnegative, not NaN; path_metrics may be negative
    (the level-by-level solver detects negative-total cycles) or NaN. Both
    are stored as tuples of floats, whatever sequence of numbers is given.
    """

    __slots__ = ()

    def __new__(cls, link_metrics, path_metrics):
        link, path = _floats(link_metrics), _floats(path_metrics)
        for v in link:
            if not v >= 0:
                raise ArityMismatchError(f"link metrics must be >= 0, got {v}")
        return tuple.__new__(cls, (link, path))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace would skip the checks in __new__
        return cls(*iterable)


class PhysicalGraph:
    """Directed multigraph over dense node ids.

    Attributes:
        node_count: number of nodes.
        edges: list of (src, dst, EdgeMetrics); the list index is the edge
            handle, preserving input order.
        adjacency: per-node list of (neighbor, edge handle), sorted ascending
            by neighbor id then handle, so iteration order is deterministic.
        in_adjacency: same shape for incoming edges, (source, edge handle).
        node_capacity: per-node capacity (CPU units).
        link_cols / path_cols: column-major metric storage,
            ``link_cols[j][e]`` is link metric j of edge e.
        path_nonneg: ``path_nonneg[j]`` is True when no edge has a negative
            path metric j (NaN counts as nonnegative), fixed at construction.
        labels: optional human-readable node names (display only).
        mask_memo: None, or the pruning-mask record of the last bound set
            queried, a ``neighborhoods._MaskMemo``, whose docstring lists
            what it keeps. Kept by ``neighborhoods``, the only module that
            reads or writes it. Mutable.
        ranked_paths: dict from (src, dst) to ``(candidates, exhausted)``,
            kept by ``baselines.solve_ksp``: the loop-free paths of the
            topology ranked so far, as (nodes, edge_handles) tuples in
            (hop count, lexicographic) order, and whether that is all of
            them. Mutable, entries replaced whole; overlays share their
            base's dict.
    """

    __slots__ = (
        "node_count",
        "edges",
        "adjacency",
        "in_adjacency",
        "node_capacity",
        "link_arity",
        "path_arity",
        "link_cols",
        "path_cols",
        "path_nonneg",
        "labels",
        "mask_memo",
        "ranked_paths",
    )

    def __init__(
        self,
        node_count: int,
        edges: list[tuple[int, int, EdgeMetrics]],
        node_capacity: list[float] | None = None,
        *,
        link_arity: int | None = None,
        path_arity: int | None = None,
        labels: list[str | None] | None = None,
    ):
        """Validate the inputs and build the graph.

        Metric arities are taken from the first edge unless given explicitly;
        every edge must agree. Parallel edges are permitted, self-loops are
        not. A node capacity is a number >= 0, as a link metric is; it
        defaults to 0 on every node.

        Raises:
            IndexError: a node id is outside [0, node_count).
            SelfLoopError: an edge has src == dst.
            ArityMismatchError: inconsistent metric vector lengths.
            ValueError: a node capacity is negative or NaN.
        """
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        if node_capacity is None:
            node_capacity = [0.0] * node_count
        if len(node_capacity) != node_count:
            raise ValueError(
                f"node_capacity has {len(node_capacity)} entries, expected {node_count}"
            )
        if labels is not None and len(labels) != node_count:
            raise ValueError("labels length must equal node_count")
        capacity = [float(cap) for cap in node_capacity]
        for node, cap in enumerate(capacity):
            if not cap >= 0:
                raise ValueError(f"node {node} capacity must be >= 0, got {cap}")
        if edges:
            first = edges[0][2]
            if link_arity is None:
                link_arity = len(first.link_metrics)
            if path_arity is None:
                path_arity = len(first.path_metrics)
        else:
            link_arity = link_arity or 0
            path_arity = path_arity or 0
        for src, dst, metrics in edges:
            if not (0 <= src < node_count) or not (0 <= dst < node_count):
                raise IndexError(f"edge ({src}, {dst}) outside [0, {node_count})")
            if src == dst:
                raise SelfLoopError(f"self-loop at node {src}")
            if len(metrics.link_metrics) != link_arity or len(metrics.path_metrics) != path_arity:
                raise ArityMismatchError(
                    f"edge ({src}, {dst}) has arities "
                    f"({len(metrics.link_metrics)}, {len(metrics.path_metrics)}), "
                    f"declared ({link_arity}, {path_arity})"
                )

        self.node_count = node_count
        self.edges = list(edges)
        self.node_capacity = capacity
        self.link_arity = link_arity
        self.path_arity = path_arity
        self.labels = labels

        self.link_cols = [[m.link_metrics[j] for (_, _, m) in edges] for j in range(link_arity)]
        self.path_cols = [[m.path_metrics[j] for (_, _, m) in edges] for j in range(path_arity)]
        self.path_nonneg = [not any(w < 0 for w in col) for col in self.path_cols]
        self.mask_memo = None
        self.ranked_paths = {}

        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
        in_adjacency: list[list[tuple[int, int]]] = [[] for _ in range(node_count)]
        for handle, (src, dst, _) in enumerate(edges):
            adjacency[src].append((dst, handle))
            in_adjacency[dst].append((src, handle))
        for lst in adjacency:
            lst.sort()
        for lst in in_adjacency:
            lst.sort()
        self.adjacency = adjacency
        self.in_adjacency = in_adjacency

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def label_of(self, node: int) -> str:
        if self.labels is not None and self.labels[node] is not None:
            return self.labels[node]
        return str(node)


# the public name of the checked constructor
build_graph = PhysicalGraph


def _slack(base_values) -> list[float]:
    """Float tolerance of a ledger check against each of base_values:
    1e-12 relative, never below 1e-12 absolute."""
    return [1e-12 * v if v > 1.0 else 1e-12 for v in base_values]


class ResidualOverlay(PhysicalGraph):
    """Mutable residual view over an immutable base graph.

    An overlay is a PhysicalGraph: solvers read it exactly like its base.
    It owns residual copies of ``link_cols`` (typically bandwidth) and
    ``node_capacity``, and its own ``mask_memo``, which starts empty and
    which :meth:`reserve` and :meth:`release` keep exact on every edge they
    touch (``neighborhoods._refresh_mask``); every other attribute
    (topology, arities, path metrics and their signs, labels, and the
    ``ranked_paths`` cache, which depends on the topology alone) is the
    base graph's, shared since none of it is consumable.

    The overlay does not track who reserved what; pairing reserves with
    releases is the caller's responsibility. The ledger checks allow a float
    slack proportional to each edge's or node's base value, so rounding
    drift from any order of reserves and releases is tolerated at every
    capacity scale. Each call names distinct edges, or one node, of the
    graph and a demand whose every component is finite and >= 0; anything
    else is refused before any state changes.

    The slack of every base link value and base node capacity is computed
    once, by :func:`_slack`, when the overlay is built: the ledger checks
    and ``harness._place_nodes`` read ``_link_slack[j][e]`` and
    ``_node_slack[v]``.
    """

    __slots__ = ("base", "_link_slack", "_node_slack")

    def __init__(self, base: PhysicalGraph):
        for name in PhysicalGraph.__slots__:
            setattr(self, name, getattr(base, name))
        self.base = base
        self.link_cols = [col.copy() for col in base.link_cols]
        self.node_capacity = list(base.node_capacity)
        # the base's mask is the base's: sharing it would let reserve edit it
        self.mask_memo = None
        self._link_slack = [_slack(col) for col in base.link_cols]
        self._node_slack = _slack(base.node_capacity)

    def _request(self, path, demand):
        """(edge handles, link demand) of a reserve or release, checked
        before anything is mutated: the handles must be distinct edges of
        the graph and the demand must have the graph's link arity, every
        component finite and >= 0 (inf - inf would leave a NaN residual)."""
        link = tuple(demand)
        if len(link) != self.link_arity:
            raise ArityMismatchError(
                f"demand has {len(link)} link metrics, graph declares {self.link_arity}"
            )
        for need in link:
            if not 0 <= need < math.inf:
                raise ValueError(f"demand {link} has a negative, infinite or NaN component")
        handles = getattr(path, "edge_handles", path)
        if handles and not 0 <= min(handles) <= max(handles) < self.edge_count:
            raise IndexError(f"edge handles {handles} outside [0, {self.edge_count})")
        if len(set(handles)) != len(handles):
            raise ValueError(f"edge handles {handles} repeat an edge")
        return handles, link

    def _check_node(self, node: int, cpu: float) -> None:
        """Check the node a reserve_node or release_node names before
        anything is mutated: it must be in range and cpu finite and >= 0."""
        if not 0 <= node < self.node_count:
            raise IndexError(f"node {node} outside [0, {self.node_count})")
        if not 0 <= cpu < math.inf:
            raise ValueError(f"node {node} cpu demand must be finite and >= 0, got {cpu}")

    def reserve(self, path, demand) -> None:
        """Subtract demand's link metrics from every edge on the path.

        Atomic: if any check fails, nothing is mutated.

        Raises:
            InsufficientResidualError: some on-path edge residual < demand.
            IndexError / ValueError: a handle is out of range or repeats,
                or a demand component is negative, infinite or NaN.
        """
        handles, link = self._request(path, demand)
        cols, slack = self.link_cols, self._link_slack
        for e in handles:
            for j, need in enumerate(link):
                if cols[j][e] < need - slack[j][e]:
                    raise InsufficientResidualError(
                        f"edge {e} residual metric {j} is {cols[j][e]}, demand {need}"
                    )
        for e in handles:
            for j, need in enumerate(link):
                cols[j][e] -= need
        _refresh_mask(self, handles)

    def release(self, path, demand) -> None:
        """Add demand's link metrics back onto every edge on the path.

        Atomic; the exact inverse of :meth:`reserve`.

        Raises:
            OverReleaseError: some edge would exceed its base metric.
            IndexError / ValueError: a handle is out of range or repeats,
                or a demand component is negative, infinite or NaN.
        """
        handles, link = self._request(path, demand)
        cols, base_cols, slack = self.link_cols, self.base.link_cols, self._link_slack
        for e in handles:
            for j, back in enumerate(link):
                if cols[j][e] + back > base_cols[j][e] + slack[j][e]:
                    raise OverReleaseError(
                        f"edge {e} metric {j} would exceed base "
                        f"({cols[j][e]} + {back} > {base_cols[j][e]})"
                    )
        for e in handles:
            for j, back in enumerate(link):
                cols[j][e] += back
        _refresh_mask(self, handles)

    def reserve_node(self, node: int, cpu: float) -> None:
        """Subtract cpu units from a node's residual capacity."""
        self._check_node(node, cpu)
        if self.node_capacity[node] < cpu - self._node_slack[node]:
            raise InsufficientResidualError(
                f"node {node} residual cpu {self.node_capacity[node]}, demand {cpu}"
            )
        self.node_capacity[node] -= cpu

    def release_node(self, node: int, cpu: float) -> None:
        """Return cpu units to a node's residual capacity."""
        self._check_node(node, cpu)
        base = self.base.node_capacity[node]
        if self.node_capacity[node] + cpu > base + self._node_slack[node]:
            raise OverReleaseError(f"node {node} cpu would exceed base capacity")
        self.node_capacity[node] += cpu
