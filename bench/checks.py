"""Output checks the benchmark applies to every result it times.

Each check returns a list of human-readable problems; an empty list means
the output is correct. The checks read only the base graph and the values
a solver or harness returned, so they hold for any implementation of the
library's public results.
"""

# Ledger sums are accumulated in a different order than the overlay applied
# them, so they agree only up to rounding relative to the base capacity.
LEDGER_REL_TOL = 1e-9
SUM_REL_TOL = 1e-9


def _close(a: float, b: float, scale: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(scale))


def check_path(g, path, src: int, dst: int, c) -> list[str]:
    """Check one returned path against the base graph g and constraints c.

    The path must run from src to dst, visit no node twice, and its edge
    handles must chain its nodes. Every edge must meet the link bounds on
    the base graph, the reported link minima must meet them too (they are
    the residual values the solver saw), and the path sums recomputed on
    the base graph must equal the reported sums and meet the path bounds
    under the constraint set's strict or non-strict comparison.
    """
    nodes = tuple(path.nodes)
    edges = tuple(path.edge_handles)
    problems = []
    if not nodes or nodes[0] != src or nodes[-1] != dst:
        problems.append(f"path {nodes} does not run from {src} to {dst}")
    if len(set(nodes)) != len(nodes):
        problems.append(f"path {nodes} visits a node twice")
    if len(edges) != len(nodes) - 1:
        problems.append(f"path has {len(nodes)} nodes but {len(edges)} edges")
        return problems
    for i, e in enumerate(edges):
        if not (0 <= e < g.edge_count) or g.edges[e][0] != nodes[i] or g.edges[e][1] != nodes[i + 1]:
            problems.append(f"edge {e} does not join {nodes[i]} -> {nodes[i + 1]}")
            return problems
    for j, bound in c.link_bounds:
        col = g.link_cols[j]
        if any(col[e] < bound for e in edges):
            problems.append(f"an edge's base link metric {j} is below the bound {bound}")
        if edges and path.min_link_metrics[j] < bound:
            problems.append(
                f"reported link minimum {path.min_link_metrics[j]} of metric {j} "
                f"is below the bound {bound}"
            )
    for j, bound in c.path_bounds:
        col = g.path_cols[j]
        total = 0.0
        for e in edges:
            total += col[e]
        if not c.sum_ok(total, bound):
            op = "<" if c.strict else "<="
            problems.append(f"path metric {j} sums to {total}, bound is {op} {bound}")
        if not _close(total, path.accumulated[j], total, SUM_REL_TOL):
            problems.append(
                f"reported sum {path.accumulated[j]} of metric {j} differs from {total}"
            )
    return problems


def check_ledger(base, overlay, edge_demands, node_demands) -> list[str]:
    """Check that an overlay's books balance.

    edge_demands maps edge handle -> summed reserved link vector and
    node_demands maps node -> summed reserved cpu; base minus residual must
    equal them on every edge and node, within a tolerance relative to the
    base value.
    """
    problems = []
    for j in range(base.link_arity):
        base_col = base.link_cols[j]
        res_col = overlay.link_cols[j]
        for e in range(base.edge_count):
            want = edge_demands[e][j] if e in edge_demands else 0.0
            got = base_col[e] - res_col[e]
            if not _close(got, want, base_col[e], LEDGER_REL_TOL):
                problems.append(f"edge {e} metric {j}: reserved {got}, demands sum to {want}")
                if len(problems) >= 5:
                    return problems
    for v in range(base.node_count):
        want = node_demands.get(v, 0.0)
        got = base.node_capacity[v] - overlay.node_capacity[v]
        if not _close(got, want, base.node_capacity[v], LEDGER_REL_TOL):
            problems.append(f"node {v}: reserved cpu {got}, demands sum to {want}")
            if len(problems) >= 5:
                return problems
    return problems


def add_path_demand(edge_demands: dict, path, demand) -> None:
    """Accumulate one reservation of demand (a link vector) along path."""
    for e in path.edge_handles:
        acc = edge_demands.get(e)
        if acc is None:
            edge_demands[e] = list(demand)
        else:
            for j, d in enumerate(demand):
                acc[j] += d


def strip_micros(line: str) -> str:
    """A `vpembed solve` result line without its timing field."""
    return " ".join(tok for tok in line.split() if not tok.startswith("micros="))
