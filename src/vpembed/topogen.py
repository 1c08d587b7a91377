"""Seeded random topologies (Waxman, Barabasi-Albert) with metric assignment.

Nodes are placed uniformly in the unit square. Waxman connects a pair at
distance d with probability alpha * exp(-d / (beta * L)), L being the
maximum possible distance; preferential attachment adds m edges per
arriving node. Undirected links are emitted as two directed edges with
equal metrics. Identical GenSpec (including seed) yields a bit-identical
graph.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintSet
from .errors import DegreeUnreachableError
from .graph import EdgeMetrics, PhysicalGraph, build_graph

# Severity tables. Bandwidth bounds are absolute Gbps; delay bounds are a
# fraction of the maximum single-link delay present in the graph. Naming is
# inverted for delay on purpose: a "high" delay constraint is the loose
# 400% bound, "low" the tight 80% one.
BW_LEVEL_GBPS = {"low": 1.0, "med": 4.0, "high": 7.0}
DELAY_LEVEL_FACTOR = {"high": 4.0, "med": 2.5, "low": 0.8}

MAX_CONNECT_RETRIES = 32


@dataclass(frozen=True)
class GenSpec:
    """Topology generation parameters.

    target_avg_degree, when set, calibrates alpha (Waxman, by bisection on
    the realized degree) or m (preferential attachment, m = round(target/2)).
    delay_model is "euclidean_scaled" (delay proportional to plane distance,
    scaled so the longest generated link has max_delay) or "uniform" over
    delay_range.
    """

    model: str = "waxman"
    node_count: int = 100
    target_avg_degree: float | None = 4.0
    alpha: float = 0.15
    beta: float = 0.2
    m: int | None = None
    bw_range: tuple[float, float] = (1.0, 9.0)
    delay_model: str = "euclidean_scaled"
    max_delay: float = 10.0
    delay_range: tuple[float, float] = (1.0, 10.0)
    cpu_units: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("waxman", "barabasi_albert"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if not (0 < self.alpha <= 1) or not (0 < self.beta <= 1):
            raise ValueError("alpha and beta must lie in (0, 1]")
        if self.bw_range[0] > self.bw_range[1]:
            raise ValueError("bw_range low > high")
        if self.delay_model not in ("euclidean_scaled", "uniform"):
            raise ValueError(f"unknown delay model {self.delay_model!r}")


def _components(n: int, pairs) -> list[list[int]]:
    """Connected components of an undirected edge list (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _waxman_pairs(n, coords, uniform, beta, alpha, target):
    """One Waxman draw. With a degree target, alpha is calibrated so the
    realized link count hits round(target * n / 2) exactly: a pair joins
    when uniform/scale < alpha, so the target-count order statistic of that
    ratio IS the calibrated alpha (the closed form of bisecting on it)."""
    iu, iv = np.triu_indices(n, 1)
    d = np.hypot(coords[iu, 0] - coords[iv, 0], coords[iu, 1] - coords[iv, 1])
    scale = np.exp(-d / (beta * math.sqrt(2.0)))
    if target is None:
        chosen = uniform < alpha * scale
    else:
        want = round(target * n / 2)
        if want < 1 or want >= len(d):
            raise DegreeUnreachableError(f"degree {target} out of range for {n} nodes")
        ratio = uniform / scale
        cut = float(np.partition(ratio, want)[want])
        if cut > 1.0:
            # alpha is capped at 1; acceptable only if still within 10%
            count = int((ratio < 1.0).sum())
            if count < math.ceil(0.9 * target * n / 2):
                raise DegreeUnreachableError(
                    f"degree {target} unreachable: alpha=1 realizes only {2 * count / n:.2f}"
                )
            cut = 1.0
        chosen = ratio < cut
    return iu[chosen], iv[chosen], d[chosen]


def _barabasi_pairs(n, m, rng):
    if m < 1 or m >= n:
        raise DegreeUnreachableError(f"attachment count m={m} invalid for {n} nodes")
    pairs = []
    targets = list(range(m))
    repeated: list[int] = []
    for source in range(m, n):
        for t in targets:
            pairs.append((min(source, t), max(source, t)))
        repeated.extend(targets)
        repeated.extend([source] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(repeated[int(rng.integers(len(repeated)))])
        targets = sorted(chosen)
    return pairs


def generate(spec: GenSpec) -> PhysicalGraph:
    """Generate a connected graph; a pure function of the GenSpec fields.

    Disconnected draws are regenerated with an offset seed up to 32 times,
    after which remaining components are joined by minimum-distance bridge
    links carrying median metrics.

    Raises:
        DegreeUnreachableError: target_avg_degree cannot be realized.
    """
    n = spec.node_count
    for attempt in range(MAX_CONNECT_RETRIES + 1):
        rng = np.random.default_rng(spec.seed + 1_000_003 * attempt)
        coords = rng.random((n, 2))
        if spec.model == "waxman":
            uniform = rng.random(n * (n - 1) // 2)
            iu, iv, dists = _waxman_pairs(
                n, coords, uniform, spec.beta, spec.alpha, spec.target_avg_degree
            )
            pairs = list(zip(iu.tolist(), iv.tolist()))
            pair_dist = dists.tolist()
        else:
            m = spec.m
            if m is None:
                m = max(1, round((spec.target_avg_degree or 2.0) / 2))
            pairs = _barabasi_pairs(n, m, rng)
            pair_dist = [
                math.hypot(coords[u, 0] - coords[v, 0], coords[u, 1] - coords[v, 1])
                for u, v in pairs
            ]
        comps = _components(n, pairs)
        if len(comps) == 1:
            break
        if len(comps) > 8:
            # a fresh draw with this density is all but guaranteed to be
            # disconnected too; go straight to bridging
            break
    bridge_pairs: set[tuple[int, int]] = set()
    if len(comps) > 1:
        before = len(pairs)
        pairs, pair_dist = _bridge_components(comps, coords, pairs, pair_dist)
        bridge_pairs = set(pairs[before:])

    order = sorted(range(len(pairs)), key=lambda i: pairs[i])
    pairs = [pairs[i] for i in order]
    pair_dist = [pair_dist[i] for i in order]

    # one metric draw per undirected link, shared by both directions;
    # bridge links carry the median of the drawn values
    draw = np.random.default_rng(spec.seed ^ 0x5DEECE66D)
    bw = draw.uniform(spec.bw_range[0], spec.bw_range[1], len(pairs))
    if spec.delay_model == "euclidean_scaled":
        dmax = max(pair_dist) if pair_dist else 1.0
        delay = [spec.max_delay * d / dmax for d in pair_dist]
    else:
        delay = draw.uniform(spec.delay_range[0], spec.delay_range[1], len(pairs)).tolist()
    if bridge_pairs:
        regular = [i for i, p in enumerate(pairs) if p not in bridge_pairs]
        bw_med = float(np.median(bw[regular])) if regular else float(np.mean(spec.bw_range))
        for i, p in enumerate(pairs):
            if p in bridge_pairs:
                bw[i] = bw_med
                if spec.delay_model == "uniform":
                    delay[i] = float(np.median([delay[j] for j in regular])) if regular else delay[i]

    edges = []
    for i, (u, v) in enumerate(pairs):
        metrics = EdgeMetrics((float(bw[i]),), (float(delay[i]),))
        edges.append((u, v, metrics))
        edges.append((v, u, metrics))
    return build_graph(n, edges, [spec.cpu_units] * n)


def _bridge_components(comps, coords, pairs, pair_dist):
    """Attach every secondary component to the largest one with the
    minimum-distance cross pair; bridge links carry median metrics via the
    caller's draw order (they are appended to the pair list)."""
    comps = sorted(comps, key=len, reverse=True)
    core = list(comps[0])
    pairs = list(pairs)
    pair_dist = list(pair_dist)
    for other in comps[1:]:
        best = None
        for a in core:
            ax, ay = coords[a]
            for b in other:
                d = math.hypot(ax - coords[b, 0], ay - coords[b, 1])
                if best is None or d < best[0]:
                    best = (d, min(a, b), max(a, b))
        d, a, b = best
        pairs.append((a, b))
        pair_dist.append(d)
        core.extend(other)
    return pairs, pair_dist


def realized_avg_degree(g: PhysicalGraph) -> float:
    """Average undirected degree (directed edges come in symmetric pairs)."""
    return g.edge_count / g.node_count


def max_link_delay(g: PhysicalGraph, metric_index: int = 0) -> float:
    """Largest single-link delay present in the graph."""
    return max(g.path_cols[metric_index])


def resolve_constraint_severity(g: PhysicalGraph, bw_level: str, delay_level: str) -> ConstraintSet:
    """Severity names to an absolute constraint set for graph g.

    Bandwidth: low/med/high = 1/4/7 Gbps lower bound on link metric 0.
    Delay: high/med/low = 400%/250%/80% of the maximum single-link delay,
    upper bound on path metric 0 (high = loose).
    """
    if delay_level not in DELAY_LEVEL_FACTOR:
        raise ValueError(
            f"delay_level must be one of {sorted(DELAY_LEVEL_FACTOR)}, got {delay_level!r}"
        )
    # 100 * f / 100.0 == f exactly for every factor, so the bound is f * max delay
    return constraints_from_percent(g, bw_level, 100 * DELAY_LEVEL_FACTOR[delay_level])


def constraints_from_percent(g: PhysicalGraph, bw_level: str, delay_percent: float) -> ConstraintSet:
    """Like resolve_constraint_severity but with the delay bound given
    directly as a percentage of the maximum single-link delay (the sweep
    axis runs 400% down to 50%)."""
    if bw_level not in BW_LEVEL_GBPS:
        raise ValueError(f"bw_level must be one of {sorted(BW_LEVEL_GBPS)}, got {bw_level!r}")
    return ConstraintSet(
        link_bounds=((0, BW_LEVEL_GBPS[bw_level]),),
        path_bounds=((0, delay_percent / 100.0 * max_link_delay(g)),),
    )
