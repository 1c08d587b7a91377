"""Seeded random topologies (Waxman, Barabasi-Albert) with metric assignment.

Nodes are placed uniformly in the unit square. Waxman connects a pair at
distance d with probability alpha * exp(-d / (beta * L)), L being the
maximum possible distance; preferential attachment adds m edges per
arriving node. Undirected links are emitted as two directed edges with
equal metrics. Identical GenSpec (including seed) yields a bit-identical
graph.

Memory is linear in the node count plus the link target: the Waxman draw
streams the n(n-1)/2 candidate pairs in blocks of whole rows, drawing each
block's uniforms as it goes, and bridging ranks cross pairs a block at a
time (:func:`_waxman_pairs`, :func:`_bridge_components`).

numpy is imported inside the three functions that draw with it, not here:
a sweep on a topology file imports this module (through ``harness``) but
never needs numpy, whose import costs more than the rest of the package.
A process that reads a topology file and answers one query imports
neither: ``vpembed`` resolves this module's names on first access, and
``vpembed solve`` never reads them.
"""

import math
from dataclasses import dataclass

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

# Pairs per row block of the Waxman draw (at least; see _row_blocks), read
# at call time: any graph of up to 256 nodes is drawn in one block.
PAIR_BLOCK = 2**15

# Relative margin above a block's numpy.hypot minimum within which bridging
# re-checks a pair with math.hypot; the two differ by a few ulps at most.
HYPOT_MARGIN = 2.0**-40

# the generator models, as GenSpec.model and `vpembed gen --model` name them
MODELS = ("waxman", "barabasi_albert")


@dataclass(frozen=True)
class GenSpec:
    """Topology generation parameters.

    target_avg_degree, when set, calibrates alpha (Waxman, by bisection on
    the realized degree) or, when m is not given, the attachment count
    (preferential attachment, see :attr:`attachment_count`). delay_model is
    "euclidean_scaled" (delay proportional to plane distance, scaled so the
    longest generated link has max_delay) or "uniform" over delay_range.
    ValueError refuses a model outside MODELS, a degree target that is not
    finite and > 0, a non-finite max_delay or range end, a range whose low
    end is above its high end, a negative seed or bandwidth, an m outside
    [1, node_count), and a preferential-attachment degree target whose
    attachment count m is not below node_count or whose realized degree,
    2m(node_count - m)/node_count, is more than 10% below it.
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
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")
        if not (0 < self.alpha <= 1) or not (0 < self.beta <= 1):
            raise ValueError("alpha and beta must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        degree = self.target_avg_degree
        if degree is not None and not 0 < degree < math.inf:
            raise ValueError(f"target_avg_degree must be finite and > 0, got {degree}")
        if self.m is not None and not 1 <= self.m < self.node_count:
            raise ValueError(f"m must lie in [1, {self.node_count}), got {self.m}")
        if self.model == "barabasi_albert" and self.attachment_count >= self.node_count:
            raise ValueError(
                f"degree target {degree} needs attachment count m={self.attachment_count}, "
                f"but {self.node_count} nodes allow at most m={self.node_count - 1}"
            )
        if self.model == "barabasi_albert" and self.m is None and degree is not None:
            # each of the n - m arriving nodes adds m links; like Waxman,
            # refuse a target missed by more than 10%
            m = self.attachment_count
            links = m * (self.node_count - m)
            if links < math.ceil(0.9 * degree * self.node_count / 2):
                raise ValueError(
                    f"degree target {degree} unreachable: attachment count m={m} "
                    f"realizes only {2 * links / self.node_count:.2f}"
                )
        if not math.isfinite(self.max_delay):
            raise ValueError(f"max_delay must be finite, got {self.max_delay}")
        for name in ("bw_range", "delay_range"):
            low, high = getattr(self, name)
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError(f"{name} must be finite, got ({low}, {high})")
            if low > high:
                raise ValueError(f"{name} low > high")
        if self.bw_range[0] < 0:
            raise ValueError(f"bw_range low end must be >= 0, got {self.bw_range}")
        if not self.cpu_units >= 0:
            raise ValueError(f"cpu_units must be >= 0, got {self.cpu_units}")
        if self.delay_model not in ("euclidean_scaled", "uniform"):
            raise ValueError(f"unknown delay model {self.delay_model!r}")

    @property
    def attachment_count(self) -> int:
        """Edges each arriving node adds under preferential attachment: m
        when given, else round(target_avg_degree / 2), at least 1 (and 1
        without a degree target)."""
        if self.m is not None:
            return self.m
        return max(1, round((self.target_avg_degree or 2.0) / 2))


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


def _row_blocks(n: int, floor: int):
    """(first, end) row ranges that split the upper triangle of an n-node
    pair matrix into runs of whole rows, each holding at least floor pairs
    except possibly the last; row i holds the n - 1 - i pairs (i, j > i)."""
    first = 0
    while first < n - 1:
        end, size = first, 0
        while end < n - 1 and size < floor:
            size += n - 1 - end
            end += 1
        yield first, end
        first = end


def _waxman_pairs(n, coords, rng, beta, alpha, target):
    """One Waxman draw: the chosen pairs (iu, iv) in triangle order (by u,
    then v) with their plane distances d. With a degree target, alpha is
    calibrated so the realized link count hits round(target * n / 2)
    exactly: a pair joins when uniform/scale < alpha, so the target-count
    order statistic of that ratio IS the calibrated alpha (the closed form
    of bisecting on it).

    The triangle is drawn and filtered in blocks of whole rows
    (:func:`_row_blocks`, at least PAIR_BLOCK pairs each, read at call
    time), so memory is O(block + target), not O(n**2). Each block takes
    its uniforms with ``rng.random``; a PCG64 Generator fills a float64
    array one 64-bit output per entry, so blockwise draws equal one draw of
    the whole triangle. With a target, the want + 1 smallest (ratio, pair)
    entries seen so far are carried from block to block; once that many
    are carried, a block adds only its entries below the carried maximum.
    An entry dropped either way is at least the carried maximum, which only
    falls as blocks arrive, so it is at least the final order statistic
    ``cut``: it is never chosen and never moves cut. Every ratio below cut,
    and every ratio below 1 when cut exceeds 1, thus reaches the last
    block, whatever the tie order."""
    import numpy as np

    total = n * (n - 1) // 2
    if target is not None:
        want = round(target * n / 2)
        if want < 1 or want >= total:
            raise DegreeUnreachableError(f"degree {target} out of range for {n} nodes")
    parts = []
    kept = None
    for first, end in _row_blocks(n, PAIR_BLOCK):
        rows = np.arange(first, end)[:, None]
        cols = np.arange(first + 1, n)
        upper = cols > rows
        iu = np.broadcast_to(rows, upper.shape)[upper]
        iv = np.broadcast_to(cols, upper.shape)[upper]
        d = np.hypot(coords[iu, 0] - coords[iv, 0], coords[iu, 1] - coords[iv, 1])
        scale = np.exp(-d / (beta * math.sqrt(2.0)))
        uniform = rng.random(len(d))
        if target is None:
            chosen = uniform < alpha * scale
            parts.append((iu[chosen], iv[chosen], d[chosen]))
            continue
        block = (uniform / scale, iu, iv, d)
        if kept is not None:
            low = block[0] < top
            block = tuple(np.concatenate((a, b[low])) for a, b in zip(kept, block))
        if end < n - 1 and len(block[0]) > want + 1:
            keep = np.argpartition(block[0], want)[: want + 1]
            block = tuple(a[keep] for a in block)
        kept = block
        top = block[0].max() if len(block[0]) > want else math.inf
    if target is None:
        return tuple(np.concatenate(col) for col in zip(*parts))
    ratio, iu, iv, d = kept
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
    iu, iv, d = iu[chosen], iv[chosen], d[chosen]
    # carried entries come out of argpartition unordered; one block is in
    # triangle order already, with unique keys, so the sort keeps it as is
    order = np.argsort(iu * n + iv)
    return iu[order], iv[order], d[order]


def _barabasi_pairs(n, m, rng):
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
    import numpy as np

    n = spec.node_count
    for attempt in range(MAX_CONNECT_RETRIES + 1):
        rng = np.random.default_rng(spec.seed + 1_000_003 * attempt)
        coords = rng.random((n, 2))
        if spec.model == "waxman":
            iu, iv, dists = _waxman_pairs(
                n, coords, rng, spec.beta, spec.alpha, spec.target_avg_degree
            )
            pairs = list(zip(iu.tolist(), iv.tolist()))
            pair_dist = dists.tolist()
        else:
            pairs = _barabasi_pairs(n, spec.attachment_count, rng)
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
        delay_med = None
        if spec.delay_model == "uniform" and regular:
            delay_med = float(np.median([delay[j] for j in regular]))
        for i, p in enumerate(pairs):
            if p in bridge_pairs:
                bw[i] = bw_med
                if delay_med is not None:
                    delay[i] = delay_med

    edges = []
    for i, (u, v) in enumerate(pairs):
        metrics = EdgeMetrics((float(bw[i]),), (float(delay[i]),))
        edges.append((u, v, metrics))
        edges.append((v, u, metrics))
    return build_graph(n, edges, [spec.cpu_units] * n)


def _bridge_components(comps, coords, pairs, pair_dist):
    """Attach every secondary component to the largest one with the
    minimum-distance cross pair; bridge links carry median metrics via the
    caller's draw order (they are appended to the pair list).

    The pair is the first strict minimum of math.hypot over core x other,
    core nodes outer and other nodes inner, core growing by each attached
    component. numpy's hypot ranks the pairs first, a block of whole core
    rows at a time (PAIR_BLOCK entries or more); math.hypot then re-checks
    only those within HYPOT_MARGIN of their block's numpy minimum. Both
    round to within an ulp or so of the true distance, so every pair at the
    math.hypot minimum is among them."""
    import numpy as np

    comps = sorted(comps, key=len, reverse=True)
    core = list(comps[0])
    pairs = list(pairs)
    pair_dist = list(pair_dist)
    for other in comps[1:]:
        at = np.array(core)
        ox = coords[other, 0]
        oy = coords[other, 1]
        step = max(1, PAIR_BLOCK // len(other))
        best = None
        for lo in range(0, len(core), step):
            rows = at[lo : lo + step]
            dd = np.hypot(coords[rows, 0, None] - ox, coords[rows, 1, None] - oy)
            near_a, near_b = np.nonzero(dd <= dd.min() * (1 + HYPOT_MARGIN))
            for i, j in zip(near_a.tolist(), near_b.tolist()):
                a, b = core[lo + i], other[j]
                ax, ay = coords[a]
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
    """Largest single-link delay present in the graph; 0.0 when it has no
    edges, so every delay bound derived from it is 0 and each pair of an
    edgeless topology is simply unreachable."""
    return max(g.path_cols[metric_index], default=0.0)


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
