"""Experiment drivers: VNE management-plane and traffic-steering data-plane runs.

Both drivers embed constrained virtual links onto a shared substrate through
a pluggable solver backend and account for every reservation on a
ResidualOverlay. A virtual link is one query in both, ``link 0 >= bw`` plus
``path 0 < delay``, and consumes its link bounds on every edge of its path.
Sweeps expand a declarative ExperimentConfig, a steering or a VNE scenario,
into a grid of independent cells (one CSV row each); cells are deterministic
functions of their parameters, so reruns produce byte-identical output.
Wall-clock measurement is opt-in (measure_time) because timing is inherently
non-reproducible; with it off the timing column stays empty.
"""

import itertools
import math
import os
import random
import time
from dataclasses import dataclass, field, fields

from . import topofile
from .backends import resolve_backend
from .constraints import ConstraintSet
from .errors import ConfigError, InvalidCountsError, NoPathError, UnknownBackendError
from .graph import EdgeMetrics, PhysicalGraph, ResidualOverlay, build_graph
from .paths import PathResult
from .topogen import (
    BW_LEVEL_GBPS,
    DELAY_LEVEL_FACTOR,
    MODELS,
    GenSpec,
    constraints_from_percent,
    generate,
    realized_avg_degree,
)

CSV_HEADER = (
    "model,nodes,avg_degree,bw_level,delay_level,backend,seed,"
    "vn_alloc_ratio,link_alloc_ratio,link_util,throughput_gbps,"
    "energy_eff,avg_hops,avg_us,n_used"
)


@dataclass(frozen=True)
class VnRequest:
    """One virtual network request: node CPU demands plus constrained links.

    virtual_links entries are (vnode_a, vnode_b, bw_demand, delay_bound);
    delay_bound may be None (no bound) but not NaN. Demands must be
    positive and finite, so NaN and +inf are refused there.
    """

    virtual_nodes: tuple[float, ...]
    virtual_links: tuple[tuple[int, int, float, float | None], ...]

    def __post_init__(self):
        n = len(self.virtual_nodes)
        for cpu in self.virtual_nodes:
            if not 0 < cpu < math.inf:
                raise ValueError(f"virtual node cpu demand must be positive and finite, got {cpu}")
        for a, b, bw, delay in self.virtual_links:
            if a == b or not (0 <= a < n) or not (0 <= b < n):
                raise ValueError(f"bad virtual link endpoints ({a}, {b}) for {n} nodes")
            if not 0 < bw < math.inf:
                raise ValueError(f"virtual link bw demand must be positive and finite, got {bw}")
            if delay is not None and math.isnan(delay):
                raise ValueError(f"virtual link ({a}, {b}) delay bound is NaN")


@dataclass
class VneOutcome:
    """Per-request embedding record (kept for invariant checks)."""

    accepted: bool
    hosts: tuple[int, ...] | None = None
    paths: list[PathResult] = field(default_factory=list)
    demands: list[float] = field(default_factory=list)


@dataclass
class VneReport:
    vn_allocation_ratio: float
    link_allocation_ratio: float
    link_utilization: float
    per_request_outcomes: list[VneOutcome]


@dataclass
class SteeringReport:
    total_throughput: float
    energy_efficiency: float
    avg_path_length: float
    avg_time_us: float | None
    n_used: int
    vl_count: int
    solve_calls: int
    allocations: list[tuple[int, int, PathResult]]


def energy_efficiency(total_nodes: int, used_nodes: int, bw_total: float) -> float:
    """Unused-node fraction weighted by total allocated throughput:
    ((N - N_used) / N) * bw_total."""
    if total_nodes <= 0 or used_nodes < 0 or used_nodes > total_nodes:
        raise InvalidCountsError(f"bad node counts: used {used_nodes} of {total_nodes}")
    return (total_nodes - used_nodes) / total_nodes * bw_total


def _demand(g: PhysicalGraph, c: ConstraintSet) -> tuple[float, ...]:
    """What a virtual link routed under c consumes on each edge: each link
    bound on its metric, 0 on the others. Raises ArityMismatchError when c
    names a metric g does not declare."""
    c.validate_arity(g.link_arity, g.path_arity)
    demand = [0.0] * g.link_arity
    for j, bound in c.link_bounds:
        demand[j] = bound
    return tuple(demand)


def _place_nodes(overlay: ResidualOverlay, demands) -> tuple[int, ...] | None:
    """Greedy host choice for one request, reserving nothing: each demand
    takes the first node, in one (-residual cpu, id) order sorted once per
    request, that is unused and can host it under the float slack
    reserve_node allows. Returns the hosts, or None if some demand fits no
    unused node."""
    cap = overlay.node_capacity
    slack = overlay._node_slack
    # a stable sort keeps equal residuals in ascending id order, reverse too
    free = sorted(range(overlay.node_count), key=cap.__getitem__, reverse=True)
    hosts = []
    for cpu in demands:
        for i, host in enumerate(free):
            if cap[host] >= cpu - slack[host]:
                break
        else:
            return None
        del free[i]
        hosts.append(host)
    return tuple(hosts)


def run_vne(g: PhysicalGraph, requests, backend: str) -> VneReport:
    """Embed a pool of VN requests in order through the named backend.

    Per request: placement picks every host before anything is reserved,
    then each virtual link is routed against the residual overlay under
    ``link 0 >= bw`` plus ``path 0 < delay`` (inf when none is declared).
    Acceptance is all-or-nothing: any failed link rejects the whole request
    and rolls back its reservations.

    Raises:
        UnknownBackendError: backend does not name a registered solver.
        ArityMismatchError: g lacks link metric 0 or path metric 0.
    """
    solver = resolve_backend(backend)
    overlay = ResidualOverlay(g)
    outcomes: list[VneOutcome] = []
    accepted_vn = 0
    accepted_vl = 0
    requested_vl = 0

    for req in requests:
        requested_vl += len(req.virtual_links)
        hosts = _place_nodes(overlay, req.virtual_nodes)
        if hosts is None:
            outcomes.append(VneOutcome(False))
            continue
        for host, cpu in zip(hosts, req.virtual_nodes):
            overlay.reserve_node(host, cpu)
        reserved: list[tuple[PathResult, tuple[float, ...]]] = []
        for a, b, bw, delay in req.virtual_links:
            c = ConstraintSet(((0, bw),), ((0, math.inf if delay is None else delay),))
            try:
                path = solver(overlay, hosts[a], hosts[b], c)
            except NoPathError:
                break
            demand = _demand(g, c)
            overlay.reserve(path, demand)
            reserved.append((path, demand))
        if len(reserved) == len(req.virtual_links):
            accepted_vn += 1
            accepted_vl += len(reserved)
            outcomes.append(
                VneOutcome(True, hosts, [p for p, _ in reserved], [d[0] for _, d in reserved])
            )
        else:
            for path, demand in reversed(reserved):
                overlay.release(path, demand)
            for host, cpu in zip(hosts, req.virtual_nodes):
                overlay.release_node(host, cpu)
            outcomes.append(VneOutcome(False))

    n_requests = len(outcomes)
    base_bw = sum(g.link_cols[0]) if g.link_arity else 0.0
    reserved_bw = base_bw - (sum(overlay.link_cols[0]) if g.link_arity else 0.0)
    return VneReport(
        vn_allocation_ratio=accepted_vn / n_requests if n_requests else 1.0,
        link_allocation_ratio=accepted_vl / requested_vl if requested_vl else 1.0,
        link_utilization=reserved_bw / base_bw if base_bw else 0.0,
        per_request_outcomes=outcomes,
    )


def draw_pairs(node_count: int, pairs: int, seed: int) -> list[tuple[int, int]]:
    """Distinct (src, dst) pairs, src != dst, drawn without replacement."""
    if pairs > node_count * (node_count - 1):
        raise ValueError(f"cannot draw {pairs} distinct pairs from {node_count} nodes")
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < pairs:
        u = rng.randrange(node_count)
        v = rng.randrange(node_count)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            out.append((u, v))
    return out


def run_steering(
    g: PhysicalGraph,
    pairs: int,
    c: ConstraintSet,
    backend: str,
    seed: int = 0,
    *,
    measure_time: bool = False,
) -> SteeringReport:
    """Traffic-steering run: for each random (src, dst) pair, allocate as
    many identical virtual links as possible against the residual overlay.

    The per-link demand equals the constraint set's link bounds (one VL
    consumes its bandwidth bound on every traversed edge); allocation for a
    pair stops at the first no-path outcome. Throughput counts link metric 0.

    Raises:
        UnknownBackendError: backend does not name a registered solver.
        ArityMismatchError: c names a metric g does not declare.
        ValueError: the constraint set carries no positive link demand, or
            an infinite one (allocation would never terminate).
    """
    solver = resolve_backend(backend)
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    demand = _demand(g, c)
    if not demand or not 0 < max(demand) < math.inf:
        raise ValueError(f"steering requires a positive, finite link-bound demand, got {demand}")

    overlay = ResidualOverlay(g)
    used_nodes: set[int] = set()
    allocations: list[tuple[int, int, PathResult]] = []
    throughput = 0.0
    hops_sum = 0
    solve_calls = 0
    elapsed = 0.0

    for u, v in draw_pairs(g.node_count, pairs, seed):
        while True:
            solve_calls += 1
            t0 = time.perf_counter() if measure_time else 0.0
            try:
                path = solver(overlay, u, v, c)
            except NoPathError:
                break
            finally:
                if measure_time:
                    elapsed += time.perf_counter() - t0
            overlay.reserve(path, demand)
            allocations.append((u, v, path))
            throughput += demand[0]
            hops_sum += path.hop_count
            used_nodes.update(path.nodes)

    vl_count = len(allocations)
    return SteeringReport(
        total_throughput=throughput,
        energy_efficiency=energy_efficiency(g.node_count, len(used_nodes), throughput),
        avg_path_length=hops_sum / vl_count if vl_count else 0.0,
        avg_time_us=(elapsed / solve_calls * 1e6) if measure_time and solve_calls else None,
        n_used=len(used_nodes),
        vl_count=vl_count,
        solve_calls=solve_calls,
        allocations=allocations,
    )


def assign_link_bandwidth_from_node_budget(g: PhysicalGraph, budget: float) -> PhysicalGraph:
    """Re-derive link bandwidth from a per-node budget: every link's
    capacity is the budget divided by each endpoint's degree, taking the
    tighter side. Turns a node-capacitated statement ("200 bandwidth units
    per node") into the link-capacitated model the embedder needs."""
    degree = [len(adj) for adj in g.adjacency]
    edges = []
    for src, dst, m in g.edges:
        bw = min(budget / degree[src], budget / degree[dst])
        edges.append((src, dst, EdgeMetrics((bw,) + m.link_metrics[1:], m.path_metrics)))
    return build_graph(
        g.node_count, edges, g.node_capacity,
        link_arity=g.link_arity, path_arity=g.path_arity, labels=g.labels,
    )


def build_vn_requests(
    count: int, vnode_count: int = 14, demand_max: float = 20.0, seed: int = 0
) -> list[VnRequest]:
    """Random VN requests whose link counts spread from 1 up to
    vnode_count - 1 across the pool; demands uniform in (1, demand_max)."""
    rng = random.Random(seed)
    all_pairs = [(a, b) for a in range(vnode_count) for b in range(a + 1, vnode_count)]
    hi = vnode_count - 1
    requests = []
    for i in range(count):
        t = i / (count - 1) if count > 1 else 1.0
        links = round(1 + t * (hi - 1))
        chosen = rng.sample(all_pairs, links)
        cpu = tuple(rng.uniform(1.0, demand_max) for _ in range(vnode_count))
        vlinks = tuple((a, b, rng.uniform(1.0, demand_max), None) for a, b in chosen)
        requests.append(VnRequest(cpu, vlinks))
    return requests


# ---------------------------------------------------------------------------
# Sweeps


# the keys each scenario and each graph source reads, with their defaults,
# and the keys every sweep reads
_SCENARIO_KEYS = {
    "steering": {
        "pairs": 100,
        "bw_levels": ("low",),
        "delay_levels": ("high",),
        "delay_percents": None,
        "measure_time": False,
    },
    "vne": {
        "requests": 15,
        "request_nodes": 14,
        "demand_max": 20.0,
        "vne_cpu": 200.0,
        "vne_bw": 200.0,
    },
}
_GENERATED_KEYS = {"nodes": None, "model": "waxman", "degrees": (4.0,)}
_FILE_KEYS = {"topology": None}
# the vne keys that set a generated graph's node and link budgets: a
# topology file carries its own, so a sweep on one reads neither
_BUDGET_KEYS = ("vne_cpu", "vne_bw")
_COMMON_KEYS = ("scenario", "backends", "seeds", "output")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative sweep document (see parse_config). Generated graphs have
    ``nodes`` nodes, by default 1000 for steering and 100 for vne; the
    paper's setting is 10000 nodes and 1000 pairs.

    Each scenario reads its own keys, and each graph source its own
    (``_SCENARIO_KEYS``, ``_GENERATED_KEYS``, ``_FILE_KEYS``): a key left
    unset (None) takes its default there, and a key set that the sweep
    would not read is refused. So a file sweep has no degree axis, no nodes
    and no vne budgets (``_BUDGET_KEYS``), and a steering sweep sets
    delay_levels or delay_percents, not both.

    A bad entry raises ConfigError: a scenario other than steering or vne,
    a key the sweep would not read, an empty grid axis or text, a repeated
    grid value, a non-finite number, a count below its minimum (pairs, requests >= 1; nodes,
    request_nodes >= 2), a non-positive degree, demand_max, vne_cpu or
    vne_bw, a model outside topogen.MODELS, or, when the graphs are
    generated (without a topology file), a negative seed or a degree the
    generator's GenSpec refuses."""

    scenario: str
    model: str | None = None
    topology: str | None = None
    nodes: int | None = None
    degrees: tuple[float, ...] | None = None
    bw_levels: tuple[str, ...] | None = None
    delay_levels: tuple[str, ...] | None = None
    delay_percents: tuple[float, ...] | None = None
    backends: tuple[str, ...] = ("nm-l1",)
    seeds: tuple[int, ...] = (1,)
    pairs: int | None = None
    requests: int | None = None
    request_nodes: int | None = None
    demand_max: float | None = None
    vne_cpu: float | None = None
    vne_bw: float | None = None
    measure_time: bool | None = None
    output: str | None = None

    def __post_init__(self):
        if self.scenario not in _SCENARIO_KEYS:
            raise ConfigError(f"unknown scenario {self.scenario!r}", key="scenario")
        for f in fields(self):
            value = getattr(self, f.name)
            if value == () or value == "":
                raise ConfigError(f"{f.name} is empty", key=f.name)
            if isinstance(value, tuple) and len(set(value)) < len(value):
                raise ConfigError(f"{f.name} repeats a value", key=f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v}", key=f.name)
        reads = _SCENARIO_KEYS[self.scenario] | (_FILE_KEYS if self.topology else _GENERATED_KEYS)
        if self.topology:
            reads = {key: reads[key] for key in reads if key not in _BUDGET_KEYS}
        for f in fields(self):
            if f.name in reads or f.name in _COMMON_KEYS or getattr(self, f.name) is None:
                continue
            if self.topology and (f.name in _GENERATED_KEYS or f.name in _BUDGET_KEYS):
                raise ConfigError(f"{f.name} is not read by a sweep on a topology file", key=f.name)
            raise ConfigError(f"{f.name} is not read by a {self.scenario} sweep", key=f.name)
        if self.delay_levels is not None and self.delay_percents is not None:
            raise ConfigError("set delay_levels or delay_percents, not both", key="delay_percents")
        for key, default in reads.items():
            if getattr(self, key) is None and (key != "delay_levels" or self.delay_percents is None):
                object.__setattr__(self, key, default)
        if self.nodes is None and not self.topology:
            object.__setattr__(self, "nodes", 100 if self.scenario == "vne" else 1_000)
        for key, low in (("pairs", 1), ("nodes", 2), ("requests", 1), ("request_nodes", 2)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}", key=key)
        for key in ("demand_max", "vne_cpu", "vne_bw"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ConfigError(f"{key} must be positive, got {value}", key=key)
        if not self.topology:
            for degree in self.degrees:
                if degree <= 0:
                    raise ConfigError(f"degrees must be positive, got {degree}", key="degrees")
            if self.model not in MODELS:
                raise ConfigError(
                    f"model must be one of {MODELS}, got {self.model!r}", key="model"
                )
            for seed in self.seeds:
                if seed < 0:
                    raise ConfigError(
                        f"seeds must be >= 0 when graphs are generated, got {seed}", key="seeds"
                    )
                for degree in self.degrees:
                    try:
                        _gen_spec(self, degree, seed)
                    except ValueError as exc:
                        raise ConfigError(f"degrees: {exc}", key="degrees") from exc
        if self.scenario == "steering":
            for level in self.bw_levels:
                if level not in BW_LEVEL_GBPS:
                    raise ConfigError(f"unknown bw level {level!r}", key="bw_levels")
            for level in self.delay_levels or ():
                if level not in DELAY_LEVEL_FACTOR:
                    raise ConfigError(f"unknown delay level {level!r}", key="delay_levels")
        for backend in self.backends:
            try:
                resolve_backend(backend)
            except UnknownBackendError as exc:
                raise ConfigError(str(exc), key="backends") from exc


@dataclass(frozen=True)
class _Cell:
    """One grid point; delay is (CSV token, bound as a percent of the
    largest link delay). VNE cells leave bw_level and delay unset, and
    cells on a topology file leave degree unset."""

    degree: float | None
    bw_level: str
    delay: tuple[str, float | None]
    backend: str
    seed: int


def _cells(cfg: ExperimentConfig) -> list[_Cell]:
    if cfg.scenario == "vne":
        bw_axis, delay_axis = ("",), (("", None),)
    else:
        bw_axis = cfg.bw_levels
        if cfg.delay_percents is not None:
            delay_axis = tuple((f"{topofile.fmt(p)}%", p) for p in cfg.delay_percents)
        else:
            delay_axis = tuple((lv, 100 * DELAY_LEVEL_FACTOR[lv]) for lv in cfg.delay_levels)
    degrees = (None,) if cfg.topology else cfg.degrees
    grid = itertools.product(degrees, bw_axis, delay_axis, cfg.backends, cfg.seeds)
    return [_Cell(*point) for point in grid]


def _gen_spec(cfg: ExperimentConfig, degree: float, seed: int) -> GenSpec:
    """The GenSpec of the graph generated for the cells of (degree, seed)."""
    return GenSpec(
        model=cfg.model,
        node_count=cfg.nodes,
        target_avg_degree=degree,
        cpu_units=cfg.vne_cpu if cfg.scenario == "vne" else GenSpec.cpu_units,
        seed=seed,
    )


def _cell_graph(cfg: ExperimentConfig, cell: _Cell) -> PhysicalGraph:
    if cfg.topology:
        return topofile.load(cfg.topology)
    g = generate(_gen_spec(cfg, cell.degree, cell.seed))
    return assign_link_bandwidth_from_node_budget(g, cfg.vne_bw) if cfg.scenario == "vne" else g


def _run_cell(cfg: ExperimentConfig, cell: _Cell, g: PhysicalGraph) -> dict:
    row = {
        "model": cfg.model if not cfg.topology else "file",
        "nodes": g.node_count,
        "avg_degree": realized_avg_degree(g) if cfg.topology else cell.degree,
        "bw_level": cell.bw_level,
        "delay_level": cell.delay[0],
        "backend": cell.backend,
        "seed": cell.seed,
    }
    if cfg.scenario == "vne":
        requests = build_vn_requests(cfg.requests, cfg.request_nodes, cfg.demand_max, cell.seed)
        report = run_vne(g, requests, cell.backend)
        row.update(
            vn_alloc_ratio=report.vn_allocation_ratio,
            link_alloc_ratio=report.link_allocation_ratio,
            link_util=report.link_utilization,
        )
    else:
        c = constraints_from_percent(g, cell.bw_level, cell.delay[1])
        report = run_steering(
            g,
            cfg.pairs,
            c,
            cell.backend,
            cell.seed,
            measure_time=cfg.measure_time,
        )
        row.update(
            throughput_gbps=report.total_throughput,
            energy_eff=report.energy_efficiency,
            avg_hops=report.avg_path_length,
            n_used=report.n_used,
        )
        if report.avg_time_us is not None:
            row["avg_us"] = report.avg_time_us
    return row


def _run_task(cfg: ExperimentConfig, cells: list[tuple[int, _Cell]]) -> list[tuple[int, dict]]:
    """Build the graph the cells share once, check it once, and run the
    cells on it in order; returns (cell index, row) pairs."""
    g = _cell_graph(cfg, cells[0][1])
    # every cell routes under bounds on link metric 0 and path metric 0
    ConstraintSet(((0, 0.0),), ((0, math.inf),)).validate_arity(g.link_arity, g.path_arity)
    if cfg.scenario != "vne" and cfg.pairs > g.node_count * (g.node_count - 1):
        raise ConfigError(
            f"cannot draw {cfg.pairs} distinct pairs from {g.node_count} nodes", key="pairs"
        )
    return [(i, _run_cell(cfg, cell, g)) for i, cell in cells]


def sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Expand the config into cells and run them, returning one row dict per
    cell in deterministic grid order.

    Cells are grouped by the graph they share: one per (degree, seed), or
    one for all cells of a topology file. Each group is one task that
    builds its graph once and runs its cells on it, so they share ksp's
    ranked candidates too. The workers are min(jobs, cells, CPUs); with
    fewer groups than workers, each group's cells are dealt into
    ceil(workers / groups) tasks, each building its own copy of the graph.
    One worker runs the tasks in this process, more run them in a process
    pool; either way a process holds one graph at a time.

    Raises:
        ConfigError: jobs < 1, or a steering cell's topology has fewer
            than ``pairs`` distinct (src, dst) pairs.
        ArityMismatchError: a cell's topology lacks link metric 0 or path
            metric 0.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    cells = _cells(cfg)
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    groups: dict[tuple, list[tuple[int, _Cell]]] = {}
    for i, cell in enumerate(cells):
        key = () if cfg.topology else (cell.degree, cell.seed)
        groups.setdefault(key, []).append((i, cell))
    split = math.ceil(workers / len(groups))
    tasks = [group[k::split] for group in groups.values() for k in range(min(split, len(group)))]
    if workers > 1:
        # imported only here, so a serial sweep, and a process that never
        # sweeps, loads neither the pool nor multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_task, itertools.repeat(cfg), tasks))
    else:
        done = map(_run_task, itertools.repeat(cfg), tasks)
    rows = dict(pair for task_rows in done for pair in task_rows)
    return [rows[i] for i in range(len(cells))]


def _list_of(convert):
    return lambda text: tuple(convert(v) for v in text.replace(",", " ").split())


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() == "true"


# the converter of every key, one per ExperimentConfig field
_CONFIG_KEYS = {
    "scenario": str,
    "model": str,
    "topology": str,
    "nodes": int,
    "degrees": _list_of(float),
    "bw_levels": _list_of(str),
    "delay_levels": _list_of(str),
    "delay_percents": _list_of(float),
    "backends": _list_of(str),
    "seeds": _list_of(int),
    "pairs": int,
    "requests": int,
    "request_nodes": int,
    "demand_max": float,
    "vne_cpu": float,
    "vne_bw": float,
    "measure_time": _bool,
    "output": str,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key/value experiment document.

    One ``key = value`` entry per line; '#' starts a comment; list values
    are whitespace- or comma-separated. Unknown and repeated keys are
    rejected.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key)
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}", key=key)
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}", key=key) from exc
    if "scenario" not in values:
        raise ConfigError("missing required key 'scenario'", key="scenario")
    return ExperimentConfig(**values)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return topofile.fmt(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """Render rows under the fixed CSV schema; inapplicable fields stay empty."""
    columns = CSV_HEADER.split(",")
    out = [CSV_HEADER]
    for row in rows:
        out.append(",".join(_fmt_cell(row.get(col)) for col in columns))
    return "\n".join(out) + "\n"


PLOT_METRICS = {
    "throughput_gbps": "throughput",
    "energy_eff": "energy",
    "avg_hops": "hops",
    "avg_us": "time",
    "vn_alloc_ratio": "vn_alloc",
    "link_alloc_ratio": "link_alloc",
    "link_util": "link_util",
}


def check_plotdata(cfg: ExperimentConfig) -> None:
    """Raise ConfigError on an axis other than x and seeds that holds more
    than one value: a series point is the mean of every row at its x."""
    other = "degrees" if cfg.delay_percents is not None else "delay_levels"
    for key in ("bw_levels", other):
        if len(getattr(cfg, key) or ()) > 1:
            raise ConfigError(f"plot data averages over seeds only, not {key}", key=key)


def plotdata_series(rows: list[dict], cfg: ExperimentConfig) -> dict[str, str]:
    """Whitespace-separated series files, one per (metric, backend): the x
    axis is the degree grid (or the delay grid when sweeping percentages),
    the y value is the metric's mean over seeds (:func:`check_plotdata`)."""
    check_plotdata(cfg)
    x_key = "delay_level" if cfg.delay_percents is not None else "avg_degree"
    series: dict[str, dict[float, list[float]]] = {}
    for row in rows:
        x_raw = row[x_key]
        x = float(str(x_raw).rstrip("%"))
        for column, stem in PLOT_METRICS.items():
            if column not in row or row[column] is None:
                continue
            name = f"{stem}_{row['backend']}.dat"
            series.setdefault(name, {}).setdefault(x, []).append(float(row[column]))
    files = {}
    for name, points in series.items():
        lines = [
            f"{topofile.fmt(x)} {topofile.fmt(sum(ys) / len(ys))}"
            for x, ys in sorted(points.items())
        ]
        files[name] = "\n".join(lines) + "\n"
    return files
