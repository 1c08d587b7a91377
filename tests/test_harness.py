import gc
import hashlib
import math
import random
import types
import typing
from dataclasses import fields

import pytest

from vpembed import harness, topofile
from vpembed import (
    ConfigError,
    ConstraintSet,
    EdgeMetrics,
    GenSpec,
    InvalidCountsError,
    PhysicalGraph,
    ResidualOverlay,
    UnknownBackendError,
    VnRequest,
    build_graph,
    build_vn_requests,
    energy_efficiency,
    generate,
    parse_config,
    run_steering,
    run_vne,
    sweep,
)
from vpembed.harness import (
    ExperimentConfig,
    _place_nodes,
    assign_link_bandwidth_from_node_budget,
    plotdata_series,
    rows_to_csv,
)
from vpembed.topogen import resolve_constraint_severity

E = EdgeMetrics


# --- energy efficiency ------------------------------------------------------


def test_energy_all_nodes_unused():
    assert energy_efficiency(100, 0, 50.0) == 50.0


def test_energy_all_nodes_used():
    assert energy_efficiency(100, 100, 50.0) == 0.0


def test_energy_mixed():
    assert energy_efficiency(100, 40, 200.0) == pytest.approx(120.0)


def test_energy_invalid_counts():
    with pytest.raises(InvalidCountsError):
        energy_efficiency(0, 0, 1.0)
    with pytest.raises(InvalidCountsError):
        energy_efficiency(10, 11, 1.0)
    with pytest.raises(InvalidCountsError):
        energy_efficiency(10, -1, 1.0)


# --- VNE --------------------------------------------------------------------


def _small_substrate(bw=50.0, cpu=100.0):
    # 6-node ring plus chords, ample delay headroom
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)]
    edges = []
    for u, v in pairs:
        m = E((bw,), (1.0,))
        edges.append((u, v, m))
        edges.append((v, u, m))
    return build_graph(6, edges, [cpu] * 6)


def test_vne_empty_requests():
    g = _small_substrate()
    report = run_vne(g, [], "nm-general")
    assert report.vn_allocation_ratio == 1.0
    assert report.link_allocation_ratio == 1.0
    assert report.link_utilization == 0.0


def test_vne_unknown_backend():
    g = _small_substrate()
    with pytest.raises(UnknownBackendError):
        run_vne(g, [], "magic")


def test_vne_impossible_demand():
    g = _small_substrate(cpu=10.0)
    req = VnRequest((50.0, 50.0), ((0, 1, 1.0, None),))
    report = run_vne(g, [req], "nm-general")
    assert report.vn_allocation_ratio == 0.0
    assert report.link_allocation_ratio == 0.0


def test_vne_accepts_and_reserves():
    g = _small_substrate()
    req = VnRequest((10.0, 10.0, 10.0), ((0, 1, 5.0, None), (1, 2, 5.0, None)))
    report = run_vne(g, [req], "nm-general")
    assert report.vn_allocation_ratio == 1.0
    assert report.link_utilization > 0.0
    outcome = report.per_request_outcomes[0]
    assert outcome.accepted
    assert len(set(outcome.hosts)) == 3


def test_vne_rejection_rolls_back_everything():
    # second virtual link cannot fit: the whole request must leave no trace
    g = _small_substrate(bw=5.0)
    req = VnRequest((1.0, 1.0, 1.0), ((0, 1, 4.0, None), (1, 2, 4.0, None), (0, 2, 4.0, None)))
    report = run_vne(g, [req], "ksp:1")
    assert report.vn_allocation_ratio == 0.0
    assert report.link_utilization == 0.0


def test_vne_whole_request_atomicity_preserves_capacity():
    g = _small_substrate()
    reqs = build_vn_requests(6, 6, 15.0, seed=4)
    report = run_vne(g, reqs, "nm-general")
    # conservation: reserved bandwidth equals the sum over accepted requests
    expected = sum(
        d * p.hop_count
        for o in report.per_request_outcomes
        if o.accepted
        for p, d in zip(o.paths, o.demands)
    )
    base = sum(g.link_cols[0])
    assert report.link_utilization == pytest.approx(expected / base)


def test_vne_delay_bounded_links():
    g = _small_substrate()
    ok = VnRequest((1.0, 1.0), ((0, 1, 1.0, 10.0),))
    tight = VnRequest((1.0, 1.0), ((0, 1, 1.0, 0.5),))
    report = run_vne(g, [ok, tight], "nm-general")
    assert [o.accepted for o in report.per_request_outcomes] == [True, False]


@pytest.mark.parametrize(
    "cpu, bw, delay",
    [(math.nan, 1.0, None), (1.0, math.nan, None), (1.0, 1.0, math.nan)],
    ids=["cpu", "bw", "delay"],
)
def test_vn_request_refuses_nan(cpu, bw, delay):
    # NaN passed the old `<= 0` checks: a NaN bw or delay then broke
    # run_vne mid-pool inside ConstraintSet, and a NaN cpu fit no host
    with pytest.raises(ValueError):
        VnRequest((cpu, 1.0), ((0, 1, bw, delay),))
    for legal in (None, math.inf):
        VnRequest((1.0, 1.0), ((0, 1, 1.0, legal),))


@pytest.mark.parametrize(
    "cpu, bw", [(math.inf, 1.0), (1.0, math.inf)], ids=["cpu", "bw"]
)
def test_vn_request_refuses_an_infinite_demand(cpu, bw):
    # an infinite demand on an infinite host or edge would leave a NaN ledger
    with pytest.raises(ValueError, match="finite"):
        VnRequest((cpu, 1.0), ((0, 1, bw, None),))


def test_vne_l1_backend_gets_synthetic_bound():
    g = _small_substrate()
    req = VnRequest((1.0, 1.0), ((0, 1, 1.0, None),))
    for backend in ("nm-l1", "edijkstra"):
        report = run_vne(g, [req], backend)
        assert report.vn_allocation_ratio == 1.0


def test_placement_tolerates_drift_at_large_capacity():
    # after exact reserve/release pairs at capacity 1e5 the residual may sit
    # a rounding step below the base; placement must accept the full
    # capacity under the same slack reserve_node allows
    base = 1e5
    g = build_graph(2, [(0, 1, E((1.0,), (1.0,)))], [base, 0.0])
    rng = random.Random(0)
    for _ in range(2000):
        overlay = ResidualOverlay(g)
        demands = [rng.uniform(0, base / 4) for _ in range(4)]
        for d in demands:
            overlay.reserve_node(0, d)
        rng.shuffle(demands)
        for d in demands:
            overlay.release_node(0, d)
        assert _place_nodes(overlay, [base]) == (0,)
    # the slack stays a rounding allowance: a real excess is still refused
    assert _place_nodes(ResidualOverlay(g), [base * (1 + 1e-9)]) is None


def test_placement_reserves_nothing():
    # hosts come in one (-residual cpu, id) order; the caller reserves them
    overlay = ResidualOverlay(_small_substrate(cpu=10.0))
    overlay.reserve_node(2, 4.0)
    before = list(overlay.node_capacity)
    assert _place_nodes(overlay, [5.0, 7.0, 3.0, 6.0, 9.0, 6.0]) == (0, 1, 3, 4, 5, 2)
    assert _place_nodes(overlay, [9.0] * 5 + [7.0]) is None
    assert overlay.node_capacity == before


def test_node_budget_bandwidth_assignment():
    g = _small_substrate()
    capped = assign_link_bandwidth_from_node_budget(g, 120.0)
    degree = [len(adj) for adj in g.adjacency]
    for src, dst, m in capped.edges:
        assert m.link_metrics[0] == pytest.approx(min(120.0 / degree[src], 120.0 / degree[dst]))
    assert capped.path_cols == g.path_cols


# --- steering ----------------------------------------------------------------


def _corridor(residual=9.0, hops=2):
    edges = []
    for i in range(hops):
        edges.append((i, i + 1, E((residual,), (1.0,))))
    return build_graph(hops + 1, edges, [1.0] * (hops + 1))


def test_steering_no_edge_meets_bound():
    g = _corridor(residual=2.0)
    c = ConstraintSet(((0, 4.0),), ((0, 100.0),))
    report = run_steering(g, 1, c, "nm-l1", seed=1)
    assert report.total_throughput == 0.0
    assert report.energy_efficiency == 0.0
    assert report.n_used == 0
    assert report.vl_count == 0


def test_steering_refuses_an_infinite_demand():
    # on an infinite edge each reserve left a NaN residual that kept the
    # mask bit set and passed the next check, so the pair never ended
    g = build_graph(2, [(0, 1, E((math.inf,), (1.0,)))], [1.0, 1.0])
    c = ConstraintSet(((0, math.inf),), ((0, 10.0),))
    for backend in ("nm-l1", "edijkstra"):
        with pytest.raises(ValueError, match="finite"):
            run_steering(g, 1, c, backend)


def test_steering_floor_division_of_residual():
    # residual 9, demand 4: exactly two virtual links fit
    g = _corridor(residual=9.0, hops=2)
    c = ConstraintSet(((0, 4.0),), ((0, 100.0),))
    report = run_steering(g, 1, c, "nm-l1", seed=3)
    assert report.vl_count == 2
    assert report.total_throughput == pytest.approx(8.0)


def test_steering_conservation_full_recount():
    g = generate(GenSpec(node_count=120, target_avg_degree=4.0, seed=6))
    c = resolve_constraint_severity(g, "med", "med")
    report = run_steering(g, 25, c, "nm-l1", seed=6)
    spent = [0.0] * g.edge_count
    for _u, _v, path in report.allocations:
        for e in path.edge_handles:
            spent[e] += c.link_bounds[0][1]
    # recount against an untouched copy of the base graph
    for e in range(g.edge_count):
        assert spent[e] <= g.link_cols[0][e] + 1e-9


def test_steering_n_used_is_union_of_path_nodes():
    g = generate(GenSpec(node_count=80, target_avg_degree=4.0, seed=9))
    c = resolve_constraint_severity(g, "med", "high")
    report = run_steering(g, 10, c, "nm-l1", seed=9)
    union = set()
    for _u, _v, path in report.allocations:
        union.update(path.nodes)
    assert report.n_used == len(union)
    assert report.vl_count == len(report.allocations)
    assert report.energy_efficiency == pytest.approx(
        (g.node_count - len(union)) / g.node_count * report.total_throughput
    )


def test_steering_monotone_severity():
    g = generate(GenSpec(node_count=150, target_avg_degree=4.0, seed=12))
    throughputs = []
    for level in ("low", "med", "high"):
        c = resolve_constraint_severity(g, level, "high")
        throughputs.append(run_steering(g, 20, c, "nm-l1", seed=12).total_throughput)
    assert throughputs[0] >= throughputs[1] >= throughputs[2]


def test_steering_paired_dominance_on_path_length():
    for seed in (1, 2, 3):
        g = generate(GenSpec(node_count=150, target_avg_degree=4.0, seed=seed))
        c = resolve_constraint_severity(g, "low", "high")
        nm = run_steering(g, 15, c, "nm-l1", seed=seed)
        ed = run_steering(g, 15, c, "edijkstra", seed=seed)
        if nm.vl_count and ed.vl_count:
            assert nm.avg_path_length <= ed.avg_path_length + 1e-9


def test_steering_rejects_unconstrained_demand():
    g = _corridor()
    with pytest.raises(ValueError):
        run_steering(g, 1, ConstraintSet((), ((0, 5.0),)), "nm-l1")


def test_steering_timing_opt_in():
    g = _corridor()
    c = ConstraintSet(((0, 4.0),), ((0, 100.0),))
    silent = run_steering(g, 1, c, "nm-l1", seed=1)
    timed = run_steering(g, 1, c, "nm-l1", seed=1, measure_time=True)
    assert silent.avg_time_us is None
    assert timed.avg_time_us is not None and timed.avg_time_us > 0


# --- sweeps -------------------------------------------------------------------


def _steering_cfg(**kw):
    base = dict(
        scenario="steering",
        nodes=60,
        degrees=(3.0, 4.0),
        bw_levels=("low", "med"),
        delay_levels=("high",),
        backends=("nm-l1", "edijkstra"),
        seeds=(1, 2, 3),
        pairs=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_sweep_cardinality():
    rows = sweep(_steering_cfg())
    assert len(rows) == 2 * 2 * 1 * 2 * 3


def test_delay_percent_grid():
    cfg = _steering_cfg(
        degrees=(4.0,),
        bw_levels=("low",),
        delay_levels=None,
        delay_percents=tuple(range(400, 49, -50)),
        backends=("nm-l1",),
        seeds=(1,),
    )
    rows = sweep(cfg)
    assert len(rows) == 8
    assert rows[0]["delay_level"] == "400%"
    assert rows[-1]["delay_level"] == "50%"


def test_sweep_deterministic_csv():
    cfg = _steering_cfg(seeds=(1, 2))
    a = rows_to_csv(sweep(cfg))
    b = rows_to_csv(sweep(cfg))
    assert a == b
    assert a.splitlines()[0].startswith("model,nodes,avg_degree,bw_level,delay_level,backend,seed")


def test_sweep_parallel_matches_serial():
    cfg = _steering_cfg(seeds=(1,), bw_levels=("low",))
    assert rows_to_csv(sweep(cfg, jobs=2)) == rows_to_csv(sweep(cfg, jobs=1))


def test_sweep_rejects_jobs_below_one():
    for jobs in (0, -3):
        with pytest.raises(ConfigError):
            sweep(_steering_cfg(), jobs=jobs)


def test_sweep_clamps_workers_to_cells_and_cpus(recording_pool, monkeypatch):
    seen = recording_pool
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    three_cells = _steering_cfg(nodes=30, degrees=(3.0,), bw_levels=("low",), seeds=(1,),
                                backends=("nm-l1", "edijkstra", "ksp:1"))
    twelve_cells = _steering_cfg(nodes=30, degrees=(3.0,), pairs=2)
    assert rows_to_csv(sweep(three_cells, jobs=10**6)) == rows_to_csv(sweep(three_cells))
    sweep(twelve_cells, jobs=10**6)
    sweep(twelve_cells, jobs=3)
    assert seen == [3, 4, 3]
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    sweep(twelve_cells, jobs=8)  # one CPU: runs serially, no pool at all
    assert seen == [3, 4, 3]


# sha256 of the CSV below as rendered at the commit that pinned it; any
# change to a path, a status or a formatted number changes the digest
GOLDEN_SWEEP_SHA256 = "2ec1f75e25fa3a05d860f4cc3d4bf833feabd256ef0648e5ccdede35f4b12560"


def test_sweep_csv_matches_golden_digest():
    cfg = ExperimentConfig(
        scenario="steering",
        nodes=150,
        degrees=(3.0, 5.0),
        bw_levels=("low", "med"),
        delay_levels=("high", "med"),
        backends=("nm-l1", "edijkstra", "nm-general", "ksp:3"),
        seeds=(1, 2),
        pairs=30,
    )
    csv = rows_to_csv(sweep(cfg))
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_SWEEP_SHA256


def test_sweep_loads_a_topology_file_once(tmp_path, monkeypatch):
    # every cell of a file sweep shares one graph, whatever its seed, and
    # sharing it (ksp's ranked candidates included) changes no row
    cfg = _file_cfg(tmp_path)
    path = cfg.topology
    fresh = [harness._run_cell(cfg, cell, topofile.load(path)) for cell in harness._cells(cfg)]
    loads = []
    load = topofile.load
    monkeypatch.setattr(topofile, "load", lambda p: loads.append(p) or load(p))
    rows = sweep(cfg)
    assert len(loads) == 1
    assert len(rows) == 8
    assert rows == fresh


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments to the
    returned list."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def _file_cfg(tmp_path):
    # a file sweep sets no generator key: nodes, model and degrees are refused
    path = tmp_path / "t.top"
    topofile.dump(generate(GenSpec(node_count=30, target_avg_degree=3.0, seed=5)), path)
    return ExperimentConfig(scenario="steering", topology=str(path), bw_levels=("low",),
                            delay_levels=("high",), backends=("nm-l1", "ksp:3"),
                            seeds=(1, 2, 3, 4), pairs=8)


def test_sweep_builds_one_graph_per_key_at_any_jobs(recording_pool, monkeypatch):
    # 24 cells on 6 (degree, seed) keys: each key's graph is built once,
    # in first-appearance order, whether the tasks run here or in a pool
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    cfg = _steering_cfg(nodes=30, pairs=2)
    builds = _count_calls(monkeypatch, harness, "generate")
    serial = sweep(cfg)
    keys = [(d, s) for d in cfg.degrees for s in cfg.seeds]
    assert [(spec.target_avg_degree, spec.seed) for spec, in builds] == keys
    builds.clear()
    assert sweep(cfg, jobs=2) == serial
    assert recording_pool == [2]
    assert [(spec.target_avg_degree, spec.seed) for spec, in builds] == keys


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_file_sweep_loads_the_file_once_per_task(tmp_path, recording_pool, monkeypatch,
                                                         jobs):
    # one group (the file) and more workers than groups: its 8 cells are
    # dealt into one task per worker, and each task loads the file once
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    cfg = _file_cfg(tmp_path)
    serial = sweep(cfg)
    loads = _count_calls(monkeypatch, topofile, "load")
    assert sweep(cfg, jobs=jobs) == serial
    assert recording_pool == [jobs]
    assert len(loads) == jobs


def _live_graphs() -> int:
    # PhysicalGraph has no __weakref__ slot, so count its instances on the
    # collector's list instead of holding weak references to them
    gc.collect()
    return sum(type(o) is PhysicalGraph for o in gc.get_objects())


def test_serial_sweep_holds_one_graph_at_a_time(monkeypatch):
    # each build finds no graph of this sweep still alive
    before = _live_graphs()
    alive_at_build = []
    build = harness.generate

    def counting_build(spec):
        alive_at_build.append(_live_graphs() - before)
        return build(spec)

    monkeypatch.setattr(harness, "generate", counting_build)
    sweep(_steering_cfg(nodes=30, pairs=2))
    assert alive_at_build == [0] * 6


def test_parallel_file_sweep_matches_serial_csv(tmp_path, monkeypatch):
    # real worker processes on the split path, ksp's shared ranking included
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    cfg = _file_cfg(tmp_path)
    assert rows_to_csv(sweep(cfg, jobs=2)) == rows_to_csv(sweep(cfg))


def test_vne_sweep_rows():
    cfg = ExperimentConfig(
        scenario="vne", nodes=40, degrees=(3.0,), backends=("nm-general", "ksp:1"),
        seeds=(1,), requests=4, request_nodes=6,
    )
    rows = sweep(cfg)
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= row["vn_alloc_ratio"] <= 1.0
        assert "throughput_gbps" not in row


def test_plotdata_series():
    cfg = _steering_cfg(seeds=(1, 2), bw_levels=("low",))
    rows = sweep(cfg)
    files = plotdata_series(rows, cfg)
    assert "throughput_nm-l1.dat" in files
    assert "energy_edijkstra.dat" in files
    lines = files["throughput_nm-l1.dat"].strip().splitlines()
    assert len(lines) == 2  # one point per degree, mean over seeds
    assert [float(l.split()[0]) for l in lines] == [3.0, 4.0]


# --- config parsing ------------------------------------------------------------


def test_parse_config_round_trip():
    cfg = parse_config(
        """
        # steering sweep
        scenario = steering
        model = waxman
        nodes = 60
        degrees = 3 4
        bw_levels = low
        delay_levels = high
        backends = nm-l1, edijkstra
        seeds = 1 2 3
        pairs = 5
        output = out.csv
        """
    )
    assert cfg.scenario == "steering"
    assert cfg.degrees == (3.0, 4.0)
    assert cfg.backends == ("nm-l1", "edijkstra")
    assert cfg.seeds == (1, 2, 3)


# sizes are set by nodes and pairs alone, and single queries are asked by
# `vpembed solve`, so scale, src, dst and constraint are unknown keys too
@pytest.mark.parametrize("key", ["bogus_key", "scale", "src", "dst", "constraint"])
def test_parse_config_rejects_unknown_key(key):
    with pytest.raises(ConfigError, match="unknown key") as err:
        parse_config(f"scenario = steering\n{key} = 1\n")
    assert err.value.key == key


def test_parse_config_has_no_plotdata_key():
    # plot data is asked for on the command line (--emit-plotdata) only
    with pytest.raises(ConfigError, match="emit_plotdata") as err:
        parse_config("scenario = steering\nemit_plotdata = true\n")
    assert err.value.key == "emit_plotdata"


def test_parse_config_validates_enums():
    from vpembed import ConfigError

    with pytest.raises(ConfigError):
        parse_config("scenario = flying\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = steering\nbackends = warp\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = steering\nbw_levels = enormous\n")


def test_size_defaults():
    cfg = parse_config("scenario = steering\n")
    assert cfg.nodes == 1_000
    assert cfg.pairs == 100
    assert parse_config("scenario = vne\n").nodes == 100
    assert parse_config("scenario = vne\ntopology = t.top\n").nodes is None


# each scenario and each graph source reads its own keys; setting another
# is refused on that key, even to its default value
@pytest.mark.parametrize(
    "text, key",
    [
        ("scenario = steering\nrequests = 7", "requests"),
        ("scenario = steering\nrequest_nodes = 4", "request_nodes"),
        ("scenario = steering\ndemand_max = 20", "demand_max"),
        ("scenario = steering\nvne_cpu = 5", "vne_cpu"),
        ("scenario = steering\nvne_bw = 5", "vne_bw"),
        ("scenario = vne\npairs = 100", "pairs"),
        ("scenario = vne\nbw_levels = low", "bw_levels"),
        ("scenario = vne\ndelay_levels = high", "delay_levels"),
        ("scenario = vne\ndelay_percents = 100", "delay_percents"),
        ("scenario = vne\nmeasure_time = false", "measure_time"),
        ("scenario = steering\ntopology = t.top\nnodes = 30", "nodes"),
        ("scenario = vne\ntopology = t.top\nmodel = waxman", "model"),
        ("scenario = steering\ntopology = t.top\ndegrees = 3 5", "degrees"),
        ("scenario = steering\ndelay_levels = high\ndelay_percents = 100", "delay_percents"),
    ],
)
def test_config_refuses_keys_its_sweep_would_not_read(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text + "\n")
    assert err.value.key == key


def test_unset_keys_take_the_defaults_of_the_sweep_that_reads_them():
    steering = parse_config("scenario = steering\n")
    assert (steering.model, steering.degrees, steering.pairs) == ("waxman", (4.0,), 100)
    assert (steering.bw_levels, steering.delay_levels) == (("low",), ("high",))
    assert (steering.delay_percents, steering.measure_time) == (None, False)
    assert steering.requests is steering.vne_cpu is None
    vne = parse_config("scenario = vne\ntopology = t.top\n")
    assert (vne.requests, vne.request_nodes, vne.demand_max) == (15, 14, 20.0)
    assert (vne.vne_cpu, vne.vne_bw) == (200.0, 200.0)
    assert vne.pairs is vne.bw_levels is vne.model is vne.degrees is vne.nodes is None
    percents = parse_config("scenario = steering\ndelay_percents = 100 50\n")
    assert (percents.delay_levels, percents.delay_percents) == (None, (100.0, 50.0))
    # a config rebuilt from its own fields is the same config
    for cfg in (steering, vne, percents):
        assert ExperimentConfig(**{f.name: getattr(cfg, f.name) for f in fields(cfg)}) == cfg


def test_config_checks_itself_when_built():
    # a directly built config is checked like a parsed one
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(scenario="steering", pairs=0)
    assert err.value.key == "pairs"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(scenario="solve")
    assert err.value.key == "scenario"


def _scenario_reading(key):
    """A scenario whose sweep reads key, so that a check of its value, not
    the refusal of an unread key, is what a test meets."""
    return "vne" if key in harness._SCENARIO_KEYS["vne"] else "steering"


@pytest.mark.parametrize(
    "text, key",
    [
        ("degrees = nan", "degrees"),
        ("degrees = 3 inf", "degrees"),
        ("delay_percents = inf", "delay_percents"),
        ("demand_max = nan", "demand_max"),
        ("vne_bw = -inf", "vne_bw"),
    ],
)
def test_parse_config_rejects_non_finite_numbers(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = {_scenario_reading(key)}\n{text}\n")
    assert err.value.key == key


@pytest.mark.parametrize(
    "text, key",
    [
        ("pairs = 0", "pairs"),
        ("nodes = 1", "nodes"),
        ("requests = 0", "requests"),
        ("request_nodes = 1", "request_nodes"),
        ("demand_max = 0", "demand_max"),
        ("vne_cpu = -1", "vne_cpu"),
        ("vne_bw = 0", "vne_bw"),
        ("seeds =", "seeds"),
        ("backends = ,", "backends"),
        ("degrees =", "degrees"),
        ("delay_percents =", "delay_percents"),
        ("nodes = 10\nnodes = 20", "nodes"),
        # a repeated grid value would run its cells twice
        ("degrees = 4 4", "degrees"),
        ("degrees = 4, 4.0", "degrees"),
        ("seeds = 1 2 1", "seeds"),
        ("backends = nm-l1 edijkstra nm-l1", "backends"),
        ("bw_levels = low low", "bw_levels"),
        ("delay_levels = high high", "delay_levels"),
        ("delay_percents = 50 100 50", "delay_percents"),
        # an empty topology used to mean generated graphs, silently
        ("topology =", "topology"),
        ("output =", "output"),
    ],
)
def test_parse_config_rejects_out_of_range_values_and_empty_axes(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = {_scenario_reading(key)}\n{text}\n")
    assert err.value.key == key


def test_config_range_minimums_are_accepted():
    cfg = parse_config(
        "scenario = vne\nnodes = 2\nrequests = 1\nrequest_nodes = 2\ndemand_max = 0.5\n"
    )
    assert (cfg.nodes, cfg.requests, cfg.request_nodes) == (2, 1, 2)
    assert parse_config("scenario = steering\npairs = 1\n").pairs == 1


def _holds(value, kind) -> bool:
    if isinstance(kind, types.UnionType):
        return any(_holds(value, k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return type(value) is tuple and all(type(v) is item for v in value)
    return type(value) is kind


def test_config_table_covers_every_field_with_its_type():
    # every field has a key of its own name
    table = harness._CONFIG_KEYS
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    assert set(table) == set(kinds)
    for key, convert in table.items():
        converted = []
        for text in ("1", "true"):
            try:
                converted.append(convert(text))
            except ValueError:
                pass
        assert converted, key
        for value in converted:
            assert _holds(value, kinds[key]), (key, value)
