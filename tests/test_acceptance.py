"""Acceptance suite: one test per primary criterion, each printing a
PASS/FAIL line. Small-instance criteria are exact oracle checks; the
full-scale ones assert the direction of the trends at desk scale.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time

import numpy as np
import pytest

from conftest import B, X, Y, random_instance, random_l1_bounds
from oracle import reference_outcome
from vpembed import (
    ConstraintSet,
    EdgeMetrics,
    GenSpec,
    InfeasibleError,
    NegativeWeightCycleError,
    NoPathError,
    build_graph,
    build_vn_requests,
    generate,
    run_vne,
    solve_edijkstra,
    solve_general,
    solve_ksp,
    solve_l1,
)
from vpembed.harness import (
    ExperimentConfig,
    assign_link_bandwidth_from_node_budget,
    rows_to_csv,
    run_steering,
    sweep,
)
from vpembed.topogen import resolve_constraint_severity

E = EdgeMetrics

# every ok PathResult produced by the suites lands here for the
# constraint-satisfaction re-verification (criterion: zero violations)
VERIFIED: list[tuple[ConstraintSet, object]] = []


def _record(c, result):
    VERIFIED.append((c, result))
    return result


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence, single path bound


def test_c01_oracle_equivalence_l1():
    t0 = time.monotonic()
    rng = random.Random(20240901)
    matches = 0
    for _ in range(500):
        g, edges = random_instance(rng, max_nodes=12, edge_prob=0.3)
        c = random_l1_bounds(rng)
        src, dst = 0, g.node_count - 1
        expected = reference_outcome(g.node_count, edges, src, dst, c)
        try:
            got = _record(c, solve_l1(g, src, dst, c)).hop_count
        except NoPathError as exc:
            got = exc.status
        assert got == expected, f"hop mismatch: l1={got} oracle={expected}"
        matches += 1
    elapsed = time.monotonic() - t0
    _report(
        "oracle equivalence (link bounds + one path bound)",
        matches == 500 and elapsed < 60.0,
        f"{matches}/500 matches in {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence, general case with two path bounds


def test_c02_oracle_equivalence_general():
    t0 = time.monotonic()
    rng = random.Random(77001)
    matches = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.3:
                    edges.append(
                        (u, v, E((float(rng.randint(1, 9)),),
                                 (float(rng.randint(1, 10)), float(rng.randint(1, 10)))))
                    )
        g = build_graph(n, edges, [0.0] * n, link_arity=1, path_arity=2)
        c = ConstraintSet(
            ((0, float(rng.randint(1, 9))),),
            ((0, float(rng.randint(3, 25))), (1, float(rng.randint(3, 25)))),
        )
        src, dst = 0, n - 1
        expected = reference_outcome(n, edges, src, dst, c)
        try:
            got = _record(c, solve_general(g, src, dst, c)).hop_count
        except NoPathError as exc:
            got = exc.status
        assert got == expected, f"hop mismatch: general={got} oracle={expected}"
        matches += 1
    elapsed = time.monotonic() - t0
    _report(
        "oracle equivalence (general, two path bounds)",
        matches == 300 and elapsed < 120.0,
        f"{matches}/300 matches in {elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# Criterion 3: the worked 4-node example


def test_c03_worked_example(fig_graph, fig_constraints):
    general = _record(fig_constraints, solve_general(fig_graph, X, Y, fig_constraints))
    l1 = _record(fig_constraints, solve_l1(fig_graph, X, Y, fig_constraints))
    ksp_infeasible = False
    try:
        solve_ksp(fig_graph, X, Y, fig_constraints, 1)
    except InfeasibleError:
        ksp_infeasible = True
    ed = _record(fig_constraints, solve_edijkstra(fig_graph, X, Y, fig_constraints))
    ok = (
        general.nodes == (X, B, 1, Y)
        and general.hop_count == 3
        and l1.nodes == general.nodes
        and ksp_infeasible
        and ed.hop_count >= 3
    )
    _report(
        "worked example",
        ok,
        f"general={general.nodes} l1={l1.nodes} ksp1_infeasible={ksp_infeasible} ed_hops={ed.hop_count}",
    )


# ---------------------------------------------------------------------------
# Criterion 5 + 6 + 10 share the full-scale trend grid


TREND_CFG = ExperimentConfig(
    scenario="steering",
    model="waxman",
    nodes=1000,
    degrees=(3.0, 4.0, 5.0, 6.0),
    bw_levels=("low",),
    delay_levels=("high",),
    backends=("nm-l1", "edijkstra"),
    seeds=tuple(range(1, 11)),
    pairs=100,
)


@pytest.fixture(scope="module")
def trend_rows():
    # two worker processes; test_c10 checks the rows against serial runs
    t0 = time.monotonic()
    rows = sweep(TREND_CFG, jobs=2)
    elapsed = time.monotonic() - t0
    print(f"\n[info] trend grid: {len(rows)} cells in {elapsed:.0f}s (budget 1800s)")
    assert elapsed < 1800.0
    return rows


def _grid_means(rows, metric):
    means = {}
    for degree in TREND_CFG.degrees:
        for backend in TREND_CFG.backends:
            vals = [
                row[metric]
                for row in rows
                if row["avg_degree"] == degree and row["backend"] == backend
            ]
            assert len(vals) == len(TREND_CFG.seeds)
            means[(degree, backend)] = sum(vals) / len(vals)
    return means


def test_c05_directional_trend(trend_rows):
    thr = _grid_means(trend_rows, "throughput_gbps")
    hops = _grid_means(trend_rows, "avg_hops")
    detail = []
    ok = True
    for degree in TREND_CFG.degrees:
        t_nm, t_ed = thr[(degree, "nm-l1")], thr[(degree, "edijkstra")]
        h_nm, h_ed = hops[(degree, "nm-l1")], hops[(degree, "edijkstra")]
        ok = ok and t_nm >= t_ed and h_nm <= h_ed
        detail.append(f"deg{degree:g}: thr {t_nm:.0f}/{t_ed:.0f} hops {h_nm:.2f}/{h_ed:.2f}")
    _report("directional trend (throughput up, path length down)", ok, "; ".join(detail))


def test_c06_energy_ordering(trend_rows):
    energy = _grid_means(trend_rows, "energy_eff")
    ok = True
    detail = []
    for degree in TREND_CFG.degrees:
        e_nm, e_ed = energy[(degree, "nm-l1")], energy[(degree, "edijkstra")]
        ok = ok and e_nm >= 0.95 * e_ed
        detail.append(f"deg{degree:g}: {e_nm:.0f}/{e_ed:.0f}")
    # the whole grid runs at the loosest severity (low bw + high delay), so
    # the strict requirement applies to its aggregate
    nm_total = sum(energy[(d, "nm-l1")] for d in TREND_CFG.degrees)
    ed_total = sum(energy[(d, "edijkstra")] for d in TREND_CFG.degrees)
    ok = ok and nm_total > ed_total
    _report(
        "energy-efficiency ordering",
        ok,
        "; ".join(detail) + f"; aggregate {nm_total:.0f} > {ed_total:.0f}",
    )


def test_c10_determinism(trend_rows):
    # re-run a slice of the grid from scratch: the regenerated cells must
    # render to byte-identical CSV rows
    subset_cfg = ExperimentConfig(
        scenario="steering",
        model="waxman",
        nodes=1000,
        degrees=(3.0,),
        bw_levels=("low",),
        delay_levels=("high",),
        backends=("nm-l1", "edijkstra"),
        seeds=(1, 2),
        pairs=100,
    )
    fresh = rows_to_csv(sweep(subset_cfg))
    wanted = [
        row
        for row in trend_rows
        if row["avg_degree"] == 3.0 and row["seed"] in (1, 2)
    ]
    ok = fresh == rows_to_csv(wanted) and fresh == rows_to_csv(sweep(subset_cfg))
    _report("determinism (byte-identical CSV)", ok, f"{len(wanted)} cells compared")


# ---------------------------------------------------------------------------
# Criterion 7: VNE improvement


def test_c07_vne_improvement():
    seeds = range(1, 21)
    ratios = {b: {"vn": [], "vl": []} for b in ("nm-general", "ksp:1", "ksp:3")}
    strict_win = 0
    for seed in seeds:
        g = generate(GenSpec(node_count=100, target_avg_degree=3.0, cpu_units=200.0, seed=seed))
        g = assign_link_bandwidth_from_node_budget(g, 200.0)
        requests = build_vn_requests(15, 14, 20.0, seed=seed)
        per_seed = {}
        for backend in ratios:
            report = run_vne(g, requests, backend)
            ratios[backend]["vn"].append(report.vn_allocation_ratio)
            ratios[backend]["vl"].append(report.link_allocation_ratio)
            per_seed[backend] = report.link_allocation_ratio
        if per_seed["nm-general"] > max(per_seed["ksp:1"], per_seed["ksp:3"]):
            strict_win += 1
    means = {b: (np.mean(v["vn"]), np.mean(v["vl"])) for b, v in ratios.items()}
    nm_vn, nm_vl = means["nm-general"]
    ok = (
        all(nm_vn >= means[b][0] and nm_vl >= means[b][1] for b in ("ksp:1", "ksp:3"))
        and strict_win >= 1
    )
    detail = "; ".join(f"{b}: vn={v[0]:.3f} vl={v[1]:.3f}" for b, v in means.items())
    _report("VNE improvement", ok, detail + f"; strict wins on {strict_win}/20 seeds")


# ---------------------------------------------------------------------------
# Criterion 8: quadratic scaling


def test_c08_quadratic_scaling():
    sizes = (250, 500, 1000, 2000)
    mean_times = []
    for n in sizes:
        g = generate(GenSpec(node_count=n, target_avg_degree=4.0, seed=42))
        c = resolve_constraint_severity(g, "low", "high")
        rng = random.Random(n)
        queries = []
        while len(queries) < 30:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                queries.append((u, v))
        t0 = time.perf_counter()
        for u, v in queries:
            try:
                solve_l1(g, u, v, c)
            except NoPathError:
                pass
        mean_times.append((time.perf_counter() - t0) / len(queries))
    slope = float(np.polyfit(np.log(sizes), np.log(mean_times), 1)[0])
    _report(
        "quadratic scaling",
        slope <= 2.4,
        f"fit exponent {slope:.2f} over sizes {sizes} "
        + str([f"{t * 1e3:.2f}ms" for t in mean_times]),
    )


# ---------------------------------------------------------------------------
# Criterion 9: negative-cycle detection


def test_c09_negative_cycle():
    edges = [
        (0, 1, E((9.0,), (1.0,))),
        (1, 2, E((9.0,), (1.0,))),
        (2, 3, E((9.0,), (1.0,))),
        (3, 1, E((9.0,), (-3.0,))),
        (3, 4, E((9.0,), (100.0,))),
    ]
    g = build_graph(5, edges, [0.0] * 5)
    caught = False
    try:
        solve_l1(g, 0, 4, ConstraintSet((), ((0, 10.0),)))
    except NegativeWeightCycleError:
        caught = True
    _report("negative-cycle detection", caught, "cycle total = -1")


# ---------------------------------------------------------------------------
# Criterion 4: constraint satisfaction re-verification (runs last: the
# earlier suites populate VERIFIED, plus a dedicated steering sample here)


def test_c99_constraint_satisfaction_reverify():
    g = generate(GenSpec(node_count=300, target_avg_degree=4.0, seed=5))
    c = resolve_constraint_severity(g, "med", "med")
    report = run_steering(g, 20, c, "nm-l1", seed=5)
    for _u, _v, path in report.allocations:
        # the path was solved against residual state; its base-graph minima
        # must still clear the bounds since residual <= base
        _record(c, path)

    violations = 0
    for c, result in VERIFIED:
        for j, bound in c.link_bounds:
            if result.min_link_metrics[j] < bound:
                violations += 1
        for j, bound in c.path_bounds:
            ok = result.accumulated[j] < bound if c.strict else result.accumulated[j] <= bound
            if not ok:
                violations += 1
    _report(
        "constraint satisfaction re-verification",
        len(VERIFIED) > 100 and violations == 0,
        f"{len(VERIFIED)} ok results re-checked, {violations} violations",
    )
