"""vpembed benchmark: one workload per run, one caller, one process.

    python3 bench/run.py --workload steer-loose --seed 0 --seconds 30 --trace 0

Run from a source checkout (it imports the package from ``src/``). With
``--trace 0`` it times the workload untraced and reports the end-to-end
metrics; with ``--trace 1`` it first runs the workload untraced for half the
time, then re-runs the same operations with span tracing installed and
reports the per-layer metrics and the tracing overhead. Metric names and
units are the ones listed in BENCHMARK.json at the checkout root.

End-to-end times are CPU times (see cpu_times): the benchmark process's
own, scaled to nominal machine speed by reference passes that run between
the operations (see bench/reference.py), plus those of the child processes
it waited for, as measured. The measured CPU and wall times are printed as
report lines beside them.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Every
operation's outputs are checked; the exit status is 0 only when all checks
passed and, for the default seed, the result fingerprint matches the stored
one. Spans of a traced run are written to bench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
FINGERPRINTS = os.path.join(BENCH_DIR, "fingerprints.json")
DEFAULT_SEED = 0
TAIL_BEYOND = 10
SETUP_PASSES = 6
REF_SHARE = 0.2
IMPORT_REPEATS = 3


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it; in runs of fewer than 4 * TAIL_BEYOND
    operations, with a quarter of them above it, so that a short run's tail
    is not its single slowest operation."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def cpu_times() -> tuple[float, float]:
    """CPU seconds used so far by this process, and by the child processes
    it waited for.

    Operations and set-up are timed on CPU time, not on the wall clock: on a
    virtual machine whose cores the host shares with other tenants, wall
    time also counts the time the host gives to them (steal time), which
    made a 0.21 s loop take up to 0.30 s on the machine the baseline was
    taken on. The reference passes run in this process, so they scale only
    its own CPU time; a child process's time (cli-solve's, which is mostly
    start-up and import) did not move with them there."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), children.ru_utime + children.ru_stime


class Run:
    """Operation latencies (own and child CPU seconds, wall seconds),
    failures and fingerprint texts of one phase."""

    def __init__(self):
        self.own: list[float] = []
        self.child: list[float] = []
        self.wall: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.texts: list[str] = []

    @property
    def latencies(self) -> list[float]:
        """Measured CPU seconds of each op."""
        return [own + child for own, child in zip(self.own, self.child)]

    def scaled(self, scale: float) -> list[float]:
        """CPU seconds of each op with its own part at nominal speed."""
        return [own * scale + child for own, child in zip(self.own, self.child)]

    @property
    def busy(self) -> float:
        return sum(self.own) + sum(self.child)


def set_up(wl) -> tuple[list, float]:
    """The inputs of all set-up units, and the CPU time this process took
    to build them."""
    t0 = time.process_time()
    inputs = [wl.make_unit(k) for k in range(wl.units)]
    return inputs, time.process_time() - t0


def measure(wl, seconds=None, count=None, tracer=None, setup_times=None, ref=None) -> Run:
    """Closed loop: run ops 0, 1, ... while the next one is expected to end
    within seconds of wall time (and at least wl.min_ops of them), or
    exactly count ops.

    With setup_times, the set-up is also built again and timed at even
    points of the run until SETUP_PASSES timings are in setup_times, so that
    a slow spell of the host does not decide setup_s alone. With ref, a
    reference pass runs after an op whenever the passes so far took less
    than REF_SHARE of the ops' CPU time, so that the passes sample the
    host's speed across the whole run."""
    run = Run()
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (
        i < wl.min_ops
        or time.perf_counter() - start + statistics.fmean(run.wall) < seconds
    ):
        if setup_times is not None and len(setup_times) < SETUP_PASSES and (
            time.perf_counter() - start >= seconds * len(setup_times) / SETUP_PASSES
        ):
            setup_times.append(set_up(wl)[1])
        if tracer is not None:
            tracer.op = i
        t0, (own0, child0) = time.perf_counter(), cpu_times()
        try:
            result = wl.run_op(i)
            error = None
        except Exception as exc:  # a crash is a failed operation, not a stop
            error = f"op {i}: {type(exc).__name__}: {exc}"
        own, child = cpu_times()
        run.wall.append(time.perf_counter() - t0)
        run.own.append(own - own0)
        run.child.append(child - child0)
        if tracer is not None:
            tracer.op = None
        if error is None:
            problems, text = wl.check_op(i, result)
        else:
            problems, text = [error], error
        if problems:
            run.failed += 1
            run.problems += problems[:3]
        run.texts.append(text)
        i += 1
        while ref is not None and ref.total < REF_SHARE * run.busy:
            ref.run()
    return run


def import_times() -> tuple[float, float]:
    """Median cost of `import vpembed.cli` in a fresh interpreter, and the
    vpembed.topogen share of it, in ms (from python -X importtime)."""
    totals, topogen = [], []
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import vpembed.cli"],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
        top = min(indent for indent, _, _ in rows)
        totals.append(sum(c for i, n, c in rows if i == top and n.startswith("vpembed")) / 1e3)
        topogen.append(sum(c for _, n, c in rows if n == "vpembed.topogen") / 1e3)
    return statistics.median(totals), statistics.median(topogen)


def layer_metrics(wl, tracer, phase_a: Run, phase_b: Run) -> dict[str, float]:
    summary = tracer.summary()
    m: dict[str, float] = {}
    for name, row in summary.items():
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.busy_s"] = row["busy_s"]
        m[f"{name}.self_s"] = row["self_s"]
        for outcome in ("ok", "unreachable", "infeasible"):
            m[f"{name}.{outcome}"] = row["outcomes"].get(outcome, 0)
    m["neighborhoods._l1_forward.rounds"] = summary["neighborhoods._l1_forward"].get("rounds", 0)
    m["neighborhoods._usable_mask.edges_scanned"] = summary["neighborhoods._usable_mask"].get(
        "edges_scanned", 0
    )

    gen = "neighborhoods._iter_fixed_length_paths"
    yielded = summary[gen]["outcomes"].get("yield", 0)
    enumerating = {parent for name, parent, op in tracer.gen_calls if op is not None}
    found = sum(
        1
        for idx in enumerating
        if idx >= 0 and tracer.spans[idx][0] == "neighborhoods.solve_general"
        and tracer.spans[idx][5] == "ok"
    )
    m[f"{gen}.yielded"] = yielded
    m[f"{gen}.depths_per_solve"] = summary[gen]["calls"] / len(enumerating) if enumerating else 0
    m[f"{gen}.useful_ratio"] = found / yielded if yielded else 0

    allocations = getattr(wl, "allocations", 0)
    solve_calls = getattr(wl, "solve_calls", 0)
    m["harness.steer.ok_ratio"] = allocations / solve_calls if solve_calls else 0

    # the tail of query-multi: queries answered infeasible after enumerating
    # candidates at one depth or more (the others are settled in microseconds)
    depths = tail_yielded = iter_share = 0.0
    slow = set()
    if wl.name == "query-multi":
        lat = phase_b.wall
        enumerated = {op for name, _p, op in tracer.gen_calls if op is not None}
        slow = {
            op for name, _t0, _t1, _p, op, outcome in tracer.spans
            if name == "neighborhoods.solve_general" and outcome == "infeasible" and op in enumerated
        }
        if slow:
            in_iter = sum(
                t1 - t0 for name, t0, t1, _p, op, _o in tracer.spans if name == gen and op in slow
            )
            tail_yielded = sum(
                1 for name, _t0, _t1, _p, op, o in tracer.spans
                if name == gen and op in slow and o == "yield"
            )
            depths = sum(1 for name, _p, op in tracer.gen_calls if op in slow) / len(slow)
            iter_share = in_iter / sum(lat[i] for i in slow)
    m["query.tail_queries"] = len(slow)
    m["query.tail_iter_share"] = iter_share
    m["query.tail_depths_per_solve"] = depths
    m["query.tail_yielded"] = tail_yielded

    import_ms = topogen_ms = micros = 0.0
    if wl.name == "cli-solve":
        import_ms, topogen_ms = import_times()
        micros = statistics.median(wl.micros) if wl.micros else 0.0
    m["cli.import_ms"] = import_ms
    m["cli.import_topogen_ms"] = topogen_ms
    m["cli.solve_micros"] = micros

    m["trace.overhead_ratio"] = phase_b.busy / phase_a.busy - 1.0
    m["trace.spans"] = sum(1 for span in tracer.spans if span[4] is not None)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "vpembed")) or not os.path.isfile(SPEC):
        print(f"bench: needs a source checkout ({SRC}/vpembed and {SPEC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reference
    import selftest
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    failures = [f"selftest: {p}" for p in selftest.run()]
    os.makedirs(OUT_DIR, exist_ok=True)
    wl_cls = workloads.WORKLOADS[args.workload]
    extra = {"in_process": True} if args.trace and wl_cls is workloads.CliSolve else {}
    wl = wl_cls(args.seed, OUT_DIR, **extra)
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl.install()
        if tracer is not None:
            tracer.install()
        wl.inputs, first = set_up(wl)
        setup_times = [first]
        if tracer is not None:
            tracer.uninstall()
        wl.warm_up()
        if tracer is None:
            ref = reference.Reference()
            phase = measure(wl, seconds=args.seconds, setup_times=setup_times, ref=ref)
        else:
            phase_a = measure(wl, seconds=args.seconds / 2)
            tracer.install()
            phase = measure(wl, count=len(phase_a.latencies), tracer=tracer)
            tracer.uninstall()
            if workloads.fingerprint(phase.texts) != workloads.fingerprint(phase_a.texts):
                failures.append("traced outputs differ from untraced outputs")
        wl.uninstall()
    finally:
        wl.close()

    phases = [phase] if tracer is None else [phase_a, phase]
    for run in phases:
        failures += run.problems
    attempted = sum(len(run.latencies) for run in phases)
    failed = sum(run.failed for run in phases)
    head = phase.texts[: wl.min_ops] if tracer is None else phase_a.texts[: wl.min_ops]
    fp = workloads.fingerprint(head)
    print(f"workload {wl.name} seed {args.seed}: {len(phase.latencies)} ops, "
          f"fingerprint {fp} over the first {wl.min_ops}")
    if args.seed == DEFAULT_SEED:
        with open(FINGERPRINTS, encoding="utf-8") as f:
            stored = json.load(f).get(wl.name)
        if stored != fp:
            failures.append(f"fingerprint {fp} differs from the stored {stored}")

    if tracer is None:
        scale = ref.scale()
        value, pct, beyond = tail(phase.scaled(scale))
        metrics = {
            "setup_s": statistics.median(setup_times) * scale,
            "op_p50_ms": statistics.median(phase.scaled(scale)) * 1e3,
            "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
        }
        print(f"tail is p{pct:.2f} of {len(phase.latencies)} ops, {beyond} beyond it; "
              f"times scaled by {scale:.4f} from {len(ref.times)} reference passes")
        info = [
            ("op_tail_ms", value * 1e3, "ms"),
            ("ref_pass_ms", statistics.median(ref.times) * 1e3, "ms"),
            ("setup_cpu_s", statistics.median(setup_times), "s"),
            ("op_cpu_p50_ms", statistics.median(phase.latencies) * 1e3, "ms"),
            ("op_cpu_tail_ms", tail(phase.latencies)[0] * 1e3, "ms"),
            ("op_wall_p50_ms", statistics.median(phase.wall) * 1e3, "ms"),
            ("op_wall_tail_ms", tail(phase.wall)[0] * 1e3, "ms"),
            ("ops_per_cpu_s", len(phase.latencies) / phase.busy, "1/s"),
        ] + wl.info()
        for name, v, unit in info:
            print(f"  {name} = {v:.6g} {unit}")
    else:
        metrics = layer_metrics(wl, tracer, phase_a, phase)
        for name in wl.expected_layers:
            if name in tracer.absent:
                print(f"layer {name}: absent from the library")
            elif metrics[f"{name}.calls"] == 0:
                failures.append(f"layer {name} recorded no span (a binding was missed)")
        for name in sorted(tracer.failed_counts):
            print(f"layer {name}: counter absent (its result changed shape)")
        tracer.write(os.path.join(OUT_DIR, f"trace-{wl.name}.tsv"))

    print(f"  failed_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted})")
    for entry in wanted:
        print(f"  {entry['name']} = {metrics[entry['name']]:.6g} {entry['unit']}")
    for p in failures[:20]:
        print(f"FAIL {p}")
    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {
            e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
