"""The benchmark's workloads.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned, which is how the harnesses and an
embedder calling a solver behave. Each workload builds its inputs in set-up
units, warms up, then runs operations ``0, 1, 2, ...`` in order. An
operation's outputs are checked after its timer stops.

Inputs come from the workload name and the seed alone. The substrates of a
workload are a fixed corpus (generator seeds 1, 2, ...; steer-loose uses one
substrate); the seed draws what runs on them: the steering pairs and the
queries (vne-pool keeps the acceptance check's fixed cells, see VnePool). So
a new seed gives new traffic on known topologies, and the spread between
seeds measures the program rather than how hard one random topology happens
to be.

Why each workload exists:

- steer-loose: the steering cell of the roadmap (1000-node Waxman, degree 4,
  100 pairs, low bandwidth, loose delay); its time goes to the nm-l1 sweep
  and the edijkstra heap, about 0.9 overlay reserves per solve.
- vne-pool: the VNE cell (100-node Waxman, degree 3, 200-unit node budget,
  15 requests of 14 virtual nodes) for nm-general, ksp:1 and ksp:3 over many
  substrates; node placement, level growth without path bounds, the ksp hop
  BFS and the rollback path, and never the nm-l1 sweep.
- query-multi: read-only two-path-bound nm-general queries on 150-node
  Waxman graphs (a corpus of eight); the only workload that runs candidate
  enumeration under path bounds, and it shows the tail of infeasible queries
  that enumerate every depth up to the node count.
- cli-solve: one `vpembed solve` process per query on a topology file; the
  only workload that measures the package import, the topology parser and
  the CLI.
"""

import contextlib
import hashlib
import io
import math
import os
import random
import resource
import subprocess
import sys
import time

import checks
import tracing

from vpembed import backends, cli, graph, harness, neighborhoods, paths, topofile, topogen
from vpembed.constraints import ConstraintSet
from vpembed.errors import NoPathError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs `python -m vpembed.cli` and then prints the process's own peak RSS on
# stderr. The rusage of a child cannot give it: Linux counts the parent's
# resident pages at fork in the child's ru_maxrss, while VmHWM covers only
# the memory map that exec made.
CLI_CHILD = """\
import runpy, sys
try:
    runpy.run_module("vpembed.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as f:
        sys.stderr.write(next(line for line in f if line.startswith("VmHWM:")))
"""


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


class OverlayCapture:
    """Records every ResidualOverlay the library creates, so the benchmark
    can audit the ledger of a cell whose overlay the harness keeps private."""

    def __init__(self):
        self.made: list = []
        self._undo: list = []

    def install(self) -> None:
        cls = graph.ResidualOverlay
        original = cls.__init__
        made = self.made

        def init(overlay, *args, **kwargs):
            original(overlay, *args, **kwargs)
            made.append(overlay)

        cls.__init__ = init
        self._undo.append((cls, "__init__", original))

    def uninstall(self) -> None:
        tracing.restore(self._undo)
        self._undo = []


class SolveTally:
    """Counts the solver calls the harnesses make and how each one ended.

    The harnesses treat every no-path outcome alike; the benchmark still has
    to count `limit` (a guard tripped, not an answer) as a failure.
    """

    def __init__(self):
        self.calls = 0
        self.statuses: dict[str, int] = {}
        self._undo: list = []

    def install(self) -> None:
        original = backends.resolve_backend

        def resolve(name):
            solver = original(name)

            def tallied(*args, **kwargs):
                self.calls += 1
                try:
                    return solver(*args, **kwargs)
                except NoPathError as exc:
                    self.statuses[exc.status] = self.statuses.get(exc.status, 0) + 1
                    raise

            return tallied

        self._undo.extend(tracing.rebind_everywhere(original, resolve))

    def reset(self) -> None:
        self.calls = 0
        self.statuses = {}

    def uninstall(self) -> None:
        tracing.restore(self._undo)
        self._undo = []


class Workload:
    """Base class: set-up units, warm-up, operations and their checks.

    Subclasses set name, units (the set-up units that build the inputs),
    min_ops (operations always run, and the ones the result fingerprint
    covers) and expected_layers (traced layers that must record a span on
    this workload).
    """

    name = ""
    units = 1
    min_ops = 1
    expected_layers: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.input_seeds = derived_seeds(self.name, seed, self.units)
        self.inputs: list = []
        self.backend_times: dict[str, list[float]] = {}

    def make_unit(self, k: int):
        """Build and return the input of set-up unit k. The set-up is built
        again to time it, so the result depends on k and the seed alone."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check_op(self, i: int, result) -> tuple[list[str], str]:
        """(problems, canonical text of the op's deterministic outputs)."""
        raise NotImplementedError

    def info(self) -> list[tuple[str, float, str]]:
        """Extra report lines (name, value, unit) for this workload."""
        return [
            (f"cell_s.{backend.replace(':', '-')}", sum(ts) / len(ts), "s")
            for backend, ts in self.backend_times.items()
            if ts
        ]

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that runs the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def close(self) -> None:
        pass


class _HarnessWorkload(Workload):
    """Cells that run through the harnesses, with overlay and solve audits.

    A cell record is (backend, report, overlays created, solver calls,
    no-path statuses).
    """

    backend_names: tuple[str, ...] = ()

    def install(self) -> None:
        self.capture = OverlayCapture()
        self.tally = SolveTally()
        self.capture.install()
        self.tally.install()

    def uninstall(self) -> None:
        self.tally.uninstall()
        self.capture.uninstall()

    def _run_cells(self, names, run_cell) -> list[tuple]:
        cells = []
        for backend in names:
            self.capture.made.clear()
            self.tally.reset()
            t0 = time.process_time()
            report = run_cell(backend)
            self.backend_times.setdefault(backend, []).append(time.process_time() - t0)
            cells.append(
                (backend, report, list(self.capture.made), self.tally.calls,
                 dict(self.tally.statuses))
            )
        return cells

    @staticmethod
    def _audit(overlays, statuses, problems) -> None:
        if len(overlays) != 1:
            problems.append(f"cell created {len(overlays)} overlays, expected 1")
        if statuses.get("limit"):
            problems.append(f"{statuses['limit']} solves hit a search limit")


class SteerLoose(_HarnessWorkload):
    """The roadmap's steering cell. One operation is one round: a
    `run_steering` cell for nm-l1, then one for edijkstra, each on a fresh
    overlay and both on the same seeded pairs, timed together. Every
    operation holds one cell of each backend, so a change to either backend
    moves every sample alike."""

    name = "steer-loose"
    units = 1
    min_ops = 4
    pairs = 100
    backend_names = ("nm-l1", "edijkstra")
    expected_layers = (
        "topogen.generate",
        "harness.run_steering",
        "graph.overlay_init",
        "graph.reserve",
        "neighborhoods.solve_l1",
        "neighborhoods._l1_forward",
        "neighborhoods._usable_mask",
        "neighborhoods._reachable",
        "baselines.solve_edijkstra",
        "paths.path_from_edges",
    )

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.allocations = 0
        self.solve_calls = 0

    def make_unit(self, k: int):
        # one fixed substrate: the spread between seeds comes from the pairs alone
        g = topogen.generate(topogen.GenSpec(node_count=1000, target_avg_degree=4.0, seed=1))
        return g, topogen.resolve_constraint_severity(g, "low", "high")

    def warm_up(self) -> None:
        g, c = self.inputs[0]
        for backend in self.backend_names:
            harness.run_steering(g, 10, c, backend, seed=self.seed)

    def run_op(self, i: int):
        g, c = self.inputs[0]
        pair_seed = self.input_seeds[0] + i
        return self._run_cells(
            self.backend_names, lambda b: harness.run_steering(g, self.pairs, c, b, pair_seed)
        )

    def check_op(self, i: int, cells):
        g, c = self.inputs[0]
        demand = [0.0] * g.link_arity
        for j, bound in c.link_bounds:
            demand[j] = bound
        problems = []
        text = []
        for backend, report, overlays, calls, statuses in cells:
            self._audit(overlays, statuses, problems)
            if calls != report.solve_calls:
                problems.append(
                    f"{backend}: {calls} solver calls seen, report says {report.solve_calls}"
                )
            edge_demands = {}
            for u, v, path in report.allocations:
                for p in checks.check_path(g, path, u, v, c):
                    problems.append(f"{backend} {u}->{v}: {p}")
                checks.add_path_demand(edge_demands, path, demand)
            if overlays:
                problems += checks.check_ledger(g, overlays[0], edge_demands, {})
            text.append(
                f"{backend} vl={report.vl_count} calls={report.solve_calls} "
                f"tput={report.total_throughput!r} hops={report.avg_path_length!r} "
                f"used={report.n_used}"
            )
            self.allocations += report.vl_count
            self.solve_calls += report.solve_calls
        return problems, "\n".join(text)


class VnePool(_HarnessWorkload):
    """One operation is a VNE round: one substrate and its request pool
    embedded by nm-general, ksp:1 and ksp:3, each on a fresh overlay.

    The cells are those of the VNE acceptance check, substrate and request
    pool both drawn from cell seed s, for s = 1..units; the benchmark seed
    only rotates the order they run in. Drawing request pools from the
    benchmark seed instead makes ksp:3 trip its expansion guard (a `limit`,
    counted as a failure) on about 2% of cells, so some seeds would fail
    whatever the code under test does.
    """

    name = "vne-pool"
    units = 24
    min_ops = 24
    backend_names = ("nm-general", "ksp:1", "ksp:3")
    expected_layers = (
        "topogen.generate",
        "harness.assign_link_bandwidth_from_node_budget",
        "harness.run_vne",
        "harness._place_nodes",
        "graph.overlay_init",
        "graph.reserve",
        "graph.release",
        "graph.reserve_node",
        "graph.release_node",
        "neighborhoods.solve_general",
        "neighborhoods._usable_mask",
        "neighborhoods._iter_fixed_length_paths",
        "baselines.solve_ksp",
        "baselines._hop_distances_to",
        "paths.path_from_edges",
    )

    def make_unit(self, k: int):
        spec = topogen.GenSpec(node_count=100, target_avg_degree=3.0, cpu_units=200.0, seed=k + 1)
        g = harness.assign_link_bandwidth_from_node_budget(topogen.generate(spec), 200.0)
        requests = harness.build_vn_requests(15, 14, 20.0, seed=k + 1)
        return g, requests

    def _cell(self, i: int):
        return self.inputs[(i + self.input_seeds[0]) % len(self.inputs)]

    def warm_up(self) -> None:
        g, requests = self.inputs[0]
        for backend in self.backend_names:
            harness.run_vne(g, requests, backend)

    def run_op(self, i: int):
        g, requests = self._cell(i)
        return self._run_cells(
            self.backend_names, lambda backend: harness.run_vne(g, requests, backend)
        )

    def check_op(self, i: int, cells):
        g, requests = self._cell(i)
        problems = []
        text = []
        for backend, report, overlays, _calls, statuses in cells:
            self._audit(overlays, statuses, problems)
            edge_demands = {}
            node_demands = {}
            accepted = 0
            for req, outcome in zip(requests, report.per_request_outcomes):
                if not outcome.accepted:
                    continue
                accepted += 1
                for host, cpu in zip(outcome.hosts, req.virtual_nodes):
                    node_demands[host] = node_demands.get(host, 0.0) + cpu
                if len(set(outcome.hosts)) != len(outcome.hosts):
                    problems.append(f"{backend}: a request reuses a host")
                if len(outcome.paths) != len(req.virtual_links):
                    problems.append(f"{backend}: accepted request has unrouted links")
                for (a, b, bw, _delay), path in zip(req.virtual_links, outcome.paths):
                    c = ConstraintSet(link_bounds=((0, bw),))
                    for p in checks.check_path(g, path, outcome.hosts[a], outcome.hosts[b], c):
                        problems.append(f"{backend}: {p}")
                    checks.add_path_demand(edge_demands, path, (bw,))
            if accepted != round(report.vn_allocation_ratio * len(requests)):
                problems.append(f"{backend}: VN ratio disagrees with the accepted requests")
            if overlays:
                problems += checks.check_ledger(g, overlays[0], edge_demands, node_demands)
            text.append(
                f"{backend} vn={report.vn_allocation_ratio!r} vl={report.link_allocation_ratio!r} "
                f"util={report.link_utilization!r}"
            )
        return problems, "\n".join(text)


def reliability_graph(spec: topogen.GenSpec, rng: random.Random):
    """The generated graph with a second path metric: -ln(reliability),
    reliability drawn per undirected link from U[0.95, 0.9999]."""
    g = topogen.generate(spec)
    cost = {}
    edges = []
    for src, dst, m in g.edges:
        key = (min(src, dst), max(src, dst))
        if key not in cost:
            cost[key] = -math.log(rng.uniform(0.95, 0.9999))
        edges.append(
            (src, dst, graph.EdgeMetrics(m.link_metrics, (m.path_metrics[0], cost[key])))
        )
    return graph.build_graph(g.node_count, edges, g.node_capacity)


class QueryMulti(Workload):
    """One operation is one two-path-bound nm-general query. Queries cycle
    over the substrates so every substrate weighs the same."""

    name = "query-multi"
    units = 8
    min_ops = 400
    queries_per_unit = 2000
    expected_layers = (
        "topogen.generate",
        "neighborhoods.solve_general",
        "neighborhoods._usable_mask",
        "neighborhoods._min_sums_to",
        "neighborhoods._iter_fixed_length_paths",
        "paths.path_from_edges",
    )

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.statuses: dict[str, int] = {}
        self._relaxed: dict = {}

    def make_unit(self, k: int):
        spec = topogen.GenSpec(node_count=150, target_avg_degree=4.0, seed=k + 1)
        g = reliability_graph(spec, random.Random(k + 1))
        rng = random.Random(self.input_seeds[k])
        dmax = max(g.path_cols[0])
        bounds = [
            ConstraintSet(((0, 1.0),), ((0, factor * dmax), (1, cost)))
            for factor in (2.5, 4.0)
            for cost in (0.3, 0.15, 0.1)
        ]
        queries = []
        n = g.node_count
        while len(queries) < self.queries_per_unit:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                queries.append((u, v, rng.choice(bounds)))
        return g, queries

    def _query(self, i: int):
        g, queries = self.inputs[i % len(self.inputs)]
        u, v, c = queries[(i // len(self.inputs)) % len(queries)]
        return g, u, v, c

    def warm_up(self) -> None:
        g, queries = self.inputs[0]
        for u, v, c in queries[-20:]:
            try:
                neighborhoods.solve_general(g, u, v, c)
            except NoPathError:
                pass

    def run_op(self, i: int):
        g, u, v, c = self._query(i)
        try:
            return neighborhoods.solve_general(g, u, v, c)
        except NoPathError as exc:
            return exc

    def check_op(self, i: int, result):
        g, u, v, c = self._query(i)
        problems = []
        if isinstance(result, NoPathError):
            status, hops, nodes = result.status, -1, ()
            if status == "limit":
                problems.append(f"query {u}->{v} hit the candidate limit")
        else:
            status, hops, nodes = "ok", result.hop_count, result.nodes
            problems += checks.check_path(g, result, u, v, c)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        problems += self._check_relaxation(i, g, u, v, c, status, hops)
        return problems, f"{u} {v} {c.path_bounds!r} {status} {hops} {nodes}"

    def _check_relaxation(self, i, g, u, v, c, status, hops) -> list[str]:
        """nm-l1 and nm-general must agree on the single-bound relaxation
        (link bound and delay bound only), and it can only be easier."""
        key = (i % len(self.inputs), (i // len(self.inputs)) % self.queries_per_unit)
        if key in self._relaxed:
            return []
        relaxed = ConstraintSet(c.link_bounds, c.path_bounds[:1])
        answers = []
        for solver in (neighborhoods.solve_l1, neighborhoods.solve_general):
            try:
                answers.append(("ok", solver(g, u, v, relaxed).hop_count))
            except NoPathError as exc:
                answers.append((exc.status, -1))
        self._relaxed[key] = answers[0]
        problems = []
        if answers[0] != answers[1]:
            problems.append(f"query {u}->{v}: relaxation nm-l1 {answers[0]} != nm-general {answers[1]}")
        if status == "ok" and not (answers[0][0] == "ok" and answers[0][1] <= hops):
            problems.append(f"query {u}->{v}: feasible, but its relaxation gave {answers[0]}")
        return problems

    def info(self):
        total = sum(self.statuses.values()) or 1
        return [(f"status_share.{s}", n / total, "1") for s, n in sorted(self.statuses.items())]


class CliSolve(Workload):
    """One operation is one `vpembed solve --backend nm-l1` child process on
    a topology file written during set-up (the steer-loose substrate and
    bounds). Traced runs call the CLI entry point in-process instead."""

    name = "cli-solve"
    units = 3
    min_ops = 12
    pairs_per_unit = 400
    expected_layers = (
        "topogen.generate",
        "topofile.dump",
        "topofile.load",
        "cli.main",
        "neighborhoods.solve_l1",
        "neighborhoods._l1_forward",
        "neighborhoods._usable_mask",
        "paths.path_from_edges",
    )

    def __init__(self, seed: int, out_dir: str, in_process: bool = False):
        super().__init__(seed, out_dir)
        self.in_process = in_process
        self.micros: list[float] = []
        self.child_rss_kb = 0
        self._loaded: dict[int, object] = {}
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def make_unit(self, k: int):
        rng = random.Random(self.input_seeds[k])
        g = topogen.generate(topogen.GenSpec(node_count=1000, target_avg_degree=4.0, seed=k + 1))
        path = os.path.join(self.out_dir, f"cli-{os.getpid()}-{k}.topo")
        topofile.dump(g, path)
        c = topogen.resolve_constraint_severity(g, "low", "high")
        flags = []
        for j, bound in c.link_bounds:
            flags += ["--link", f"{j} >= {bound!r}"]
        for j, bound in c.path_bounds:
            flags += ["--path", f"{j} < {bound!r}"]
        pairs = []
        while len(pairs) < self.pairs_per_unit:
            u, v = rng.randrange(g.node_count), rng.randrange(g.node_count)
            if u != v:
                pairs.append((u, v))
        return path, flags, c, pairs

    def _argv(self, i: int):
        path, flags, _c, pairs = self.inputs[i % len(self.inputs)]
        u, v = pairs[(i // len(self.inputs)) % len(pairs)]
        argv = ["solve", "--topology", path, "--src", str(u), "--dst", str(v)]
        return argv + ["--backend", "nm-l1"] + flags, u, v

    def warm_up(self) -> None:
        self.run_op(-1)

    def run_op(self, i: int):
        argv = self._argv(i)[0]
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue(), ""
        proc = subprocess.run(
            [sys.executable, "-c", CLI_CHILD, *argv],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check_op(self, i: int, result):
        code, stdout, stderr = result
        argv, u, v = self._argv(i)
        for line in stderr.splitlines():
            if line.startswith("VmHWM:"):
                self.child_rss_kb = max(self.child_rss_kb, int(line.split()[1]))
        lines = stdout.splitlines()
        problems = []
        if len(lines) != 1:
            return [f"solve {u}->{v}: expected one line, got {stdout!r} (exit {code})"], stdout
        line = lines[0]
        for tok in line.split():
            if tok.startswith("micros=") and tok != "micros=":
                self.micros.append(float(tok[len("micros="):]))
        want, want_code = self._reference(i, u, v)
        if checks.strip_micros(line) != want:
            problems.append(f"solve {u}->{v}: printed {line!r}, in-process gives {want!r}")
        if code != want_code:
            problems.append(f"solve {u}->{v}: exit {code}, expected {want_code}")
        if "status=limit" in line:
            problems.append(f"solve {u}->{v}: hit a search limit")
        return problems, checks.strip_micros(line)

    def _reference(self, i: int, u: int, v: int) -> tuple[str, int]:
        """The in-process solve_l1 answer on the same file, as a CLI line
        without its timing field, and the exit code that goes with it."""
        k = i % len(self.inputs)
        path, _flags, c, _pairs = self.inputs[k]
        if k not in self._loaded:
            self._loaded[k] = topofile.load(path)
        g = self._loaded[k]
        try:
            result = neighborhoods.solve_l1(g, u, v, c)
        except NoPathError as exc:
            return checks.strip_micros(paths.format_result_line(exc)), cli.EXIT_NOPATH
        problems = checks.check_path(g, result, u, v, c)
        if problems:
            return f"in-process path fails its checks: {problems}", 0
        return checks.strip_micros(paths.format_result_line(result, labels=g.label_of)), 0

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb if not self.in_process else super().peak_rss_kb()

    def info(self):
        if not self.micros:
            return []
        ordered = sorted(self.micros)
        return [("cli.solve_micros_p50", ordered[len(ordered) // 2], "us")]

    def close(self) -> None:
        for path, _flags, _c, _pairs in self.inputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


WORKLOADS = {w.name: w for w in (SteerLoose, VnePool, QueryMulti, CliSolve)}


def fingerprint(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\n\x00")
    return h.hexdigest()[:16]
