"""Command-line front end: topology generation, single queries, sweeps.

Subcommands:
    gen    write a generated topology file
    solve  run one constrained path query and print the result line
    run    execute an experiment config and write its CSV (and optional
           plot-data series)

Exit codes: 2 flag/config errors, 3 parse or generation failures,
4 no-path outcomes, 5 runtime failures. ``run`` fails with the codes ``solve``
uses; its solve-scenario lines keep ``micros=`` empty, so reruns are identical.
"""

import argparse
import os
import sys
import time
from dataclasses import replace

from . import harness, topofile
from .backends import resolve_backend
from .constraints import parse_constraints
from .errors import (
    ArityMismatchError,
    ConfigError,
    NoPathError,
    TopologyParseError,
    UnknownBackendError,
    VpembedError,
)
from .paths import format_result_line
from .topogen import GenSpec, generate, realized_avg_degree

EXIT_FLAGS = 2
EXIT_PARSE = 3
EXIT_NOPATH = 4
EXIT_RUNTIME = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpembed",
        description="Constrained shortest paths and virtual path embedding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a topology file")
    gen.add_argument("--model", choices=("waxman", "barabasi_albert"), default="waxman")
    gen.add_argument("--nodes", type=int, default=100)
    gen.add_argument("--degree", type=float, default=4.0, help="target average degree")
    gen.add_argument("--alpha", type=float, default=0.15)
    gen.add_argument("--beta", type=float, default=0.2)
    gen.add_argument("--m", type=int, default=None, help="attachment count (barabasi_albert)")
    gen.add_argument("--no-degree-target", action="store_true", help="use raw alpha/m")
    gen.add_argument("--bw-low", type=float, default=1.0)
    gen.add_argument("--bw-high", type=float, default=9.0)
    gen.add_argument("--cpu", type=float, default=100.0)
    gen.add_argument("--delay-model", choices=("euclidean_scaled", "uniform"), default="euclidean_scaled")
    gen.add_argument("--max-delay", type=float, default=10.0)
    gen.add_argument("--delay-low", type=float, default=1.0)
    gen.add_argument("--delay-high", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)

    solve = sub.add_parser("solve", help="run one constrained path query")
    solve.add_argument("--topology", required=True)
    solve.add_argument("--src", required=True)
    solve.add_argument("--dst", required=True)
    solve.add_argument("--backend", default="nm-general")
    solve.add_argument(
        "--link", action="append", default=[], metavar="'IDX >= VALUE'",
        help="link lower bound, e.g. --link '0 >= 5'",
    )
    solve.add_argument(
        "--path", action="append", default=[], metavar="'IDX < VALUE'",
        help="path upper bound, e.g. --path '0 < 5'",
    )
    solve.add_argument("--non-strict", action="store_true", help="compare path bounds with <=")

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config", help="experiment config file")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("-o", "--output", default=None, help="override the config's output path")
    run.add_argument("--emit-plotdata", action="store_true")
    return parser


def _resolve_node(g, token: str) -> int:
    try:
        node = int(token)
    except ValueError:
        pass
    else:
        if 0 <= node < g.node_count:
            return node
        raise ValueError(f"node {node} outside [0, {g.node_count})")
    if g.labels is not None:
        for i, label in enumerate(g.labels):
            if label == token:
                return i
    raise ValueError(f"unknown node {token!r}")


def _output_problem(output) -> str | None:
    """Why output cannot be written, found before any work; None if it can."""
    outdir = os.path.dirname(os.path.abspath(output))
    if not os.path.isdir(outdir):
        return f"output directory {outdir} does not exist"
    if os.path.isdir(output):
        return f"output path {output} is a directory"
    return None


def cmd_gen(args) -> int:
    try:
        spec = GenSpec(
            model=args.model,
            node_count=args.nodes,
            target_avg_degree=None if args.no_degree_target else args.degree,
            alpha=args.alpha,
            beta=args.beta,
            m=args.m,
            bw_range=(args.bw_low, args.bw_high),
            delay_model=args.delay_model,
            max_delay=args.max_delay,
            delay_range=(args.delay_low, args.delay_high),
            cpu_units=args.cpu,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"vpembed gen: invalid flags: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    problem = _output_problem(args.output)
    if problem is not None:
        print(f"vpembed gen: {problem}", file=sys.stderr)
        return EXIT_FLAGS
    try:
        g = generate(spec)
    except VpembedError as exc:
        print(f"vpembed gen: generation failed: {exc}", file=sys.stderr)
        return EXIT_PARSE
    topofile.dump(g, args.output)
    print(
        f"nodes={g.node_count} edges={g.edge_count} "
        f"avg_degree={realized_avg_degree(g):.3f} -> {args.output}"
    )
    return 0


def _answer_query(g, src, dst, bounds, backend: str, strict=True, timed=False):
    """Answer one query given as text (node ids or labels, bound literals such
    as ``link 0 >= 5``, a backend token): ``(exit code, result line)`` for
    codes 0 and 4, ``(exit code, error message)`` for any other code."""
    try:
        c = replace(parse_constraints(bounds), strict=strict)
        src, dst = _resolve_node(g, src), _resolve_node(g, dst)
        c.validate_arity(g.link_arity, g.path_arity)
    except (ValueError, ArityMismatchError) as exc:
        return EXIT_PARSE, str(exc)
    try:
        solver = resolve_backend(backend)
    except UnknownBackendError as exc:
        return EXIT_FLAGS, str(exc)
    t0 = time.perf_counter()
    try:
        result, code = solver(g, src, dst, c), 0
    except NoPathError as exc:
        result, code = exc, EXIT_NOPATH
    except ValueError as exc:
        # the backend rejects the query's shape, e.g. nm-l1 without one path bound
        return EXIT_FLAGS, str(exc)
    except VpembedError as exc:
        return EXIT_RUNTIME, str(exc)
    micros = (time.perf_counter() - t0) * 1e6 if timed else None
    return code, format_result_line(result, micros=micros, labels=g.label_of)


def _topology_error(path, exc) -> str:
    return str(exc) if isinstance(exc, OSError) else f"{path}: {exc}"


def cmd_solve(args) -> int:
    try:
        g = topofile.load(args.topology)
    except (OSError, TopologyParseError) as exc:
        print(f"vpembed solve: {_topology_error(args.topology, exc)}", file=sys.stderr)
        return EXIT_PARSE
    bounds = [f"link {entry}" for entry in args.link] + [f"path {entry}" for entry in args.path]
    code, text = _answer_query(
        g, args.src, args.dst, bounds, args.backend, strict=not args.non_strict, timed=True
    )
    if code in (0, EXIT_NOPATH):
        print(text)
    else:
        print(f"vpembed solve: {text}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            cfg = harness.parse_config(f.read())
    except OSError as exc:
        print(f"vpembed run: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except ConfigError as exc:
        print(f"vpembed run: bad config: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    output = args.output or cfg.output
    if output is None:
        print("vpembed run: no output path (config 'output' or -o)", file=sys.stderr)
        return EXIT_FLAGS
    problem = _output_problem(output)
    if problem is not None:
        print(f"vpembed run: {problem}", file=sys.stderr)
        return EXIT_FLAGS
    if cfg.scale == "paper":
        print(
            f"vpembed run: paper scale selected ({cfg.effective_nodes()} nodes); "
            "expect a long runtime",
            file=sys.stderr,
        )
    try:
        if cfg.scenario == "solve":
            g = topofile.load(cfg.topology)
        else:
            rows = harness.sweep(cfg, jobs=args.jobs)
    except (OSError, TopologyParseError, ArityMismatchError) as exc:
        print(f"vpembed run: {_topology_error(cfg.topology, exc)}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"vpembed run: bad config: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except VpembedError as exc:
        print(f"vpembed run: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if cfg.scenario == "solve":
        lines = []
        for backend in cfg.backends:
            code, text = _answer_query(g, cfg.src, cfg.dst, cfg.constraints, backend)
            if code not in (0, EXIT_NOPATH):
                print(f"vpembed run: {text}", file=sys.stderr)
                return code
            lines.append(text)
        with open(output, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        print(f"{len(lines)} result lines -> {output}")
        return 0
    with open(output, "w", encoding="utf-8") as f:
        f.write(harness.rows_to_csv(rows))
    print(f"{len(rows)} rows -> {output}")
    if args.emit_plotdata or cfg.emit_plotdata:
        for name, text in harness.plotdata_series(rows, cfg).items():
            path = os.path.join(os.path.dirname(os.path.abspath(output)), name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"plotdata -> {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen":
        return cmd_gen(args)
    if args.command == "solve":
        return cmd_solve(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
