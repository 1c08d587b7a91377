"""Command-line front end: topology generation, single queries, sweeps.

Subcommands:
    gen    write a generated topology file
    solve  run one constrained path query and print the result line
    run    execute a steering or VNE sweep config and write its CSV (and
           optional plot-data series)

Exit codes: 2 flag/config errors, 3 parse or generation failures,
4 no-path outcomes, 5 runtime failures.

Each subcommand imports the modules only it reads: ``run`` imports
``harness``, and ``gen`` imports ``topogen`` when its flags are parsed
(their defaults are GenSpec's). So ``solve`` loads neither.
"""

import argparse
import os
import sys
import time

from . import topofile
from .backends import resolve_backend
from .constraints import ConstraintSet, parse_constraints
from .errors import (
    ArityMismatchError,
    ConfigError,
    DegreeUnreachableError,
    NoPathError,
    TopologyParseError,
    UnknownBackendError,
    VpembedError,
)
from .paths import format_result_line

EXIT_FLAGS = 2
EXIT_PARSE = 3
EXIT_NOPATH = 4
EXIT_RUNTIME = 5


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, whose flags may be added by add_flags(parser)
    on its first parse: the subcommand's help and its runs see them, and
    a process that runs another subcommand never builds them."""

    def __init__(self, *args, add_flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def parse_known_args(self, args=None, namespace=None):
        if self._add_flags is not None:
            add_flags, self._add_flags = self._add_flags, None
            add_flags(self)
        return super().parse_known_args(args, namespace)


def _add_gen_flags(gen) -> None:
    from .topogen import MODELS, GenSpec

    # every default is GenSpec's, so a flagless gen writes generate(GenSpec())
    gen.add_argument("--model", choices=MODELS, default=GenSpec.model)
    gen.add_argument("--nodes", type=int, default=GenSpec.node_count)
    gen.add_argument(
        "--degree", type=float, default=GenSpec.target_avg_degree, help="target average degree"
    )
    gen.add_argument("--alpha", type=float, default=GenSpec.alpha)
    gen.add_argument("--beta", type=float, default=GenSpec.beta)
    gen.add_argument("--m", type=int, default=GenSpec.m, help="attachment count (barabasi_albert)")
    gen.add_argument("--no-degree-target", action="store_true", help="use raw alpha/m")
    gen.add_argument("--bw-low", type=float, default=GenSpec.bw_range[0])
    gen.add_argument("--bw-high", type=float, default=GenSpec.bw_range[1])
    gen.add_argument("--cpu", type=float, default=GenSpec.cpu_units)
    gen.add_argument(
        "--delay-model", choices=("euclidean_scaled", "uniform"), default=GenSpec.delay_model
    )
    gen.add_argument("--max-delay", type=float, default=GenSpec.max_delay)
    gen.add_argument("--delay-low", type=float, default=GenSpec.delay_range[0])
    gen.add_argument("--delay-high", type=float, default=GenSpec.delay_range[1])
    gen.add_argument("--seed", type=int, default=GenSpec.seed)
    gen.add_argument("-o", "--output", required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpembed",
        description="Constrained shortest paths and virtual path embedding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    sub.add_parser("gen", help="generate a topology file", add_flags=_add_gen_flags)

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
    matches = [i for i, label in enumerate(g.labels or ()) if label == token]
    if len(matches) > 1:
        raise ValueError(f"ambiguous node {token!r}: label of nodes {matches}")
    if matches:
        return matches[0]
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
    from .topogen import GenSpec, generate, realized_avg_degree

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
    try:
        topofile.dump(g, args.output)
    except OSError as exc:
        print(f"vpembed gen: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    print(
        f"nodes={g.node_count} edges={g.edge_count} "
        f"avg_degree={realized_avg_degree(g):.3f} -> {args.output}"
    )
    return 0


def _topology_error(path, exc) -> str:
    return str(exc) if isinstance(exc, OSError) else f"{path}: {exc}"


def cmd_solve(args) -> int:
    try:
        g = topofile.load(args.topology)
    except (OSError, TopologyParseError) as exc:
        print(f"vpembed solve: {_topology_error(args.topology, exc)}", file=sys.stderr)
        return EXIT_PARSE
    bounds = [f"link {entry}" for entry in args.link] + [f"path {entry}" for entry in args.path]
    try:
        parsed = parse_constraints(bounds)
        c = ConstraintSet(parsed.link_bounds, parsed.path_bounds, strict=not args.non_strict)
        src, dst = _resolve_node(g, args.src), _resolve_node(g, args.dst)
        c.validate_arity(g.link_arity, g.path_arity)
    except (ValueError, ArityMismatchError) as exc:
        print(f"vpembed solve: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        solver = resolve_backend(args.backend)
    except UnknownBackendError as exc:
        print(f"vpembed solve: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    t0 = time.perf_counter()
    try:
        result, code = solver(g, src, dst, c), 0
    except NoPathError as exc:
        result, code = exc, EXIT_NOPATH
    except ValueError as exc:
        # the backend rejects the query's shape, e.g. nm-l1 without one path bound
        print(f"vpembed solve: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except VpembedError as exc:
        print(f"vpembed solve: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    micros = (time.perf_counter() - t0) * 1e6
    print(format_result_line(result, micros=micros, labels=g.label_of))
    return code


def cmd_run(args) -> int:
    from . import harness

    try:
        with open(args.config, "r", encoding="utf-8") as f:
            cfg = harness.parse_config(f.read())
        if args.emit_plotdata:
            harness.check_plotdata(cfg)
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
    try:
        rows = harness.sweep(cfg, jobs=args.jobs)
    except (OSError, TopologyParseError, ArityMismatchError) as exc:
        print(f"vpembed run: {_topology_error(cfg.topology, exc)}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"vpembed run: bad config: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except DegreeUnreachableError as exc:
        print(f"vpembed run: generation failed: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VpembedError as exc:
        print(f"vpembed run: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        with open(output, "w", encoding="utf-8") as f:
            f.write(harness.rows_to_csv(rows))
        print(f"{len(rows)} rows -> {output}")
        if args.emit_plotdata:
            for name, text in harness.plotdata_series(rows, cfg).items():
                path = os.path.join(os.path.dirname(os.path.abspath(output)), name)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
                print(f"plotdata -> {path}")
    except OSError as exc:
        print(f"vpembed run: {exc}", file=sys.stderr)
        return EXIT_FLAGS
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
