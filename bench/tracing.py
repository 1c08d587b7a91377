"""Span tracing installed from outside the library.

The tracer replaces library functions with timing wrappers for the length
of a traced run and puts the originals back afterwards; nothing under
``src/`` knows about it. A function is rebound under every name any
``vpembed`` module holds it by (``solve_l1`` lives in ``neighborhoods`` and
is also bound in ``backends`` and the package), so a caller that imported it
by name is traced too. A layer whose function no longer exists is recorded
as absent instead of failing the run.

Spans are kept in memory as (name, start, end, parent, op, outcome) tuples
and written out once the run ends. A layer's self time is its span time
minus the time of its direct child spans.
"""

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One traced function.

    attr is a module attribute, or ``Class.method`` for a method. kind is
    "fn" for a call, "gen" for a generator function (each resumption is a
    span segment; calls counts generators created). count, when set, is
    called with (counts, args, result) after a call returns and adds the
    layer's work counters to counts.
    """

    name: str
    module: str
    attr: str
    kind: str = "fn"
    count: Callable | None = None


def _count_edges_scanned(counts, args, result):
    g, c = args[0], args[1]
    if c is not None and c.link_bounds:
        counts["edges_scanned"] += g.edge_count * len(c.link_bounds)


def _count_rounds(counts, args, result):
    # _l1_forward returns (status, levels, ...); levels[0] is the source
    counts["rounds"] += len(result[1]) - 1


LAYERS = (
    Layer("topogen.generate", "vpembed.topogen", "generate"),
    Layer(
        "harness.assign_link_bandwidth_from_node_budget",
        "vpembed.harness",
        "assign_link_bandwidth_from_node_budget",
    ),
    Layer("topofile.dump", "vpembed.topofile", "dump"),
    Layer("topofile.load", "vpembed.topofile", "load"),
    Layer("cli.main", "vpembed.cli", "main"),
    Layer("harness.run_steering", "vpembed.harness", "run_steering"),
    Layer("harness.run_vne", "vpembed.harness", "run_vne"),
    Layer("harness._place_nodes", "vpembed.harness", "_place_nodes"),
    Layer("graph.overlay_init", "vpembed.graph", "ResidualOverlay.__init__"),
    Layer("graph.reserve", "vpembed.graph", "ResidualOverlay.reserve"),
    Layer("graph.release", "vpembed.graph", "ResidualOverlay.release"),
    Layer("graph.reserve_node", "vpembed.graph", "ResidualOverlay.reserve_node"),
    Layer("graph.release_node", "vpembed.graph", "ResidualOverlay.release_node"),
    Layer("neighborhoods.solve_l1", "vpembed.neighborhoods", "solve_l1"),
    Layer(
        "neighborhoods._l1_forward", "vpembed.neighborhoods", "_l1_forward", count=_count_rounds
    ),
    Layer(
        "neighborhoods._usable_mask",
        "vpembed.neighborhoods",
        "_usable_mask",
        count=_count_edges_scanned,
    ),
    Layer("neighborhoods._reachable", "vpembed.neighborhoods", "_reachable"),
    Layer("neighborhoods.solve_general", "vpembed.neighborhoods", "solve_general"),
    Layer("neighborhoods._min_sums_to", "vpembed.neighborhoods", "_min_sums_to"),
    Layer(
        "neighborhoods._iter_fixed_length_paths",
        "vpembed.neighborhoods",
        "_iter_fixed_length_paths",
        kind="gen",
    ),
    Layer("baselines.solve_edijkstra", "vpembed.baselines", "solve_edijkstra"),
    Layer("baselines.solve_ksp", "vpembed.baselines", "solve_ksp"),
    Layer("baselines._hop_distances_to", "vpembed.baselines", "_hop_distances_to"),
    Layer("paths.path_from_edges", "vpembed.paths", "path_from_edges"),
)


def _library_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "vpembed" or name.startswith("vpembed."))
    ]


def rebind_everywhere(original, replacement) -> list[tuple]:
    """Bind replacement under every name a vpembed module holds original by.

    Returns (module, attr, original) triples for :func:`restore`.
    """
    undo = []
    for mod in _library_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class Tracer:
    """Records spans for the layers in LAYERS while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list = []
        self.gen_calls: list = []  # (layer name, parent span, op) per generator created
        self.counts: dict[str, dict[str, float]] = {}
        self.failed_counts: set[str] = set()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for layer in self.layers:
            mod = sys.modules.get(layer.module)
            owner_name, _, method = layer.attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod is not None else None
            if method:
                original = vars(owner).get(method) if owner is not None else None
            else:
                original = owner
            if original is None:
                self.absent.append(layer.name)
                continue
            wrap = self._wrap_gen if layer.kind == "gen" else self._wrap_fn
            wrapper = wrap(layer, original)
            if method:
                setattr(owner, method, wrapper)
                self._undo.append((owner, method, original))
            else:
                self._undo.extend(rebind_everywhere(original, wrapper))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _counter(self, layer: Layer):
        counts = self.counts.setdefault(layer.name, {})
        if layer.count is None:
            return None
        failed = self.failed_counts
        tracer = self

        def count(args, result):
            if tracer.op is None:
                return
            acc = defaultdict(int)
            try:
                layer.count(acc, args, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                # the function's signature or result changed shape; report
                # the counter as absent rather than crash the run
                failed.add(layer.name)
                return
            for key, value in acc.items():
                counts[key] = counts.get(key, 0) + value

        return count

    def _wrap_fn(self, layer: Layer, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name = layer.name
        count = self._counter(layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome = "ok"
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = getattr(exc, "status", type(exc).__name__)
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op, outcome)
            if count is not None:
                count(args, result)
            return result

        return traced

    def _wrap_gen(self, layer: Layer, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name = layer.name
        gen_calls = self.gen_calls
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            gen_calls.append((name, stack[-1] if stack else -1, tracer.op))
            try:
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    outcome = "end"
                    t0 = clock()
                    try:
                        item = next(inner)
                        outcome = "yield"
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        spans[idx] = (name, t0, t1, parent, tracer.op, outcome)
                    yield item
            finally:
                inner.close()

        return traced

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _op, _outcome in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - child[i] for i, (_n, t0, t1, _p, _o, _x) in enumerate(self.spans)]

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, busy_s, self_s, outcome counts and counters.

        Spans recorded while ``op`` is None (the benchmark's own output
        checks) are left out. For a generator layer, calls counts the
        generators created and the outcomes count its resumptions.
        """
        out = {
            layer.name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "outcomes": {}}
            for layer in self.layers
        }
        gen_names = {layer.name for layer in self.layers if layer.kind == "gen"}
        for (name, t0, t1, _parent, op, outcome), self_s in zip(self.spans, self.self_times()):
            if op is None:
                continue
            row = out[name]
            row["busy_s"] += t1 - t0
            row["self_s"] += self_s
            if name not in gen_names:
                row["calls"] += 1
            row["outcomes"][outcome] = row["outcomes"].get(outcome, 0) + 1
        for name, _parent, op in self.gen_calls:
            if op is not None:
                out[name]["calls"] += 1
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\top\toutcome\n")
            for name, t0, t1, parent, op, outcome in self.spans:
                f.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\t{outcome}\n")
