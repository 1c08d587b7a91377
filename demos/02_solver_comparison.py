"""
Comparing solvers on one random topology
========================================

Generates a mid-size Waxman network, poses the same constrained queries to
every backend, and tabulates hop counts and accumulated delay. The
hop-minimizing solvers never return more hops than the baselines.
"""

import random

from vpembed import GenSpec, NoPathError, generate, resolve_backend
from vpembed.topogen import resolve_constraint_severity

g = generate(GenSpec(node_count=200, target_avg_degree=4.0, seed=7))
c = resolve_constraint_severity(g, bw_level="med", delay_level="med")
print(f"graph: {g.node_count} nodes, {g.edge_count} directed edges")
print(f"constraints: bw >= {c.link_bounds[0][1]} Gbps, delay < {c.path_bounds[0][1]:.2f} ms\n")

backends = ["nm-l1", "nm-general", "edijkstra", "ksp:3"]
rng = random.Random(1)
queries = [(rng.randrange(200), rng.randrange(200)) for _ in range(8)]

header = f"{'query':>12} " + " ".join(f"{b:>16}" for b in backends)
print(header)
for src, dst in queries:
    if src == dst:
        continue
    cells = []
    for name in backends:
        try:
            r = resolve_backend(name)(g, src, dst, c)
            cells.append(f"{r.hop_count} hops/{r.accumulated[0]:5.1f}ms")
        except NoPathError as exc:
            cells.append(exc.status)
    print(f"{src:>5} -> {dst:<4} " + " ".join(f"{cell:>16}" for cell in cells))
