"""Solver registry: resolve name tokens to query callables.

Token grammar:
    nm-general | nm-l1 | edijkstra | ksp:<k> | exhaustive

``ksp:<k>`` takes a positive integer k, the number of candidates tried.
Every resolved backend has the uniform signature
``backend(g, src, dst, c) -> PathResult`` and raises NoPathError subclasses.
"""

from .baselines import solve_edijkstra, solve_exhaustive, solve_ksp
from .errors import UnknownBackendError
from .neighborhoods import solve_general, solve_l1

BACKEND_NAMES = ("nm-general", "nm-l1", "edijkstra", "ksp:<k>", "exhaustive")


def resolve_backend(name: str):
    """Return the solver callable for a backend token.

    Raises:
        UnknownBackendError: the token does not name a registered solver.
    """
    if name == "nm-general":
        return solve_general
    if name == "nm-l1":
        return solve_l1
    if name == "edijkstra":
        return solve_edijkstra
    if name == "exhaustive":
        return solve_exhaustive
    if name.startswith("ksp:"):
        try:
            k = int(name[4:])
        except ValueError as exc:
            raise UnknownBackendError(f"bad ksp token {name!r}: {exc}") from exc
        if k < 1:
            raise UnknownBackendError(f"bad ksp token {name!r}: k must be >= 1")

        def ksp_backend(g, src, dst, c):
            # solve_ksp is looked up at call time, so a rebound name is honored
            return solve_ksp(g, src, dst, c, k)

        return ksp_backend
    raise UnknownBackendError(f"unknown backend {name!r}; known: {', '.join(BACKEND_NAMES)}")
