import pytest

from conftest import A, B, X, Y
from vpembed import UnknownBackendError, resolve_backend
from vpembed.baselines import solve_edijkstra, solve_exhaustive
from vpembed.neighborhoods import solve_general, solve_l1


def test_plain_tokens():
    assert resolve_backend("nm-general") is solve_general
    assert resolve_backend("nm-l1") is solve_l1
    assert resolve_backend("edijkstra") is solve_edijkstra
    assert resolve_backend("exhaustive") is solve_exhaustive


def test_ksp_tokens(fig_graph, fig_constraints):
    solver = resolve_backend("ksp:4")
    assert solver(fig_graph, X, Y, fig_constraints).nodes == (X, B, A, Y)
    # the ranking suffixes are gone with the ranking choice
    for retired in ("ksp:2:by_hops", "ksp:2:by_path_metric:0"):
        with pytest.raises(UnknownBackendError):
            resolve_backend(retired)


def test_unknown_tokens():
    for bad in ("dijkstra", "ksp", "ksp:", "ksp:0", "ksp:-1", "ksp:zero", "ksp:2:by_magic", "nm"):
        with pytest.raises(UnknownBackendError):
            resolve_backend(bad)
