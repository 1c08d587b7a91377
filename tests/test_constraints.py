import math
import random

import pytest

from vpembed import (
    ArityMismatchError,
    ConstraintSet,
    EdgeMetrics,
    NonPositiveValueError,
    build_graph,
    parse_constraints,
    path_feasible,
    to_additive,
)
from vpembed.neighborhoods import _usable_mask


def _one_edge(bw):
    return build_graph(2, [(0, 1, EdgeMetrics((bw,), ()))], [0.0, 0.0])


# Link bounds are applied per edge by the solvers' pruning mask.


def test_edge_feasible_at_bound():
    c = ConstraintSet(((0, 5.0),), ())
    assert _usable_mask(_one_edge(5.0), c) == bytearray([1])


def test_edge_feasible_just_below_bound():
    c = ConstraintSet(((0, 5.0),), ())
    assert _usable_mask(_one_edge(4.999), c) == bytearray([0])


def test_edge_feasible_vacuous():
    # no link bounds: nothing is pruned, every edge stays usable
    assert _usable_mask(_one_edge(0.0), ConstraintSet((), ())) == bytearray([1])


def test_path_feasible_below_bound():
    c = ConstraintSet((), ((0, 5.0),))
    assert path_feasible([4.0], c)


def test_path_feasible_strict_at_boundary():
    c = ConstraintSet((), ((0, 5.0),))
    assert not path_feasible([5.0], c)


def test_path_feasible_non_strict_mode():
    c = ConstraintSet((), ((0, 5.0),), strict=False)
    assert path_feasible([5.0], c)
    assert not path_feasible([5.0001], c)


def test_path_feasible_vacuous():
    assert path_feasible([99.0], ConstraintSet((), ()))


def test_path_feasible_monotone_in_sums():
    # smaller componentwise sums can never flip feasible -> infeasible
    rng = random.Random(3)
    for _ in range(200):
        c = ConstraintSet((), tuple((j, rng.uniform(0.1, 20)) for j in range(3)))
        sums = [rng.uniform(0, 25) for _ in range(3)]
        smaller = [s - rng.uniform(0, s) for s in sums]
        if path_feasible(sums, c):
            assert path_feasible(smaller, c)


def test_arity_checks():
    with pytest.raises(ArityMismatchError):
        ConstraintSet(((1, 5.0),), ()).validate_arity(1, 0)
    with pytest.raises(ArityMismatchError):
        path_feasible([1.0], ConstraintSet((), ((2, 5.0),)))
    with pytest.raises(ArityMismatchError):
        ConstraintSet(((0, 1.0), (0, 2.0)), ())


def test_to_additive_identity():
    assert to_additive([1.0]) == [0.0]


def test_to_additive_analytic():
    out = to_additive([math.e, math.e**2])
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(out[1] - 2.0) < 1e-12


def test_to_additive_rejects_nonpositive():
    with pytest.raises(NonPositiveValueError):
        to_additive([0.5, 0.0])
    with pytest.raises(NonPositiveValueError):
        to_additive([-1.0])


def test_log_transform_matches_direct_product_oracle():
    # reliability-style check: product of per-link factors vs a product
    # bound agrees with the log-sum test in 1000 random cases
    rng = random.Random(11)
    log_bound = to_additive([0.9])[0]
    for _ in range(1000):
        links = [rng.uniform(0.9, 0.999) for _ in range(3)]
        direct = math.prod(links) < 0.9
        via_logs = sum(to_additive(links)) < log_bound
        assert direct == via_logs


def test_log_transform_soundness_away_from_boundary():
    rng = random.Random(13)
    for _ in range(500):
        values = [rng.uniform(0.1, 10.0) for _ in range(rng.randint(1, 6))]
        product = math.prod(values)
        bound = product * rng.choice([0.5, 2.0])
        assert (sum(to_additive(values)) < math.log(bound)) == (product < bound)


def test_parse_constraints():
    c = parse_constraints(["link 0 >= 5", "path 0 < 5", "# comment", ""])
    assert c.link_bounds == ((0, 5.0),)
    assert c.path_bounds == ((0, 5.0),)
    with pytest.raises(ValueError):
        parse_constraints(["link 0 <= 5"])


def test_nan_bound_rejected():
    # a NaN link bound would prune nothing and a NaN path bound admit nothing
    with pytest.raises(ValueError):
        ConstraintSet(((0, math.nan),), ())
    with pytest.raises(ValueError):
        ConstraintSet((), ((0, float("nan")),))
    with pytest.raises(ValueError):
        parse_constraints(["path 0 < nan"])
    assert ConstraintSet((), ((0, math.inf),)).path_bounds == ((0, math.inf),)
