"""The records a query is built from and answered with (ConstraintSet,
PathResult, EdgeMetrics): immutable, equal and hashed by value, printed
with fixed reprs, and checked however they are built."""

import copy
import math
import pickle

import numpy as np
import pytest

from vpembed import ArityMismatchError, ConstraintSet, EdgeMetrics, PathResult

# Each entry builds one record twice, from different but equal inputs, and
# gives the record's repr, as printed before the records were namedtuples.
RECORDS = {
    "ConstraintSet": (
        lambda: ConstraintSet(((np.int64(0), np.float64(5)),), [(1, 2)], strict=False),
        lambda: ConstraintSet(link_bounds=((0, 5.0),), path_bounds=((1, 2.0),), strict=False),
        "ConstraintSet(link_bounds=((0, 5.0),), path_bounds=((1, 2.0),), strict=False)",
    ),
    "PathResult": (
        lambda: PathResult.trivial(3, 1, 2),
        lambda: PathResult(nodes=(3,), edge_handles=(), accumulated=(0.0, 0.0),
                           min_link_metrics=(math.inf,)),
        "PathResult(nodes=(3,), edge_handles=(), accumulated=(0.0, 0.0), min_link_metrics=(inf,))",
    ),
    "EdgeMetrics": (
        lambda: EdgeMetrics([1, 2.5], iter([-3, math.inf])),
        lambda: EdgeMetrics(link_metrics=(1.0, 2.5), path_metrics=(-3.0, math.inf)),
        "EdgeMetrics(link_metrics=(1.0, 2.5), path_metrics=(-3.0, inf))",
    ),
}
# a record of the same kind that differs from RECORDS' in one field
OTHERS = {
    "ConstraintSet": lambda: ConstraintSet(((0, 5.0),), ((1, 2.0),), strict=True),
    "PathResult": lambda: PathResult.trivial(3, 1, 1),
    "EdgeMetrics": lambda: EdgeMetrics((1.0, 2.5), (-3.0,)),
}
FIELDS = {
    "ConstraintSet": ("link_bounds", "path_bounds", "strict"),
    "PathResult": ("nodes", "edge_handles", "accumulated", "min_link_metrics"),
    "EdgeMetrics": ("link_metrics", "path_metrics"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment(name):
    record = RECORDS[name][0]()
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.other = 1
    assert record == RECORDS[name][1]()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_give_equal_records_that_work_as_dict_keys(name):
    build, build_again, _repr = RECORDS[name]
    a, b = build(), build_again()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert {a: name}[b] == name
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    other = OTHERS[name]()
    assert a != other and not a == other and {a: name}.get(other) is None


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_prints_its_fields_by_name(name):
    build, build_again, expected = RECORDS[name]
    assert repr(build()) == repr(build_again()) == expected


def test_a_constraint_set_takes_numpy_numbers_as_python_ones():
    c = ConstraintSet(((np.int32(1), np.float64(5.5)),), ((np.int64(0), np.float32(3.0)),))
    assert c == ConstraintSet(((1, 5.5),), ((0, 3.0),))
    for j, b in c.link_bounds + c.path_bounds:
        assert type(j) is int and type(b) is float


def test_a_copy_with_a_field_replaced_is_checked_as_a_new_record_is():
    # namedtuple's _replace and _make build through the checked constructor
    c = ConstraintSet(((0, 5.0),), ((0, 3.0),))
    assert c._replace(strict=False) == ConstraintSet(((0, 5.0),), ((0, 3.0),), strict=False)
    assert c._replace(path_bounds=[(np.int64(1), 2)]).path_bounds == ((1, 2.0),)
    with pytest.raises(ValueError, match="path bound on metric 0 is NaN"):
        c._replace(path_bounds=((0, math.nan),))
    with pytest.raises(ArityMismatchError, match="duplicate link bound on metric 0"):
        ConstraintSet._make((((0, 1.0), (0, 2.0)), (), True))
    m = EdgeMetrics((1.0,), (2.0,))
    assert m._replace(link_metrics=[3]) == EdgeMetrics((3.0,), (2.0,))
    with pytest.raises(ArityMismatchError, match="link metrics must be >= 0"):
        m._replace(link_metrics=(-1.0,))
