"""SLO constraint sets: link lower bounds plus path upper bounds.

A link bound ``(j, b)`` requires every traversed edge's link metric j to be
at least b (concave metrics such as bandwidth). A path bound ``(j, b)``
requires the accumulated sum of path metric j to stay strictly below b
(additive metrics such as delay). The strict comparison follows the
relaxation guard of the level-by-level solver; a non-strict mode is
available via ``strict=False`` for contracts written with <=.

Multiplicative metrics (e.g. per-link reliability) become additive path
metrics by taking logarithms before the graph is built. A lower bound R on
a product of factors r in (0, 1] is the upper bound ``sum(-ln r) <= -ln R``
on the path metric -ln r, checked with ``strict=False``.
"""

import math
import operator
from dataclasses import dataclass

from .errors import ArityMismatchError


def _index(name: str, j) -> int:
    """j as a metric index: an int or anything that stands for one (a numpy
    integer), never a float or a string that would be rounded or parsed."""
    try:
        return operator.index(j)
    except TypeError:
        raise ArityMismatchError(f"{name} metric index {j!r} is not an integer") from None


@dataclass(frozen=True)
class ConstraintSet:
    """The SLO for one path query.

    Attributes:
        link_bounds: (metric index, lower bound) pairs; satisfied when the
            edge metric >= bound. An index that is not an integer (a float,
            a string) is refused, as a negative or repeated one is.
        path_bounds: (metric index, upper bound) pairs; satisfied when the
            accumulated sum < bound (or <= when strict is False).
        strict: comparison mode for path bounds.
    """

    link_bounds: tuple[tuple[int, float], ...] = ()
    path_bounds: tuple[tuple[int, float], ...] = ()
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(
            self, "link_bounds", tuple((_index("link", j), float(b)) for j, b in self.link_bounds)
        )
        object.__setattr__(
            self, "path_bounds", tuple((_index("path", j), float(b)) for j, b in self.path_bounds)
        )
        for name, bounds in (("link", self.link_bounds), ("path", self.path_bounds)):
            seen = set()
            for j, b in bounds:
                if math.isnan(b):
                    raise ValueError(f"{name} bound on metric {j} is NaN")
                if j < 0:
                    raise ArityMismatchError(f"negative {name} metric index {j}")
                if j in seen:
                    raise ArityMismatchError(f"duplicate {name} bound on metric {j}")
                seen.add(j)

    @property
    def path_count(self) -> int:
        return len(self.path_bounds)

    def validate_arity(self, link_arity: int, path_arity: int) -> None:
        for j, _ in self.link_bounds:
            if j >= link_arity:
                raise ArityMismatchError(f"link bound index {j} >= declared arity {link_arity}")
        for j, _ in self.path_bounds:
            if j >= path_arity:
                raise ArityMismatchError(f"path bound index {j} >= declared arity {path_arity}")

    def sum_ok(self, total: float, bound: float) -> bool:
        return total < bound if self.strict else total <= bound


def path_feasible(sums, c: ConstraintSet) -> bool:
    """True iff every path upper bound holds for the accumulated sums."""
    for j, bound in c.path_bounds:
        if j >= len(sums):
            raise ArityMismatchError(f"path bound index {j} >= accumulator arity {len(sums)}")
        if not c.sum_ok(sums[j], bound):
            return False
    return True


def parse_constraints(lines) -> ConstraintSet:
    """Parse the constraint literal syntax, one bound per line.

    ``link <metric_index> >= <value>`` and ``path <metric_index> < <value>``.
    Blank lines and '#' comments are ignored.
    """
    link_bounds = []
    path_bounds = []
    for raw in lines:
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 4:
            raise ValueError(f"bad constraint literal: {raw!r}")
        kind, idx, op, value = parts
        if kind == "link" and op == ">=":
            link_bounds.append((int(idx), float(value)))
        elif kind == "path" and op == "<":
            path_bounds.append((int(idx), float(value)))
        else:
            raise ValueError(f"bad constraint literal: {raw!r}")
    return ConstraintSet(tuple(link_bounds), tuple(path_bounds))
