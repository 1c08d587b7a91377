"""Exception types shared across the package.

Solvers raise :class:`NoPathError` subclasses when a query has no answer;
each carries a short ``status`` token used by the result serialization
(``ok | unreachable | infeasible | negcycle | limit``).
"""


class VpembedError(Exception):
    """Base class for all errors raised by this package."""


class ArityMismatchError(VpembedError):
    """A metric vector or constraint index does not match the declared arity."""


class SelfLoopError(VpembedError):
    """An edge connects a node to itself; such edges can never lie on a loop-free path."""


class InsufficientResidualError(VpembedError):
    """A reservation would drive some residual metric below zero."""


class OverReleaseError(VpembedError):
    """A release would push some residual metric above its base value."""


class NonPositiveValueError(VpembedError):
    """A value required to be strictly positive was zero or negative."""


class NegativeMetricError(VpembedError):
    """A solver requiring nonnegative path metrics saw a negative one."""


class UnknownBackendError(VpembedError):
    """A solver was requested by a name that is not registered."""


class InvalidCountsError(VpembedError):
    """Node-usage counts passed to a report computation are inconsistent."""


class ConfigError(VpembedError):
    """An experiment configuration document failed validation.

    ``key`` names the offending entry when known.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class DegreeUnreachableError(VpembedError):
    """The requested average degree cannot be realized by the generator."""


class TopologyParseError(VpembedError):
    """A topology file failed to parse; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(message, line)  # both in args, so the error survives pickling
        self.line = line

    def __str__(self):
        return f"line {self.line}: {self.args[0]}"


class NoPathError(VpembedError):
    """Base for all no-result solver outcomes. ``status`` is the wire token."""

    status = "nopath"


class UnreachableError(NoPathError):
    """Destination is not reachable on the (pruned) topology."""

    status = "unreachable"


class InfeasibleError(NoPathError):
    """Destination is reachable but no loop-free path satisfies the constraints."""

    status = "infeasible"


class NegativeWeightCycleError(NoPathError):
    """Forward relaxation cycled through a negative-total path-metric loop."""

    status = "negcycle"


class ResourceLimitError(NoPathError):
    """A configured search-size guard was exceeded before an answer was found."""

    status = "limit"
