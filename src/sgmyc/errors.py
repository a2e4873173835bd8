"""Exception types shared across the toolkit.

Every error raised on bad input derives from SignedGraphError, so callers
can catch one base class at an API boundary.  Errors are grouped the way
the CLI maps them to exit codes: malformed input data, violated
preconditions, and exhausted search budgets.
"""


class SignedGraphError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# input/data errors (CLI exit code 2)


class InputError(SignedGraphError):
    """Malformed data: bad edge lists, bad parameters, bad file contents."""


class LoopEdgeError(InputError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(InputError):
    """The same unordered vertex pair appears more than once."""


class VertexOutOfRangeError(InputError):
    """An endpoint is outside 1..p."""


class LengthMismatchError(InputError):
    """A per-vertex sequence has the wrong length."""


class InvalidParamsError(InputError):
    """A generator or operation received unusable parameters."""


class EdgeListFormatError(InputError):
    """A text edge list does not follow the interchange format."""


class NotACycleError(InputError):
    """A vertex sequence does not describe a simple cycle."""


class ColorOutOfSetError(InputError):
    """A coloring uses a value outside the color set for its n."""


class DimensionMismatchError(InputError):
    """Matrix shapes are incompatible for the requested operation."""


# ---------------------------------------------------------------------------
# precondition violations (CLI exit code 3)


class PreconditionError(SignedGraphError):
    """The input is well formed but violates an operation's precondition."""


class NotBalancedError(PreconditionError):
    """A balanced signed graph was required."""


class NotAMycielskianError(PreconditionError):
    """The graph does not have Mycielskian structure under the labeling."""


class NotProperError(PreconditionError):
    """A proper coloring was required."""


class NotSymmetricError(PreconditionError):
    """A symmetric matrix was required."""


# ---------------------------------------------------------------------------
# resource limits (CLI exit code 4)


class BudgetExhaustedError(SignedGraphError):
    """The search budget ran out before an exact answer was reached.

    lower_bound carries what is still known: the chromatic number is at
    least this value, because every smaller color set was fully refuted.
    nodes, when the search reports it, is the number of nodes it spent.
    """

    def __init__(self, lower_bound: int, *, nodes: int | None = None):
        self.lower_bound = lower_bound
        self.nodes = nodes
        super().__init__(f"budget exhausted, chromatic number >= {lower_bound}")


# ---------------------------------------------------------------------------
# internal consistency


class ConsistencyError(SignedGraphError):
    """Two routes that must agree disagreed.  Indicates a bug, not bad input."""
