"""Exception types shared across the toolkit.

Every error raised on bad input derives from SignedGraphError, so callers
can catch one base class at an API boundary.  There is one class per way
an operation can fail, and the CLI maps each to an exit code:

  InputError             malformed data or parameters        (exit 2)
  PreconditionError      well formed, but a precondition     (exit 3)
                         fails: an unbalanced graph where a
                         balanced one is needed, say
  BudgetExhaustedError   the search budget ran out           (exit 4)

The message says which check failed.  ConsistencyError is none of these:
two routes that must agree disagreed, which is a bug.
"""


class SignedGraphError(Exception):
    """Base class for all toolkit errors."""


class InputError(SignedGraphError):
    """Malformed data: bad edge lists, bad parameters, bad shapes or values."""


class PreconditionError(SignedGraphError):
    """The input is well formed but violates an operation's precondition."""


class BudgetExhaustedError(SignedGraphError):
    """The search budget ran out before an exact answer was reached.

    lower_bound carries what is still known: the chromatic number is at
    least this value, because every smaller color set was fully refuted.
    nodes is the number of nodes it spent.
    """

    def __init__(self, lower_bound: int, *, nodes: int):
        self.lower_bound = lower_bound
        self.nodes = nodes
        super().__init__(f"budget exhausted, chromatic number >= {lower_bound}")


class ConsistencyError(SignedGraphError):
    """Two routes that must agree disagreed.  Indicates a bug, not bad input."""
