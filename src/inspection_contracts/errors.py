"""Exception hierarchy shared across the solver modules.

A ContractError is a verdict on the instance or the flags, and it belongs to
one of two families, which the CLI maps onto exit codes: ValidationError
means the input itself is malformed (exit 2), InfeasibleError means it is
well-formed but admits no feasible contract or allocation (exit 1).  A
function called outside its domain raises ValueError, which the CLI reports,
like any other exception, as an internal invariant breach (exit 3).
"""


class ContractError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ContractError):
    """Malformed input: bad types, bad ranges, or unsorted/degenerate actions."""


class DegenerateInput(ValidationError):
    """Two actions share a reward or a cost, or reward order disagrees with cost order."""


class InvalidProbability(ValidationError):
    """A probability-valued input lies outside [0, 1]."""


class InfeasibleError(ContractError):
    """The instance admits no feasible contract under the model assumptions."""


class InfeasibleSafety(InfeasibleError):
    """No safe action is implementable even at full payment (Assumption 2 fails)."""


class InfeasibleBudget(InfeasibleError):
    """The minimum inspections alone exceed the inspector budget (Assumption 3 fails)."""


class BudgetExceeded(InfeasibleError):
    """Schedule targets sum to more than the number of inspectors."""


class NoSafeContract(InfeasibleError):
    """Brute-force enumeration found no contract implementing a safe action."""

