"""Exception hierarchy shared across the solver modules.

The CLI maps these onto exit codes: ValidationError subclasses mean the input
itself is malformed (exit 2), InfeasibleError subclasses mean the instance is
well-formed but admits no feasible contract or allocation (exit 1), anything
else is an internal invariant breach (exit 3).
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


class BelowRange(ContractError):
    """Envelope inversion target lies below the envelope's value at zero."""


class BelowIRThreshold(ContractError):
    """Payment share below the participation threshold: no safe action implementable."""


class BelowMinimumInspection(ContractError):
    """Inspection cap below the least inspection implementing a safe action."""
