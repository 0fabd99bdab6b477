"""Enumeration budgets.

Every brute-force oracle in this package is gated by an explicit candidate
budget so that infeasible instances fail loudly instead of running for hours.
The matrix-enumeration budget defaults to 10**8 candidates and can be
overridden globally through the PADIC_FIXVEC_BUDGET environment variable or
per call through a ``budget=`` argument.
"""

import os

ENV_BUDGET = "PADIC_FIXVEC_BUDGET"

DEFAULT_CANDIDATE_BUDGET = 10**8
DEFAULT_UNIT_DUAL_BUDGET = 10**6


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its candidate budget."""

    def __init__(self, required: int, budget: int, what: str):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} requires a budget of {required} candidates, "
            f"but the configured budget is {budget}"
        )


def parse_budget(text: str) -> int:
    """Parse a budget written as '100000000', '10^8' or '1e8'.

    A budget is an integer >= 1; anything else raises ValueError, because a
    zero, negative or fractional budget would skip every oracle it gates and
    let the check pass on no instances.
    """
    text = text.strip()
    value: int | float | None
    try:
        if "^" in text:
            base, _, exp = text.partition("^")
            value = int(base) ** int(exp)
        elif text.lstrip("+-").isdigit():
            value = int(text)
        else:
            value = float(text)
    except ValueError:
        value = None
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"budget must be an integer >= 1, got {text!r}")
    return value


def candidate_budget(budget: int | None = None) -> int:
    """Resolve the matrix-candidate budget: explicit arg, else env var, else default."""
    if budget is not None:
        return budget
    env = os.environ.get(ENV_BUDGET)
    if env:
        return parse_budget(env)
    return DEFAULT_CANDIDATE_BUDGET


def unit_dual_budget(budget: int | None = None) -> int:
    """Resolve the unit-group dual budget (cap on p**r). Default 10**6."""
    if budget is not None:
        return budget
    return DEFAULT_UNIT_DUAL_BUDGET
