"""Enumeration budgets.

Every brute-force oracle in this package is gated by an explicit candidate
budget so that infeasible instances fail loudly instead of running for hours.
One gate, require, serves every enumeration oracle: GL_n, the parabolic
rows, the coset flags and the unit dual. The budget is the ``budget=``
argument, else the oracle's default, 10**8 matrix candidates for the matrix
and coset enumerations and 10**6 characters for the unit dual; the gate
raises BudgetExceededError when the oracle's candidate count exceeds it.
"""

DEFAULT_CANDIDATE_BUDGET = 10**8
DEFAULT_UNIT_DUAL_BUDGET = 10**6

# The largest budget parse_budget accepts. No enumeration of that size could
# finish, and the cap lets it reject 'b^e' before computing a huge power.
MAX_BUDGET = 10**18


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
    """Parse a budget written as '100000000', '10^8' or '1e8'; the last is
    read exactly, as a decimal.

    A budget is an integer from 1 to MAX_BUDGET; anything else raises
    ValueError, because a zero, negative or fractional budget would skip
    every oracle it gates and let the check pass on no instances.
    """
    text = text.strip()
    value: int | None
    try:
        if "^" in text:
            base, exp = (int(part) for part in text.split("^", 1))
            # Written maths reads -b^e as -(b^e): the sign is not the base's.
            sign, base = (-1 if text.startswith("-") else 1), abs(base)
            # base >= 2 to a power above the cap's bit length exceeds the
            # cap; reject it without computing a number that large. A
            # negative power is a fraction, or 1.0 for base 1: not an int.
            too_big = base >= 2 and exp > MAX_BUDGET.bit_length()
            value = None if exp < 0 or too_big else sign * base**exp
        elif text.lstrip("+-").isdigit():
            value = int(text)
        else:
            float(text)  # decides which strings are numbers, e.g. '1e8'
            from decimal import Decimal  # reads them exactly, unlike float

            exact = Decimal(text)
            # Bounded before int(), so '1e1000000000' is refused at once.
            value = (int(exact) if exact.is_finite() and 1 <= exact <= MAX_BUDGET
                     and exact == exact.to_integral_value() else None)
    except (ValueError, ArithmeticError):  # past Decimal's exponent range
        value = None
    if value is None or not 1 <= value <= MAX_BUDGET:
        raise ValueError(
            f"budget must be an integer from 1 to 10^18, got {text!r}"
        )
    return value


def require(required: int, budget: int | None, default: int, what: str) -> None:
    """The budget gate: raise BudgetExceededError when the `required`
    candidates of `what` exceed the budget. The budget is the explicit
    argument, which must be an int >= 1, else `default`."""
    if budget is None:
        budget = default
    elif isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    if required > budget:
        raise BudgetExceededError(required, budget, what)
