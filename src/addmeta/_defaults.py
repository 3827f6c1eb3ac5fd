"""Defaults and the count rule that the estimators and the CLI parser share; this module imports no numpy."""

import numbers

DEFAULT_SEED = 20270405
DEFAULT_ITERATIONS = 10_000


def require_integer(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Refuse a count or seed ``value`` unless it is an integer (numpy's too), not a bool, in [``low``, ``high``]."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    above = integer and high is not None and value > high
    if not integer or above or (low is not None and value < low):
        rule = f" <= {high}" if above else "" if low is None else f" >= {low}"
        try:
            shown = repr(value)
        except ValueError:  # an int past Python's int-to-text limit (4300 digits by default)
            shown = f"{'a negative' if value < 0 else 'an'} integer of {abs(int(value)).bit_length()} bits"
        raise ValueError(f"{name} must be an integer{rule}, got {shown}")
