"""Exception hierarchy shared by the library and the CLI.

Exit codes follow the CLI contract: 2 for validation problems, 3 for
exceeded enumeration/memory budgets, 4 for verification failures.
"""
import operator

# max entries of a dense array sized by caller arguments, checked by checked_size before it is allocated
OUTPUT_TENSOR_BUDGET = 2**24


class OrthochanError(Exception):
    """Base class for all orthochan errors."""

    exit_code = 1


class ValidationError(OrthochanError):
    """Bad arguments, dimensions, or state data."""

    exit_code = 2


class InvalidStateError(ValidationError):
    """A matrix that was supposed to be a quantum state is not one."""


class BudgetError(OrthochanError):
    """A computation would exceed a configured size budget."""

    exit_code = 3


class EnumerationLimitError(BudgetError):
    """A combinatorial enumeration would exceed its configured cap."""


def checked_index(value, what: str, least: int = 0, most: int | None = None) -> int:
    """value as an int in [least, most] by operator.index, most None for no upper bound.

    A bool, float, string or other non-integer raises, never truncates; a value
    outside the bounds raises, never clamps.
    """
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if index < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    if most is not None and index > most:
        raise ValidationError(f"{what} must be <= {most}, got {value}")
    return index


def checked_size(entries: int, budget: int, what: str) -> int:
    """entries if at most budget, else BudgetError naming what, e.g. "lifted state tensor needs (kn)^r"."""
    if entries > budget:
        raise BudgetError(f"{what} = {entries} entries, above budget {budget}")
    return entries
