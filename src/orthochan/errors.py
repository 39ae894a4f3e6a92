"""Exception hierarchy shared by the library and the CLI.

Exit codes follow the CLI contract: 2 for validation problems, 3 for
exceeded enumeration/memory budgets, 4 for verification failures.
"""
import operator


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


def checked_index(value, what: str, least: int = 0) -> int:
    """value as an int >= least by operator.index; a float, string or other non-integer raises, never truncates."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if index < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    return index
