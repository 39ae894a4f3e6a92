"""Exception hierarchy shared by the library and the CLI.

Exit codes follow the CLI contract: 2 for validation problems, 3 for
exceeded enumeration/memory budgets, 4 for verification failures.
"""
import math
import numbers
import operator

# max entries of a dense array sized by caller arguments, checked by checked_size before it is allocated
OUTPUT_TENSOR_BUDGET = 2**24
FULL_COUNT_BITS = 100  # bits above which checked_size refuses a power by a lower bound, without building it


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


def checked_index(value, what: str, least: int | None = 0, most: int | None = None) -> int:
    """value as an int in [least, most] by operator.index, a bound None for no bound on that side.

    A bool, float, string or other non-integer raises, never truncates; a value
    outside the bounds raises, never clamps.
    """
    try:
        if isinstance(value, bool):  # operator.index(True) is 1
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and index < least:
        raise ValidationError(f"{what} must be >= {least}, got {value}")
    if most is not None and index > most:
        raise ValidationError(f"{what} must be <= {most}, got {value}")
    return index


def checked_real(value, what: str, least: float, most: float, exclusive: bool = False) -> float:
    """value as a finite float in [least, most], or in (least, most) if exclusive; never clamped.

    A bool, string, complex, array or other non-real raises, and so does NaN,
    an infinity or an integer beyond the float range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # a bool is a numbers.Real
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = math.inf
    if not (math.isfinite(real) and (least < real < most if exclusive else least <= real <= most)):
        left, right = "()" if exclusive else "[]"
        raise ValidationError(f"{what} must lie in {left}{least}, {most}{right}, got {value}")
    return real


def checked_instance(value, cls: type, what: str):
    """value if it is an instance of cls, else ValidationError, as in "beta must be a Pairing, got 'x'"."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {value!r}")
    return value


def checked_size(base: int, exponent: int, budget: int, what: str) -> int:
    """base ** exponent if at most budget, else BudgetError naming what, e.g. "lifted state tensor needs (kn)^r".

    base^exponent >= 2^least, least = exponent * (bits of base - 1).  A power
    that may reach 2^FULL_COUNT_BITS is refused unbuilt where 2^least is over
    the budget already, by a message naming 2^least, capped at
    2^FULL_COUNT_BITS: neither the work nor the message grows with the
    exponent.  A smaller power is built, and a refusal prints it in full.
    """
    least = exponent * (base.bit_length() - 1)
    if exponent * base.bit_length() > FULL_COUNT_BITS and least >= budget.bit_length():  # so 2^least > budget
        raise BudgetError(f"{what} = at least 2^{min(least, FULL_COUNT_BITS)} entries, above budget {budget}")
    entries = base**exponent
    if entries > budget:
        raise BudgetError(f"{what} = {entries} entries, above budget {budget}")
    return entries
