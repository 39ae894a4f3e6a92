"""Exception hierarchy shared by the library and the CLI.

Exit codes follow the CLI contract: 2 for validation problems, 3 for
exceeded enumeration/memory budgets, 4 for verification failures.
"""
import math
import numbers
import operator

# max entries of a dense array sized by caller arguments, or points of an f_beta contraction; see checked_size
OUTPUT_TENSOR_BUDGET = 2**24
FULL_COUNT_BITS = 100  # bits above which a refusal names an integer by its size, without building or printing it


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


class _Named(str):
    __repr__ = str.__str__  # prints bare by repr too, so also inside a tuple or list


def shown(value, depth: int = 2):
    """value as a refusal prints it, by str or repr: an int above FULL_COUNT_BITS bits, also in tuples and lists
    depth deep (a tuple of pairs), reads "an integer of 16610 bits", so int-to-str never meets its 4300 digits."""
    if depth and type(value) in (tuple, list):  # not a subclass, such as a named tuple, which prints its own way
        return type(value)(shown(item, depth - 1) for item in value)
    if isinstance(value, int) and value.bit_length() > FULL_COUNT_BITS:
        return _Named(f"an integer of {value.bit_length()} bits")
    return value


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
        raise ValidationError(f"{what} must be an integer, got {shown(value)!r}") from None
    if least is not None and index < least:
        raise ValidationError(f"{what} must be >= {least}, got {shown(value)}")
    if most is not None and index > most:
        raise ValidationError(f"{what} must be <= {most}, got {shown(value)}")
    return index


def checked_real(value, what: str, least: float, most: float, exclusive: bool = False) -> float:
    """value as a finite float in [least, most], or in (least, most) if exclusive; never clamped.

    A bool, string, complex, array or other non-real raises, and so does NaN,
    an infinity or an integer beyond the float range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # a bool is a numbers.Real
        raise ValidationError(f"{what} must be a real number, got {shown(value)!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = math.inf
    if not (math.isfinite(real) and (least < real < most if exclusive else least <= real <= most)):
        left, right = "()" if exclusive else "[]"
        raise ValidationError(f"{what} must lie in {left}{least}, {most}{right}, got {shown(value)}")
    return real


def checked_instance(value, cls: type, what: str):
    """value if it is an instance of cls, else ValidationError, as in "beta must be a Pairing, got 'x'"."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {shown(value)!r}")
    return value


def checked_size(base: int, exponent: int, what: str) -> int:
    """base ** exponent if at most OUTPUT_TENSOR_BUDGET, else BudgetError naming what, e.g. "a Haar draw needs dim^2".

    base^exponent >= 2^least, least = exponent * (bits of base - 1).  A power
    that may reach 2^FULL_COUNT_BITS is refused unbuilt where 2^least is over
    the budget already, by a message naming 2^least, capped at
    2^FULL_COUNT_BITS: neither the work nor the message grows with the
    exponent.  A smaller power is built, and a refusal prints it in full.
    """
    budget = OUTPUT_TENSOR_BUDGET
    least = exponent * (base.bit_length() - 1)
    if exponent * base.bit_length() > FULL_COUNT_BITS and least >= budget.bit_length():  # so 2^least > budget
        raise BudgetError(f"{what} = at least 2^{min(least, FULL_COUNT_BITS)} entries, above budget {budget}")
    entries = base**exponent
    if entries > budget:
        raise BudgetError(f"{what} = {entries} entries, above budget {budget}")
    return entries
