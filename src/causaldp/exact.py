"""Exact arithmetic helpers.

All probabilities and ratio bounds are `fractions.Fraction`.  The single
non-rational value that can arise is an infinite ratio (some probability is
positive where its comparison partner is zero); it is carried as `math.inf`,
the only float permitted anywhere in the package.  Natural logarithms appear
only in display strings.  `memoized` keeps exact results on the immutable
object that computed them.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import wraps
from typing import Union

from .errors import ParseError, RatioTooLong, describe

# A domain value: a symbol, an integer, or a tuple of values (used for
# database points and report vectors).
Value = Union[str, int, tuple]

# A ratio bound: an exact nonnegative rational, or infinity.
Ratio = Union[Fraction, float]

INF: float = math.inf

# ASCII digits only, and nothing after them: `\d` matches any Unicode digit
# and `$` matches before a trailing newline.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def memoized(method):
    """Memoize a method per instance, keyed by its name and arguments.

    The memo is a dict in the instance's own `__dict__`, so it dies with the
    instance and no state is shared between objects; the instance must not
    change in anything the method reads.  A call that raises stores nothing.
    """
    name = method.__name__

    @wraps(method)
    def memo(self, *args):
        table = self.__dict__.get("_memo")
        if table is None:
            table = self.__dict__["_memo"] = {}
        key = (name, *args)
        if key not in table:
            table[key] = method(self, *args)
        return table[key]

    return memo


def is_infinite(x: Ratio) -> bool:
    return isinstance(x, float) and math.isinf(x)


def ratio_divide(num: Fraction, den: Fraction) -> Ratio | None:
    """Divide under the checker conventions: 0/0 is vacuous (None), p/0 = inf."""
    if den == 0:
        return None if num == 0 else INF
    return num / den


def ratio_le(a: Ratio, b: Ratio) -> bool:
    """a <= b where either side may be infinite."""
    if is_infinite(a):
        return is_infinite(b)
    if is_infinite(b):
        return True
    return a <= b


def ratio_mul(a: Ratio, b: Ratio) -> Ratio:
    """Product of two ratio bounds; bounds are always >= 1, so inf*x = inf."""
    if is_infinite(a) or is_infinite(b):
        return INF
    return a * b


def parse_rational(text: str, location: str = "") -> Fraction:
    """Parse "p/q" or "p" exactly (see `rational_terms`)."""
    return Fraction(*rational_terms(text, location))


def rational_terms(text: str, location: str = "") -> tuple[int, int]:
    """The integers p and q of "p/q" (q = 1 for "p"), as written: the one
    reader of a rational string.  Only ASCII digits are read; anything else
    (e.g. "0.5" or "1/2\\n") is rejected."""
    if not isinstance(text, str):
        raise ParseError(
            f"expected a rational written as a string like \"1/2\", got "
            f"{describe(text)}",
            location,
        )
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ParseError(
            f"malformed rational {describe(text)}; write exact integer ratios "
            f"like \"1/2\"",
            location,
        )
    num, den = m.groups()
    try:
        return int(num), int(den or 1)
    except ValueError:  # more digits than Python's int-conversion limit
        raise ParseError(
            f"rational {describe(text)} is too long: an integer may have at "
            f"most {sys.get_int_max_str_digits()} digits",
            location,
        ) from None


def format_rational(x: Fraction) -> str:
    """Canonical "p/q" form (denominator always written, e.g. "2/1")."""
    return format_terms(x.numerator, x.denominator)


def format_terms(numerator: int, denominator: int) -> str:
    """"p/q" of a reduced fraction's two terms, as `format_rational` writes
    it, without building the `Fraction`."""
    try:
        return f"{numerator}/{denominator}"
    except ValueError:
        raise RatioTooLong(
            f"a reported ratio is too long to print: an integer may have at "
            f"most {sys.get_int_max_str_digits()} digits"
        ) from None


def format_ratio(x: Ratio) -> str:
    return "inf" if is_infinite(x) else format_rational(x)


def epsilon_of(x: Ratio) -> str:
    """ln(ratio) to four decimals, for display only."""
    if is_infinite(x):
        return "inf"
    if x <= 0:
        raise ValueError(f"epsilon undefined for ratio {x}")
    return f"{math.log(x.numerator) - math.log(x.denominator):.4f}"


def value_sort_key(v: Value):
    """Total order over mixed-type values, for canonical serialization."""
    if isinstance(v, bool):  # bools are ints; keep them out of domains anyway
        return (1, int(v))
    if isinstance(v, int):
        return (1, v)
    if isinstance(v, str):
        return (2, v)
    return (3, tuple(value_sort_key(x) for x in v))
