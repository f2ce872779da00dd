"""Fundamental types, parsing, degree runs and graphicality testing.

Degree sequences are immutable value objects.  The relative degree bounds
(c1, c2) are exact rationals; a sequence of length n is checked against the
integer window [ceil(c1*n), floor(c2*n)] they admit, so that boundary
instances are classified correctly.
"""

from __future__ import annotations

import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ParseError


def exact_int(value, what: str) -> int:
    """``value`` as an int; TypeError for a bool or a non-integer, a float
    included (operator.index rejects floats, but takes bools)."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, not bool")
    return operator.index(value)


def check_budget(budget) -> None:
    """Raise unless ``budget`` is None or an integer >= 0, before an exact
    search: TypeError for a bool or a non-integer, ValueError if negative."""
    if budget is not None and exact_int(budget, "budget") < 0:
        raise ValueError(f"negative budget {budget}")


@dataclass(frozen=True)
class DegreeSequence:
    """A multiset of nonnegative integer degrees, in input order."""

    degrees: tuple[int, ...]

    def __init__(self, degrees):
        degrees = tuple(degrees)
        types = set(map(type, degrees))
        # exact integers only: operator.index rejects floats, but takes bools
        if bool in types:
            raise TypeError("a degree must be an integer, not bool")
        if types - {int}:  # an int subclass or numpy integer becomes a plain int
            degrees = tuple(map(operator.index, degrees))
        if min(degrees, default=0) < 0:
            raise ValueError(f"negative degree {next(d for d in degrees if d < 0)}")
        object.__setattr__(self, "degrees", degrees)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def sigma(self) -> int:
        return sum(self.degrees)

    def nonzero(self) -> tuple[int, ...]:
        return tuple(filter(None, self.degrees))


@dataclass(frozen=True)
class DegreeClass:
    """The set of degree sequences of length n, sum sigma, degrees in [d, delta]."""

    n: int
    sigma: int
    d: int
    delta: int

    def __post_init__(self):
        for name in ("n", "sigma", "d", "delta"):
            object.__setattr__(self, name, exact_int(getattr(self, name), name))
        if self.n < 0 or self.sigma < 0:
            raise ValueError("n and sigma must be nonnegative")
        if not 0 <= self.d <= self.delta:
            raise ValueError(f"need 0 <= d <= delta, got d={self.d}, delta={self.delta}")

    @property
    def is_empty(self) -> bool:
        return not self.n * self.d <= self.sigma <= self.n * self.delta


@dataclass(frozen=True)
class ParamBounds:
    """Relative degree bounds: every degree must lie in [c1*n, c2*n].  Each is
    an int or a Fraction (a ``numbers.Rational``, not a bool), else TypeError;
    a Fraction is kept as it is, anything else converted to one."""

    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if type(value) is Fraction:
                continue  # kept as it is
            if isinstance(value, bool) or not isinstance(value, numbers.Rational):
                raise TypeError(f"{name} must be an int or a Fraction, not {type(value).__name__}")
            object.__setattr__(self, name, Fraction(value))
        # 0 <= a/b <= c/d <= 1 over positive denominators, cross-multiplied
        a, b, c, d = self.c1.numerator, self.c1.denominator, self.c2.numerator, self.c2.denominator
        if not (0 <= a and a * d <= c * b and c <= d):
            raise ValueError(f"need 0 <= c1 <= c2 <= 1, got c1={self.c1}, c2={self.c2}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a terminating decimal, exactly (no float round-trip)."""
    text = text.strip()
    if not text:
        raise ParseError("empty rational")
    # a plain "p" or "p/q" of ASCII digits is read by two int() calls, not
    # by Fraction()'s regex; both raise the same errors, q = 0 included
    p, slash, q = text.partition("/")
    plain = text.isascii() and p.isdigit() and (q.isdigit() or not slash)
    # Fraction() would also take digit-group underscores, non-ASCII digits
    # and exponents, where "1e-999999999" alone takes it without end
    if not plain and (not text.isascii() or any(c in text for c in "_eE")):
        raise ParseError(f"bad rational {text!r}")
    try:
        return Fraction(int(p), int(q or 1)) if plain else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc


def parse_sequence(text: str) -> DegreeSequence:
    """Parse whitespace- or comma-separated nonnegative integers, each
    written as plain ASCII digits (no sign)."""
    # commas and every character str.isspace() accepts separate tokens
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ParseError("empty degree sequence")
    # ASCII digits only: int() would also take a sign, "_" and non-ASCII
    # digits.  One C-level pass accepts; the tokens are walked one by one only
    # to name the first bad one (none when non-ASCII whitespace separates them)
    if not (text.isascii() and all(map(str.isdigit, tokens))):
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                negative = tok.isascii() and tok[0] == "-" and tok[1:].isdigit()
                raise ParseError(
                    f"{'negative degree' if negative else 'non-integer token'} {tok!r}")
    return DegreeSequence(map(int, tokens))


def _value_runs(degrees: Iterable[int]) -> list[tuple[int, int]]:
    """The distinct nonzero degrees as (value, count) runs, largest first."""
    counts = Counter(degrees)
    counts.pop(0, None)
    return sorted(counts.items(), reverse=True)


def is_graphic(ds: DegreeSequence) -> bool:
    """Erdős–Gallai at the run ends k of ``_value_runs``, the drop points of
    the nonzero degrees and k = m, their count (zeros add nothing to either
    side; any other k follows): an even sum, and sum_{i<=k} d_i <= k(k-1) +
    k·(count of the runs after k above k) + (their sum at or below k), read
    off two prefix-sum lists and one pointer, as ``_gale_ryser_runs`` does.
    """
    runs = _value_runs(ds.degrees)
    cnt, wt = [0], [0]  # the count and the sum of runs 0..t-1
    for v, c in runs:
        cnt.append(cnt[-1] + c)
        wt.append(wt[-1] + v * c)
    if wt[-1] % 2:
        return False
    j = len(runs)  # runs[j:] are the runs of value <= k
    for t, k in enumerate(cnt[1:], 1):
        while j and runs[j - 1][0] <= k:
            j -= 1
        r = max(j, t)
        if wt[t] > k * (k - 1) + k * (cnt[r] - cnt[t]) + wt[-1] - wt[r]:
            return False
    return True


def degree_window(bounds: ParamBounds, n: int) -> tuple[int, int]:
    """(ceil(c1*n), floor(c2*n)): the integer degrees in [c1*n, c2*n].

    Both are integer divisions of the numerator times n by the denominator,
    the ceiling as the negated floor of the negation.
    """
    c1, c2 = bounds.c1, bounds.c2
    return -(-c1.numerator * n // c1.denominator), c2.numerator * n // c2.denominator


def in_class(ds: DegreeSequence, bounds: ParamBounds) -> bool:
    """Exact check that every degree lies in [c1*n, c2*n]."""
    lo, hi = degree_window(bounds, ds.n)
    return lo <= min(ds.degrees, default=lo) and max(ds.degrees, default=hi) <= hi
