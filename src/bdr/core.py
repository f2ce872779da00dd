"""Fundamental types, parsing, and graphicality testing.

Degree sequences are immutable value objects.  The relative degree bounds
(c1, c2) are exact rationals; a sequence of length n is checked against the
integer window [ceil(c1*n), floor(c2*n)] they admit, so that boundary
instances are classified correctly.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

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

    def sorted_desc(self) -> tuple[int, ...]:
        """Canonical non-increasing copy; the original order is kept."""
        return tuple(sorted(self.degrees, reverse=True))

    def nonzero(self) -> tuple[int, ...]:
        return tuple(d for d in self.degrees if d > 0)

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)


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
    """Relative degree bounds: every degree must lie in [c1*n, c2*n]."""

    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if isinstance(value, (bool, float)):
                raise TypeError(f"{name} must be an exact rational, not {type(value).__name__}")
            object.__setattr__(self, name, Fraction(value))
        if not 0 <= self.c1 <= self.c2 <= 1:
            raise ValueError(f"need 0 <= c1 <= c2 <= 1, got c1={self.c1}, c2={self.c2}")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a terminating decimal, exactly (no float round-trip)."""
    text = text.strip()
    if not text:
        raise ParseError("empty rational")
    # Fraction() would also take digit-group underscores, non-ASCII digits
    # and exponents, where "1e-999999999" alone takes it without end
    if not text.isascii() or any(c in text for c in "_eE"):
        raise ParseError(f"bad rational {text!r}")
    try:
        return Fraction(text)
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


def _erdos_gallai_holds(deg: tuple[int, ...], k: int, prefix: list[int], suffix: list[int]) -> bool:
    # deg sorted non-increasing, 1-based k.  RHS = k(k-1) + sum_{j>k} min(k, d_j).
    n = len(deg)
    # first index >= k (0-based) in deg[k:] whose value is <= k
    idx = bisect_left(deg, -k, lo=k, hi=n, key=lambda v: -v)
    rhs = k * (k - 1) + (idx - k) * k + (suffix[idx])
    return prefix[k] <= rhs


def is_graphic(ds: DegreeSequence) -> bool:
    """Erdős–Gallai test, at the drop points (k with d_k > d_{k+1}) plus
    k = n; the inequality at any other k follows from these."""
    deg = ds.sorted_desc()
    n = len(deg)
    if n == 0:
        return True
    if sum(deg) % 2 != 0:
        return False
    if deg[0] == 0:
        return True
    prefix = [0] * (n + 1)
    for i, d in enumerate(deg):
        prefix[i + 1] = prefix[i] + d
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + deg[i]
    ks = [k for k in range(1, n) if deg[k - 1] > deg[k]] + [n]
    return all(_erdos_gallai_holds(deg, k, prefix, suffix) for k in ks)


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
