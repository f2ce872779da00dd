"""Least balanced degree sequences and the extremal bigraphicality check:
Gale–Ryser on a pair of LBDS, whose drop points are the critical indices."""

from __future__ import annotations

from dataclasses import dataclass

from .core import DegreeClass, DegreeSequence
from .errors import InfeasibleClassError, InvalidPairError, InvariantError
from .gale_ryser import BipartitePair, is_bigraphic


@dataclass(frozen=True)
class LbdsShape:
    """Shape of a least balanced sequence: k maximal degrees, one
    intermediate degree, and n-k-1 minimal degrees."""

    k: int
    d_int: int
    tail: int
    cls: DegreeClass


def lbds_shape(cls: DegreeClass) -> LbdsShape:
    if cls.is_empty:
        raise InfeasibleClassError(f"empty class {cls}")
    n, sigma, d, delta = cls.n, cls.sigma, cls.d, cls.delta
    if n == 0:
        return LbdsShape(0, 0, 0, cls)
    if delta == d:
        # single member: the constant sequence (sigma = n*d is forced)
        return LbdsShape(n - 1, d, 0, cls)
    k = min((sigma - n * d) // (delta - d), n - 1)
    d_int = sigma - k * delta - (n - k - 1) * d
    if not d <= d_int <= delta:
        raise InvariantError(f"intermediate degree {d_int} outside [{d}, {delta}]")
    return LbdsShape(k, d_int, n - k - 1, cls)


def lbds(cls: DegreeClass) -> DegreeSequence:
    """The extremal member of the class: maximal spread for the given sum."""
    shape = lbds_shape(cls)
    if cls.n == 0:
        return DegreeSequence(())
    return DegreeSequence(
        (cls.delta,) * shape.k + (shape.d_int,) + (cls.d,) * shape.tail)


def lbds_pair_bigraphic(class1: DegreeClass, class2: DegreeClass) -> bool:
    """Whether the pair of least balanced sequences of the two classes is
    bigraphic.

    This is the paper's check of the critical Gale–Ryser inequalities.  With
    q = (sigma - n1*d1)/(delta1 - d1), the first LBDS is
    delta1^k d_int d1^(n1-k-1) with k = min(floor(q), n1 - 1), so it drops
    only after position k and after k + 1: its drop points, plus the k = n1
    that ``is_bigraphic`` always checks, are floor(q), ceil(q) and n1,
    clamped to [1, n1].  A constant first LBDS has no drop point.
    """
    if class1.sigma != class2.sigma:
        raise InvalidPairError(
            f"class sums differ: {class1.sigma} != {class2.sigma}")
    return is_bigraphic(BipartitePair(lbds(class1), lbds(class2)))
