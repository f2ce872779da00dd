"""Least balanced degree sequences and the fast extremal bigraphicality check."""

from __future__ import annotations

from dataclasses import dataclass

from .core import DegreeClass, DegreeSequence
from .errors import InfeasibleClassError, InvalidPairError, InvariantError
from .gale_ryser import BipartitePair, _gale_ryser_lists, is_bigraphic


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

    Only the two Gale–Ryser inequalities at the critical k (floor and
    ceiling of (sigma - n1*d1)/(delta1 - d1)) are evaluated; a constant
    first sequence has no critical k, so it falls back to the full scan.
    """
    if class1.sigma != class2.sigma:
        raise InvalidPairError(
            f"class sums differ: {class1.sigma} != {class2.sigma}")
    l1 = lbds(class1)
    l2 = lbds(class2)
    n1, sigma, d, delta = class1.n, class1.sigma, class1.d, class1.delta
    if delta == d or sigma == n1 * d or n1 == 0:
        return is_bigraphic(BipartitePair(l1, l2))
    num = sigma - n1 * d
    den = delta - d
    # floor and ceiling of the critical index, plus the k = n1 inequality
    # (needed when second-class degrees exceed n1; the sorted prefix has no
    # drop point there otherwise)
    ks = {min(max(k, 1), n1) for k in (num // den, -(-num // den), n1)}
    return _gale_ryser_lists(l1.degrees, l2.degrees, ks)
