"""Least balanced degree sequences and the extremal bigraphicality check:
Gale–Ryser on the runs of a pair of LBDS, whose ends are the critical
indices."""

from __future__ import annotations

from dataclasses import dataclass

from .core import DegreeClass, DegreeSequence
from .errors import InfeasibleClassError, InvalidPairError, InvariantError
from .gale_ryser import _gale_ryser_runs


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


def _runs(cls: DegreeClass) -> list[tuple[int, int]]:
    """The LBDS as runs (delta, k), (d_int, 1), (d, n-k-1); none if n = 0."""
    shape = lbds_shape(cls)
    if cls.n == 0:
        return []
    return [(cls.delta, shape.k), (shape.d_int, 1), (cls.d, shape.tail)]


def lbds(cls: DegreeClass) -> DegreeSequence:
    """The extremal member of the class: maximal spread for the given sum."""
    return DegreeSequence(v for v, c in _runs(cls) for _ in range(c))


def lbds_pair_bigraphic(class1: DegreeClass, class2: DegreeClass) -> bool:
    """Whether the pair of least balanced sequences of the two classes is
    bigraphic: the paper's check of the critical Gale–Ryser inequalities,
    taken literally.  The runs kernel gets the three runs of each LBDS and
    checks the first at its run ends k, k + 1 and n1, the critical indices
    (k = min(floor(q), n1 - 1), q = (sigma - n1*d1)/(delta1 - d1)), in O(1).
    """
    if class1.sigma != class2.sigma:
        raise InvalidPairError(
            f"class sums differ: {class1.sigma} != {class2.sigma}")
    return _gale_ryser_runs(_runs(class1), _runs(class2))
