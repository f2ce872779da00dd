"""The parameterized decision procedure for bipartite realizability.

Region classification never evaluates a square root: every boundary test
is restated as a polynomial inequality over exact rationals, so boundary
parameter pairs are classified correctly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DegreeSequence, ParamBounds, in_class
from .errors import BudgetExceededError, InputOutOfClassError, InvariantError
from .gale_ryser import (BipartitePair, BipartiteRealization,
                         construct_realization, is_bigraphic)
from .partition import (SplitWitness, enumerate_equal_sum_splits,
                        find_equal_sum_split, split_with_u)

HALF = Fraction(1, 2)


class RegionClass(enum.Enum):
    LOW_TRACTABLE = "LowTractable"
    HIGH_TRACTABLE = "HighTractable"
    CONDITIONALLY_HARD = "ConditionallyHard"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class Decision:
    verdict: str  # "Bipartite" | "NotBipartite" | "Undecided"
    reason: str
    split: SplitWitness | None = None
    realization: BipartiteRealization | None = None
    region: RegionClass | None = None

    def with_region(self, region: RegionClass) -> "Decision":
        return Decision(self.verdict, self.reason, self.split, self.realization, region)


def classify_region(bounds: ParamBounds) -> RegionClass:
    c1, c2 = bounds.c1, bounds.c2
    if threshold_at_or_below(c1, c2):
        return RegionClass.LOW_TRACTABLE
    if c1 > HALF:
        return RegionClass.HIGH_TRACTABLE
    if c2 < HALF and (c1 + c2) ** 2 > 2 * c1:
        return RegionClass.CONDITIONALLY_HARD
    return RegionClass.UNCLASSIFIED


def threshold_c2(c1: Fraction) -> float:
    """Upper edge of the low tractable region: (sqrt(c1(c1+4)) - c1) / 2."""
    c1 = Fraction(c1)
    return (math.sqrt(float(c1 * (c1 + 4))) - float(c1)) / 2


def threshold_at_or_below(c1: Fraction, c2: Fraction) -> bool:
    """Exact form of c2 <= threshold_c2(c1): c1 >= c2^2 / (1 - c2)."""
    c1, c2 = Fraction(c1), Fraction(c2)
    if c2 >= 1:
        return False
    return c1 * (1 - c2) >= c2 * c2


def max_degree_gap() -> tuple[float, float]:
    """Numerically maximize threshold_c2(c1) - c1 over [0, 1/2].

    Returns (argmax, max).  Ternary search; the objective is unimodal.
    """
    def gap(c: float) -> float:
        return (math.sqrt(c * (c + 4)) - c) / 2 - c

    lo, hi = 0.0, 0.5
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if gap(m1) < gap(m2):
            lo = m1
        else:
            hi = m2
    c_star = (lo + hi) / 2
    return c_star, gap(c_star)


def _split_pair(ds: DegreeSequence, split: SplitWitness) -> BipartitePair:
    """The two sides of ``split`` as a pair; u-vertex i is u_indices()[i]."""
    return BipartitePair(DegreeSequence([ds.degrees[i] for i in split.u_indices()]),
                         DegreeSequence([ds.degrees[i] for i in split.v_indices()]))


def precheck(ds: DegreeSequence) -> Decision | None:
    """Cheap dispositions applied before any region logic.

    The rules look at the nonzero degrees only.  A witness comes from
    ``split_with_u``, which puts the zeros on U as isolated u-vertices; None
    means no rule fired and the caller should continue.
    """
    sigma = ds.sigma
    work = ds.nonzero()
    if sigma % 2 != 0:
        return Decision("NotBipartite", "no-equal-sum-split")
    half = sigma // 2
    if any(d > half for d in work):
        return Decision("NotBipartite", "precheck-degree-at-least-half-sum")
    n_half = sum(1 for d in work if d == half)
    if n_half == 1 or work == (1, 1):
        # a vertex of degree sigma/2 is alone on its side: a star
        split = split_with_u(ds, {ds.degrees.index(half)})
        g = construct_realization(_split_pair(ds, split))
        if g is None:
            # only possible for non-graphic input
            return Decision("NotBipartite", "gale-ryser-violation")
        return Decision("Bipartite", "trivial-(1,1)" if work == (1, 1) else "split-found",
                        split=split, realization=g)
    if n_half >= 2:
        return Decision("NotBipartite", "precheck-degree-at-least-half-sum")
    if work and min(work) * 2 > len(work):
        return Decision("NotBipartite", "min-degree-too-large")
    return None


def decide_bdr(ds: DegreeSequence, bounds: ParamBounds) -> Decision:
    """The polynomial decision procedure inside the tractable regions.

    Outside them the verdict is an honest Undecided; use decide_exact.
    """
    if not in_class(ds, bounds):
        raise InputOutOfClassError(
            f"degrees not within [{bounds.c1}*n, {bounds.c2}*n]")
    region = classify_region(bounds)
    pre = precheck(ds)
    if pre is not None:
        return pre.with_region(region)
    if region is RegionClass.LOW_TRACTABLE:
        split = find_equal_sum_split(ds)
        if split is None:
            return Decision("NotBipartite", "no-equal-sum-split", region=region)
        g = construct_realization(_split_pair(ds, split))
        if g is None:
            raise InvariantError("in-region equal-sum split must be bigraphic")
        return Decision("Bipartite", "split-found", split=split,
                        realization=g, region=region)
    return Decision("Undecided", "exact-search", region=region)


def decide_exact(ds: DegreeSequence, budget: int | None = None) -> Decision:
    """Exponential fallback: try every equal-sum split against Gale–Ryser.

    Raises BudgetExceededError rather than returning a wrong verdict once
    more than ``budget`` splits have been examined.
    """
    examined = 0
    found_any = False
    for split in enumerate_equal_sum_splits(ds):
        found_any = True
        examined += 1
        if budget is not None and examined > budget:
            raise BudgetExceededError(
                f"examined more than {budget} equal-sum splits")
        pair = _split_pair(ds, split)
        if is_bigraphic(pair):
            g = construct_realization(pair)
            if g is None:
                raise InvariantError("Gale-Ryser accepted a pair the realizer rejects")
            return Decision("Bipartite", "exact-search", split=split, realization=g)
    if not found_any:
        return Decision("NotBipartite", "no-equal-sum-split")
    return Decision("NotBipartite", "gale-ryser-violation")
