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
from .gale_ryser import (BipartiteRealization, _gale_ryser_bound, _gale_ryser_runs,
                         _value_runs, construct_realization)
from .partition import (SplitWitness, _count_keys, count_runs, equal_sum_walk,
                        find_equal_sum_split, half_sum_sets_exceed, mask_indices, split_with_u)
# is_bigraphic and enumerate_equal_sum_splits are unused here, but
# perfbench/tracing.py wraps them at these bindings, so the names must stay
from .gale_ryser import is_bigraphic  # noqa: F401
from .partition import enumerate_equal_sum_splits  # noqa: F401

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


def _split_pair(ds: DegreeSequence,
                split: SplitWitness) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The U and V degrees of ``split``; u-vertex i is ``split.u[i]``."""
    degree = ds.degrees.__getitem__
    return tuple(map(degree, split.u)), tuple(map(degree, split.v))


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
        g = construct_realization(*_split_pair(ds, split))
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
        g = construct_realization(*_split_pair(ds, split))
        if g is None:
            raise InvariantError("in-region equal-sum split must be bigraphic")
        return Decision("Bipartite", "split-found", split=split,
                        realization=g, region=region)
    return Decision("Undecided", "exact-search", region=region)


def decide_exact(ds: DegreeSequence, budget: int | None = None) -> Decision:
    """Exponential fallback: try every equal-sum split against Gale–Ryser.

    The splits are the leaves of ``partition.equal_sum_walk``, in its
    order: a pruned walk that enters only subtrees holding a split and keeps
    its subset-sum bitsets in O(sqrt(m)*sigma) bits, m the number of
    nonzero degrees.  Gale–Ryser runs once per distinct U count vector, on
    the (value, count) runs; the split and its realization are built only
    for the split that is accepted.

    First the U count vectors over the runs are walked, in the same memory
    bound, entering only subtrees that can still pass Gale–Ryser
    (``gale_ryser._gale_ryser_bound`` on ``partition._count_keys``).  A
    subtree the bound cuts off after runs 0..i-1, with k_j of the c_j
    values of run j on U, holds at least prod C(c_j, k_j) U index sets of
    sum sigma/2, and every split is two such index sets.  If the walk ends
    with no count vector that passes, no split passes: the verdict is
    NotBipartite, unless more than 2*budget index sets sum to sigma/2 (the
    cut subtrees hold them, or ``partition.half_sum_sets_exceed`` finds
    them), in which case the split walk would pass the budget first, and
    BudgetExceededError is raised at split budget + 1 without it.  With a
    budget, the walk stops once the cut subtrees hold more than 2*budget
    index sets and it has entered more than m nodes, about what the split
    walk's first descent costs.  After a stop, or at an accepted count
    vector, the split walk runs as if there had been no count walk, so the
    witness is the walk's first accepted split and the budget is passed at
    the same split.  The count walk cannot build that witness: its first
    accepted count vector is not, in general, that split's.

    Raises BudgetExceededError rather than returning a wrong verdict once
    more than ``budget`` splits would be examined.
    """
    runs = _value_runs(ds.degrees)
    bound = _gale_ryser_bound(runs, ds.sigma // 2)
    m = sum(c for _, c in runs)
    # more half-sum index sets than this and the split walk passes the budget
    limit = math.inf if budget is None else 2 * max(budget, 0)
    # on the walk's path: U's count over runs 0..i-1 and their index sets
    k_at, sets_at = [0] * (len(runs) + 1), [1] * (len(runs) + 1)
    nodes = dead = 0  # dead: a lower bound on the index sets in cut subtrees
    capped = False

    def live(i: int, rem: int, k: int) -> bool:
        nonlocal nodes, dead, capped
        nodes += 1
        if dead > limit and nodes > m:
            capped = True
            return False
        if i:
            k_at[i] = k
            sets_at[i] = sets_at[i - 1] * math.comb(runs[i - 1][1], k - k_at[i - 1])
        if bound(i, rem, k):
            return True
        dead += sets_at[i]
        return False

    accepted = next(_count_keys(ds.sigma, runs, live), None) is not None
    if not (accepted or capped):
        # no split passes; every split lies in a cut subtree
        if dead > limit or dead and budget is not None and half_sum_sets_exceed(ds, limit):
            raise BudgetExceededError(budget, limit // 2 + 1, "equal-sum splits")
        return Decision("NotBipartite", "gale-ryser-violation" if dead else "no-equal-sum-split")
    rejected: set[int] = set()
    _, leaves = equal_sum_walk(ds)
    for examined, (key, mask) in enumerate(leaves, 1):
        if budget is not None and examined > budget:
            raise BudgetExceededError(budget, examined, "equal-sum splits")
        if key in rejected or not _gale_ryser_runs(*count_runs(runs, key)):
            rejected.add(key)
            continue
        split = split_with_u(ds, mask_indices(mask))
        g = construct_realization(*_split_pair(ds, split))
        if g is None:
            raise InvariantError("Gale-Ryser accepted a pair the realizer rejects")
        return Decision("Bipartite", "exact-search", split=split, realization=g)
    raise InvariantError("the split walk missed the count walk's accepted split and budget point")
