"""The parameterized decision procedure for bipartite realizability.

Region classification never evaluates a square root: every boundary test
is restated as a polynomial inequality over exact rationals and
cross-multiplied into integers, so boundary parameter pairs are classified
correctly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import DegreeSequence, ParamBounds, in_class
from .errors import BudgetExceededError, InputOutOfClassError, InvariantError
from .gale_ryser import (BipartiteRealization, _gale_ryser_bound, _gale_ryser_runs,
                         _value_runs, construct_realization)
from .partition import (SplitWitness, _count_walk, _places, balanced_split, count_runs,
                        equal_sum_walk, find_equal_sum_split, half_sum_sets_exceed,
                        mask_indices, split_with_u)
# is_bigraphic and enumerate_equal_sum_splits are unused here, but
# perfbench/tracing.py wraps them at these bindings, so the names must stay
from .gale_ryser import is_bigraphic  # noqa: F401
from .partition import enumerate_equal_sum_splits  # noqa: F401


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
    a, b = c1.numerator, c1.denominator
    if 2 * a > b:  # c1 > 1/2
        return RegionClass.HIGH_TRACTABLE
    c, d = c2.numerator, c2.denominator
    # c2 < 1/2 and (c1 + c2)^2 > 2*c1, the second times (b*d)^2
    if 2 * c < d and (a * d + b * c) ** 2 > 2 * a * b * d * d:
        return RegionClass.CONDITIONALLY_HARD
    return RegionClass.UNCLASSIFIED


def threshold_c2(c1: Fraction) -> float:
    """Upper edge of the low tractable region: (sqrt(c1(c1+4)) - c1) / 2."""
    c1 = Fraction(c1)
    return (math.sqrt(float(c1 * (c1 + 4))) - float(c1)) / 2


def threshold_at_or_below(c1: Fraction, c2: Fraction) -> bool:
    """Exact form of c2 <= threshold_c2(c1): c1 >= c2^2 / (1 - c2).

    For ints or Fractions c1 = a/b and c2 = c/d < 1, this is
    c1*(1 - c2) >= c2^2 times b*d^2: a*(d - c)*d >= b*c^2.
    """
    a, b = c1.numerator, c1.denominator
    c, d = c2.numerator, c2.denominator
    if c >= d:  # c2 >= 1
        return False
    return a * (d - c) * d >= b * c * c


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

    In the low region every equal-sum split is bigraphic, so the witness is
    ``balanced_split``'s split, or, when that finds none, the split of the
    count walk's first U count vector (``find_equal_sum_split``), which
    also decides that no split exists.
    Outside the tractable regions the verdict is an honest Undecided; use
    decide_exact.
    """
    if not in_class(ds, bounds):
        raise InputOutOfClassError(
            f"degrees not within [{bounds.c1}*n, {bounds.c2}*n]")
    region = classify_region(bounds)
    pre = precheck(ds)
    if pre is not None:
        return pre.with_region(region)
    if region is RegionClass.LOW_TRACTABLE:
        split = balanced_split(ds) or find_equal_sum_split(ds)
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
    its subset-sum bitsets in blocks whose held rows and checkpoints fit
    2*ceil(sqrt(m)) + 2 bitsets (``partition._block``, the count walk's
    rule too), O(sqrt(m)*sigma) bits, m the number of nonzero degrees.
    Gale–Ryser runs once per distinct U count vector, on the (value, count)
    runs; the split and its realization are built only for the split that
    is accepted.

    First the U count vectors over the runs are walked, in the same memory
    bound, entering only subtrees that can still pass Gale–Ryser
    (``gale_ryser._gale_ryser_bound`` on ``partition._count_walk``).  A
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
    walk's first descent costs.

    After a stop, or at an accepted count vector, the split walk looks for
    its first accepted split without reading the rejected ones.  The
    accepted count vector (or its complement, to put the first nonzero
    index on U) is a target k* in the box of the walk's node: U's counts
    so far up to those plus the open items.  Before an include branch the
    walk enters it if k* needs one more of its value, if its first leaf (its
    include-first descent) passes, or if the count walk in the branch's box
    finds a count vector that passes; that vector is the new k*.  Otherwise
    no split below passes, the branch is skipped and its splits, the sum of
    prod C(open_t, k_t) over its count vectors, are added to the splits
    examined, up to the budget.  Either count walk in a box stops after m
    nodes, and the branch is then walked split by split, without asking
    again below it.  So the witness is the walk's first accepted split, and
    the budget is passed at the same split as in a walk that reads them all.

    Raises BudgetExceededError rather than returning a wrong verdict once
    more than ``budget`` splits would be examined.
    """
    runs = _value_runs(ds.degrees)
    d, m = len(runs), sum(c for _, c in runs)
    counts = [c for _, c in runs]
    bound = _gale_ryser_bound(runs, ds.sigma // 2)
    walk = _count_walk(ds.sigma, runs)
    # more half-sum index sets than this and the split walk passes the budget
    limit = math.inf if budget is None else 2 * max(budget, 0)
    # on the count walk's path: U's count over runs 0..i-1 and the index
    # sets that give them
    k_at, sets_at = [0] * (d + 1), [1] * (d + 1)
    nodes = dead = 0  # dead: a lower bound on the index sets in cut subtrees
    capped = False

    def live(i: int, rem: int, k: int) -> bool | None:
        nonlocal nodes, dead, capped
        nodes += 1
        if dead > limit and nodes > m:
            capped = True
            return None
        if i:
            k_at[i] = k
            sets_at[i] = sets_at[i - 1] * math.comb(counts[i - 1], k - k_at[i - 1])
        if bound(i, rem, k):
            return True
        dead += sets_at[i]
        return False

    target = next(walk(live), None)
    if target is None and not capped:
        # no split passes; every split lies in a cut subtree
        if dead > limit or dead and budget is not None and half_sum_sets_exceed(ds, limit, walk):
            raise BudgetExceededError(budget, limit // 2 + 1, "equal-sum splits")
        return Decision("NotBipartite", "gale-ryser-violation" if dead else "no-equal-sum-split")

    places = _places(runs)

    def digit(key: int, t: int) -> int:
        return key // places[t] % (counts[t] + 1)

    if target is not None and m:
        first_value = next(filter(None, ds.degrees))
        if not digit(target, next(t for t, (v, _) in enumerate(runs) if v == first_value)):
            # the complement passes too and puts the first nonzero index on U
            target = sum(c * p for c, p in zip(counts, places)) - target
    rejected: set[int] = set()

    def accepts(key: int) -> bool:
        if key in rejected or not _gale_ryser_runs(*count_runs(runs, key)):
            rejected.add(key)
            return False
        return True

    # the two count walks in a box: each stops (None) past m nodes
    def in_box(i: int, rem: int, k: int) -> bool | None:
        nonlocal nodes
        nodes += 1
        return bound(i, rem, k) if nodes <= m else None

    def every(i: int, rem: int, k: int) -> bool | None:
        nonlocal nodes
        nodes += 1
        if i:
            lo = lo_box[i - 1]
            k_at[i] = k
            sets_at[i] = sets_at[i - 1] * math.comb(hi_box[i - 1] - lo, k - k_at[i - 1] - lo)
        return nodes <= m or None

    lo_box = hi_box = counts  # the box of the last branch asked about
    examined = 0
    allowed = None if budget is None else max(budget, 0)  # splits examined before the error

    def branch(t: int, lo: int, hi: int,
               first: Callable[[], tuple[int, int]]) -> int | bool | None:
        nonlocal target, lo_box, hi_box, nodes, examined
        if target is not None and digit(target, t) >= digit(lo, t):
            return target  # k* lies in the branch's box
        if accepts(first()[0]):
            return None  # the first accepted split is the branch's first leaf
        lo_box, hi_box = [digit(lo, j) for j in range(d)], [digit(hi, j) for j in range(d)]
        nodes = 0
        found = next(walk(in_box, lo_box, hi_box), None)
        if nodes > m:
            return None
        if found is not None:
            target = found
            return target
        if budget is None:
            return False
        nodes = sets = 0
        for _ in walk(every, lo_box, hi_box):
            sets += sets_at[d]
            if examined + sets > allowed:
                raise BudgetExceededError(budget, allowed + 1, "equal-sum splits")
        if nodes > m:
            return None
        examined += sets
        return False

    for key, mask in equal_sum_walk(ds, branch)[1]:
        if budget is not None and examined >= allowed:
            raise BudgetExceededError(budget, allowed + 1, "equal-sum splits")
        if not accepts(key):
            examined += 1
            continue
        split = split_with_u(ds, mask_indices(mask))
        g = construct_realization(*_split_pair(ds, split))
        if g is None:
            raise InvariantError("Gale-Ryser accepted a pair the realizer rejects")
        return Decision("Bipartite", "exact-search", split=split, realization=g)
    raise InvariantError("the split walk missed the count walk's accepted split and budget point")
