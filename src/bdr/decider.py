"""The parameterized decision procedure for bipartite realizability.

Region classification never evaluates a square root: every boundary test
is restated as a polynomial inequality over exact rationals and
cross-multiplied into integers, so boundary parameter pairs are classified
correctly.  Outside the tractable regions ``decide_exact`` first runs one
subset sum over U sizes (``partition.size_feasible_counts``), which refutes
the input when no equal-sum split meets Gale–Ryser at k = 1 and otherwise
proposes one count vector per U size; the first proposal that passes
Gale–Ryser is the witness.  Only when none does, or when its tables would
pass their cap, is the input decided by one walk over U count vectors,
pruned on Gale–Ryser and on mirrors, with its witness built from the first
count vector that passes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DegreeSequence, ParamBounds, _value_runs, check_budget, in_class
from .errors import BudgetExceededError, InputOutOfClassError, InvariantError
from .gale_ryser import (BipartiteRealization, _gale_ryser_bound, _gale_ryser_runs,
                         construct_realization)
from .partition import (SplitWitness, _count_walk, balanced_split, count_runs,
                        equal_sum_split_exists, find_equal_sum_split, size_feasible_counts,
                        split_of_counts, split_with_u)
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


def _realized(ds: DegreeSequence, split: SplitWitness, reason: str) -> Decision:
    """The Bipartite decision of the equal-sum ``split``, realized by
    ``construct_realization`` with u-vertex i as ``split.u[i]``.  Every
    caller has shown the split bigraphic, so a rejection is a bug."""
    degree = ds.degrees.__getitem__
    g = construct_realization(tuple(map(degree, split.u)), tuple(map(degree, split.v)))
    if g is None:
        raise InvariantError(f"{reason}: the realizer rejects a bigraphic split")
    return Decision("Bipartite", reason, split=split, realization=g)


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
    if max(work, default=0) > half:
        return Decision("NotBipartite", "precheck-degree-at-least-half-sum")
    n_half = work.count(half)
    if n_half == 1 or work == (1, 1):
        # a vertex of degree sigma/2 is alone on its side, so every other
        # nonzero degree is 1 (with n_half == 1, sigma/2 itself is above 1)
        if len(work) - work.count(1) > 1:
            return Decision("NotBipartite", "gale-ryser-violation")
        split = split_with_u(ds, {ds.degrees.index(half)})
        return _realized(ds, split, "trivial-(1,1)" if work == (1, 1) else "split-found")
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
    decision = precheck(ds)
    if decision is None and classify_region(bounds) is RegionClass.LOW_TRACTABLE:
        split = balanced_split(ds) or find_equal_sum_split(ds)
        decision = (Decision("NotBipartite", "no-equal-sum-split") if split is None
                    else _realized(ds, split, "split-found"))
    return decision or Decision("Undecided", "exact-search")


def decide_exact(ds: DegreeSequence, budget: int | None = None) -> Decision:
    """Exponential fallback: a U count vector that passes Gale–Ryser.

    First, with no walk and without the budget,
    ``partition.size_feasible_counts`` settles most inputs.  If no
    equal-sum split puts every U degree at most |V| and every V degree at
    most |U| (the nonzero degrees counted), Gale–Ryser fails at k = 1 for
    every split, and the verdict is NotBipartite: "gale-ryser-violation"
    when an equal-sum split exists, "no-equal-sum-split" otherwise.  Else
    it proposes one such count vector per U size s <= m/2, s ascending,
    and the first that passes ``_gale_ryser_runs`` is the witness.  When
    none passes, or when its tables would exceed
    ``partition.SIZE_DP_BITS``, the walk below decides.

    The U count vectors over the d (value, count) runs, each a tuple
    (k_0, ..., k_{d-1}) of U counts, are walked in the order of
    ``partition._count_walk``, entering only subtrees that can still pass
    Gale–Ryser (``gale_ryser._gale_ryser_bound``) and no first count k_0
    with 2k_0 < c_0: their count vectors mirror ones met before, and
    Gale–Ryser is symmetric in U and V.  This takes O(sqrt(m)*sigma)
    bits, m the number of nonzero degrees.  If no count vector passes, no
    equal-sum split does: the verdict is NotBipartite.  Otherwise the first
    that passes, the same as over both mirrors, is the witness
    (``_witness``, as for a proposal).

    The budget N counts equal-sum splits ruled out.  A subtree the bound
    cuts off after runs 0..i-1, with k_j of the c_j values of run j on U,
    holds at least prod_{j<i} C(c_j, k_j) U index sets of sum sigma/2 (the
    walk enters a node only if some count vector completes it), and no
    split that passes has a side among them; ``dead`` adds that up over
    the cuts, and nothing for a mirror.  Cut subtrees are disjoint, and an
    index set in one is a side of a failing split, which has two sides, so
    the failing splits number at least dead/2.  BudgetExceededError is
    raised at the cut that takes ``dead`` past 2N, when more than N splits
    are ruled out: every raise is truthful.

    With budget N the bound runs on at most (d + 1)(2N + 2) nodes, and at
    most ceil(c_0/2) mirrors are dropped, in O(1) each.  A node the bound
    runs on is the root (which has no child only when no split exists, and
    is then the only node), a cut, the yielded count vector, or a node that
    passes with a child, which the walk enters next (no mirror: k_0 and
    c_0 - k_0 both occur).  So each lies on the path, of at most d + 1
    nodes, from the root to the end that its chain of first children leads
    down to, a cut or the yielded count vector.  Each cut adds at least 1
    to ``dead``, so the walk makes at most 2N + 1 cuts, 2N + 2 ends in all.
    """
    check_budget(budget)
    runs = _value_runs(ds.degrees)
    proposals = size_feasible_counts(ds.sigma, runs)
    if proposals is not None:
        feasible = False
        for counts in proposals:
            if _gale_ryser_runs(*count_runs(runs, counts)):
                return _witness(ds, runs, counts)
            feasible = True
        if not feasible:
            # every equal-sum split, if there is one, fails at k = 1
            return Decision("NotBipartite", "gale-ryser-violation" if equal_sum_split_exists(ds)
                            else "no-equal-sum-split")
    bound = _gale_ryser_bound(runs, ds.sigma // 2)
    # more ruled-out index sets than this are more than budget splits
    limit = None if budget is None else 2 * budget
    # on the walk's path: the U index sets that give runs 0..i-1 their counts
    sets_at = [1] * (len(runs) + 1)
    dead = 0  # a lower bound on the index sets in cut subtrees

    def live(i: int, rem: int, k: int) -> bool:
        nonlocal dead
        if i:
            c = runs[i - 1][1]
            if i == 1 and 2 * k < c:
                return False  # its leaves mirror count vectors already walked
            sets_at[i] = sets_at[i - 1] * math.comb(c, k)
        if bound(i, rem, k):
            return True
        dead += sets_at[i]
        if limit is not None and dead > limit:
            raise BudgetExceededError(budget, limit // 2 + 1, "equal-sum splits")
        return False

    counts = next(_count_walk(ds.sigma, runs, live), None)
    if counts is None:
        # every split lies in a cut subtree, if there is any
        return Decision("NotBipartite", "gale-ryser-violation" if dead else "no-equal-sum-split")
    return _witness(ds, runs, counts)


def _witness(ds: DegreeSequence, runs: list[tuple[int, int]],
             counts: tuple[int, ...]) -> Decision:
    """The Bipartite decision of the bigraphic U count vector ``counts``:
    it, or its complement if it would put the first nonzero index on V,
    gives each value's U count to that value's lowest indices
    (``split_of_counts``), and that split is realized."""
    first = next(filter(None, ds.degrees), None)
    if first is not None and not dict(zip((v for v, _ in runs), counts))[first]:
        # the complement passes too and puts the first nonzero index on U
        counts = tuple(c - k for (_, c), k in zip(runs, counts))
    return _realized(ds, split_of_counts(ds, runs, counts), "exact-search")
