"""Brute-force ground truth.

Two independent levels:

- Split count vectors times Gale–Ryser, usable up to the padded-instance
  scale.  ``partition._count_walk``, unpruned, yields the count vectors
  over the distinct degrees whose U side has the half sum, each a tuple of
  U counts; each, up to the first that mirrors one before it, goes to
  Gale–Ryser as (value, count) runs, unexpanded.
- Raw bipartite edge-set backtracking that does not trust Gale–Ryser at
  all.
"""

from __future__ import annotations

from itertools import combinations

from .core import DegreeSequence, check_budget
from .errors import BudgetExceededError
# bound under its old name, which perfbench/tracing.py patches to count leaves
from .gale_ryser import _gale_ryser_runs as _gale_ryser_lists
from .gale_ryser import _value_runs
from .partition import _count_walk, count_runs


def brute_force_bipartite_realizable(ds: DegreeSequence,
                                     budget: int | None = None) -> bool:
    """True iff some equal-sum split of the degrees is bigraphic.

    Splits are enumerated by count vectors over distinct values, tuples
    of U counts (``partition._count_walk``), few for few distinct degrees
    however long the sequence; zero degrees are ignored (they sit on either
    side).  Each count vector passes the runs (v, k) and (v, c - k) to
    Gale–Ryser, zero counts included, up to the first with U counts below
    its V counts: it and all after it mirror ones tested, so the answer is
    False.  Testing more than ``budget`` (``check_budget``) raises
    BudgetExceededError.
    """
    check_budget(budget)
    runs = _value_runs(ds.degrees)
    for examined, counts in enumerate(_count_walk(ds.sigma, runs), 1):
        u, v = count_runs(runs, counts)
        if u < v:  # this count vector and every later one mirror one tested
            return False
        if budget is not None and examined > budget:
            raise BudgetExceededError(budget, examined, "split count vectors")
        if _gale_ryser_lists(u, v):
            return True
    return False


def _normalized(seq) -> tuple[int, ...]:
    return tuple(sorted((d for d in seq if d > 0), reverse=True))


# (du, dv) -> realizable, for the normalized pairs one top-level search met
_Memo = dict[tuple[tuple[int, ...], tuple[int, ...]], bool]


def _pair_realizable(du: tuple[int, ...], dv: tuple[int, ...], memo: _Memo) -> bool:
    # ``memo`` belongs to one top-level search, so nothing is kept between
    # searches; inputs are normalized: zero-free, non-increasing
    key = (du, dv)
    if key not in memo:
        memo[key] = _pair_search(du, dv, memo)
    return memo[key]


def _pair_search(du: tuple[int, ...], dv: tuple[int, ...], memo: _Memo) -> bool:
    # exact bipartite realizability by backtracking over the neighborhoods
    # of the u-vertices; pruning uses only sums and residual counts
    if sum(du) != sum(dv):
        return False
    if not du:
        return not dv
    d, rest = du[0], du[1:]
    if d > len(dv):
        return False
    for picks in combinations(range(len(dv)), d):
        new_dv = list(dv)
        for j in picks:
            new_dv[j] -= 1
        if _pair_realizable(rest, _normalized(new_dv), memo):
            return True
    return False


def exhaustive_pair_search(d1, d2) -> bool:
    """Ground truth for a fixed bipartition, independent of Gale–Ryser."""
    return _pair_realizable(_normalized(d1), _normalized(d2), {})


def exhaustive_graph_search(ds: DegreeSequence) -> bool:
    """True iff some labeled simple bipartite graph realizes the sequence.

    Enumerates every 2-coloring of the vertices, then searches edge sets
    across the cut exactly.  Limited to n <= 8.
    """
    deg = ds.degrees
    n = len(deg)
    if n > 8:
        raise ValueError(f"exhaustive search limited to n <= 8, got {n}")
    sigma = sum(deg)
    if sigma % 2 != 0:
        return False
    if n == 0:
        return True
    memo: _Memo = {}
    # vertex 0 fixed on the U side; complements are symmetric
    for mask in range(1 << (n - 1)):
        du = [deg[0]] + [deg[i] for i in range(1, n) if mask >> (i - 1) & 1]
        dv = [deg[i] for i in range(1, n) if not mask >> (i - 1) & 1]
        if sum(du) != sigma // 2:
            continue
        if _pair_realizable(_normalized(du), _normalized(dv), memo):
            return True
    return False
