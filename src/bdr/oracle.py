"""Brute-force ground truth.

Two independent levels:

- Split enumeration times Gale–Ryser, usable up to the padded-instance
  scale.  Splits are count vectors over the distinct degrees, and a count
  is entered only when the rest of the half sum is still reachable by the
  values after it (suffix-reachability bitsets, (d+1)·(⌊σ/2⌋+1) bits for
  d <= √(2σ) distinct nonzero degrees).  The prune drops only dead
  subtrees, so the count vectors checked, and their order, are those of
  the unpruned search.  A leaf's count vector goes to Gale–Ryser unexpanded.
- Raw bipartite edge-set backtracking that does not trust Gale–Ryser at
  all.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .core import DegreeSequence
from .errors import BudgetExceededError
# bound under its old name, which perfbench/tracing.py patches to count leaves
from .gale_ryser import _gale_ryser_runs as _gale_ryser_lists


def brute_force_bipartite_realizable(ds: DegreeSequence,
                                     budget: int | None = None) -> bool:
    """True iff some equal-sum split of the degrees is bigraphic.

    Splits are enumerated by count vectors over distinct values, which
    keeps the search small even when the sequence is long but has few
    distinct degrees.  Zero degrees are ignored (they sit on either side).

    The values are taken largest first, and for each the count k on the U
    side runs from the largest that fits down to 0.  ``reach[i]`` is the
    bitset of the sums up to sigma/2 that the values from i on can make
    within their counts (a bounded subset-sum with binary-split
    multiplicities).  The search enters count k of value i only when the
    remainder after it is in ``reach[i + 1]``, so every node it enters
    leads to at least one count vector with the exact half sum.  It drops
    only dead subtrees: the count vectors handed to Gale–Ryser, their
    order, the verdict and the point where ``budget`` is exceeded are
    those of the unpruned search.  The bitsets take (d + 1)·(⌊sigma/2⌋ + 1)
    bits, each rounded up to whole bytes, where d <= sqrt(2·sigma) is the
    number of distinct nonzero degrees.  A leaf passes the runs (v, k) and
    (v, c - k) to Gale–Ryser, zero counts included: no degree list is built.
    The search keeps an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    sigma = ds.sigma
    if sigma % 2 != 0:
        return False
    target = sigma // 2
    counts = sorted(Counter(ds.nonzero()).items(), reverse=True)
    # reach[i]: the sums up to target that values i... can make, as a bitset
    # built right to left; kept as bytes so that each bit test is O(1)
    mask, size = (1 << target + 1) - 1, (target >> 3) + 1
    bits = 1
    reach = [bits.to_bytes(size, "little")]
    for v, c in reversed(counts):
        part = 1
        while c:  # binary split of the count: 1, 2, 4, ..., rest
            take = min(part, c)
            bits |= bits << take * v & mask
            c -= take
            part *= 2
        reach.append(bits.to_bytes(size, "little"))
    reach.reverse()
    if not reach[0][target >> 3] >> (target & 7) & 1:
        return False

    examined = 0
    chosen = [0] * len(counts)  # chosen[i]: the count of value i on the path
    # (level, remainder, count taken at the level above); popped depth-first
    stack = [(0, target, 0)]
    while stack:
        i, rem, k = stack.pop()
        if i:
            chosen[i - 1] = k
        if i == len(counts):  # rem == 0: the last bitset holds only the sum 0
            examined += 1
            if budget is not None and examined > budget:
                raise BudgetExceededError(budget, examined, "split count vectors")
            if _gale_ryser_lists([(v, k) for (v, _), k in zip(counts, chosen)],
                                 [(v, c - k) for (v, c), k in zip(counts, chosen)]):
                return True
            continue
        v, c = counts[i]
        after = reach[i + 1]
        # pushed smallest first, so the largest count is popped first
        for k in range(min(c, rem // v) + 1):
            x = rem - k * v
            if after[x >> 3] >> (x & 7) & 1:
                stack.append((i + 1, x, k))
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
