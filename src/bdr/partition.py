"""Equal-sum splitting via subset-sum dynamic programming.

Each DP runs over a bitset of achievable sums (a Python int) capped at
sigma/2.  ``_subset_sums`` adds one item per step; ``_run_sums`` adds one
(value, count) run per step, its count split in binary parts 1, 2, 4, ...,
rest (the paper's bounded subset-sum).  Deciding existence keeps one
bitset of the run DP, O(sigma) bits.  The witness and the split walk each
make one checkpoint pass of the item DP over their n items
(``_checkpoints``), keeping every ceil(sqrt(n))-th bitset, O(sqrt(n)*sigma)
bits, and each rebuilds its own block window from them: a window policy
shared by both cost the other path, at n = 2000, 52-100 % more time in the
split walk or 4x in the witness.  The witness is the split that a
reconstruction from all n+1 prefix bitsets gives.  Splits are unordered;
the split walk canonicalizes by keeping the first nonzero entry on the U
side and has no limit (a caller that needs one stops iterating).  The
count-vector walk yields U count vectors over the distinct nonzero
degrees instead, pruned on the run DP's suffix bitsets.  Both walks enter
only subtrees that hold a split and key a count vector in the same mixed
radix over the same (value, count) runs (``count_runs`` decodes it).
A split is its two index tuples, U and V, each increasing.  Zero degrees
are never part of a subset key: ``split_with_u`` puts every one of them on
the U side, for every split this module returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import isqrt
from operator import not_
from typing import Iterable, Iterator

from .core import DegreeSequence
from .errors import InvariantError


@dataclass(frozen=True)
class SplitWitness:
    """The input indices on the U side and on the V side, each increasing."""

    u: tuple[int, ...]
    v: tuple[int, ...]

    def u_indices(self) -> tuple[int, ...]:
        return self.u

    def v_indices(self) -> tuple[int, ...]:
        return self.v


def split_with_u(ds: DegreeSequence, u_side: Iterable[int]) -> SplitWitness:
    """The split with the indices ``u_side`` and every zero degree on U.

    ``u_side`` must sum to sigma/2.  The zeros become isolated u-vertices
    of any realization of the split.
    """
    on_u = list(map(not_, ds.degrees))
    for i in u_side:
        on_u[i] = True
    return SplitWitness(tuple(compress(range(ds.n), on_u)),
                        tuple(compress(range(ds.n), map(not_, on_u))))


def _subset_sums(degrees: Iterable[int], target: int, reach: int = 1) -> Iterator[int]:
    """For each prefix of ``degrees``, the empty one first, the bitset of
    the sums a + t up to ``target``, a in ``reach`` ({0} by default) and t a
    subset sum of the prefix."""
    cap = (1 << (target + 1)) - 1
    reach &= cap
    yield reach
    for d in degrees:
        reach = (reach | (reach << d)) & cap
        yield reach


def _run_sums(runs: Iterable[tuple[int, int]], target: int) -> Iterator[int]:
    """For each prefix of the (value, count) ``runs``, the empty one first,
    the bitset of the sums up to ``target`` that the prefix makes with each
    value taken at most its count times."""
    cap = (1 << (target + 1)) - 1
    reach = 1
    yield reach
    for v, c in runs:
        part = 1
        while c:  # binary split of the count: 1, 2, 4, ..., rest
            take = min(part, c)
            reach |= reach << take * v & cap
            c -= take
            part *= 2
        yield reach


def _checkpoints(degrees: list[int], target: int, block: int) -> tuple[list[int], bool]:
    """Every ``block``-th prefix bitset of ``_subset_sums(degrees, target)``,
    the empty prefix first, and whether all of ``degrees`` reach ``target``."""
    checkpoints = []
    for i, reach in enumerate(_subset_sums(degrees, target)):
        if i % block == 0:
            checkpoints.append(reach)
    return checkpoints, bool(reach >> target & 1)


def _value_runs(degrees: Iterable[int]) -> list[tuple[int, int]]:
    """The distinct nonzero degrees as (value, count) runs, largest first."""
    counts = Counter(degrees)
    counts.pop(0, None)
    return sorted(counts.items(), reverse=True)


def _places(runs: list[tuple[int, int]]) -> list[int]:
    """The mixed-radix place of each run's count: a count vector's key is
    the sum of count times place, and ``count_runs`` reads it back."""
    places, radix = [], 1
    for _, c in runs:
        places.append(radix)
        radix *= c + 1
    return places


def equal_sum_split_exists(ds: DegreeSequence) -> bool:
    """True iff some subset of the degrees sums to sigma/2."""
    sigma = ds.sigma
    if sigma % 2 != 0:
        return False
    target = sigma // 2
    *_, reach = _run_sums(_value_runs(ds.degrees), target)
    return bool(reach >> target & 1)


def find_equal_sum_split(ds: DegreeSequence) -> SplitWitness | None:
    """A witness via DP back-reconstruction, or None.

    Deterministic: at each reconstruction step, from the last item back,
    the current item is excluded whenever the remaining sum is reachable by
    the items before it.

    Only every ceil(sqrt(n))-th prefix bitset is kept.  The reconstruction
    runs back one block at a time and rebuilds the block's prefix bitsets
    from its checkpoint, restricted to the sums in
    [max(remaining - block sum, 0), remaining]: every remaining sum that
    the block's steps test lies there, and so does the checkpoint part of
    every way to reach it.  Memory is O(sqrt(n)*sigma) bits.
    """
    sigma = ds.sigma
    if sigma % 2 != 0:
        return None
    target = sigma // 2
    n = ds.n
    block = isqrt(n - 1) + 1 if n else 1  # ceil(sqrt(n))
    checkpoints, found = _checkpoints(ds.degrees, target, block)
    if not found:
        return None
    u_side = []
    cur = target
    for start in range(block * ((n - 1) // block), -1, -block):
        items = ds.degrees[start:start + block]
        low = max(cur - sum(items), 0)
        # window[j]: the sums in [low, cur] of the first start + j items, minus low
        window = list(_subset_sums(items[:-1], cur - low, checkpoints[start // block] >> low))
        for j in range(len(items) - 1, -1, -1):
            if not window[j] >> (cur - low) & 1:
                u_side.append(start + j)
                cur -= items[j]
    if cur != 0:
        raise InvariantError(f"split reconstruction left {cur} of {target} unassigned")
    return split_with_u(ds, u_side)


def equal_sum_walk(ds: DegreeSequence) -> tuple[list[tuple[int, int]],
                                                Iterator[tuple[int, int]]]:
    """The distinct nonzero degrees as (value, count) runs, largest first,
    and the leaves of the canonical split walk as ``(key, mask)`` pairs.

    The walk decides the nonzero indices in increasing order, the first one
    fixed on U, include before exclude, depth first; a leaf is a node whose
    remainder of sigma/2 is 0, all later items excluded.  Each leaf is one
    distinct unordered equal-sum split.  ``mask`` has bit i set for each
    index i it puts on U (zeros excluded, see ``mask_indices``); ``key`` is
    its U count vector over ``runs`` in mixed radix (``count_runs``), so
    equal keys mean equal degree multisets on each side.

    A node is entered only when its remainder is a subset sum of the items
    after it, so only subtrees without a leaf are dropped: the leaves and
    their order are those of the unpruned walk.  The suffix subset sums are
    kept as bitsets at every ceil(sqrt(m))-th position (m nonzero degrees).
    The one block the walk is in is rebuilt from its checkpoint as bytes,
    cut to the sums up to the remainder at the root of the subtree being
    walked (no test below it asks for more), so a test is O(1) and memory
    is O(sqrt(m)*sigma) bits.
    """
    runs = _value_runs(ds.degrees)
    return runs, _leaves(ds, runs)


def _leaves(ds: DegreeSequence, runs: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    if ds.sigma % 2:
        return
    target = ds.sigma // 2
    nz = [i for i, d in enumerate(ds.degrees) if d]
    m = len(nz)
    if not m:
        yield 0, 0
        return
    place = dict(zip((v for v, _ in runs), _places(runs)))
    # item j is the j-th nonzero degree from the right, so the items still
    # open at a node are 0 .. i-1 and reach[i] holds their subset sums
    at = nz[::-1]
    deg = [ds.degrees[k] for k in at]
    step = [place[d] for d in deg]
    block = isqrt(m - 1) + 1  # ceil(sqrt(m))
    checkpoints, found = _checkpoints(deg, target, block)
    # a split and its complement both sum to target, so one of them puts
    # the first nonzero index on U: the root is live iff any split exists
    if not found:
        return
    base, hi, rows = 0, -1, []
    # (i, rem, key, mask) of the live nodes still to walk: the root, then
    # each pending exclude branch
    stack = [(m - 1, target - deg[m - 1], step[m - 1], 1 << at[m - 1])]
    while stack:
        i, rem, key, mask = stack.pop()
        root = rem  # no sum tested in this subtree is larger
        while rem:  # a live node with rem > 0 has an open item
            i -= 1
            if not (0 <= i - base < len(rows) and rem <= hi):
                # the block holding reach[i], as bytes, cut to the sums up to root
                base, hi = i - i % block, root
                rows = [r.to_bytes((hi >> 3) + 1, "little") for r in
                        _subset_sums(deg[base:base + block], hi, checkpoints[base // block])]
            row = rows[i - base]
            x = rem - deg[i]
            if x >= 0 and row[x >> 3] >> (x & 7) & 1:
                if row[rem >> 3] >> (rem & 7) & 1:
                    stack.append((i, rem, key, mask))
                rem, key, mask = x, key + step[i], mask | 1 << at[i]
        yield key, mask


def count_vector_walk(ds: DegreeSequence) -> tuple[list[tuple[int, int]], Iterator[int]]:
    """The distinct nonzero degrees as (value, count) runs, largest first,
    and the mixed-radix key (``count_runs``) of every U count vector over
    them whose U side sums to sigma/2.

    The walk takes the runs in order and, for each, the U count from the
    largest that fits down to 0, depth first.  It enters count k of run i
    only when the remainder after it is in the run DP's bitset of the runs
    after i, so it drops only dead subtrees: the count vectors and their
    order are those of the unpruned search.  Those suffix bitsets are kept
    as bytes, so a test is O(1); they take (d + 1)*(floor(sigma/2) + 1)
    bits, each rounded up to whole bytes, where d <= sqrt(2*sigma) is the
    number of runs.  A count vector and its complement both appear, and a
    sequence with no nonzero degree has the one empty count vector.  The
    walk keeps an explicit stack, so its depth is not bounded by the
    interpreter's recursion limit.
    """
    runs = _value_runs(ds.degrees)
    return runs, _count_keys(ds.sigma, runs)


def _count_keys(sigma: int, runs: list[tuple[int, int]]) -> Iterator[int]:
    if sigma % 2:
        return
    target = sigma // 2
    size = (target >> 3) + 1
    # after[i]: the sums up to target that runs i... make, as bytes
    after = [r.to_bytes(size, "little") for r in _run_sums(runs[::-1], target)][::-1]
    if not after[0][target >> 3] >> (target & 7) & 1:
        return
    places = _places(runs)
    # (run, remainder, key so far) of the live nodes still to walk
    stack = [(0, target, 0)]
    while stack:
        i, rem, key = stack.pop()
        if i == len(runs):  # rem == 0: the last bitset holds only the sum 0
            yield key
            continue
        (v, c), place, row = runs[i], places[i], after[i + 1]
        # pushed smallest first, so the largest count is popped first
        for k in range(min(c, rem // v) + 1):
            x = rem - k * v
            if row[x >> 3] >> (x & 7) & 1:
                stack.append((i + 1, x, key + k * place))


def count_runs(runs: list[tuple[int, int]],
               key: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The U and V sides of the count vector ``key`` over ``runs`` (from
    ``equal_sum_walk`` or ``count_vector_walk``) as (value, count) runs,
    zero counts included."""
    u, v = [], []
    for value, c in runs:
        key, k = divmod(key, c + 1)
        u.append((value, k))
        v.append((value, c - k))
    return u, v


def mask_indices(mask: int) -> list[int]:
    """The set bits of ``mask``, increasing."""
    return [i for i, bit in enumerate(reversed(f"{mask:b}")) if bit == "1"]


def enumerate_equal_sum_splits(ds: DegreeSequence) -> Iterator[SplitWitness]:
    """Yield every distinct unordered equal-sum split, in walk order.

    Canonical form: the first nonzero index is always on the U side.
    """
    for _, mask in equal_sum_walk(ds)[1]:
        yield split_with_u(ds, mask_indices(mask))
