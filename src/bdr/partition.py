"""Equal-sum splitting: a greedy balance, and a walk over count vectors.

``balanced_split`` puts the degrees, largest first, on the lighter side and
closes the final gap with at most one swap, in O(n log n); it may find no
split where one exists.  ``decide_bdr`` returns its split in the low
region and calls ``find_equal_sum_split`` only when it finds none: the
count walk's first U count vector (below), each value's U count on its
lowest indices (``split_of_counts``), or None if no split exists.

The DP runs over a bitset of achievable sums (a Python int) capped at
sigma/2, adding one (value, count) run per step, its count split in binary
parts 1, 2, 4, ..., rest (the paper's bounded subset-sum, ``_run_sums``).
Deciding existence keeps one bitset, O(sigma) bits.  A count vector is
the tuple (k_0, ..., k_{d-1}) of the U counts of the d (value, count)
runs of the distinct nonzero degrees (``count_runs`` gives its two
sides).  The count walk (``_count_walk``) yields every U count vector
whose U side sums to sigma/2 and enters only subtrees that hold one: it
is pruned on the run DP's suffix bitsets, checkpointed in blocks sized by
``_block`` so that it keeps O(sqrt(m)*sigma) bits (m nonzero degrees),
and is one generator that builds its bitsets when it starts.  Before any
walk, ``decide_exact`` runs one bounded subset sum with a count
dimension, one bitset of sums per U size (``size_feasible_counts``): it
proposes one count vector per U size whose two sides meet Gale–Ryser at
k = 1, and when there is none the input is NotBipartite.  Only if no
proposal passes Gale–Ryser does ``decide_exact`` walk the count vectors,
with a bound that drops subtrees without a bigraphic count vector, and
build its witness from the first that passes; the oracle walks them
unpruned, and ``enumerate_equal_sum_splits`` expands them into index
sets.  A split is its two index tuples, U and V, each increasing.  Zero
degrees are never part of a count vector: ``split_with_u`` puts every
one of them on the U side, for every split this module returns, and
checks that the two sides' sums are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, product
from math import isqrt
from operator import not_
from typing import Callable, Iterable, Iterator

from .core import DegreeSequence, _value_runs
from .errors import InvariantError, SizeLimitError


@dataclass(frozen=True)
class SplitWitness:
    """The input indices on the U side and on the V side, each increasing."""

    u: tuple[int, ...]
    v: tuple[int, ...]

    # src/bdr reads u and v; only perfbench/ calls these two accessors, so
    # they stay until the benchmark no longer does
    def u_indices(self) -> tuple[int, ...]:
        return self.u

    def v_indices(self) -> tuple[int, ...]:
        return self.v


def split_with_u(ds: DegreeSequence, u_side: Iterable[int]) -> SplitWitness:
    """The split with the indices ``u_side`` and every zero degree on U.

    The zeros become isolated u-vertices of any realization of the split.
    Raises InvariantError unless ``u_side`` sums to sigma/2.
    """
    on_u = list(map(not_, ds.degrees))
    for i in u_side:
        on_u[i] = True
    u_sum = sum(compress(ds.degrees, on_u))
    if 2 * u_sum != ds.sigma:
        raise InvariantError(f"split has side sums {u_sum} and {ds.sigma - u_sum}")
    return SplitWitness(tuple(compress(range(ds.n), on_u)),
                        tuple(compress(range(ds.n), map(not_, on_u))))


def balanced_split(ds: DegreeSequence) -> SplitWitness | None:
    """An equal-sum split by greedy balance and at most one swap, or None.

    The nonzero indices, by decreasing degree and then by index, go one by
    one to the side with the smaller sum, ties to U.  The final gap g is
    even when sigma is.  If g is not 0, the lowest heavy-side index a with
    some light-side index b of degree deg(a) - g/2 swaps with the lowest
    such b.  None means no such pair; a split may exist all the same
    (``find_equal_sum_split`` decides).  O(n log n).
    """
    deg = ds.degrees
    if ds.sigma % 2 != 0:
        return None
    sides: tuple[list[int], list[int]] = ([], [])
    sums = [0, 0]
    # a stable sort keeps equal degrees in index order, reverse=True included
    for i in sorted(filter(deg.__getitem__, range(ds.n)), key=deg.__getitem__, reverse=True):
        side = sums[1] < sums[0]
        sides[side].append(i)
        sums[side] += deg[i]
    gap = sums[0] - sums[1]
    if gap:
        heavy, light = sides if gap > 0 else sides[::-1]
        lowest: dict[int, int] = {}
        for b in light:  # placed by decreasing degree, then by index
            lowest.setdefault(deg[b], b)
        need = abs(gap) // 2
        a = min((a for a in heavy if deg[a] - need in lowest), default=None)
        if a is None:
            return None
        b = lowest[deg[a] - need]
        heavy[heavy.index(a)] = b
        light[light.index(b)] = a
    return split_with_u(ds, sides[0])


def _run_sums(runs: Iterable[tuple[int, int]], mask: int, reach: int = 1) -> Iterator[int]:
    """For each prefix of the (value, count) ``runs``, the empty one first,
    the bitset of the sums a + t in ``mask``, a in ``reach`` ({0} by
    default) and t made of the prefix, each value at most its count times;
    ``(2 << target) - 1`` masks the sums up to ``target``."""
    reach &= mask
    yield reach
    for v, c in runs:
        for take in _binary_parts(c):
            reach |= reach << take * v & mask
        yield reach


def _as_bytes(bits: int) -> bytes:
    """``bits`` >= 0 as little-endian bytes, at least one: bit x is bit x & 7 of byte x >> 3."""
    return bits.to_bytes((bits.bit_length() >> 3) + 1, "little")


# The most bits ``size_feasible_counts`` may hold in its tables: 2**23 bits,
# 1 MB.  An input whose tables would take more is left to the walk.
SIZE_DP_BITS = 1 << 23


def size_feasible_counts(sigma: int,
                         runs: list[tuple[int, int]]) -> Iterator[tuple[int, ...]] | None:
    """For each U size s <= m/2 that has a size-feasible split, s
    ascending, the first such U count vector of size s in walk order, a
    tuple of U counts over ``runs``; None if the tables would hold more
    than SIZE_DP_BITS bits.

    A split of the m nonzero degrees, |U| = s and |V| = m - s, is
    size-feasible when its sides sum to sigma/2, every U degree is at most
    m - s and every V degree at most s.  Every split that passes Gale–Ryser
    is size-feasible: at k = 1 the inequality reads a_1 <= #(nonzero b) on
    each side, as an edge joins two vertices of nonzero degree.  So if no
    split is size-feasible, none passes, and the input is NotBipartite;
    the iterator is then empty.  A split's mirror, U and V swapped, is
    size-feasible iff the split is, so only s <= m - s is tried.  Then a
    degree above m - s fits neither side, and a degree above s fits only
    U: U holds all f(s) degrees above s, of sum F(s), and s - f(s) of the
    degrees at most s, of sum sigma/2 - F(s), each of which fits either
    side.  So s ranges over f(s) <= s <= min(m/2, m - max degree), and one
    table answers every s: row c holds the bitset of the sums of c degrees
    from the runs of value at most s, each run bounded by its count, the
    runs added in ascending value as s grows by ``_run_sums`` (a degree of
    value v shifts a table of rows of W bits, below, by W + v).  Of the
    size-feasible count vectors of size s, the one the count walk meets
    first takes every run above s whole and, for the runs at most s from
    the largest down, the largest count that the table of the runs below
    it completes; the table after each run is kept to rebuild it.  A size
    whose count of degrees at most s cannot make its sum (each is at least
    1 and at most s) asks nothing of the table, and when no size is left
    nothing is built.

    Cost: a table has R rows of W bits, R - 1 the largest count asked (at
    most m/2) and W - 1 - g the largest sum asked (at most sigma/2); g,
    the largest sum one run's shift adds (at most that sum), is a guard
    zone in each row that every step clears.  With J runs of value at most
    the largest s asked, J + 1 tables are kept and one is built,
    (J + 2)*R*W bits, each run costs O(log c) shifts of one table, and
    each size's count vector is rebuilt in O(m + J) bit tests.
    """
    if sigma % 2:
        return iter(())
    half, m = sigma // 2, sum(c for _, c in runs)
    top = runs[0][0] if runs else 0
    asks = []  # (s, count, sum) asked of the table, s ascending
    f, big, r = m, sigma, len(runs)  # f(s), F(s): the count and sum of runs 0..r-1, above s
    for s in range(min(m // 2, m - top) + 1):
        while r and runs[r - 1][0] <= s:
            r -= 1
            f -= runs[r][1]
            big -= runs[r][0] * runs[r][1]
        c, t = s - f, half - big
        if 0 <= c <= t <= c * s:
            asks.append((s, c, t))
            free = r
    if not asks:
        return iter(())
    # s - f(s) and sigma/2 - F(s) grow with s: the last size asks the most
    _, rows, cap = asks[-1]
    rows += 1
    # runs free..d-1, those of value at most the last s, ascending: value,
    # count, the count a row can use, and index in ``runs``
    up = []
    guard = 0  # the most that one run adds to a sum
    for i in range(len(runs) - 1, free - 1, -1):
        v, c = runs[i]
        usable = min(c, cap // v, rows - 1)
        up.append((v, c, usable, i))
        guard = max(guard, v * usable)
    width = cap + 1 + guard
    if (len(up) + 2) * rows * width > SIZE_DP_BITS:
        return None
    ones, k = 1, 1  # bit 0 of each row
    while k < rows:
        ones |= ones << k * width
        k *= 2
    ones &= (1 << rows * width) - 1
    valid = (ones << cap + 1) - ones  # the sums 0..cap of each row
    # sizes ascend, so each size sets the count of every run an earlier
    # size set, and the runs above s keep their whole count
    counts = [c for _, c in runs]

    def proposals() -> Iterator[tuple[int, ...]]:
        sums = _run_sums([(width + v, usable) for v, _, usable, _ in up], valid)
        tables = [_as_bytes(next(sums))]  # tables[j]: after runs up[0..j-1]
        for s, c, t in asks:
            while len(tables) <= len(up) and up[len(tables) - 1][0] <= s:
                tables.append(_as_bytes(next(sums)))
            x = c * width + t
            row = tables[-1]
            if not (x >> 3 < len(row) and row[x >> 3] >> (x & 7) & 1):
                continue
            # runs above s whole; the rest from the largest down, each
            # with the largest count that the runs below it complete
            for j in range(len(tables) - 2, -1, -1):
                v, count, _, i = up[j]
                row = tables[j]
                k = min(count, c, t // v)
                while True:
                    x = (c - k) * width + t - k * v
                    if x >> 3 < len(row) and row[x >> 3] >> (x & 7) & 1:
                        break
                    k -= 1
                counts[i] = k
                c, t = c - k, t - k * v
            yield tuple(counts)

    return proposals()


def _binary_parts(c: int) -> list[int]:
    """The count c split as 1, 2, 4, ..., rest: every count 0..c is a sum
    of some of them, so a subset sum over the parts is one over the run."""
    parts, part = [], 1
    while c:
        parts.append(min(part, c))
        c -= parts[-1]
        part *= 2
    return parts


def _block(positions: int, m: int) -> int:
    """The block of the count walk over the suffix bitsets at positions
    0..``positions`` of m nonzero degrees: the largest that fits
    2*ceil(sqrt(m)) + 2 bitsets, O(sqrt(m)*sigma) bits.

    A checkpoint is kept at every block-th position, positions // block + 1
    of them, the first ({0}, one bit) free, and the block being walked is
    held as at most block rows, one per position.  The rule asks that
    block + 1 + positions // block fit, one bitset more than is held.
    """
    limit = 2 * isqrt(m - 1) + 4 if m else 2  # 2*ceil(sqrt(m)) + 2
    return next(b for b in range(limit - 1, 0, -1) if b + 1 + positions // b <= limit)


# The largest sigma/2 that ``equal_sum_split_exists`` and the count walk
# take: their bitsets of sums hold sigma/2 + 1 bits, 1 MB here.  The
# largest sigma/2 the tests reach is 5,913,608, the padded D' of
# (4, 3, 3, 2, 2, 2) at (3/20, 2/5), n' = 6,416; perfbench/'s is 831,603,
# (2, 2, 1, 1) there, n' = 2,406.
MAX_HALF_SUM = 1 << 23
# The most bits the count walk may hold at once, 128 MB: its checkpoints
# and one block of rows, each of at most sigma/2 + 1 bits.  The largest
# count the tests reach is 41,395,263, seven bitsets of the padded D'
# above; perfbench/'s is 4,989,624, six of (2, 2, 1, 1) there.
MAX_WALK_BITS = 1 << 30


def _half_sum(sigma: int) -> int:
    """sigma/2, the top bit of the sum bitsets; SizeLimitError past
    ``MAX_HALF_SUM``, before any bitset is built."""
    if sigma // 2 > MAX_HALF_SUM:
        raise SizeLimitError(f"half degree sum sigma/2 = {sigma // 2} exceeds the limit "
                             f"of {MAX_HALF_SUM}")
    return sigma // 2


def equal_sum_split_exists(ds: DegreeSequence) -> bool:
    """True iff some subset of the degrees sums to sigma/2."""
    sigma = ds.sigma
    if sigma % 2 != 0:
        return False
    target = _half_sum(sigma)
    *_, reach = _run_sums(_value_runs(ds.degrees), (2 << target) - 1)
    return bool(reach >> target & 1)


def find_equal_sum_split(ds: DegreeSequence) -> SplitWitness | None:
    """The split of the count walk's first count vector, or None if there
    is none: each value's U count on its lowest indices
    (``split_of_counts``)."""
    runs = _value_runs(ds.degrees)
    counts = next(_count_walk(ds.sigma, runs), None)
    return None if counts is None else split_of_counts(ds, runs, counts)


def split_of_counts(ds: DegreeSequence, runs: list[tuple[int, int]],
                    counts: tuple[int, ...]) -> SplitWitness:
    """The split whose U side takes, for each value of ``runs``, as many of
    its indices as the count vector ``counts`` gives it, the lowest first."""
    left = dict(zip((v for v, _ in runs), counts))
    u_side = []
    for i, d in enumerate(ds.degrees):
        if left.get(d):
            left[d] -= 1
            u_side.append(i)
    return split_with_u(ds, u_side)


def _count_walk(sigma: int, runs: list[tuple[int, int]],
                live: Callable[[int, int, int], bool] | None = None
                ) -> Iterator[tuple[int, ...]]:
    """Every U count vector (k_0, ..., k_{d-1}) over the d (value, count)
    ``runs`` (largest value first, as ``core._value_runs`` gives
    them) whose U side sums to sigma/2, on bitsets built when it starts.

    The walk takes the runs in order and, for each, the U count from the
    largest that fits down to 0, depth first.  It enters count k of run i
    only when the remainder after it is in the run DP's bitset of the runs
    after i, so it drops only dead subtrees: the count vectors and their
    order are those of the unpruned search.  A node's counts start where
    the remainder fits in what the runs after it make (``most``), so no
    count is tried that the bitset test would fail for that reason alone.
    Of those d bitsets every B-th is kept, B = ``_block(d - 1, m)`` (m
    nonzero degrees), and the block of B the walk is in is rebuilt from it
    as bytes, so a test is O(1) and the rows held and checkpoints fit
    2*ceil(sqrt(m)) + 2 bitsets, O(sqrt(m)*sigma) bits; one block, built
    once, if d < 2*ceil(sqrt(m)) + 2.  If they could pass
    ``MAX_WALK_BITS``, at sigma/2 + 1 bits each, it raises SizeLimitError
    before building any.  Each row is cut to its own bit
    length: row j holds only the sums up to what the last j runs make, the
    small values, so the n' = 1604 stall's three rows take 44 KB, not
    139 KB.  The walk keeps an explicit stack, not bounded by the recursion
    limit, and the counts of the current branch in one list, ``path``.

    The count vectors strictly decrease lexicographically, and the
    complement k_t -> c_t - k_t maps them onto themselves and reverses
    that order: every count vector above its complement comes before every
    one below its own, a mirror met before, which both exact searches skip.

    ``live(i, rem, k)`` is called on each node the walk pops, in walk order
    (runs 0..i-1 assigned, remainder ``rem``, k values of run i - 1 on U,
    0 at the root), before the node is expanded or, at i = d, yielded; a
    node it fails is dropped with its subtree.  With
    ``gale_ryser._gale_ryser_bound`` the walk yields exactly the count
    vectors that pass Gale–Ryser, in the unpruned order, as that test drops
    only subtrees without one.  Without ``live`` the walk is not pruned on
    Gale–Ryser: ``oracle`` reads it so, and the benchmark confirms
    ``decide_exact``'s NotBipartite verdicts with that oracle, so the
    oracle must not share ``decide_exact``'s bound until an independent
    checker of those verdicts exists.
    """
    if sigma % 2:
        return
    target = _half_sum(sigma)
    mask = (2 << target) - 1
    d, m = len(runs), sum(c for _, c in runs)
    back = runs[:0:-1]  # sums j < d: what the last j runs make; j = d is never tested
    most = list(accumulate((v * c for v, c in back), initial=0))
    block = _block(len(back), m)
    # the checkpoints and one block of rows, one row per position at most,
    # each of at most sigma/2 + 1 bits, refused before any is built
    bits = (len(back) // block + 1 + min(block, len(back) + 1)) * (target + 1)
    if bits > MAX_WALK_BITS:
        raise SizeLimitError(f"count walk of {bits} bits exceeds the limit of {MAX_WALK_BITS}")
    base = len(back) - len(back) % block  # the last block, where the walk starts
    checkpoints, rows = [], []
    for j, reach in enumerate(_run_sums(back, mask)):
        if j % block == 0:
            checkpoints.append(reach)
        if j >= base:
            rows.append(_as_bytes(reach))
    path = [0] * d  # path[t]: run t's U count on the branch being walked
    # (run, remainder, U count of run i - 1) of the nodes still to walk
    stack = [(0, target, 0)]
    while stack:
        i, rem, k = stack.pop()
        if live is not None and not live(i, rem, k):
            continue
        if i:
            path[i - 1] = k
        if i == d:  # rem == 0: the last bitset holds only the sum 0
            yield tuple(path)
            continue
        j = d - 1 - i  # the runs after i are the last j
        if not 0 <= j - base < len(rows):
            base = j - j % block
            rows.clear()  # the old block goes before the new one is built
            rows.extend(map(_as_bytes, _run_sums(back[base:base + block - 1], mask,
                                                 checkpoints[base // block])))
        (v, c), row = runs[i], rows[j - base]
        # pushed smallest first, so the largest count is popped first;
        # a count below ceil((rem - most[j]) / v) leaves more than the
        # last j runs make
        for k in range(max(0, (rem - most[j] + v - 1) // v), min(c, rem // v) + 1):
            x = rem - k * v
            if x >> 3 < len(row) and row[x >> 3] >> (x & 7) & 1:
                stack.append((i + 1, x, k))


def count_runs(runs: list[tuple[int, int]],
               counts: tuple[int, ...]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The U and V sides of the count vector ``counts`` over ``runs`` as
    (value, count) runs, zero counts included.  A side that takes a whole
    run shares its tuple."""
    u, v = [], []
    for run, k in zip(runs, counts):
        value, c = run
        u.append(run if k == c else (value, k))
        v.append(run if k == 0 else (value, c - k))
    return u, v


def enumerate_equal_sum_splits(ds: DegreeSequence) -> Iterator[SplitWitness]:
    """Yield every distinct unordered equal-sum split once, the first
    nonzero index on U.

    The splits come by U count vector, in the order of ``_count_walk``.
    Each count vector stands for the index sets that take, from each
    value's indices, ``itertools.combinations`` of its U count, lowest
    indices first, the last value's varying fastest; of those, the ones
    that hold the first nonzero index are yielded, so a split's complement
    never is.  An all-zero sequence has one split, with
    every index on U.
    """
    runs = _value_runs(ds.degrees)
    indices: dict[int, list[int]] = {v: [] for v, _ in runs}
    for i, d in enumerate(ds.degrees):
        if d:
            indices[d].append(i)
    lead = next((i for i, d in enumerate(ds.degrees) if d), None)
    for counts in _count_walk(ds.sigma, runs):
        for sets in product(*(combinations(indices[v], k) for (v, _), k in zip(runs, counts))):
            u_side = list(chain.from_iterable(sets))
            if lead is None or lead in u_side:
                yield split_with_u(ds, u_side)
