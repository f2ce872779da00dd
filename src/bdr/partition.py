"""Equal-sum splitting: a greedy balance, and subset-sum dynamic programming.

``balanced_split`` puts the degrees, largest first, on the lighter side and
closes the final gap with at most one swap, in O(n log n); it may find no
split where one exists.  ``decide_bdr`` returns its split in the low
region and calls ``find_equal_sum_split`` only when it finds none: the
count walk's first U count vector (below), each value's U count on its
lowest indices, or None if no split exists.

Each DP runs over a bitset of achievable sums (a Python int) capped at
sigma/2.  ``_subset_sums`` adds one item per step; ``_run_sums`` adds one
(value, count) run per step, its count split in binary parts 1, 2, 4, ...,
rest (the paper's bounded subset-sum).  Deciding existence keeps one
bitset of the run DP, O(sigma) bits.  The split walk makes one checkpoint
pass of the item DP over its m items (``_checkpoints``), keeping every
ceil(sqrt(m))-th bitset, O(sqrt(m)*sigma) bits, and rebuilds one block
from them at a time.  Splits are unordered; the split walk canonicalizes
by keeping the first nonzero entry on the U side and has no limit (a
caller that needs one stops iterating).  A caller may pass it a branch
test that drops include branches whole and reads a branch's first leaf in
the same blocks; ``decide_exact`` drops those without an accepted split
that way.  The count-vector walk yields U count vectors over the distinct
nonzero degrees instead, pruned on the run DP's suffix bitsets,
checkpointed to fit the split walk's rows, and as often as asked, in a box
of counts per run if given, on one set of bitsets (``_count_walk``).  Both
walks keep O(sqrt(m)*sigma) bits (m nonzero degrees), enter only subtrees
that hold a split and key a count vector in the same mixed radix over the
same (value, count) runs (``count_runs`` decodes it).  ``decide_exact``
also walks the count vectors with a Gale–Ryser bound that drops subtrees
without a bigraphic one; ``count_vector_walk`` stays unpruned for the
oracle.
``half_sum_sets`` counts the index sets of sum sigma/2, saturating, in one
item DP over Kronecker-packed counts.
A split is its two index tuples, U and V, each increasing.  Zero degrees
are never part of a subset key: ``split_with_u`` puts every one of them on
the U side, for every split this module returns, and checks that the two
sides' sums are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress
from math import comb, isqrt, prod
from operator import not_
from typing import Callable, Iterable, Iterator

from .core import DegreeSequence
from .errors import InvariantError
from .gale_ryser import _value_runs


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
    for i in sorted(filter(deg.__getitem__, range(ds.n)), key=lambda i: -deg[i]):
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


def _run_sums(runs: Iterable[tuple[int, int]], target: int, reach: int = 1) -> Iterator[int]:
    """For each prefix of the (value, count) ``runs``, the empty one first,
    the bitset of the sums a + t up to ``target``, a in ``reach`` ({0} by
    default) and t made of the prefix, each value at most its count times."""
    cap = (1 << (target + 1)) - 1
    reach &= cap
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
    """The split of the count walk's first key, or None if there is none.

    The key is the first U count vector of ``count_vector_walk``; for each
    value, U takes that many of its indices, the lowest first.
    """
    runs = _value_runs(ds.degrees)
    key = next(_count_walk(ds.sigma, runs)(), None)
    if key is None:
        return None
    left = dict(count_runs(runs, key)[0])
    u_side = []
    for i, d in enumerate(ds.degrees):
        if left.get(d):
            left[d] -= 1
            u_side.append(i)
    return split_with_u(ds, u_side)


# branch(t, lo, hi, first) of the split walk; see ``equal_sum_walk``
Branch = Callable[[int, int, int, Callable[[], tuple[int, int]]], "int | bool | None"]


def equal_sum_walk(ds: DegreeSequence, branch: Branch | None = None) -> tuple[
        list[tuple[int, int]], Iterator[tuple[int, int]]]:
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
    kept at every ceil(sqrt(m))-th position (m nonzero degrees); the block
    the walk is in is rebuilt from its checkpoint as bytes, cut to the sums
    up to the remainder at the root of the subtree being walked (no test
    below it asks for more), so a test is O(1) in O(sqrt(m)*sigma) bits.

    With ``branch``, the walk asks it before it enters an include branch:
    ``branch(t, lo, hi, first)``, with t the run of the item, ``lo`` the
    key of the branch's U side and ``hi`` that key plus the open items, so
    every count vector of the branch lies in the box lo <= k <= hi, digit
    by digit; ``first()`` is the branch's first leaf, found by its
    include-first descent in the same blocks.  False drops the branch (its
    leaves are not yielded) and None enters it without asking again below
    it; the walk then descends on its own, the path of ``first()`` once
    more.  A key in the box enters it as a target: below, the walk enters
    each include branch whose box holds the target without asking, and
    keeps no pending exclude branch for a branch entered so, as it assumes
    that the caller stops at a leaf there.
    """
    runs = _value_runs(ds.degrees)
    return runs, _leaves(ds, runs, branch)


def _leaves(ds: DegreeSequence, runs: list[tuple[int, int]],
            branch: Branch | None) -> Iterator[tuple[int, int]]:
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
    rows: list[bytes] = []
    # no closure here: a variable that one reads becomes a cell, slower to
    # read in the loops below, and the block is rebuilt without a partial
    if branch is not None:
        run_of = dict(zip((v for v, _ in runs), range(len(runs))))
        run = [run_of[d] for d in deg]
        radix = [c + 1 for _, c in runs]
        radix = [radix[t] for t in run]  # one int object per run, not per item
        aim = None  # the key the caller last named, in the box of the node
        window = [0, -1]  # base and hi of rows, as _descend finds and leaves them
        descend = partial(_descend, rows, deg, block, checkpoints, step, at, window)
    base, hi = 0, -1
    # (i, rem, key, mask) of the live nodes still to walk: the root, then
    # each pending exclude branch; a node popped with quiet or more nodes
    # below it on the stack is walked without asking branch
    stack = [(m - 1, target - deg[m - 1], step[m - 1], 1 << at[m - 1])]
    quiet = 0 if branch is None else m
    while stack:
        i, rem, key, mask = stack.pop()
        root = rem  # no sum tested in this subtree is larger
        if len(stack) >= quiet:
            while rem:  # a live node with rem > 0 has an open item
                i -= 1
                if not (0 <= i - base < len(rows) and rem <= hi):
                    base, hi = _rebuild(rows, deg, block, checkpoints, i, root), root
                row = rows[i - base]
                x = rem - deg[i]
                if x >= 0 and row[x >> 3] >> (x & 7) & 1:
                    if row[rem >> 3] >> (rem & 7) & 1:
                        stack.append((i, rem, key, mask))
                    rem, key, mask = x, key + step[i], mask | 1 << at[i]
            yield key, mask
            continue
        while rem:
            i -= 1
            if not (0 <= i - base < len(rows) and rem <= hi):
                base, hi = _rebuild(rows, deg, block, checkpoints, i, root), root
            row = rows[i - base]
            x = rem - deg[i]
            if x >= 0 and row[x >> 3] >> (x & 7) & 1:
                if not (aim is not None and (aim - key) // step[i] % radix[i]):
                    out = row[rem >> 3] >> (rem & 7) & 1  # the exclude branch is live
                    lo, bit = key + step[i], 1 << at[i]
                    window[:] = base, hi
                    enter = branch(run[i], lo, lo + sum(step[:i]),
                                   partial(descend, i, x, lo, mask | bit))
                    base, hi = window  # the descent may have rebuilt the block
                    if enter is False:
                        if out:
                            continue
                        break
                    if enter is None:
                        # the include branch, then the rest, without asking
                        if out:
                            stack.append((i, rem, key, mask))
                        quiet = len(stack)
                        stack.append((i, x, lo, mask | bit))
                        break
                    aim = enter
                rem, key, mask = x, key + step[i], mask | 1 << at[i]
        else:
            yield key, mask


def _rebuild(rows: list[bytes], deg: list[int], block: int, checkpoints: list[int],
             i: int, root: int) -> int:
    """Make ``rows`` the split walk's block holding reach[i], as bytes, cut to
    the sums up to root; its first position."""
    base = i - i % block
    # each new row replaces an old one, so one block is held; the old block
    # freed whole first made the n' = 1604 stall 17 % slower, as its memory
    # was not reused in place
    for j, r in enumerate(_subset_sums(deg[base:base + block], root, checkpoints[base // block])):
        r = r.to_bytes((root >> 3) + 1, "little")
        if j < len(rows):
            rows[j] = r
        else:
            rows.append(r)
    del rows[j + 1:]
    return base


def _descend(rows: list[bytes], deg: list[int], block: int, checkpoints: list[int],
             step: list[int], at: list[int], window: list[int],
             i: int, rem: int, key: int, mask: int) -> tuple[int, int]:
    """The split walk's first leaf below the node that has just taken item
    i, as (key, mask): its include-first descent, in the walk's block
    (``window`` holds its position and cut)."""
    base, hi = window
    while rem:
        i -= 1
        if not (0 <= i - base < len(rows) and rem <= hi):
            base, hi = _rebuild(rows, deg, block, checkpoints, i, rem), rem
        row = rows[i - base]
        x = rem - deg[i]
        if x >= 0 and row[x >> 3] >> (x & 7) & 1:
            rem, key, mask = x, key + step[i], mask | 1 << at[i]
    window[:] = base, hi
    return key, mask


def count_vector_walk(ds: DegreeSequence) -> tuple[list[tuple[int, int]], Iterator[int]]:
    """The distinct nonzero degrees as (value, count) runs, largest first,
    and the mixed-radix key (``count_runs``) of every U count vector over
    them whose U side sums to sigma/2.

    The walk takes the runs in order and, for each, the U count from the
    largest that fits down to 0, depth first.  It enters count k of run i
    only when the remainder after it is in the run DP's bitset of the runs
    after i, so it drops only dead subtrees: the count vectors and their
    order are those of the unpruned search.  Of those d bitsets (d runs)
    every B-th is kept, and the block of B the walk is in is rebuilt from
    it as bytes, so a test is O(1).  B is the largest block whose
    checkpoints and rows fit the split walk's 2*ceil(sqrt(m)) + 2 rows (m
    nonzero degrees): O(sqrt(m)*sigma) bits, and one block, built once, if
    d <= 2*ceil(sqrt(m)) + 2.  A count vector and its complement both
    appear; no nonzero degree gives the one empty count vector.  The walk
    keeps an explicit stack, not bounded by the recursion limit.

    This walk is not pruned on Gale–Ryser: ``oracle`` reads it, and the
    benchmark confirms ``decide_exact``'s NotBipartite verdicts with that
    oracle, so the oracle must not share ``decide_exact``'s bound until an
    independent checker of those verdicts exists.
    """
    runs = _value_runs(ds.degrees)
    return runs, _count_walk(ds.sigma, runs)()


# live(i, rem, k) of the count walk; see ``_count_walk``
Live = Callable[[int, int, int], "bool | None"]


def _count_walk(sigma: int, runs: list[tuple[int, int]]) -> Callable[..., Iterator[int]]:
    """``walk(live=None, lo=None, hi=None)``: the count walk of
    ``count_vector_walk`` over ``runs``, as often as called, on one set of
    suffix bitsets built here.

    With ``lo`` and ``hi`` (a count per run) the walk gives run t only the
    U counts lo[t]..hi[t].  ``live(i, rem, k)`` is called on each node the
    walk pops, in walk order (runs 0..i-1 assigned, remainder ``rem``, k
    values on U), before the node is expanded or, at i = len(runs),
    yielded; a node it fails is dropped with its subtree, and None ends the
    walk.  With ``gale_ryser._gale_ryser_bound`` the walk yields exactly
    the count vectors that pass Gale–Ryser, in the unpruned order, as that
    test drops only subtrees without one.  The suffix bitsets count every
    run whole, so in a box the walk may enter a node with no count vector
    below it, which costs nodes but no key.  Row j holds only the sums up to what the
    last j runs make, the small values: the n' = 1604 stall's three rows
    take 44 KB, not 139 KB, which lets ``decide_exact`` keep them while it
    walks the splits.
    """
    if sigma % 2:
        return lambda live=None, lo=None, hi=None: iter(())
    target = sigma // 2
    d, m = len(runs), sum(c for _, c in runs)
    back = runs[:0:-1]  # sums j < d: what the last j runs make; j = d is never tested
    limit = 2 * isqrt(m - 1) + 4 if m else 2  # the split walk's rows
    # len(back) // block checkpoints (the first, {0}, is free) and one block
    block = next(b for b in range(limit, 0, -1) if b + len(back) // b <= limit)
    base = len(back) - len(back) % block  # the last block, where the walk starts
    checkpoints, rows = [], []
    for j, reach in enumerate(_run_sums(back, target)):
        if j % block == 0:
            checkpoints.append(reach)
        if j >= base:
            rows.append(reach.to_bytes((reach.bit_length() >> 3) + 1, "little"))
    places = _places(runs)

    def walk(live: Live | None = None, lo: list[int] | None = None,
             hi: list[int] | None = None) -> Iterator[int]:
        nonlocal base
        # (run, remainder, key so far, U count so far) of the nodes still to walk
        stack = [(0, target, 0, 0)]
        while stack:
            i, rem, key, k_u = stack.pop()
            if live is not None:
                ok = live(i, rem, k_u)
                if not ok:
                    if ok is None:
                        return
                    continue
            if i == d:  # rem == 0: the last bitset holds only the sum 0
                yield key
                continue
            j = d - 1 - i  # the runs after i are the last j
            if not 0 <= j - base < len(rows):
                base = j - j % block
                rows.clear()  # the old block goes before the new one is built
                rows.extend(r.to_bytes((r.bit_length() >> 3) + 1, "little") for r in
                            _run_sums(back[base:base + block - 1], target,
                                      checkpoints[base // block]))
            (v, c), place, row = runs[i], places[i], rows[j - base]
            low, high = (0, c) if lo is None else (lo[i], hi[i])
            # pushed smallest first, so the largest count is popped first
            for k in range(low, min(high, rem // v) + 1):
                x = rem - k * v
                if x >> 3 < len(row) and row[x >> 3] >> (x & 7) & 1:
                    stack.append((i + 1, x, key + k * place, k_u + k))

    return walk


def half_sum_sets(ds: DegreeSequence, limit: int) -> int:
    """min(N, 2**b), b = limit.bit_length(), where N counts the index sets
    of the nonzero degrees that sum to sigma/2 (twice the splits, if any):
    more than ``limit`` iff N is.

    One pass over the items on a Kronecker-packed polynomial, the count of
    each sum 0..sigma/2 in a slot of b + 2 bits: shift-add, then every slot
    past 2**b is clamped to it, so no slot overflows and each holds
    min(its count, 2**b).  O(n*sigma*b) bit operations.
    """
    if ds.sigma % 2:
        return 0
    target = ds.sigma // 2
    b = limit.bit_length()
    w = b + 2
    ones = ((1 << w * (target + 1)) - 1) // ((1 << w) - 1)  # bit 0 of each slot
    cap = (ones << w) - ones  # every bit of every slot
    top = ones << b  # 2**b in each slot
    high = top * 3  # bits b and b + 1 of each slot
    sets = 1  # the empty set, of sum 0
    for d in ds.degrees:
        if d:
            sets = (sets + (sets << w * d)) & cap
            over = sets & high
            if over:
                over = (over | over >> 1) & top  # 2**b in each slot past it
                sets = sets & ~((over << 2) - (over >> b)) | over
    return sets >> w * target


def half_sum_sets_exceed(ds: DegreeSequence, limit: int,
                         walk: Callable[..., Iterator[int]]) -> bool:
    """Whether more than ``limit`` index sets of the nonzero degrees sum to
    sigma/2.

    Two exact ways, the cheaper by a bit count: ``half_sum_sets`` shifts n
    integers of (sigma/2 + 1)*(b + 2) bits (n nonzero degrees, b =
    limit.bit_length()); the count-vector walk adds up each key's
    prod C(c_i, k_i) index sets and stops past ``limit``, after at most
    limit + 1 keys of d runs, each run taken as a 64-bit word.  The count
    wins on short inputs with large limits, the walk on long ones with small
    limits (1..2000 with limit 2: three keys, against seconds of shifts).
    ``walk`` is a ``_count_walk`` of ``ds``, the caller's, so its bitsets
    are built once.
    """
    runs = _value_runs(ds.degrees)
    n = sum(c for _, c in runs)
    if n * (ds.sigma // 2 + 1) * (limit.bit_length() + 2) <= 64 * len(runs) * (limit + 1):
        return half_sum_sets(ds, limit) > limit
    sets = 0
    for key in walk():
        sets += prod(map(comb, (c for _, c in runs), (k for _, k in count_runs(runs, key)[0])))
        if sets > limit:
            return True
    return False


def count_runs(runs: list[tuple[int, int]],
               key: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The U and V sides of the count vector ``key`` over ``runs`` (from
    ``equal_sum_walk`` or ``count_vector_walk``) as (value, count) runs,
    zero counts included.  A side that takes a whole run shares its tuple."""
    u, v = [], []
    for run in runs:
        value, c = run
        key, k = divmod(key, c + 1)
        u.append(run if k == c else (value, k))
        v.append(run if k == 0 else (value, c - k))
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
