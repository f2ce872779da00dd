import gc
import tracemalloc
from collections import Counter

import pytest
from hypothesis import strategies as st

from bdr import BipartiteRealization

# 8 to 16 mostly distinct values, an odd sum evened out with a 1: at least
# 2*ceil(sqrt(m)) + 2 distinct degrees (m nonzero ones), more than the
# count walk's block + 1 rows and checkpoints past {0} hold in one block
# (``partition._block``), so that the count-vector walk rebuilds a block
# other than the one it starts in, for about three draws in four
MANY_DISTINCT = st.lists(st.integers(0, 40), min_size=8, max_size=16).map(
    lambda s: s + [1] if sum(s) % 2 else s)


def pack(v_count, rows):
    """The realization whose u-vertex u is adjacent to the distinct
    v-indices ``rows[u]``, each row packed bit by bit into its bitset."""
    return BipartiteRealization(v_count, [sum(1 << v for v in row) for row in rows])


def decoded_rows(g):
    """Per u-vertex of ``g``, the increasing tuple of the set bits of its
    row, read digit by digit from ``bin(row)``; each distinct row once."""
    decoded = {row: tuple(v for v, digit in enumerate(bin(row)[:1:-1]) if digit == "1")
               for row in set(g.rows)}
    return tuple(map(decoded.__getitem__, g.rows))


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of calling ``run``.  A collection
    first empties CPython's free lists, so that objects freed by earlier
    tests are not counted."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _degree_multisets(n):
    """Sorted degree tuples of all labeled simple graphs on n vertices.

    The vertices are taken one at a time; the first joins each subset of
    the others, then its degree is final.  A state is (sorted final
    degrees, sorted partial degrees of the untouched vertices): the untouched
    vertices are interchangeable, since every graph on them is still to come.
    """
    states = {((), (0,) * n)}
    for _ in range(n):
        following = set()
        for done, waiting in states:
            first, rest = waiting[0], waiting[1:]
            for mask in range(1 << len(rest)):
                joined = [d + (mask >> i & 1) for i, d in enumerate(rest)]
                final = first + sum(joined) - sum(rest)
                following.add((tuple(sorted(done + (final,))), tuple(sorted(joined))))
        states = following
    return {done for done, _ in states}


def _partitions(rem, largest):
    if rem == 0:
        yield ()
        return
    for first in range(min(rem, largest), 0, -1):
        for rest in _partitions(rem - first, first):
            yield (first,) + rest


def reduction_corpus(max_sum):
    """The reduction's sources: zero-free multisets, non-increasing, with
    even S <= max_sum and every degree < S/2."""
    return [p for s in range(4, max_sum + 1, 2) for p in _partitions(s, s // 2 - 1)]


@pytest.fixture(scope="session")
def graphic_multisets():
    """``graphic_multisets(n)``: the degree multisets, sorted ascending, of
    all labeled simple graphs on n vertices, found by enumerating graphs."""
    return _degree_multisets


@pytest.fixture(scope="session")
def graphic_multisets_7(graphic_multisets):
    """Degree multisets of all labeled simple graphs on 7 vertices; sequences
    of length < 7 are looked up after zero-padding (isolated vertices are
    free)."""
    return graphic_multisets(7)


def _unpruned_splits(degrees):
    """The U indices, zeros left out, of every equal-sum split in the order
    of the unpruned walk: the nonzero indices in increasing order, the first
    one fixed on U, include before exclude, depth first, a split yielded as
    soon as its U side reaches sigma/2.  Every subtree is entered unless its
    remainder exceeds what the items after it sum to."""
    sigma = sum(degrees)
    if sigma % 2:
        return
    target = sigma // 2
    nz = [i for i, d in enumerate(degrees) if d > 0]
    if not nz:
        yield ()
        return
    suffix = [0] * (len(nz) + 1)
    for i in range(len(nz) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + degrees[nz[i]]
    stack = [(1, target - degrees[nz[0]], (nz[0],))]
    if stack[0][1] < 0:
        return
    while stack:
        pos, rem, chosen = stack.pop()
        if rem == 0:
            yield chosen
            continue
        if pos >= len(nz) or rem > suffix[pos]:
            continue
        stack.append((pos + 1, rem, chosen))
        d = degrees[nz[pos]]
        if d <= rem:
            stack.append((pos + 1, rem - d, chosen + (nz[pos],)))


@pytest.fixture(scope="session")
def unpruned_splits():
    """``unpruned_splits(degrees)``: the reference split walk, unpruned."""
    return _unpruned_splits


def _unpruned_count_vectors(degrees):
    """The (U, V) sides, as (value, count) runs over the distinct nonzero
    degrees largest first, of every count vector whose U side sums to
    sigma/2, in the order of the unpruned search: the values largest first,
    each count from the largest that fits down to 0, depth first.  Every
    subtree is entered unless its remainder exceeds what the values after
    it sum to."""
    sigma = sum(degrees)
    if sigma % 2:
        return
    counts = sorted(Counter(d for d in degrees if d > 0).items(), reverse=True)
    max_tail = [0] * (len(counts) + 1)
    for i in range(len(counts) - 1, -1, -1):
        max_tail[i] = max_tail[i + 1] + counts[i][0] * counts[i][1]

    def search(i, rem, chosen):
        if rem == 0 and i == len(counts):
            yield ([(v, k) for (v, _), k in zip(counts, chosen)],
                   [(v, c - k) for (v, c), k in zip(counts, chosen)])
            return
        if i == len(counts) or rem > max_tail[i]:
            return
        v, c = counts[i]
        for k in range(min(c, rem // v), -1, -1):
            yield from search(i + 1, rem - k * v, chosen + [k])

    yield from search(0, sigma // 2, [])


@pytest.fixture(scope="session")
def unpruned_count_vectors():
    """``unpruned_count_vectors(degrees)``: the reference count-vector
    search, unpruned, without Gale–Ryser."""
    return _unpruned_count_vectors
