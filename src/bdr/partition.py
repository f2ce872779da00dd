"""Equal-sum splitting via subset-sum dynamic programming.

The DP runs over a bitset of achievable sums (a Python int), n shifts of
an O(sigma)-bit int.  Deciding existence keeps one bitset, O(sigma) bits;
finding a witness keeps every ceil(sqrt(n))-th prefix bitset,
O(sqrt(n)*sigma) bits, and returns the same split as a reconstruction from
all n+1 of them would.  Splits are unordered; enumeration canonicalizes by
keeping the first nonzero entry on the U side and has no limit (a caller
that needs one stops iterating).
A split is its two index tuples, U and V, each increasing.  Zero degrees
are never part of a subset key: ``split_with_u`` puts every one of them on
the U side, for every split this module returns.
"""

from __future__ import annotations

from collections import deque
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


def equal_sum_split_exists(ds: DegreeSequence) -> bool:
    """True iff some subset of the degrees sums to sigma/2."""
    sigma = ds.sigma
    if sigma % 2 != 0:
        return False
    target = sigma // 2
    reach = deque(_subset_sums(ds.degrees, target), maxlen=1).pop()
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
    checkpoints = []
    for i, reach in enumerate(_subset_sums(ds.degrees, target)):
        if i % block == 0:
            checkpoints.append(reach)
    if not reach >> target & 1:
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


def enumerate_equal_sum_splits(ds: DegreeSequence) -> Iterator[SplitWitness]:
    """Yield every distinct unordered equal-sum split.

    Canonical form: the first nonzero index is always on the U side.
    """
    sigma = ds.sigma
    if sigma % 2 != 0:
        return
    target = sigma // 2
    nz = [i for i, d in enumerate(ds.degrees) if d > 0]
    if not nz:
        yield split_with_u(ds, ())
        return
    suffix = [0] * (len(nz) + 1)
    for i in range(len(nz) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ds.degrees[nz[i]]

    # first nonzero entry fixed on the U side
    stack: list[tuple[int, int, list[int]]] = [(1, target - ds.degrees[nz[0]], [nz[0]])]
    if stack[0][1] < 0:
        return
    while stack:
        pos, rem, chosen = stack.pop()
        if rem == 0:
            yield split_with_u(ds, chosen)
            continue
        if pos >= len(nz) or rem > suffix[pos]:
            continue
        # exclude branch pushed first so include is explored first
        stack.append((pos + 1, rem, chosen))
        d = ds.degrees[nz[pos]]
        if d <= rem:
            stack.append((pos + 1, rem - d, chosen + [nz[pos]]))
    return
