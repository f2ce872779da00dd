"""Equal-sum splitting via subset-sum dynamic programming.

The DP runs over a bitset of achievable sums (a Python int).  Deciding
existence keeps one bitset, O(sigma) bits; finding a witness keeps one per
prefix of the degrees, n+1 bitsets or Theta(n*sigma) bits.  Splits are
unordered; enumeration canonicalizes by keeping the first nonzero entry on
the U side, and zero degrees are excluded from the subset keys and attached
to the U side afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import DegreeSequence


@dataclass(frozen=True)
class SplitWitness:
    """Per-index side labels (0 = U, 1 = V) and the common side sum."""

    side_assignment: tuple[int, ...]
    sum_each: int

    def u_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.side_assignment) if s == 0)

    def v_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.side_assignment) if s == 1)


def equal_sum_split_exists(ds: DegreeSequence) -> bool:
    """True iff some subset of the degrees sums to sigma/2."""
    sigma = ds.sigma
    if sigma % 2 != 0:
        return False
    target = sigma // 2
    cap = (1 << (target + 1)) - 1
    reach = 1
    for d in ds.degrees:
        reach = (reach | (reach << d)) & cap
    return bool(reach >> target & 1)


def find_equal_sum_split(ds: DegreeSequence) -> SplitWitness | None:
    """A witness via DP back-reconstruction, or None.

    Deterministic: at each reconstruction step the current item is excluded
    whenever the remaining sum is achievable without it.
    """
    sigma = ds.sigma
    if sigma % 2 != 0:
        return None
    target = sigma // 2
    cap = (1 << (target + 1)) - 1
    reachable = [1]
    for d in ds.degrees:
        reachable.append((reachable[-1] | (reachable[-1] << d)) & cap)
    if not reachable[-1] >> target & 1:
        return None
    labels = [0] * ds.n
    cur = target
    for i in range(ds.n - 1, -1, -1):
        d = ds.degrees[i]
        if reachable[i] >> cur & 1:
            labels[i] = 1 if d > 0 else 0  # zeros stay on the U side
        else:
            labels[i] = 0
            cur -= d
    assert cur == 0
    return SplitWitness(tuple(labels), target)


def enumerate_equal_sum_splits(ds: DegreeSequence,
                               limit: int | None = None) -> Iterator[SplitWitness]:
    """Yield distinct unordered equal-sum splits, up to ``limit``.

    Canonical form: the first nonzero index is always on the U side.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1 or None")
    sigma = ds.sigma
    if sigma % 2 != 0:
        return
    target = sigma // 2
    nz = [i for i, d in enumerate(ds.degrees) if d > 0]
    if not nz:
        yield SplitWitness((0,) * ds.n, 0)
        return
    suffix = [0] * (len(nz) + 1)
    for i in range(len(nz) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ds.degrees[nz[i]]

    emitted = 0

    def emit(chosen: list[int]) -> SplitWitness:
        labels = [0] * ds.n
        in_u = set(chosen)
        for i in nz:
            labels[i] = 0 if i in in_u else 1
        return SplitWitness(tuple(labels), target)

    # first nonzero entry fixed on the U side
    stack: list[tuple[int, int, list[int]]] = [(1, target - ds.degrees[nz[0]], [nz[0]])]
    if stack[0][1] < 0:
        return
    while stack:
        pos, rem, chosen = stack.pop()
        if rem == 0:
            yield emit(chosen)
            emitted += 1
            if limit is not None and emitted >= limit:
                return
            continue
        if pos >= len(nz) or rem > suffix[pos]:
            continue
        # exclude branch pushed first so include is explored first
        stack.append((pos + 1, rem, chosen))
        d = ds.degrees[nz[pos]]
        if d <= rem:
            stack.append((pos + 1, rem - d, chosen + [nz[pos]]))
    return
