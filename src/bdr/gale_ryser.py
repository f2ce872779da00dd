"""Bigraphicality testing and constructive bipartite realization.

The Gale–Ryser test is run at the drop points of the sorted first class
(plus k = n); the naive all-k scan stays available behind a flag for
differential testing.  Realizations are immutable; hinge-flips return new
values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .core import DegreeSequence
from .errors import InvalidMoveError, InvariantError


@dataclass(frozen=True)
class BipartitePair:
    """Degree sequences assigned to the two vertex classes U and V."""

    d1: DegreeSequence
    d2: DegreeSequence


@dataclass(frozen=True)
class BipartiteRealization:
    """A simple bipartite graph; edges are (u-index, v-index) pairs."""

    u_count: int
    v_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.u_count and 0 <= v < self.v_count):
                raise ValueError(f"edge ({u}, {v}) out of range")

    def u_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.u_count
        for u, _ in self.edges:
            deg[u] += 1
        return tuple(deg)

    def v_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.v_count
        for _, v in self.edges:
            deg[v] += 1
        return tuple(deg)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _gale_ryser_lists(d1: list[int] | tuple[int, ...], d2: list[int] | tuple[int, ...],
                      ks: Iterable[int] | None = None) -> bool:
    """Equal sums plus the Gale–Ryser inequality at each 1-based k in ``ks``
    (default: the drop points of the sorted first class, and k = n)."""
    a = sorted(d1, reverse=True)
    b = sorted(d2, reverse=True)
    if sum(a) != sum(b):
        return False
    n = len(a)
    if n == 0 or (a and a[0] == 0):
        return True
    prefix = [0] * (n + 1)
    for i, d in enumerate(a):
        prefix[i + 1] = prefix[i] + d
    m = len(b)
    bsuffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        bsuffix[i] = bsuffix[i + 1] + b[i]
    if ks is None:
        ks = [k for k in range(1, n) if a[k - 1] > a[k]] + [n]
    for k in ks:
        # sum_j min(k, b_j): entries > k contribute k, the rest their value
        idx = bisect_left(b, -k, key=lambda v: -v)
        rhs = idx * k + bsuffix[idx]
        if prefix[k] > rhs:
            return False
    return True


def is_bigraphic(pair: BipartitePair, *, check_all_k: bool = False) -> bool:
    """Gale–Ryser: equal sums plus the prefix inequalities on the first class."""
    ks = range(1, pair.d1.n + 1) if check_all_k else None
    return _gale_ryser_lists(pair.d1.degrees, pair.d2.degrees, ks)


def bipartite_to_unipartite(pair: BipartitePair) -> DegreeSequence:
    """Shift the first class by n-1 and concatenate; graphic iff the pair is
    bigraphic (provided every second-class degree is at most n)."""
    n = pair.d1.n
    return DegreeSequence(tuple(d + n - 1 for d in pair.d1.degrees) + pair.d2.degrees)


def construct_realization(pair: BipartitePair) -> BipartiteRealization | None:
    """Greedy realization; None signals a non-bigraphic pair.

    u-vertices are processed in non-increasing degree order; each connects
    to the v-vertices of highest residual degree, ties to the lowest index.
    Output degrees match the input lists in their original index order.
    """
    d1 = pair.d1.degrees
    d2 = pair.d2.degrees
    if sum(d1) != sum(d2):
        return None
    residual = list(d2)
    edges = []
    for u in sorted(range(len(d1)), key=lambda i: -d1[i]):
        need = d1[u]
        if need == 0:
            continue
        chosen = sorted(range(len(d2)), key=lambda j: (-residual[j], j))[:need]
        if len(chosen) < need or residual[chosen[-1]] == 0:
            return None
        for v in chosen:
            residual[v] -= 1
            edges.append((u, v))
    if any(residual):
        return None
    return BipartiteRealization(len(d1), len(d2), frozenset(edges))


def hinge_flip(g: BipartiteRealization, u1: int, u2: int, v: int) -> BipartiteRealization:
    """Move the edge (u1, v) to (u2, v)."""
    if u1 == u2:
        raise InvalidMoveError("u1 and u2 must differ")
    if (u1, v) not in g.edges:
        raise InvalidMoveError(f"edge ({u1}, {v}) not present")
    if (u2, v) in g.edges:
        raise InvalidMoveError(f"edge ({u2}, {v}) already present")
    return BipartiteRealization(g.u_count, g.v_count,
                                g.edges - {(u1, v)} | {(u2, v)})


def balancing_hinge_flip(g: BipartiteRealization, i: int, j: int) -> BipartiteRealization:
    """Shift one unit of degree from u_j to u_i; requires deg(u_i) < deg(u_j) - 1.

    The lowest-index v adjacent to u_j but not to u_i is used; one exists by
    pigeonhole whenever the precondition holds.
    """
    deg = g.u_degrees()
    if not deg[i] < deg[j] - 1:
        raise InvalidMoveError(
            f"need deg(u_{i}) < deg(u_{j}) - 1, got {deg[i]} and {deg[j]}")
    nbr_i = {v for u, v in g.edges if u == i}
    nbr_j = sorted(v for u, v in g.edges if u == j)
    for v in nbr_j:
        if v not in nbr_i:
            return hinge_flip(g, j, i, v)
    raise InvariantError("no eligible v found; contradicts the pigeonhole argument")


def format_realization(g: BipartiteRealization) -> str:
    """CLI text format: header line then one "u v" line per edge."""
    lines = [f"p bipartite {g.u_count} {g.v_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines)
