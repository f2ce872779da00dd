"""Bigraphicality testing and constructive bipartite realization.

Both take the degrees of the two vertex classes U and V as two int
sequences.  The Gale–Ryser test works on their (value, count) runs.
Realizations are immutable per-u neighbor tuples; hinge-flips return new
values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import lt
from typing import Iterable, Iterator, Sequence

from .errors import InvalidMoveError, InvariantError


@dataclass(frozen=True)
class BipartiteRealization:
    """A simple bipartite graph: ``neighbors[u]`` holds the v-indices adjacent
    to u-vertex u, strictly increasing and in ``range(v_count)``."""

    v_count: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for u, nbrs in enumerate(self.neighbors):
            if nbrs and not (0 <= nbrs[0] and nbrs[-1] < self.v_count
                             and all(map(lt, nbrs, nbrs[1:]))):
                raise ValueError(f"u-vertex {u}: neighbors {nbrs} out of order or range")

    @property
    def u_count(self) -> int:
        return len(self.neighbors)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    def u_degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.neighbors))

    def v_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.v_count
        for nbrs in self.neighbors:
            for v in nbrs:
                deg[v] += 1
        return tuple(deg)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nbrs in enumerate(self.neighbors) for v in nbrs]


def _gale_ryser_runs(a, b) -> bool:
    """Gale–Ryser on (value, count) runs in non-increasing value order;
    zero counts, zero values and equal adjacent values are allowed.

    Equal sums, then sum_{i<=k} a_i <= sum_j min(k, b_j) at each run end k
    of ``a``; the run ends cover its drop points and k = n.  The right side
    is k·(count of b above k) + (sum of b at or below k), kept by one
    pointer moving up b's runs: O(runs(a) + runs(b)), no sort.
    """
    if sum([v * c for v, c in a]) != sum([v * c for v, c in b]):
        return False
    j = len(b)  # b[j:] are the runs of value <= k
    above = sum([c for _, c in b])
    low = k = lhs = 0
    for v, c in a:
        k += c
        lhs += v * c
        while j and b[j - 1][0] <= k:
            j -= 1
            w, m = b[j]
            above -= m
            low += w * m
        if lhs > k * above + low:
            return False
    return True


def _value_runs(degrees: Iterable[int]) -> list[tuple[int, int]]:
    """The distinct nonzero degrees as (value, count) runs, largest first."""
    counts = Counter(degrees)
    counts.pop(0, None)
    return sorted(counts.items(), reverse=True)


def is_bigraphic(d1: Sequence[int], d2: Sequence[int]) -> bool:
    """Gale–Ryser on the runs of the two classes (``_gale_ryser_runs``)."""
    a, b = _value_runs(d1), _value_runs(d2)
    if a and a[-1][0] < 0 or b and b[-1][0] < 0:
        return False  # a negative degree (the last run) has no realization
    return _gale_ryser_runs(a, b)


def _push_run(runs: list[tuple[int, list[int]]], r: int, vs: list[int]) -> None:
    """Append the run (r, vs) below ``runs``: dropped at residual 0, merged
    into the last run when that has residual r."""
    if not r:
        return
    if runs and runs[-1][0] == r:
        runs[-1] = (r, sorted(runs[-1][1] + vs))
    else:
        runs.append((r, vs))


def construct_realization(d1: Sequence[int],
                          d2: Sequence[int]) -> BipartiteRealization | None:
    """Greedy realization of the U degrees ``d1`` and the V degrees ``d2``;
    None signals a non-bigraphic pair.

    u-vertices are processed in non-increasing degree order (stable); each
    connects to the v-vertices of highest residual degree, ties to the
    lowest index.  Output degrees match the input lists in their original
    index order.

    The v-vertices of positive residual are kept as runs, (residual,
    increasing indices) in strictly decreasing residual, which is the
    (-residual, index) order.  A u-vertex takes whole runs from the top and
    the lowest-index prefix of the boundary run; after the decrement only
    the runs on either side of the boundary can share a residual, and they
    are merged.  The cost is O(sigma + n) list work plus those merges, with
    no per-vertex sort key.
    """
    if sum(d1) != sum(d2):
        return None
    by_residual: dict[int, list[int]] = {}
    for v, r in enumerate(d2):
        if r:
            by_residual.setdefault(r, []).append(v)
    runs = sorted(by_residual.items(), reverse=True)
    neighbors = [()] * len(d1)
    for u in sorted(range(len(d1)), key=lambda i: -d1[i]):
        need = d1[u]
        if need == 0:
            break  # every later u-vertex has degree 0 too
        chosen: list[int] = []
        head: list[tuple[int, list[int]]] = []  # replaces runs[:k]
        k = 0
        while need:
            if k == len(runs):
                return None
            r, vs = runs[k]
            k += 1
            if len(vs) <= need:
                chosen += vs
                need -= len(vs)
                _push_run(head, r - 1, vs)
            else:
                chosen += vs[:need]
                _push_run(head, r, vs[need:])
                _push_run(head, r - 1, vs[:need])
                need = 0
        if k < len(runs) and head and head[-1][0] == runs[k][0]:
            _push_run(head, *runs[k])
            k += 1
        runs[:k] = head
        neighbors[u] = tuple(sorted(chosen))
    if runs:
        return None
    return BipartiteRealization(len(d2), tuple(neighbors))


def hinge_flip(g: BipartiteRealization, u1: int, u2: int, v: int) -> BipartiteRealization:
    """Move the edge (u1, v) to (u2, v)."""
    if u1 == u2 or not (0 <= min(u1, u2) and max(u1, u2) < g.u_count):
        raise InvalidMoveError(f"need distinct u1, u2 in range({g.u_count}), got {u1}, {u2}")
    if v not in g.neighbors[u1]:
        raise InvalidMoveError(f"edge ({u1}, {v}) not present")
    if v in g.neighbors[u2]:
        raise InvalidMoveError(f"edge ({u2}, {v}) already present")
    neighbors = list(g.neighbors)
    neighbors[u1] = tuple(w for w in neighbors[u1] if w != v)
    neighbors[u2] = tuple(sorted(neighbors[u2] + (v,)))
    return BipartiteRealization(g.v_count, tuple(neighbors))


def balancing_hinge_flip(g: BipartiteRealization, i: int, j: int) -> BipartiteRealization:
    """Shift one unit of degree from u_j to u_i; requires deg(u_i) < deg(u_j) - 1.

    The lowest-index v adjacent to u_j but not to u_i is used; one exists by
    pigeonhole whenever the precondition holds.
    """
    if not (0 <= min(i, j) and max(i, j) < g.u_count):
        raise InvalidMoveError(f"need i, j in range({g.u_count}), got {i}, {j}")
    deg = g.u_degrees()
    if not deg[i] < deg[j] - 1:
        raise InvalidMoveError(
            f"need deg(u_{i}) < deg(u_{j}) - 1, got {deg[i]} and {deg[j]}")
    nbr_i = set(g.neighbors[i])
    for v in g.neighbors[j]:
        if v not in nbr_i:
            return hinge_flip(g, j, i, v)
    raise InvariantError("no eligible v found; contradicts the pigeonhole argument")


def edge_chunks(g: BipartiteRealization, head: str, tail: str,
                sep: str) -> Iterator[str]:
    """Render the edges in (u, v) order without building any (u, v) pair.

    Edge (u, v) reads ``head.format(u) + str(v) + tail``.  One chunk is
    yielded per u-vertex with edges, its edges separated by ``sep``; joined
    by ``sep``, the chunks give the whole edge list.
    """
    names = [str(v) for v in range(g.v_count)]
    for u, nbrs in enumerate(g.neighbors):
        if nbrs:
            first = head.format(u)
            yield first + (tail + sep + first).join(map(names.__getitem__, nbrs)) + tail


def format_realization(g: BipartiteRealization) -> str:
    """CLI text format: header line then one "u v" line per edge."""
    header = f"p bipartite {g.u_count} {g.v_count} {sum(g.u_degrees())}"
    return "\n".join([header, *edge_chunks(g, "{} ", "", "\n")])
