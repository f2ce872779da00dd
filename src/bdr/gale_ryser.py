"""Bigraphicality testing and constructive bipartite realization.

Both take the degrees of the two vertex classes U and V as two int
sequences.  The Gale–Ryser test works on their (value, count) runs.
Realizations are immutable per-u neighbor tuples; hinge-flips return new
values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import add, index, lt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidMoveError, InvariantError


def _long_interval_ends(nbrs: tuple[int, ...]) -> list[int]:
    """The ends of the leading long intervals of the row ``nbrs``.

    An interval is a maximal stretch of consecutive values.  One of more
    than 2·bit_length(m) entries (m = len(nbrs)), about what a binary search
    for its end costs, is long; the walk stops at the first interval that
    is not, and the caller handles the rest of the row per entry.  As the
    bound is at least 8 once m > 8, callers skip every row whose first 9
    entries are not consecutive: it has none.

    On a strictly increasing row ``nbrs[q] - q`` is non-decreasing and
    constant exactly on an interval, so one test tells a short interval and
    a binary search finds the end of a long one: O(log m) per interval.  On
    any other row each end e still has ``nbrs[e - 1] - (e - 1)`` equal to
    the key at the interval's start, and a caller that has not proved the
    order must check each interval and each join itself.
    """
    m = len(nbrs)
    short = 2 * m.bit_length()
    ends = []
    p = 0
    while m - p > short and nbrs[p + short] - nbrs[p] == short:
        lo, hi = p + short, m - 1
        key = nbrs[lo] - lo
        if nbrs[hi] - hi == key:
            hi = m
        else:
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if nbrs[mid] - mid == key:
                    lo = mid
                else:
                    hi = mid
        ends.append(hi)
        p = hi
    return ends


@dataclass(frozen=True)
class BipartiteRealization:
    """A simple bipartite graph: ``neighbors[u]`` holds the v-indices adjacent
    to u-vertex u, strictly increasing and in ``range(v_count)``.

    Construction checks that invariant, and ``v_degrees`` relies on it.
    Both take a row of m entries by its leading intervals of consecutive
    v-indices (``_long_interval_ends``) and the rest per entry: a row of k
    long intervals costs O(k log m) steps (plus one C-level tuple
    comparison per interval in the check), and any other row what a
    per-entry pass costs plus O(1).
    """

    v_count: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # exact integers only: operator.index rejects floats, but takes bools
        if isinstance(self.v_count, bool):
            raise TypeError("v_count must be an integer, not bool")
        n = index(self.v_count)
        if n < 0:
            raise ValueError(f"negative v_count {n}")
        object.__setattr__(self, "v_count", n)
        # one C-level pass: a sum is an int only if every entry is one (the
        # interval checks below would take 5.0 for 5, as 5.0 == 5)
        if type(sum(map(sum, self.neighbors), 0)) is not int:
            u = next(u for u, nbrs in enumerate(self.neighbors) if type(sum(nbrs, 0)) is not int)
            raise TypeError(f"u-vertex {u}: neighbors {self.neighbors[u]} are not all integers")
        names = None  # tuple(range(n)), built at the first long interval
        for u, nbrs in enumerate(self.neighbors):
            rest = nbrs  # what the per-entry check must still prove
            if len(nbrs) > 8 and nbrs[8] - nbrs[0] == 8:
                p = 0
                for end in _long_interval_ends(nbrs):
                    if names is None:
                        names = tuple(range(n))
                    first = nbrs[p]
                    if (nbrs[p:end] != names[first:first + end - p]
                            or end < len(nbrs) and not nbrs[end - 1] < nbrs[end]):
                        break  # the per-entry check finds the fault
                    p = end
                rest = nbrs[p:]
            if nbrs and not (0 <= nbrs[0] and nbrs[-1] < n
                             and all(map(lt, rest, rest[1:]))):
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
        starts = [0] * (self.v_count + 1)  # +1 / -1 at each long interval's ends
        for nbrs in self.neighbors:
            if len(nbrs) > 8 and nbrs[8] - nbrs[0] == 8:
                p = 0
                for end in _long_interval_ends(nbrs):
                    starts[nbrs[p]] += 1
                    starts[nbrs[end - 1] + 1] -= 1
                    p = end
                nbrs = nbrs[p:]
            for v in nbrs:
                deg[v] += 1
        return tuple(map(add, deg, accumulate(starts)))

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


def _gale_ryser_bound(runs: list[tuple[int, int]],
                      half: int) -> Callable[[int, int, int], bool]:
    """A Gale–Ryser test for the nodes of a depth-first walk that assigns
    U counts k_t to the (value, count) ``runs`` (largest value first, as
    ``_value_runs`` gives them), U taking the sum ``half``.

    ``live(i, rem, k)`` is called for each node the walk enters, in walk
    order: runs 0..i-1 are assigned, U has k degrees of sum half - rem, and
    the call records them on the walk's path.  At a leaf (i = len(runs)) it
    is ``_gale_ryser_runs`` on the U and V runs.  Elsewhere it tests the
    inequality at U's newest run end, k: U's top k degrees are fixed, so
    the left side is half - rem; the right side is V's assigned degrees,
    each min(k, value), plus for runs i.. at most
    min(sum_{t>=i} min(k, v_t)*c_t, (sum of runs i..) - rem), V's share of
    them.  V's newest run end is tested the same way, with min(..., rem).
    False means no leaf below the node passes ``_gale_ryser_runs``, since
    either side's inequality is necessary for both.  The walk's path keeps
    the prefix sums, so a node costs O(1).
    """
    d = len(runs)
    values = [v for v, _ in runs]
    cnt, wt = [0], [0]  # the count and the sum of runs 0..t-1
    for v, c in runs:
        cnt.append(cnt[-1] + c)
        wt.append(wt[-1] + v * c)
    total = wt[-1]
    ends = []  # ends[k]: the runs of value >= k are runs 0..ends[k]-1
    t = d
    for k in range(cnt[-1] + 1):
        while t and values[t - 1] < k:
            t -= 1
        ends.append(t)
    # U's count and sum over runs 0..t-1 on the walk's path
    ku, lu = [0] * (d + 1), [0] * (d + 1)

    def live(i: int, rem: int, k: int) -> bool:
        low = half - rem
        ku[i], lu[i] = k, low
        if i == d:
            u = [(v, ku[t + 1] - ku[t]) for t, v in enumerate(values)]
            return _gale_ryser_runs(u, [(v, c - kt) for (v, c), (_, kt) in zip(runs, u)])
        # U side at k: of V's assigned degrees, those in runs 0..r-1 are >= k
        r = q = ends[k]
        if r > i:
            r = i
        else:
            q = i
        if low > (k * (cnt[r] - ku[r]) + wt[i] - low - wt[r] + lu[r]
                  + min(k * (cnt[q] - cnt[i]) + total - wt[q], total - wt[i] - rem)):
            return False
        # V side at its count kv, against U's assigned degrees and rem
        kv = cnt[i] - k
        r = q = ends[kv]
        if r > i:
            r = i
        else:
            q = i
        return wt[i] - low <= (kv * ku[r] + low - lu[r]
                               + min(kv * (cnt[q] - cnt[i]) + total - wt[q], rem))

    return live


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
