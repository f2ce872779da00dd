"""Bigraphicality testing and constructive bipartite realization.

Both take the degrees of the two vertex classes U and V as two int
sequences.  The Gale–Ryser test works on their (value, count) runs; the
realizer holds the v-vertices of each residual degree as one int bitset,
so a step costs O(|V|)-bit operations per residual level it touches.
Realizations are immutable per-u neighbor tuples; hinge-flips return new
values.  A realization is checked where it is built: the tuple
constructor checks each row entry by entry (``_check_row``), and
``BipartiteRealization.from_intervals`` takes rows as int bitsets and
ranges and checks each in O(1).  The realizer's rows arrive there as
bitsets, each decoded once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from operator import add, index, itemgetter, lt
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidMoveError, InvariantError


def _long_interval_ends(nbrs: tuple[int, ...]) -> list[int]:
    """The ends of the leading long intervals of the strictly increasing
    row ``nbrs``, for ``v_degrees``.

    An interval is a maximal stretch of consecutive values.  One of more
    than 2·bit_length(m) entries (m = len(nbrs)), about what a binary search
    for its end costs, is long; the walk stops at the first interval that
    is not, and ``v_degrees`` counts the rest of the row per entry.  As the
    bound is at least 8 once m > 8, it skips every row whose first 9
    entries are not consecutive: it has none.  ``nbrs[q] - q`` is
    non-decreasing and constant exactly on an interval, so one test tells a
    short interval and a binary search finds the end of a long one:
    O(log m) per interval.
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


def _check_row(u: int, nbrs: tuple, n: int) -> None:
    """Raise unless the non-empty row ``nbrs`` of u-vertex u holds ints,
    strictly increasing, in range(n): TypeError if an entry is not an int
    (a bool included), else ValueError."""
    # one C-level pass: a sum is an int only if every entry is one (the
    # order check below would take 5.0 for 5, as 5.0 == 5)
    if type(sum(nbrs, 0)) is not int:
        raise TypeError(f"u-vertex {u}: neighbors {nbrs} are not all integers")
    if bool in map(type, nbrs):
        raise TypeError(f"u-vertex {u}: neighbors {nbrs} hold a bool")
    if not (0 <= nbrs[0] and nbrs[-1] < n and all(map(lt, nbrs, nbrs[1:]))):
        raise ValueError(f"u-vertex {u}: neighbors {nbrs} out of order or range")


# bin(bits) read as bytes: flag 1 where a bit is set, 0 elsewhere
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _vertex_count(v_count) -> int:
    # exact integers only: operator.index rejects floats, but takes bools
    if isinstance(v_count, bool):
        raise TypeError("v_count must be an integer, not bool")
    n = index(v_count)
    if n < 0:
        raise ValueError(f"negative v_count {n}")
    return n


@dataclass(frozen=True)
class BipartiteRealization:
    """A simple bipartite graph: ``neighbors[u]`` holds the v-indices adjacent
    to u-vertex u, strictly increasing and in ``range(v_count)``.

    Both constructors check that invariant, and ``v_degrees`` relies on it.
    ``BipartiteRealization(v_count, neighbors)`` checks each row entry by
    entry (``_check_row``); ``from_intervals`` builds the rows from int
    bitsets and ranges and checks each piece in O(1).  ``v_degrees`` takes a
    row of m entries by its leading intervals of consecutive v-indices
    (``_long_interval_ends``) and the rest per entry, so a row of k long
    intervals costs O(k log m) steps.  All three take a row object that
    occurs more than once (rows are told apart by ``id``) only once, so a
    graph with shared rows, as the lift builds, costs its distinct rows.
    """

    v_count: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = _vertex_count(self.v_count)
        object.__setattr__(self, "v_count", n)
        # id(row): (u, row) at the row's first occurrence; the row is kept so
        # that no id is reused, and the first faulty u is the one raised
        first = {}
        for u, nbrs in enumerate(self.neighbors):
            first.setdefault(id(nbrs), (u, nbrs))
        for u, nbrs in first.values():
            if nbrs:
                _check_row(u, nbrs, n)

    @classmethod
    def from_intervals(cls, v_count: int,
                       rows: Iterable[Sequence[int | range]]) -> BipartiteRealization:
        """The realization whose row u joins the pieces of ``rows[u]`` in order.

        A piece is a non-empty int bitset of v-indices (bit i set: v-index
        i is in it) or a non-empty step-1 ``range``, and each piece starts
        after the one before it ends, inside ``range(v_count)``; a faulty
        piece raises ValueError, and a piece of another type, a tuple or a
        bool included, raises TypeError.  Each piece costs O(1) to check: a
        bitset must be positive, below ``1 << v_count`` and have its lowest
        set bit at or above the end of the piece before it; decoded in
        index order, it is then strictly increasing and in range, as
        ``_check_row`` would prove.  A range or a bitset whose bits are one
        interval is one slice of ``tuple(range(v_count))``, any other bitset
        is decoded once by ``itertools.compress``, and a row of k pieces and
        m entries is joined in O(k·m), so ``__post_init__`` does not check
        it again.  A row object given more than once is checked and built
        once, and its built row is shared.
        """
        n = _vertex_count(v_count)
        names = tuple(range(n))
        neighbors = []
        built = {}  # id(pieces): (pieces, row), pieces kept so that no id is reused
        for u, pieces in enumerate(rows):
            hit = built.get(id(pieces))
            if hit is not None:
                neighbors.append(hit[1])
                continue
            parts = []
            end = 0  # the lowest value the next piece may take
            for piece in pieces:
                if type(piece) is int:
                    low = piece & -piece
                    start, stop = low.bit_length() - 1, piece.bit_length()
                    good = piece > 0 and stop <= n
                    # adding the lowest set bit clears them all: one interval
                    interval = not (piece + low) & piece
                elif type(piece) is range:
                    start, stop = piece.start, piece.stop
                    good = piece.step == 1 and start < stop <= n
                    interval = True
                else:
                    raise TypeError(f"u-vertex {u}: piece {piece!r} is not an int "
                                    f"bitset or a range")
                if not (good and end <= start):
                    raise ValueError(f"u-vertex {u}: piece {piece!r} is empty, out of order "
                                     f"or out of range, or a range of step other than 1")
                # bin() is most significant bit first; reversed, flag i is bit i
                parts.append(names[start:stop] if interval else tuple(compress(
                    names, bin(piece)[:1:-1].encode().translate(_FLAGS))))
                end = stop
            row = parts[0] if len(parts) == 1 else sum(parts, ())
            built[id(pieces)] = pieces, row
            neighbors.append(row)
        g = object.__new__(cls)
        object.__setattr__(g, "v_count", n)
        object.__setattr__(g, "neighbors", tuple(neighbors))
        return g

    @property
    def u_count(self) -> int:
        return len(self.neighbors)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    def u_degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.neighbors))

    def v_degrees(self) -> tuple[int, ...]:
        """The degree of each v-vertex.

        A row object that occurs t times is walked once and counted t times
        (rows are told apart by ``id``, stable while ``neighbors`` holds
        them), so a graph with shared rows, as the lift builds, costs its
        distinct rows.  Each row is taken by its long intervals, +t / -t at
        their ends, and its other entries one by one, +t each.  When no row
        repeats, the rows are walked as they are, with no count.
        """
        rows = self.neighbors
        deg = [0] * self.v_count
        starts = [0] * (self.v_count + 1)  # +t / -t at each long interval's ends
        times = repeat(1)
        distinct = dict(zip(map(id, rows), rows))
        if len(distinct) < len(rows):
            # both in the order of first occurrence
            times = Counter(map(id, rows)).values()
            rows = distinct.values()
        for nbrs, t in zip(rows, times):
            if len(nbrs) > 8 and nbrs[8] - nbrs[0] == 8:
                p = 0
                for end in _long_interval_ends(nbrs):
                    starts[nbrs[p]] += t
                    starts[nbrs[end - 1] + 1] -= t
                    p = end
                nbrs = nbrs[p:]
            for v in nbrs:
                deg[v] += t
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


def _lowest_bits(bits: int, count: int, m: int) -> int:
    """The m lowest set bits of ``bits``, which has ``count`` > m > 0: the
    mask below the least p with m set bits under it, by binary search
    between the bounds the lowest bit and the count - m highest bits set
    (equal on a level that is one interval)."""
    lo = (bits & -bits).bit_length() - 1 + m
    hi = bits.bit_length() - (count - m)
    while lo < hi:
        mid = (lo + hi) >> 1
        if (bits & ((1 << mid) - 1)).bit_count() < m:
            lo = mid + 1
        else:
            hi = mid
    return bits & ((1 << lo) - 1)


def construct_realization(d1: Sequence[int],
                          d2: Sequence[int]) -> BipartiteRealization | None:
    """Greedy realization of the U degrees ``d1`` and the V degrees ``d2``;
    None signals a non-bigraphic pair, a negative degree included.

    u-vertices are processed in non-increasing degree order (stable); each
    connects to the v-vertices of highest residual degree, ties to the
    lowest index.  Output degrees match the input lists in their original
    index order.

    The v-vertices of positive residual are kept as levels, (residual,
    bitset of their indices, count) in strictly decreasing residual.  A
    u-vertex ORs whole levels from the top into its row and takes the
    lowest-index prefix of the boundary level (its m lowest set bits,
    ``_lowest_bits``); after the decrement only the levels on either side
    of the boundary can share a residual, and they are merged by one OR.
    A u-vertex costs O(1) int operations of O(|V|) bits per level it
    touches plus O(log |V|) for the boundary level, with no per-vertex
    list work.  Each row goes to ``from_intervals`` as one piece, its
    bitset, which the constructor decodes once (one slice when it is one
    interval) and checks in O(1).
    """
    if sum(d1) != sum(d2):
        return None
    by_residual: dict[int, int] = {}
    for v, r in enumerate(d2):
        if r:
            by_residual[r] = by_residual.get(r, 0) | 1 << v
    levels = [(r, bits, bits.bit_count())
              for r, bits in sorted(by_residual.items(), reverse=True)]
    order = sorted(range(len(d1)), key=lambda i: -d1[i])
    if order and d1[order[-1]] < 0 or levels and levels[-1][0] < 0:
        return None  # a negative degree, the last of its order, has no realization
    rows: list[tuple] = [()] * len(d1)
    for u in order:
        need = d1[u]
        if need == 0:
            break  # every later u-vertex has degree 0 too
        row = 0
        head: list[tuple[int, int, int]] = []  # replaces levels[:k]
        top = 0  # the residual of head[-1], 0 while head is empty
        k = 0
        while need:
            if k == len(levels):
                return None
            r, bits, count = levels[k]
            k += 1
            if count > need:
                # the boundary level: its rest keeps residual r, and only its
                # need lowest set bits are taken
                low = _lowest_bits(bits, count, need)
                if top == r:
                    _, b, c = head[-1]
                    head[-1] = (r, b | bits ^ low, c + count - need)
                else:
                    head.append((r, bits ^ low, count - need))
                    top = r
                bits, count = low, need
            row |= bits
            need -= count
            r -= 1  # the taken bits drop a residual; at 0 they leave the levels
            if r:  # head holds residuals above r only, as the levels strictly decrease
                head.append((r, bits, count))
                top = r
        if k < len(levels) and levels[k][0] == top:
            _, b, c = head[-1]
            _, bits, count = levels[k]
            head[-1] = (top, b | bits, c + count)
            k += 1
        levels[:k] = head
        rows[u] = (row,)
    if levels:
        return None
    return BipartiteRealization.from_intervals(len(d2), rows)


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
    by ``sep``, the chunks give the whole edge list.  Each v-index is
    rendered once, with ``tail``.  A row that is one interval (on a
    strictly increasing row, ``nbrs[-1] - nbrs[0] == len(nbrs) - 1``, an
    O(1) test) takes its strings as one slice of that table; any other row
    fetches them by one ``itemgetter`` call.
    """
    names = [str(v) + tail for v in range(g.v_count)]
    for u, nbrs in enumerate(g.neighbors):
        if nbrs:
            first = head.format(u)
            lo, hi = nbrs[0], nbrs[-1]
            if hi - lo == len(nbrs) - 1:
                strs = names[lo:hi + 1]
            else:
                strs = itemgetter(*nbrs)(names)
            yield first + (sep + first).join(strs)


def format_realization(g: BipartiteRealization) -> str:
    """CLI text format: header line then one "u v" line per edge."""
    header = f"p bipartite {g.u_count} {g.v_count} {sum(g.u_degrees())}"
    return "\n".join([header, *edge_chunks(g, "{} ", "", "\n")])
