"""Bigraphicality testing and constructive bipartite realization.

Both take the degrees of the two vertex classes U and V as two int
sequences.  The Gale–Ryser test works on their (value, count) runs; the
realizer holds the v-vertices of each residual degree as one int bitset,
so a step costs O(|V|)-bit operations per residual level it touches.

A realization is its rows, its only form: one int bitset per u-vertex,
bit v set when (u, v) is an edge, each checked in O(1) by the
constructor.  ``_runs`` takes a row's runs of set bits off its ends mask
``row ^ row << 1``, and ``v_degrees`` reads every row by it.  One decoder,
``_decode_bits``, reads a row into the entries of a table indexed by v
(``edge_chunks``: the strings it renders; ``sorted_edges``: the v-indices
of its pairs): a row of more than ``SMALL_ROW_BITS`` bits and at most
``SLICED_RUNS`` runs, counted in O(1) from the mask, as that many slices,
any other by one ``compress`` pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, Iterator, Sequence

from .core import _value_runs, exact_int
from .errors import InvalidMoveError, InvariantError


# bin(bits) read as bytes: flag 1 where a bit is set, 0 elsewhere
_FLAGS = bytes.maketrans(b"01", b"\0\1")

# A row of at most this many bits is read by one ``compress`` pass, as
# every row of a 20-vertex witness is.  Up to 32 bits the pass took
# 0.8-1.1 us, the slice of a one-run row 0.6-1.2 us and the slices of two
# runs 1.1-1.8 us; past that the pass grows by about 0.25 us per 8 bits,
# and the slice stays near 0.8 us (one Xeon core, Python 3.11).
SMALL_ROW_BITS = 32
# A longer row of at most this many runs of set bits is read as that many
# slices, any other by one ``compress`` pass.  Of the rows of a low-region
# witness at n = 2000, about three in four are one to four runs and one in
# four 50 or more; rendering its edges took about 10 ms with any value
# from 2 to 16 and 2 ms more with 1.
SLICED_RUNS = 4


def _flags(bits: int) -> bytes:
    """Byte i is 1 where bit i of ``bits`` > 0 is set, else 0, up to its
    highest set bit: ``bin(bits)`` reversed, O(bit_length) C-level steps."""
    return bin(bits)[:1:-1].encode().translate(_FLAGS)


def _runs(ends: int) -> list[tuple[int, int]]:
    """The (start, stop) of each run of set bits of a row >= 0, lowest
    first, off its ends mask ``row ^ row << 1``, which has one set bit at
    the start of each run and one just past its end: O(1) int operations
    of O(bit_length) bits per run."""
    runs = []
    while ends:
        start = ends & -ends
        ends ^= start
        stop = ends & -ends
        ends ^= stop
        runs.append((start.bit_length() - 1, stop.bit_length() - 1))
    return runs


def _decode_bits(bits: int, names: tuple) -> tuple:
    """The entries of ``names`` (at least bits.bit_length() of them) at the
    set bits of ``bits`` >= 0, lowest first: for a row of more than
    ``SMALL_ROW_BITS`` bits and at most ``SLICED_RUNS`` runs (the ends
    mask's bit count over 2, in O(1)) that many slices of ``names``
    (``_runs``), joined once, else one ``compress`` pass over ``names``,
    O(bits.bit_length()) C-level steps."""
    if bits.bit_length() > SMALL_ROW_BITS:
        ends = bits ^ bits << 1
        if ends.bit_count() <= 2 * SLICED_RUNS:
            return sum([names[start:stop] for start, stop in _runs(ends)], ())
    return tuple(compress(names, _flags(bits)))


@dataclass(frozen=True)
class BipartiteRealization:
    """A simple bipartite graph: ``rows[u]`` is the int bitset of the
    v-indices adjacent to u-vertex u, bit v set for edge (u, v).

    The constructor takes any iterable of rows, keeps them as a tuple and
    checks each in O(1): an int (not a bool, TypeError) with
    0 <= row < 1 << v_count (ValueError).
    """

    v_count: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n = exact_int(self.v_count, "v_count")
        if n < 0:
            raise ValueError(f"negative v_count {n}")
        rows = tuple(self.rows)
        object.__setattr__(self, "v_count", n)
        object.__setattr__(self, "rows", rows)
        for u, row in enumerate(rows):
            if type(row) is not int:
                raise TypeError(f"u-vertex {u}: row {row!r} is not an int bitset")
            if row < 0:
                raise ValueError(f"u-vertex {u}: row bitset is negative")
            if row.bit_length() > n:
                raise ValueError(f"u-vertex {u}: row bitset has bit {row.bit_length() - 1} "
                                 f"set, past v_count {n}")

    @property
    def u_count(self) -> int:
        return len(self.rows)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    def u_degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.rows))

    def v_degrees(self) -> tuple[int, ...]:
        """The degree of each v-vertex.

        Equal rows are grouped by value, so a row that occurs t times, as
        the lift's rows do, is read once: +t at the start of each of its
        runs of set bits and -t just past its end (``_runs``, O(1) int
        operations per run), summed once at the end.
        """
        n = self.v_count
        starts = [0] * (n + 1)
        for row, t in Counter(self.rows).items():
            for start, stop in _runs(row ^ row << 1):
                starts[start] += t
                starts[stop] -= t
        return tuple(accumulate(starts[:n]))

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges in (u, v) order, each distinct row decoded once by
        ``_decode_bits``; kept, with ``edges``, for ``perfbench/``, which
        reads and patches them."""
        names = tuple(range(self.v_count))
        decoded = {row: _decode_bits(row, names) for row in set(self.rows)}
        return [(u, v) for u, row in enumerate(self.rows) for v in decoded[row]]


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
    ``core._value_runs`` gives them), U taking the sum ``half``.

    ``live(i, rem, k)`` is called for each node the walk enters, in walk
    order: runs 0..i-1 are assigned, k values of run i - 1 (0 at the root)
    are on U, and U's degrees sum to half - rem; the call records U's
    count and sum on the walk's path.  At a leaf (i = len(runs)) it is
    ``_gale_ryser_runs`` on the U and V runs.  Elsewhere it tests the
    inequality at U's newest run end, U's count K over runs 0..i-1: U's top
    K degrees are fixed, so the left side is half - rem; the right side is
    V's assigned degrees, each min(K, value), plus for runs i.. at most
    min(sum_{t>=i} min(K, v_t)*c_t, (sum of runs i..) - rem), V's share of
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
        if i:
            k += ku[i - 1]  # from here on, K: U's count over runs 0..i-1
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
    list work.  A u-vertex that runs out of levels signals a non-bigraphic
    pair; once all are served in full, no level is left, as the levels hold
    positive residuals only and their total is sum(d2) - sum(d1) = 0.

    The row bitsets become the realization as they are.  They are built
    from ``1 << v`` with v < |V|; one bound check, that the largest ends
    below ``1 << |V|``, raises InvariantError (kept under ``python -O``)
    before the constructor's own O(1) check per row would raise ValueError.
    """
    if sum(d1) != sum(d2):
        return None
    by_residual: dict[int, int] = {}
    for v, r in enumerate(d2):
        if r:
            by_residual[r] = by_residual.get(r, 0) | 1 << v
    levels = [(r, bits, bits.bit_count())
              for r, bits in sorted(by_residual.items(), reverse=True)]
    order = sorted(range(len(d1)), key=d1.__getitem__, reverse=True)
    if order and d1[order[-1]] < 0 or levels and levels[-1][0] < 0:
        return None  # a negative degree, the last of its order, has no realization
    rows = [0] * len(d1)  # the bitset of each u-vertex's v-neighbors
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
        rows[u] = row
    n = len(d2)
    if max(rows, default=0).bit_length() > n:
        raise InvariantError(f"a row bitset reaches past v_count {n}")
    return BipartiteRealization(n, rows)


def hinge_flip(g: BipartiteRealization, u1: int, u2: int, v: int) -> BipartiteRealization:
    """Move the edge (u1, v) to (u2, v).

    u1 != u2 and v must be ints, not bools, in ``range(g.u_count)`` and
    ``range(g.v_count)``, checked before any shift.  The edge is tested and
    moved by one bit operation on each of the two rows, and the new graph's
    constructor checks every row in O(1), so a flip costs O(|U|) steps plus
    O(|V|)-bit operations.
    """
    if u1 == u2 or not all(type(u) is int and 0 <= u < g.u_count for u in (u1, u2)):
        raise InvalidMoveError(f"need distinct u1, u2 in range({g.u_count}), got {u1!r}, {u2!r}")
    if type(v) is not int or not 0 <= v < g.v_count:
        raise InvalidMoveError(f"need an int v in range({g.v_count}), got {v!r}")
    bit = 1 << v
    rows = list(g.rows)
    if not rows[u1] & bit:
        raise InvalidMoveError(f"edge ({u1}, {v}) not present")
    if rows[u2] & bit:
        raise InvalidMoveError(f"edge ({u2}, {v}) already present")
    rows[u1] ^= bit
    rows[u2] |= bit
    return BipartiteRealization(g.v_count, rows)


def balancing_hinge_flip(g: BipartiteRealization, i: int, j: int) -> BipartiteRealization:
    """Shift one unit of degree from u_j to u_i; requires deg(u_i) < deg(u_j) - 1.

    The lowest-index v adjacent to u_j but not to u_i, the lowest set bit of
    ``rows[j] & ~rows[i]``, is used; one exists by pigeonhole whenever the
    precondition holds.  i and j must be ints, not bools, in range.
    """
    if not all(type(u) is int and 0 <= u < g.u_count for u in (i, j)):
        raise InvalidMoveError(f"need int i, j in range({g.u_count}), got {i!r}, {j!r}")
    deg = g.u_degrees()
    if not deg[i] < deg[j] - 1:
        raise InvalidMoveError(
            f"need deg(u_{i}) < deg(u_{j}) - 1, got {deg[i]} and {deg[j]}")
    free = g.rows[j] & ~g.rows[i]
    if not free:
        raise InvariantError("no eligible v found; contradicts the pigeonhole argument")
    return hinge_flip(g, j, i, (free & -free).bit_length() - 1)


def edge_chunks(g: BipartiteRealization, head: str, tail: str,
                sep: str) -> Iterator[str]:
    """Render the edges in (u, v) order straight from the row bitsets,
    building no (u, v) pair.

    Edge (u, v) reads ``head.format(u) + str(v) + tail``.  One chunk is
    yielded per u-vertex with edges, its edges separated by ``sep``; joined
    by ``sep``, the chunks give the whole edge list.  Each v-index is
    rendered once, with ``tail``, into a table, and each row takes its
    strings from that table by ``_decode_bits``.
    """
    names = tuple(str(v) + tail for v in range(g.v_count))
    for u, row in enumerate(g.rows):
        if row:
            first = head.format(u)
            yield first + (sep + first).join(_decode_bits(row, names))


def format_realization(g: BipartiteRealization) -> str:
    """CLI text format: header line then one "u v" line per edge."""
    header = f"p bipartite {g.u_count} {g.v_count} {sum(g.u_degrees())}"
    return "\n".join([header, *edge_chunks(g, "{} ", "", "\n")])
