import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from bdr import (BipartiteRealization, DegreeSequence, ParamBounds,
                 balancing_hinge_flip, construct_realization, decide_bdr,
                 format_realization, hinge_flip, is_bigraphic, is_graphic)
from bdr.errors import InvalidMoveError, InvariantError
from bdr.gale_ryser import _gale_ryser_bound, _gale_ryser_runs, _value_runs
from bdr.oracle import exhaustive_pair_search
from bdr.reduction import _round_robin_rows


def gale_ryser_all_k(d1, d2):
    """Gale–Ryser at every k: equal sums and, for the non-increasing a and
    each k in 1..n, sum_{i<=k} a_i <= sum_j min(k, b_j)."""
    a = sorted(d1, reverse=True)
    return sum(d1) == sum(d2) and all(
        sum(a[:k]) <= sum(min(k, b) for b in d2) for k in range(1, len(a) + 1))


def bipartite_to_unipartite(d1, d2):
    """Shift the first class by n-1 and concatenate; graphic iff the pair is
    bigraphic (provided every second-class degree is at most n)."""
    n = len(d1)
    return DegreeSequence(tuple(d + n - 1 for d in d1) + tuple(d2))


def expand(runs):
    return [v for v, c in runs for _ in range(c)]


def reference_realization(d1, d2):
    """The per-u-vertex sort realizer the run-based one replaced: the same
    u order, then the first need v-vertices by (-residual, index)."""
    if sum(d1) != sum(d2):
        return None
    residual = list(d2)
    order = list(range(len(d2)))
    neighbors = [()] * len(d1)
    for u in sorted(range(len(d1)), key=lambda i: -d1[i]):
        need = d1[u]
        if need == 0:
            continue
        order.sort(key=lambda j: (-residual[j], j))
        chosen = order[:need]
        if len(chosen) < need or residual[chosen[-1]] == 0:
            return None
        for v in chosen:
            residual[v] -= 1
        neighbors[u] = tuple(sorted(chosen))
    if any(residual):
        return None
    return BipartiteRealization(len(d2), tuple(neighbors))


@st.composite
def degree_pairs(draw):
    """Unequal sums, equal sums (bigraphic or not, entries of d1 may exceed
    len(d2), negative entries in some pairs), and the degrees of random
    bipartite graphs, zeros included.  d2 has up to 70 entries in some
    pairs, so that the realizer's v-vertex bitsets span several 30-bit
    digits."""
    kind = draw(st.sampled_from(["free", "equal", "graph"]))
    v_max = draw(st.sampled_from([7, 70]))
    if kind == "graph":
        u_count, v_count = draw(st.integers(0, 7)), draw(st.integers(0, v_max))
        edges = draw(st.lists(st.booleans(), min_size=u_count * v_count,
                              max_size=u_count * v_count))
        d1 = [sum(edges[u * v_count:(u + 1) * v_count]) for u in range(u_count)]
        d2 = [sum(edges[v::v_count]) for v in range(v_count)]
        return d1, d2
    degrees = st.integers(draw(st.sampled_from([0, 0, -3])), 9)
    d1 = draw(st.lists(degrees, max_size=7))
    d2 = draw(st.lists(degrees, max_size=v_max))
    if kind == "equal":
        diff = sum(d1) - sum(d2)
        (d2 if diff > 0 else d1).append(abs(diff))
    return d1, d2


@st.composite
def run_pairs(draw):
    """Two sides as (value, count) runs in non-increasing value order, with
    zero counts, zero values, equal adjacent values, an empty side and up
    to 30 runs per side; about half the pairs have equal sums, evened out by
    one vertex or by a run of 1s."""
    runs = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 4)), max_size=30)
    a, b = draw(runs), draw(runs)
    if draw(st.booleans()):
        diff = sum(expand(a)) - sum(expand(b))
        (b if diff > 0 else a).append(draw(st.sampled_from([(abs(diff), 1), (1, abs(diff))])))
    return tuple(sorted(side, key=lambda r: -r[0]) for side in (a, b))


def random_graph_degrees(rng, u_count, v_count, p):
    d1, d2 = [0] * u_count, [0] * v_count
    for u in range(u_count):
        for v in range(v_count):
            if rng.random() < p:
                d1[u] += 1
                d2[v] += 1
    return d1, d2


class TestIsBigraphic:
    @pytest.mark.parametrize("d1,d2", [((0,), (1, -1)), ((1, -1), (1, -1)),
                                       ((2, -1), (1, 0)), ((-1,), (-1,))])
    def test_negative_degree_has_no_realization(self, d1, d2):
        assert not is_bigraphic(d1, d2)
        assert construct_realization(d1, d2) is None

    def test_k22(self):
        assert is_bigraphic((2, 2), (2, 2))

    def test_31_22_fails_at_k1(self):
        assert not is_bigraphic((3, 1), (2, 2))

    def test_k32(self):
        assert is_bigraphic((2, 2, 2), (3, 3))

    def test_unequal_sums(self):
        assert not is_bigraphic((2, 1), (2, 2))

    @given(st.lists(st.integers(0, 4), max_size=5),
           st.lists(st.integers(0, 4), max_size=5))
    def test_drop_point_optimization_agrees_with_all_k(self, d1, d2):
        assert is_bigraphic(d1, d2) == gale_ryser_all_k(d1, d2)

    @given(st.lists(st.integers(0, 3), max_size=4),
           st.lists(st.integers(0, 3), max_size=4))
    def test_agrees_with_exhaustive_enumeration(self, d1, d2):
        assert is_bigraphic(d1, d2) == exhaustive_pair_search(d1, d2)


class TestGaleRyserRuns:
    @given(run_pairs())
    @example(([], []))
    @example(([(0, 3)], []))
    @example(([(3, 0), (2, 2), (2, 0), (2, 1), (0, 2)], [(3, 2), (3, 0), (0, 5)]))
    @example(([(1, 2)], [(3, 0), (2, 1)]))
    # k jumps from 0 to 2, so the pointer must pass the runs of 0 and 1 at once
    @example(([(2, 2)], [(3, 1), (1, 1), (0, 1)]))
    @example(([(v, 1) for v in range(30, 0, -1)], [(v, 1) for v in range(30, 0, -1)]))
    @settings(max_examples=300)
    def test_agrees_with_all_k_on_the_expanded_lists(self, sides):
        a, b = sides
        assert _gale_ryser_runs(a, b) == gale_ryser_all_k(expand(a), expand(b))


class TestBipartiteToUnipartite:
    def test_shift_by_n_minus_one(self):
        assert bipartite_to_unipartite((2, 2), (2, 2)).degrees == (3, 3, 2, 2)

    def test_single(self):
        assert bipartite_to_unipartite((1,), (1,)).degrees == (1, 1)

    def test_mixed(self):
        assert bipartite_to_unipartite((2, 1, 1), (2, 1, 1)).degrees == (4, 3, 3, 2, 1, 1)

    def test_equivalence_with_graphicality(self):
        # valid whenever every second-class degree is at most len(d1)
        cases = [((2, 2), (2, 2)), ((3, 1), (2, 2)), ((2, 2, 2), (3, 3)),
                 ((1, 1, 1), (3,)), ((2, 1), (1, 1, 1)), ((3, 3), (2, 2, 1, 1))]
        for d1, d2 in cases:
            if all(x <= len(d1) for x in d2):
                assert is_bigraphic(d1, d2) == is_graphic(bipartite_to_unipartite(d1, d2))


class TestConstructRealization:
    def test_forced_k22(self):
        g = construct_realization((2, 2), (2, 2))
        assert len(g.edges) == 4

    def test_forced_star(self):
        g = construct_realization((2,), (1, 1))
        assert g.edges == frozenset({(0, 0), (0, 1)})

    def test_infeasible(self):
        assert construct_realization((3, 1), (2, 2)) is None

    @given(st.lists(st.integers(0, 4), max_size=5),
           st.lists(st.integers(0, 4), max_size=5))
    def test_succeeds_iff_bigraphic_and_degrees_match(self, d1, d2):
        g = construct_realization(d1, d2)
        if is_bigraphic(d1, d2):
            assert g is not None
            assert g.u_degrees() == tuple(d1)
            assert g.v_degrees() == tuple(d2)
        else:
            assert g is None


class TestRealizerMatchesReference:
    @given(degree_pairs())
    @settings(max_examples=500, deadline=None)
    def test_small_pairs(self, d1_d2):
        if min(d1_d2[0] + d1_d2[1], default=0) < 0:
            # the reference takes a negative degree as a slice bound
            assert construct_realization(*d1_d2) is None
        else:
            assert construct_realization(*d1_d2) == reference_realization(*d1_d2)

    @pytest.mark.parametrize("d1,d2", [((9, 1), (1,) * 10), ((3,), (1, 1)),
                                       ((0, 2, 0), (1, 0, 1)), ((2, 2), (3, 1))])
    def test_edge_cases(self, d1, d2):
        assert construct_realization(d1, d2) == reference_realization(d1, d2)

    def test_seeded_low_region_split(self):
        # the pair decide_bdr realizes for a seeded n = 2000 input with
        # degrees in [n/10, n/5]
        rng = random.Random(2000)
        degrees = [rng.randint(200, 400) for _ in range(2000)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(200, 400)
        split = decide_bdr(DegreeSequence(degrees),
                           ParamBounds(Fraction(1, 10), Fraction(1, 5))).split
        p = ([degrees[i] for i in split.u],
             [degrees[i] for i in split.v])
        g = construct_realization(*p)
        assert g is not None and g == reference_realization(*p)

    def test_seeded_random_graph(self):
        p = random_graph_degrees(random.Random(7), 300, 400, 0.2)
        g = construct_realization(*p)
        assert g is not None and g == reference_realization(*p)


def reference_bound(runs, half, ks):
    """The node test of ``_gale_ryser_bound`` from scratch: U holds ks[t]
    of run t for t < i = len(ks).  At a leaf, Gale–Ryser at every k on the
    lists; elsewhere the inequality at U's count K and at V's, each side's
    assigned degrees giving min(K, value) each, plus for runs i.. at most
    min(sum min(K, v)*c, that side's sum of them)."""
    i = len(ks)
    done, rest = runs[:i], runs[i:]
    u_sum = sum(v * k for (v, _), k in zip(done, ks))
    rem = half - u_sum
    if i == len(runs):
        return gale_ryser_all_k(expand([(v, k) for (v, _), k in zip(runs, ks)]),
                                expand([(v, c - k) for (v, c), k in zip(runs, ks)]))
    rest_sum = sum(v * c for v, c in rest)

    def right(k, other_side, other_rest):
        return (sum(min(k, v) * n for (v, _), n in zip(done, other_side))
                + min(sum(min(k, v) * c for v, c in rest), other_rest))

    k_u = sum(ks)
    k_v = sum(c for _, c in done) - k_u
    v_sum = sum(v * c for v, c in done) - u_sum
    return (u_sum <= right(k_u, [c - k for (_, c), k in zip(done, ks)], rest_sum - rem)
            and v_sum <= right(k_v, ks, rem))


def prefixes(runs, half):
    """Every node of the count walk without any prune but U's sum at most
    ``half``: the U counts of runs 0..i-1, depth first, parents first."""
    stack = [()]
    while stack:
        ks = stack.pop()
        yield ks
        if len(ks) < len(runs):
            v, c = runs[len(ks)]
            rem = half - sum(w * k for (w, _), k in zip(runs, ks))
            stack += [ks + (k,) for k in range(min(c, rem // v) + 1)]


class TestGaleRyserBound:
    """The incremental node test agrees with the from-scratch one at every
    node of a depth-first walk, each side's inequality and each part of
    its right side included, and at the leaves with Gale–Ryser itself."""

    @given(seq=st.one_of(
        st.lists(st.sampled_from([0, 1, 1, 2, 2, 3, 4, 5, 7]), max_size=12),
        st.tuples(st.integers(1, 9), st.integers(1, 12)).map(lambda vc: [vc[0]] * vc[1]),
        st.lists(st.integers(1, 30), min_size=6, max_size=12)))
    @settings(max_examples=300, deadline=None)
    @example(seq=[])
    @example(seq=[3])
    @example(seq=[5, 1, 1, 1])
    @example(seq=[3, 3, 2, 2, 1, 1])
    @example(seq=[2, 2, 2, 2])
    def test_every_node_matches_the_reference(self, seq):
        runs = _value_runs(seq)
        half = sum(seq) // 2
        live = _gale_ryser_bound(runs, half)
        for ks in islice(prefixes(runs, half), 3000):
            rem = half - sum(v * k for (v, _), k in zip(runs, ks))
            assert live(len(ks), rem, sum(ks)) == reference_bound(runs, half, ks), ks


class TestRealizationLayout:
    def test_derived_views(self):
        g = BipartiteRealization(3, ((0, 2), (), (1,)))
        assert g.u_count == 3
        assert g.u_degrees() == (2, 0, 1) and g.v_degrees() == (1, 1, 1)
        assert g.sorted_edges() == [(0, 0), (0, 2), (2, 1)]
        assert g.edges == frozenset(g.sorted_edges())

    @pytest.mark.parametrize("neighbors", [((1, 0),), ((0, 0),), ((-1, 0),), ((0, 2),),
                                           ((), (2,))])
    def test_rejects_unsorted_repeated_or_out_of_range(self, neighbors):
        with pytest.raises(ValueError):
            BipartiteRealization(2, neighbors)

    @pytest.mark.parametrize("v_count, error", [(-3, ValueError), (-1, ValueError),
                                                (2.5, TypeError), (2.0, TypeError),
                                                (True, TypeError), ("2", TypeError)])
    def test_rejects_bad_v_count(self, v_count, error):
        # format_realization printed "p bipartite 2 -3 0" for v_count -3
        with pytest.raises(error):
            BipartiteRealization(v_count, ((), ()))

    @pytest.mark.parametrize("neighbors", [
        ((0.5,),),
        (tuple(float(v) for v in range(12)),),  # one long interval of floats
        ((), tuple(range(5)) + (5.0,) + tuple(range(6, 14))),  # a float inside one
        ((Fraction(1),),)])
    def test_rejects_non_integer_entries(self, neighbors):
        # 0.5 was accepted, and v_degrees then failed; 5.0 == 5 passed the
        # interval comparison
        with pytest.raises(TypeError):
            BipartiteRealization(14, neighbors)

    @pytest.mark.parametrize("row", [(False, True), (0, True), (True,), (False,),
                                     (False, 1), (True, 2, 3)])
    def test_rejects_bool_entries(self, row):
        # a sum of bools is an int, so the type check let these through and
        # sorted_edges() held (0, False)
        with pytest.raises(TypeError):
            BipartiteRealization(4, ((2, 3), row))

    @pytest.mark.parametrize("row, error", [
        # bools at entry 0 or 1, in order or not, or after an entry out of order
        ((0, False), TypeError), ((True, 0), TypeError), ((1, True), TypeError),
        ((False, 1), TypeError), ((0, True), TypeError), ((True, 2, 3), TypeError),
        ((5, 3, True), TypeError), ((0, 1, 2, True), TypeError),
        # floats and Fractions, in order or not
        ((0.5,), TypeError), ((0, 1.0), TypeError), ((3.0, 2), TypeError),
        ((Fraction(1),), TypeError), ((4, Fraction(3)), TypeError),
        ((0, 1, 2, 2.5), TypeError),
        # out of order, repeated, out of range, negative
        ((2, 1), ValueError), ((1, 1), ValueError), ((3, 10), ValueError),
        ((-1, 0), ValueError), ((-2,), ValueError), (tuple(range(9)) + (8,), ValueError),
        ((5, 0, 1, 2), ValueError), ((0, 1, 3, 3), ValueError),
    ])
    def test_tuple_constructor_error_types(self, row, error):
        # TypeError for a non-int entry wherever it sits, even in a row
        # out of order; ValueError for an int row out of order or range.  A
        # row object given twice is checked once, at its first u-vertex
        with pytest.raises(error, match="^u-vertex 1: "):
            BipartiteRealization(10, ((0, 1), row, (2,), row))

    def test_accepts_zero_and_one(self):
        g = BipartiteRealization(2, ((0, 1), (1,), (0,)))
        assert g.neighbors == ((0, 1), (1,), (0,)) and g.v_degrees() == (2, 2)

    def test_v_count_zero_with_empty_rows(self):
        g = BipartiteRealization(0, ((), ()))
        assert g.v_degrees() == () and format_realization(g) == "p bipartite 2 0 0"


def per_entry_v_degrees(v_count, rows):
    deg = [0] * v_count
    for row in rows:
        for v in row:
            deg[v] += 1
    return tuple(deg)


@st.composite
def interval_row(draw):
    """A strictly increasing row of 0-5 intervals of consecutive values with
    random gaps; the lengths reach past the walk's short bound (at most 20
    for these rows) so that both the interval and the per-entry paths run."""
    row, v = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 5))):
        length = draw(st.one_of(st.integers(1, 4), st.integers(5, 120)))
        row += range(v, v + length)
        v += length + draw(st.integers(1, 6))
    return tuple(row)


@st.composite
def interval_graph(draw):
    """(v_count, rows); v_count is often the widest row's end, so that rows
    end at v_count - 1."""
    rows = tuple(draw(st.lists(interval_row(), max_size=6)))
    v_count = max((row[-1] + 1 for row in rows if row), default=0)
    return v_count + draw(st.sampled_from((0, 0, 1, 5))), rows


def round_robin_graphs():
    """Semi-regular blocks as the lift builds them, as ``from_intervals``
    pieces: round-robin rows over a block of v-indices at an offset, each
    row also after a complete prefix (the lift's U_L rows), including the
    rows that wrap."""
    for b_count in (1, 2, 7, 9, 24, 40, 97):
        for a_deg in sorted({1, 2, b_count // 3, b_count // 2, b_count - 1, b_count} - {0}):
            for b_deg in (1, 2, 3):
                if b_count * b_deg % a_deg:
                    continue
                a_count = b_count * b_deg // a_deg
                if b_deg > a_count:
                    continue
                for offset in (0, 5, 30):
                    rows = _round_robin_rows(offset, b_count, a_count, a_deg, b_deg)
                    prefix = (range(offset),) if offset else ()
                    yield offset + b_count, rows + tuple(prefix + row for row in rows)


def flatten(piece_rows):
    return tuple(tuple(v for piece in row for v in piece) for row in piece_rows)


class TestIntervalKernels:
    """``v_degrees`` walks a row by its intervals of consecutive v-indices
    and must agree with a per-entry count; the construction check must
    reject every row a per-entry pass rejects, wherever its fault sits."""

    @given(interval_graph())
    @settings(max_examples=400, deadline=None)
    @example((0, ()))
    @example((1, ((), (0,), ())))
    @example((3, ((2,), (0, 1, 2))))
    @example((40, (tuple(range(40)), tuple(range(39)), tuple(range(1, 40)))))
    @example((64, (tuple(range(20)) + tuple(range(21, 64)), tuple(range(0, 64, 2)))))
    def test_v_degrees_match_per_entry_count(self, graph):
        v_count, rows = graph
        g = BipartiteRealization(v_count, rows)
        assert g.v_degrees() == per_entry_v_degrees(v_count, rows)

    @given(st.lists(interval_row(), min_size=1, max_size=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_v_degrees_count_a_shared_row_per_occurrence(self, pool, data):
        # a row object given t times is walked once and counted t times
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        rows = tuple(pool[i] for i in picks)
        v_count = max((row[-1] + 1 for row in pool if row), default=0)
        g = BipartiteRealization(v_count, rows)
        copies = BipartiteRealization(v_count, tuple(tuple(list(row)) for row in rows))
        assert g.v_degrees() == per_entry_v_degrees(v_count, rows) == copies.v_degrees()

    def test_round_robin_rows(self):
        checked = 0
        for v_count, piece_rows in round_robin_graphs():
            rows = flatten(piece_rows)
            g = BipartiteRealization(v_count, rows)
            assert BipartiteRealization.from_intervals(v_count, piece_rows) == g
            assert g.v_degrees() == per_entry_v_degrees(v_count, rows), (v_count, rows)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("row", [
        (0, 2, 1, 3), (0, 1, 3, 2, 4),
        # two long intervals, one swapped pair inside the first or the second
        tuple(range(10)) + (11, 10) + tuple(range(12, 40)) + tuple(range(50, 90)),
        tuple(range(40)) + tuple(range(50, 70)) + (71, 70) + tuple(range(72, 90)),
        # a swapped pair across the join, right after a long interval
        tuple(range(39)) + (50, 39) + tuple(range(51, 90)),
        # intervals that overlap or touch at the join: only the join fails
        tuple(range(30)) + tuple(range(20, 50)),
        tuple(range(30)) + tuple(range(29, 60)),
        # a long interval, then a repeated entry in the short tail
        tuple(range(40)) + (45, 47, 47, 52),
        # a long interval with a value past its end in the middle
        tuple(range(20)) + (25,) + tuple(range(21, 60)),
    ])
    def test_rejects_rows_with_endpoints_in_range(self, row):
        assert 0 <= row[0] and row[-1] < 100
        with pytest.raises(ValueError):
            BipartiteRealization(100, ((0, 1), row))

    @given(interval_graph(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rejects_one_swapped_or_repeated_entry(self, graph, data):
        v_count, rows = graph
        long_rows = [i for i, row in enumerate(rows) if len(row) >= 3]
        if not long_rows:
            return
        i = data.draw(st.sampled_from(long_rows))
        row = list(rows[i])
        q = data.draw(st.integers(1, len(row) - 2))  # row[0] stays, all in range
        if data.draw(st.booleans()):
            row[q], row[q + 1] = row[q + 1], row[q]
        else:
            row[q] = row[q + 1]
        bad = rows[:i] + (tuple(row),) + rows[i + 1:]
        with pytest.raises(ValueError):
            BipartiteRealization(v_count, bad)


def bits(values):
    return sum(1 << v for v in values)


@st.composite
def piece_graph(draw):
    """(v_count, rows, piece rows): each row of ``interval_graph`` cut at
    random points, and each cut piece an int bitset or, if its values are
    consecutive, a range, at random, so that bitsets and ranges touch.  The
    rows start at 0 to 3, often end at v_count - 1 and span up to a few
    hundred values with gaps, so bitsets of one interval and of many 30-bit
    digits are drawn."""
    v_count, rows = draw(interval_graph())
    piece_rows = []
    for row in rows:
        cuts = sorted(draw(st.sets(st.integers(1, max(len(row) - 1, 1)), max_size=6)))
        pieces = []
        for a, b in zip([0] + cuts, cuts + [len(row)]):
            piece = row[a:b]
            if not piece:
                continue
            if piece[-1] - piece[0] == len(piece) - 1 and draw(st.booleans()):
                pieces.append(range(piece[0], piece[-1] + 1))
            else:
                pieces.append(bits(piece))
        piece_rows.append(tuple(pieces))
    return v_count, rows, tuple(piece_rows)


class TestFromIntervals:
    """``from_intervals`` takes int bitsets and ranges only and checks each
    piece in O(1); it must build what the tuple constructor builds from the
    same entries."""

    @given(piece_graph())
    @settings(max_examples=300, deadline=None)
    @example((10, ((0, 1, 2, 3, 4, 5, 6, 7, 8),), ((range(0, 5), range(5, 9)),)))
    @example((3, ((), (0, 1, 2)), ((), (range(0, 1), 0b10, range(2, 3)))))
    # one interval at 0, one ending at v_count - 1, single entries at both ends
    @example((9, ((0, 1, 2), (4, 5, 6, 7, 8), (0,), (8,)),
              ((0b111,), (bits(range(4, 9)),), (1,), (1 << 8,))))
    # bitsets of several 30-bit digits with gaps, next to ranges
    @example((100, (tuple(range(0, 100, 3)), tuple(range(31)) + (40, 62, 63, 99)),
              ((bits(range(0, 60, 3)), bits((60, 63)), bits(range(66, 100, 3))),
               (range(31), bits((40, 62, 63)), 1 << 99))))
    def test_matches_tuple_constructor(self, graph):
        v_count, rows, piece_rows = graph
        g = BipartiteRealization.from_intervals(v_count, piece_rows)
        expected = BipartiteRealization(v_count, rows)
        assert g.neighbors == expected.neighbors and g.v_count == expected.v_count
        assert g.v_degrees() == expected.v_degrees() == per_entry_v_degrees(v_count, rows)

    def test_repeated_row_object_is_built_once(self):
        row = (range(2, 5), bits((7, 9)))
        g = BipartiteRealization.from_intervals(10, (row, (0b10,), row))
        assert g.neighbors == ((2, 3, 4, 7, 9), (1,), (2, 3, 4, 7, 9))
        assert g.neighbors[0] is g.neighbors[2]
        bad = (range(8, 11),)
        with pytest.raises(ValueError):
            BipartiteRealization.from_intervals(10, ((range(2),), bad, bad))

    def test_rows_from_a_generator(self):
        # each row is a fresh tuple, freed once read, so the next row but one
        # may reuse its id: a row built by id alone repeated row 0 here
        def row(i):
            return (range(20 * i, 20 * i + 4), range(20 * i + 5, 20 * i + 9),
                    range(20 * i + 10, 20 * i + 14))
        g = BipartiteRealization.from_intervals(200, (row(i) for i in range(8)))
        assert g.neighbors == tuple(tuple(v for piece in row(i) for v in piece)
                                    for i in range(8))

    @pytest.mark.parametrize("row", [
        (range(0, 6, 2),),             # step 2
        (range(5, 0, -1),),            # step -1
        (range(3, 3),),                # empty
        (range(0, 5), range(4, 8)),    # overlapping ranges
        (range(5, 8), range(0, 3)),    # out of order
        (range(4, 2),),                # stop below start
        (bits((0, 5)), range(5, 7)),   # a bitset overlapping the next range
        (range(0, 5), bits((4, 6))),   # a range overlapping the next bitset
        (bits((1, 3)), bits((3, 4))),  # two bitsets sharing a value
        (range(8, 11),),               # stop past v_count
        (bits((9, 10)),),              # a bitset whose top bit is v_count
        (range(-2, 3),),               # negative start
        (range(-1, 1), range(1, 3)),   # a negative start before a good range
        (-1,),                         # a negative bitset
        (-0b110,),
        (1 << 10,),                    # a bit at v_count
        (0b11 | 1 << 12,),
        (range(0, 5), 1 << 4 | 1 << 7),  # a bitset below the previous range's end
        (0b11, 0b110),                 # a bitset below the previous bitset's end
        (0b1001, range(3, 5)),         # a range below the previous bitset's end
        (0b1010, 0b1100),              # a bitset overlapping the previous bitset
        (0b101, 0b10),                 # a bitset inside the previous bitset
        (0,),                          # an empty bitset, as an empty range
        (range(2), 0, 1 << 5),
    ])
    def test_rejects_bad_pieces(self, row):
        with pytest.raises(ValueError):
            BipartiteRealization.from_intervals(10, ((range(2),), row))

    @pytest.mark.parametrize("piece", [(0, 1), (), [0, 1], 3.0, Fraction(3),
                                       True, False, None, "3"])
    def test_rejects_non_integer_pieces(self, piece):
        # a tuple is no piece: the tuple constructor takes a row of entries
        with pytest.raises(TypeError):
            BipartiteRealization.from_intervals(10, ((range(2),), (piece,)))

    def test_an_int_is_a_bitset_piece(self):
        g = BipartiteRealization.from_intervals(10, ((range(2),), (3,)))
        assert g.neighbors == ((0, 1), (0, 1))

    @pytest.mark.parametrize("v_count, error", [(True, TypeError), (2.0, TypeError),
                                                (2.5, TypeError), (-1, ValueError)])
    def test_rejects_bad_v_count(self, v_count, error):
        with pytest.raises(error):
            BipartiteRealization.from_intervals(v_count, ((), ()))


class TestHingeFlip:
    def test_edge_already_present(self):
        g = construct_realization((2, 2), (2, 2))
        with pytest.raises(InvalidMoveError):
            hinge_flip(g, 0, 1, 0)

    def test_direct_move(self):
        g = BipartiteRealization(2, ((0, 1), ()))
        assert hinge_flip(g, 0, 1, 1).edges == frozenset({(0, 0), (1, 1)})

    def test_degree_bookkeeping(self):
        g = BipartiteRealization(2, ((0, 1), ()))
        flipped = hinge_flip(g, 0, 1, 1)
        assert g.u_degrees() == (2, 0) and flipped.u_degrees() == (1, 1)
        assert flipped.v_degrees() == g.v_degrees()

    @pytest.mark.parametrize("u", [-1, 2])
    def test_u_out_of_range(self, u):
        g = BipartiteRealization(2, ((0, 1), ()))
        for u1, u2 in ((u, 1), (0, u)):
            with pytest.raises(InvalidMoveError):
                hinge_flip(g, u1, u2, 0)


class TestBalancingHingeFlip:
    def test_balances_31(self):
        g = construct_realization((3, 1), (2, 1, 1))
        balanced = balancing_hinge_flip(g, 1, 0)
        assert sorted(balanced.u_degrees()) == [2, 2]

    def test_no_gap_rejected(self):
        g = construct_realization((2, 2), (2, 2))
        with pytest.raises(InvalidMoveError):
            balancing_hinge_flip(g, 0, 1)

    @pytest.mark.parametrize("u", [-1, 3])
    def test_u_out_of_range(self, u):
        # i = -1 would wrap to u_2, whose degree 0 meets the precondition
        # against u_0's degree 3
        g = BipartiteRealization(3, ((0, 1, 2), (), ()))
        for i, j in ((u, 0), (1, u)):
            with pytest.raises(InvalidMoveError):
                balancing_hinge_flip(g, i, j)

    def test_no_eligible_v_raises(self, monkeypatch):
        # degrees that claim a gap the edges do not have: the pigeonhole
        # argument fails, and the flip raises rather than returning
        g = BipartiteRealization(1, ((0,), (0,)))
        monkeypatch.setattr(BipartiteRealization, "u_degrees", lambda self: (0, 2))
        with pytest.raises(InvariantError):
            balancing_hinge_flip(g, 0, 1)

    def test_u_sum_conserved_and_v_unchanged(self):
        g = construct_realization((3, 1), (2, 1, 1))
        balanced = balancing_hinge_flip(g, 1, 0)
        assert sum(balanced.u_degrees()) == sum(g.u_degrees())
        assert balanced.v_degrees() == g.v_degrees()

    def test_multiset_shift_by_one(self):
        g = construct_realization((4, 1, 1), (2, 2, 1, 1))
        balanced = balancing_hinge_flip(g, 1, 0)
        assert sorted(balanced.u_degrees()) == [1, 2, 3]


class TestFormat:
    def test_header_and_edges(self):
        g = BipartiteRealization(2, ((0, 1),))
        assert format_realization(g) == "p bipartite 1 2 2\n0 0\n0 1"
