import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from bdr import (BipartiteRealization, DegreeSequence, ParamBounds,
                 balancing_hinge_flip, construct_realization, decide_bdr,
                 format_realization, hinge_flip, is_bigraphic, is_graphic)
from bdr import gale_ryser
from bdr.errors import InvalidMoveError, InvariantError
from bdr.core import _value_runs
from bdr.gale_ryser import _gale_ryser_bound, _gale_ryser_runs
from bdr.oracle import exhaustive_pair_search
from bdr.reduction import _round_robin_rows
from conftest import decoded_rows, pack


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
    return pack(len(d2), neighbors)


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

    def test_row_past_v_count_raises(self, monkeypatch):
        # the rows are unchecked but for their bound, a typed error that
        # python -O keeps: a boundary level that hands out a bit at 40
        # reaches past the 3 v-vertices
        lowest = gale_ryser._lowest_bits
        monkeypatch.setattr(gale_ryser, "_lowest_bits",
                            lambda bits, count, m: lowest(bits, count, m) | 1 << 40)
        with pytest.raises(InvariantError, match="past v_count 3"):
            construct_realization((2, 2), (2, 1, 1))

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


def seeded_low_region_pair():
    """The pair decide_bdr realizes for a seeded n = 2000 input with degrees
    in [n/10, n/5]."""
    rng = random.Random(2000)
    degrees = [rng.randint(200, 400) for _ in range(2000)]
    while sum(degrees) % 2:
        degrees[-1] = rng.randint(200, 400)
    split = decide_bdr(DegreeSequence(degrees),
                       ParamBounds(Fraction(1, 10), Fraction(1, 5))).split
    return [degrees[i] for i in split.u], [degrees[i] for i in split.v]


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
        p = seeded_low_region_pair()
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
            # the walk hands the bound the newest run's U count, 0 at the root
            assert live(len(ks), rem, ks[-1] if ks else 0) == reference_bound(runs, half, ks), ks


class TestRealizationLayout:
    def test_derived_views(self):
        g = pack(3, ((0, 2), (), (1,)))
        assert g.u_count == 3
        assert g.u_degrees() == (2, 0, 1) and g.v_degrees() == (1, 1, 1)
        assert g.sorted_edges() == [(0, 0), (0, 2), (2, 1)]
        assert g.edges == frozenset(g.sorted_edges())

    def test_accepts_zero_and_one(self):
        g = pack(2, ((0, 1), (1,), (0,)))
        assert g.sorted_edges() == [(0, 0), (0, 1), (1, 1), (2, 0)]
        assert g.v_degrees() == (2, 2)

    def test_v_count_zero_with_empty_rows(self):
        g = pack(0, ((), ()))
        assert g.v_degrees() == () and format_realization(g) == "p bipartite 2 0 0"

    @pytest.mark.parametrize("v_count, error", [(-1, ValueError), (2.5, TypeError),
                                                (2.0, TypeError), (True, TypeError)])
    def test_rejects_bad_v_count(self, v_count, error):
        # replace() on a valid realization runs the same checks as the
        # constructor, so no copy can carry a bad v_count to the header
        g = pack(2, ((0, 1), (1,)))
        with pytest.raises(error):
            replace(g, v_count=v_count)


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
    """Semi-regular blocks as the lift builds them, as int bitsets:
    round-robin rows over a block of v-indices at an offset, each row also
    with a complete prefix (the lift's U_L rows), including the rows that
    wrap."""
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
                    prefix = (1 << offset) - 1
                    yield offset + b_count, rows + tuple(prefix | row for row in rows)


class TestIntervalKernels:
    """``v_degrees`` reads a row by its runs of consecutive v-indices and
    must agree with a per-entry count."""

    @given(interval_graph())
    @settings(max_examples=400, deadline=None)
    @example((0, ()))
    @example((1, ((), (0,), ())))
    @example((3, ((2,), (0, 1, 2))))
    @example((40, (tuple(range(40)), tuple(range(39)), tuple(range(1, 40)))))
    @example((64, (tuple(range(20)) + tuple(range(21, 64)), tuple(range(0, 64, 2)))))
    def test_v_degrees_match_per_entry_count(self, graph):
        v_count, rows = graph
        g = pack(v_count, rows)
        assert g.v_degrees() == per_entry_v_degrees(v_count, rows)

    @given(st.lists(interval_row(), min_size=1, max_size=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_v_degrees_count_a_shared_row_per_occurrence(self, pool, data):
        # equal rows are grouped by value: read once, counted t times
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        rows = tuple(pool[i] for i in picks)
        v_count = max((row[-1] + 1 for row in pool if row), default=0)
        g = pack(v_count, rows)
        assert g.v_degrees() == per_entry_v_degrees(v_count, rows)

    def test_round_robin_rows(self):
        checked = 0
        for v_count, bit_rows in round_robin_graphs():
            g = BipartiteRealization(v_count, bit_rows)
            rows = decoded_rows(g)
            assert pack(v_count, rows) == g
            assert g.sorted_edges() == [(u, v) for u, row in enumerate(rows) for v in row]
            assert g.v_degrees() == per_entry_v_degrees(v_count, rows), (v_count, rows)
            checked += 1
        assert checked > 100


def bits(values):
    return sum(1 << v for v in values)


def run_count(row):
    """The number of maximal runs of consecutive values in the increasing
    tuple ``row``."""
    return sum(1 for a, b in zip((None,) + row, row) if a != b - 1)


def runs_bits(runs):
    """The bitset of the (start, stop) ``runs``."""
    return sum((1 << stop) - (1 << start) for start, stop in runs)


class TestDecodeBits:
    """``_decode_bits`` gives the set bits, lowest first: a row of more than
    ``SMALL_ROW_BITS`` bits and at most ``SLICED_RUNS`` runs of set bits by
    that many slices, any other row by one ``compress`` pass.  Both must
    match a per-bit reading, and so must ``edge_chunks``, which renders
    each row through it.  At v_count 29 to 31 every row fits in
    ``SMALL_ROW_BITS`` bits and takes the pass; at 59 to 61 the rows of 1
    to ``SLICED_RUNS`` runs that reach past it are sliced, and the others
    take the pass."""

    K = gale_ryser.SLICED_RUNS
    SMALL = gale_ryser.SMALL_ROW_BITS

    @staticmethod
    def decode(bits, v_count):
        got = gale_ryser._decode_bits(bits, tuple(range(v_count)))
        want = tuple(v for v in range(v_count) if bits >> v & 1)
        assert got == want
        assert type(got) is tuple
        # the row as u-vertex 1, after an empty row, which yields no chunk
        g = BipartiteRealization(v_count, (0, bits))
        chunks = list(gale_ryser.edge_chunks(g, "<{}:", ">", "|"))
        assert chunks == (["|".join(f"<1:{v}>" for v in want)] if want else [])
        return got

    @pytest.mark.parametrize("v_count", [29, 30, 31, 59, 60, 61])
    def test_edge_rows(self, v_count):
        top = v_count - 1
        for bits in (0, 1, 1 << top, 1 | 1 << top, (1 << v_count) - 1,
                     (1 << v_count) - 2, (1 << top) - 1, 1 << v_count // 2):
            self.decode(bits, v_count)
        assert self.decode(0, v_count) == ()
        assert self.decode((1 << v_count) - 1, v_count) == tuple(range(v_count))

    @pytest.mark.parametrize("v_count", [29, 30, 31, 59, 60, 61])
    def test_k_and_k_plus_one_runs(self, v_count):
        # random runs, the first at bit 0 and the last at bit v_count - 1,
        # then runs of two bits one apart
        rng = random.Random(v_count)
        for runs in (self.K, self.K + 1):
            for _ in range(20):
                ends = [0, *sorted(rng.sample(range(1, v_count), 2 * runs - 2)), v_count]
                bits = runs_bits(zip(ends[::2], ends[1::2]))
                assert run_count(self.decode(bits, v_count)) == runs
            bits = runs_bits((3 * i, 3 * i + 2) for i in range(runs))
            assert run_count(self.decode(bits, v_count)) == runs

    @given(st.integers(1, 130).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_bit_reading(self, row):
        self.decode(row[1], row[0])

    def test_small_rows_take_one_pass(self, monkeypatch):
        # the small realize inputs CI pins have rows of at most 11 bits, of
        # one run, two and six: edge_chunks reads each by one compress pass
        monkeypatch.setattr(gale_ryser, "_runs", None)  # a sliced row would call it
        runs = set()
        for pair in (([2, 1], [1, 1, 1]), ([2, 2], [2, 1, 1]),
                     ([6, 6, 5], [2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2])):
            g = construct_realization(*pair)
            rows = decoded_rows(g)
            runs |= set(map(run_count, rows))
            assert list(gale_ryser.edge_chunks(g, "{}:", "", " ")) == [
                " ".join(f"{u}:{v}" for v in row) for u, row in enumerate(rows) if row]
        assert runs == {1, 2, 6}

    @pytest.mark.parametrize("length", range(201))
    def test_every_bit_length_and_run_count(self, length, monkeypatch):
        # random rows of exactly ``length`` bits and of every run count that
        # fits, 0 to SLICED_RUNS + 2, with 0 to 2 names past the top bit;
        # a row is sliced (``_runs`` called) iff it is longer than
        # SMALL_ROW_BITS bits and has at most SLICED_RUNS runs
        sliced = []
        monkeypatch.setattr(gale_ryser, "_runs",
                            lambda ends, runs=gale_ryser._runs: sliced.append(ends) or runs(ends))
        rng = random.Random(length)
        for runs in range(self.K + 3):
            if (runs == 0) != (length == 0) or 2 * runs - 1 > length:
                continue
            for _ in range(3):
                ends = [*sorted(rng.sample(range(length), 2 * runs - 1)), length] if runs else []
                bits = runs_bits(zip(ends[::2], ends[1::2]))
                assert bits.bit_length() == length
                sliced.clear()
                got = self.decode(bits, length + rng.randint(0, 2))
                assert run_count(got) == runs
                assert bool(sliced) == (length > self.SMALL and runs <= self.K)


# rows the constructor rejects at v_count 10 (ValueError)
BAD_ROWS = [
    # negative, at the 30-bit digit boundaries and beyond
    -1, -2, -0b110, -(1 << 9), -(1 << 10), -((1 << 10) - 1), -(1 << 29), -(1 << 30),
    -(1 << 31), -(1 << 60), -(1 << 61), -1 << 10,
    # a bit at v_count or above, at the same boundaries
    1 << 10, (1 << 11) - 1, 1 | 1 << 10, 0b11 | 1 << 12, 1 << 29, 1 << 30, 1 << 31,
    1 << 59, 1 << 60, 1 << 61, (1 << 61) - 1, 1 << 100,
]


class TestFromIntervals:
    """The row-bitset constructor, ``BipartiteRealization(v_count, rows)``,
    the only one: it takes rows as int bitsets, as the realizer, the lift
    and the round-robin blocks build them from ranges and set bits, and
    checks v_count and each row in O(1): an int, not a bool (TypeError),
    with 0 <= row < 1 << v_count (ValueError).  It must build what the
    test-local packer builds from the same entries, and read them back."""

    @given(interval_graph())
    @settings(max_examples=300, deadline=None)
    @example((10, ((0, 1, 2, 3, 4, 5, 6, 7, 8),)))
    @example((3, ((), (0, 1, 2))))
    # one interval at 0, one ending at v_count - 1, single entries at both ends
    @example((9, ((0, 1, 2), (4, 5, 6, 7, 8), (0,), (8,))))
    # bitsets of several 30-bit digits with gaps
    @example((100, (tuple(range(0, 100, 3)), tuple(range(31)) + (40, 62, 63, 99))))
    def test_matches_tuple_constructor(self, graph):
        v_count, rows = graph
        g = BipartiteRealization(v_count, [bits(row) for row in rows])
        assert g == pack(v_count, rows) and decoded_rows(g) == rows
        assert g.sorted_edges() == [(u, v) for u, row in enumerate(rows) for v in row]
        assert g.u_degrees() == tuple(map(len, rows))
        assert g.v_degrees() == per_entry_v_degrees(v_count, rows)

    def test_repeated_row_object_is_built_once(self, monkeypatch):
        # sorted_edges decodes equal rows once
        decode = gale_ryser._decode_bits
        calls = []
        monkeypatch.setattr(gale_ryser, "_decode_bits",
                            lambda bits, names: calls.append(bits) or decode(bits, names))
        row = bits((2, 3, 4, 7, 9))
        g = BipartiteRealization(10, (row, 0b10, row))
        assert g.sorted_edges() == [(0, 2), (0, 3), (0, 4), (0, 7), (0, 9), (1, 1),
                                    (2, 2), (2, 3), (2, 4), (2, 7), (2, 9)]
        assert sorted(calls) == sorted({row, 0b10})
        bad = 1 << 10
        with pytest.raises(ValueError, match="^u-vertex 1: "):
            BipartiteRealization(10, (0b11, bad, bad))

    def test_rows_from_a_generator(self):
        # the rows are kept as a tuple, so an iterator is read once
        def row(i):
            return bits(range(20 * i, 20 * i + 4)) | bits(range(20 * i + 5, 20 * i + 9))
        g = BipartiteRealization(200, (row(i) for i in range(8)))
        assert g.rows == tuple(row(i) for i in range(8))
        assert decoded_rows(g) == tuple(tuple(range(20 * i, 20 * i + 4))
                                        + tuple(range(20 * i + 5, 20 * i + 9)) for i in range(8))

    @pytest.mark.parametrize("row", BAD_ROWS, ids=[f"row{i}" for i in range(len(BAD_ROWS))])
    def test_rejects_bad_pieces(self, row):
        with pytest.raises(ValueError, match="^u-vertex 1: "):
            BipartiteRealization(10, (0b11, row))

    @pytest.mark.parametrize("piece", [(0, 1), (), [0, 1], 3.0, Fraction(3),
                                       True, False, None, "3"])
    def test_rejects_non_integer_pieces(self, piece):
        # a tuple is no row: a row is an int bitset
        with pytest.raises(TypeError, match="^u-vertex 1: "):
            BipartiteRealization(10, (0b11, piece))

    def test_an_int_is_a_bitset_piece(self):
        g = BipartiteRealization(10, (0b11, 3))
        assert g.sorted_edges() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("v_count, error", [(True, TypeError), (2.0, TypeError),
                                                (2.5, TypeError), (-1, ValueError),
                                                (-3, ValueError), ("2", TypeError)])
    def test_rejects_bad_v_count(self, v_count, error):
        # format_realization printed "p bipartite 2 -3 0" for v_count -3
        with pytest.raises(error):
            BipartiteRealization(v_count, (0, 0))


class TestHingeFlip:
    def test_edge_already_present(self):
        g = construct_realization((2, 2), (2, 2))
        with pytest.raises(InvalidMoveError):
            hinge_flip(g, 0, 1, 0)

    def test_edge_not_present(self):
        g = pack(2, ((0,), ()))
        with pytest.raises(InvalidMoveError, match=r"edge \(0, 1\) not present"):
            hinge_flip(g, 0, 1, 1)

    def test_direct_move(self):
        g = pack(2, ((0, 1), ()))
        assert hinge_flip(g, 0, 1, 1).edges == frozenset({(0, 0), (1, 1)})

    def test_degree_bookkeeping(self):
        g = pack(2, ((0, 1), ()))
        flipped = hinge_flip(g, 0, 1, 1)
        assert g.u_degrees() == (2, 0) and flipped.u_degrees() == (1, 1)
        assert flipped.v_degrees() == g.v_degrees()

    @pytest.mark.parametrize("u", [-1, 2, True, False, 1.0, 0.0, "1", None])
    def test_u_out_of_range(self, u):
        # a bool or a float is no u-vertex: (0, True) moved the edge to
        # u-vertex 1, and a float raised a bare TypeError
        g = pack(2, ((0, 1), ()))
        for u1, u2 in ((u, 1), (0, u)):
            with pytest.raises(InvalidMoveError):
                hinge_flip(g, u1, u2, 0)

    def test_builds_no_row_tuple(self, monkeypatch):
        # every flip of a small graph moves one bit of two rows and decodes
        # no row; the expected graphs come from per-entry tuple rows
        g = construct_realization((3, 3, 2, 1, 1), (2, 2, 2, 2, 2))
        want = {}
        neighbors = decoded_rows(g)
        for u1, nbrs in enumerate(neighbors):
            for u2 in range(g.u_count):
                for v in set(nbrs) - set(neighbors[u2]):
                    rows = [list(r) for r in neighbors]
                    rows[u1].remove(v)
                    rows[u2] = sorted(rows[u2] + [v])
                    want[u1, u2, v] = pack(g.v_count, rows)
        assert len(want) > 10

        def no_decode(*args):
            raise AssertionError("_decode_bits called")
        monkeypatch.setattr(gale_ryser, "_decode_bits", no_decode)
        for (u1, u2, v), expected in want.items():
            flipped = hinge_flip(g, u1, u2, v)
            assert flipped == expected
            assert all(flipped.rows[u] == g.rows[u]
                       for u in range(g.u_count) if u not in (u1, u2))

    def test_bool_and_out_of_range_v_raise(self):
        # v is checked before any shift: a bool, a float, a string, a
        # negative v and one far past v_count are all refused
        g = pack(3, ((0, 1, 2), ()))
        for v in (True, False, 1.0, "1", None, -1, 3, 10 ** 12):
            with pytest.raises(InvalidMoveError, match="need an int v in range"):
                hinge_flip(g, 0, 1, v)


class TestBalancingHingeFlip:
    def test_balances_31(self):
        g = construct_realization((3, 1), (2, 1, 1))
        balanced = balancing_hinge_flip(g, 1, 0)
        assert sorted(balanced.u_degrees()) == [2, 2]

    def test_no_gap_rejected(self):
        g = construct_realization((2, 2), (2, 2))
        with pytest.raises(InvalidMoveError):
            balancing_hinge_flip(g, 0, 1)

    @pytest.mark.parametrize("u", [-1, 3, True, False, 1.0, 0.0, "1", None])
    def test_u_out_of_range(self, u):
        # i = -1 would wrap to u_2, whose degree 0 meets the precondition
        # against u_0's degree 3; so would i = True, as u_1
        g = pack(3, ((0, 1, 2), (), ()))
        for i, j in ((u, 0), (1, u)):
            with pytest.raises(InvalidMoveError):
                balancing_hinge_flip(g, i, j)

    def test_no_eligible_v_raises(self, monkeypatch):
        # degrees that claim a gap the edges do not have: the pigeonhole
        # argument fails, and the flip raises rather than returning
        g = pack(1, ((0,), (0,)))
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
        g = pack(2, ((0, 1),))
        assert format_realization(g) == "p bipartite 1 2 2\n0 0\n0 1"
