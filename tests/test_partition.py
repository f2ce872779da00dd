import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from bdr import (DegreeSequence, ParamBounds, balanced_split, build_hard_instance,
                 enumerate_equal_sum_splits, equal_sum_split_exists, find_equal_sum_split)
from bdr import partition
from bdr.decider import decide_exact
from bdr.errors import BudgetExceededError, InvariantError
from bdr.gale_ryser import _gale_ryser_bound, _gale_ryser_runs, _value_runs
from bdr.partition import _block, _count_walk, count_runs, split_with_u
from conftest import MANY_DISTINCT, reduction_corpus

# zeros and repeated values, or one value repeated up to 16 times (every
# binary part of its count)
DRAWS = st.one_of(
    st.lists(st.sampled_from([0, 0, 1, 1, 2, 2, 3, 4, 5, 7, 9]), max_size=16),
    st.tuples(st.integers(0, 9), st.integers(0, 16)).map(lambda vc: [vc[0]] * vc[1]))


def brute_force_exists(seq):
    total = sum(seq)
    if total % 2 != 0:
        return False
    idx = range(len(seq))
    return any(sum(seq[i] for i in sub) == total // 2
               for r in range(len(seq) + 1)
               for sub in combinations(idx, r))


def per_item_reach(seq):
    """Whether some subset of ``seq`` sums to half its total, one set of
    reachable sums grown per item."""
    total = sum(seq)
    if total % 2:
        return False
    reach = {0}
    for d in seq:
        reach |= {r + d for r in reach}
    return total // 2 in reach


def assert_split(seq, w):
    """U and V are increasing, partition the indices, hold every zero on U
    and have equal sums."""
    u, v = w.u, w.v
    assert list(u) == sorted(set(u)) and list(v) == sorted(set(v))
    assert sorted(u + v) == list(range(len(seq)))
    assert all(seq[i] for i in v)
    assert sum(seq[i] for i in u) == sum(seq[i] for i in v) == sum(seq) // 2


class TestExists:
    def test_symmetric(self):
        assert equal_sum_split_exists(DegreeSequence((2, 2, 2, 2)))

    def test_5111(self):
        assert not equal_sum_split_exists(DegreeSequence((5, 1, 1, 1)))

    def test_3111(self):
        assert equal_sum_split_exists(DegreeSequence((3, 1, 1, 1)))

    @given(st.lists(st.integers(0, 12), max_size=16))
    @settings(max_examples=300)
    def test_dp_agrees_with_subset_enumeration(self, seq):
        assert equal_sum_split_exists(DegreeSequence(seq)) == brute_force_exists(seq)

    # the bounded subset-sum over (value, count) runs against one step per item
    @given(DRAWS)
    @settings(max_examples=400)
    @example([])
    @example([0, 0, 0])
    @example([1, 1, 1])
    @example([3])
    @example([4, 2, 1])
    @example([6, 2, 2, 2])
    @example([4, 4, 4, 2, 2, 2, 2, 2, 2, 1, 1])
    def test_run_dp_agrees_with_per_item_reach(self, seq):
        assert equal_sum_split_exists(DegreeSequence(seq)) == per_item_reach(seq)


class TestFindSplit:
    def test_witness_invariant(self):
        w = find_equal_sum_split(DegreeSequence((2, 2, 2, 2)))
        assert sum(2 for _ in w.u) == sum(2 for _ in w.v) == 4

    def test_forced_pair(self):
        w = find_equal_sum_split(DegreeSequence((1, 1)))
        assert len(w.u) == len(w.v) == 1

    def test_none(self):
        assert find_equal_sum_split(DegreeSequence((5, 1, 1, 1))) is None

    @given(st.lists(st.integers(0, 10), max_size=14))
    def test_witness_sums(self, seq):
        ds = DegreeSequence(seq)
        w = find_equal_sum_split(ds)
        if w is None:
            assert not equal_sum_split_exists(ds)
        else:
            assert_split(seq, w)

    def test_zeros_kept_on_u_side(self):
        w = find_equal_sum_split(DegreeSequence((0, 1, 0, 1)))
        assert {0, 2} <= set(w.u)

    def test_wrong_count_vector_raises(self, monkeypatch):
        # a walk whose first count vector puts nothing on U: the split must
        # not be returned with sides that miss the target
        monkeypatch.setattr("bdr.partition._count_walk",
                            lambda sigma, runs, live=None: iter([(0, 0)]))
        with pytest.raises(InvariantError, match="split has side sums 0 and 4"):
            find_equal_sum_split(DegreeSequence((2, 1, 1)))

    @given(DRAWS)
    @settings(max_examples=400)
    @example([])
    @example([0, 0])
    @example([5, 1, 1, 1])
    @example([2, 1, 1, 0])
    @example([5] * 8 + [4] * 5)
    def test_first_count_vector_on_lowest_indices(self, seq):
        # U's count vector is the count walk's first, and each value's U
        # indices are the lowest of that value
        ds = DegreeSequence(seq)
        runs = _value_runs(seq)
        first = next(_count_walk(ds.sigma, runs), None)
        w = find_equal_sum_split(ds)
        if first is None:
            assert w is None
            return
        assert_split(seq, w)
        for value, k in count_runs(runs, first)[0]:
            at = [i for i, d in enumerate(seq) if d == value]
            assert [i for i in w.u if seq[i] == value] == at[:k]

    def test_seeded_low_region(self):
        # n = 2000 crosses the count walk's block boundaries
        rng = random.Random(2000)
        degrees = [rng.randint(200, 400) for _ in range(2000)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(200, 400)
        assert_split(degrees, find_equal_sum_split(DegreeSequence(degrees)))


class TestBalancedSplit:
    @given(st.one_of(DRAWS, st.lists(st.integers(0, 30), max_size=40)))
    @settings(max_examples=500, deadline=None)
    @example([])
    @example([0, 0])
    @example([5] * 8 + [4] * 5)
    def test_split_or_none(self, seq):
        ds = DegreeSequence(seq)
        w = balanced_split(ds)
        if w is not None:
            assert equal_sum_split_exists(ds)
            assert_split(seq, w)

    def test_greedy_balance_without_swap(self):
        # 3 -> U, 3 -> V, 2 -> U, 2 -> V: the sums meet at 5
        assert balanced_split(DegreeSequence((2, 3, 2, 3))) == split_with_u(
            DegreeSequence((2, 3, 2, 3)), (0, 1))

    def test_one_swap_closes_the_gap(self):
        # greedy: U = {0, 2, 4} (7), V = {1, 3} (5), gap 2; the lowest U
        # index 0 (degree 3) swaps with the lowest V index of degree 2
        ds = DegreeSequence((3, 3, 2, 2, 2))
        assert balanced_split(ds) == split_with_u(ds, (2, 3, 4))

    def test_no_swap_pair(self):
        # greedy leaves a gap of 4 and no two degrees differ by 2, but six
        # 5s against two 5s and five 4s is a split
        ds = DegreeSequence((5,) * 8 + (4,) * 5)
        assert balanced_split(ds) is None and equal_sum_split_exists(ds)

    def test_odd_sum(self):
        assert balanced_split(DegreeSequence((2, 1, 1, 1))) is None

    def test_unequal_sides_raise(self, monkeypatch):
        # an order that loses the first index leaves it on V after the
        # sides have been balanced without it
        monkeypatch.setattr("bdr.partition.sorted",
                            lambda items, **how: sorted(items, **how)[1:], raising=False)
        with pytest.raises(InvariantError):
            balanced_split(DegreeSequence((2, 1, 1)))


class TestCountVectorWalk:
    """Read through ``count_runs``, the walk's count vectors are those of
    the unpruned search, in its order: the prune drops only dead subtrees."""

    @staticmethod
    def _same_vectors(seq, unpruned_count_vectors):
        runs = _value_runs(seq)
        assert runs == sorted(Counter(d for d in seq if d).items(), reverse=True)
        assert ([count_runs(runs, counts) for counts in _count_walk(sum(seq), runs)]
                == list(unpruned_count_vectors(seq)))

    @given(seq=st.one_of(DRAWS, MANY_DISTINCT))
    @settings(max_examples=400, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0, 0])
    @example(seq=[1, 1, 1])
    @example(seq=[3])
    @example(seq=[5, 1, 1, 1])
    @example(seq=[17, 13, 11, 9, 7, 5, 3, 2, 2, 1])
    def test_drawn(self, seq, unpruned_count_vectors):
        self._same_vectors(seq, unpruned_count_vectors)

    @pytest.mark.parametrize("c1, c2", [("1/10", "2/5"), ("1/20", "9/20")])
    def test_padded(self, c1, c2, unpruned_count_vectors):
        bounds = ParamBounds(Fraction(c1), Fraction(c2))
        for source in reduction_corpus(8):
            d_prime = build_hard_instance(DegreeSequence(source), bounds).d_prime
            self._same_vectors(d_prime.degrees, unpruned_count_vectors)


class TestMirrorOrder:
    """The order both exact searches rely on: the walk yields the unpruned
    search's U count vectors, strictly decreasing lexicographically; their
    set is closed under the complement, and every count vector above its
    complement comes before every one equal to it, and those before every
    one below its own."""

    @staticmethod
    def _mirror_order(seq, unpruned_count_vectors):
        runs = _value_runs(seq)
        vectors = list(_count_walk(sum(seq), runs))
        assert vectors == [tuple(k for _, k in u) for u, _ in unpruned_count_vectors(seq)]
        assert all(a > b for a, b in zip(vectors, vectors[1:]))
        mirrors = [tuple(c - k for (_, c), k in zip(runs, v)) for v in vectors]
        assert set(mirrors) == set(vectors)
        sides = [(v > w) - (v < w) for v, w in zip(vectors, mirrors)]
        assert sides == sorted(sides, reverse=True)

    @given(seq=st.one_of(DRAWS, MANY_DISTINCT))
    @settings(max_examples=400, deadline=None)
    @example(seq=[])
    @example(seq=[2, 2, 2, 2])
    @example(seq=[4, 3, 3, 3, 1, 1, 1])
    @example(seq=[17, 13, 11, 9, 7, 5, 3, 2, 2, 1])
    def test_drawn(self, seq, unpruned_count_vectors):
        self._mirror_order(seq, unpruned_count_vectors)

    @pytest.mark.parametrize("c1, c2", [("1/10", "2/5"), ("1/20", "9/20")])
    def test_padded(self, c1, c2, unpruned_count_vectors):
        bounds = ParamBounds(Fraction(c1), Fraction(c2))
        for source in reduction_corpus(8):
            d_prime = build_hard_instance(DegreeSequence(source), bounds).d_prime
            self._mirror_order(d_prime.degrees, unpruned_count_vectors)


class TestGaleRyserPrunedWalk:
    """With ``_gale_ryser_bound``, the count walk yields the count vectors of
    the unpruned search that ``_gale_ryser_runs`` accepts, in its order."""

    @staticmethod
    def _same_vectors(seq, unpruned_count_vectors):
        sigma = sum(seq)
        runs = _value_runs(seq)
        walk = _count_walk(sigma, runs, _gale_ryser_bound(runs, sigma // 2))
        assert [count_runs(runs, counts) for counts in walk] == [
            (u, v) for u, v in unpruned_count_vectors(seq) if _gale_ryser_runs(u, v)]

    @given(seq=st.one_of(DRAWS, MANY_DISTINCT))
    @settings(max_examples=500, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0, 0])
    @example(seq=[2, 2, 2, 2])
    @example(seq=[3, 3, 2, 2, 1, 1])
    @example(seq=[5, 3, 1, 1, 1, 1])
    @example(seq=[17, 13, 11, 9, 7, 5, 3, 2, 2, 1])
    @example(seq=[4] * 16)
    def test_drawn(self, seq, unpruned_count_vectors):
        self._same_vectors(seq, unpruned_count_vectors)

    @pytest.mark.parametrize("c1, c2", [("1/10", "2/5"), ("1/20", "9/20")])
    def test_padded(self, c1, c2, unpruned_count_vectors):
        bounds = ParamBounds(Fraction(c1), Fraction(c2))
        for source in reduction_corpus(8):
            d_prime = build_hard_instance(DegreeSequence(source), bounds).d_prime
            self._same_vectors(d_prime.degrees, unpruned_count_vectors)


class TestSizeFeasibleKeys:
    """Per U size s <= m/2, s ascending, the unpruned search's first count
    vector whose U side has s degrees, each at most m - s, and whose V
    side's degrees are each at most s."""

    @staticmethod
    def _first_per_size(seq, unpruned_count_vectors):
        m = sum(1 for d in seq if d)
        first = {}
        for u, v in unpruned_count_vectors(seq):
            s = sum(c for _, c in u)
            if (s <= m - s and all(d <= m - s for d, c in u if c)
                    and all(d <= s for d, c in v if c)):
                first.setdefault(s, (u, v))
        return [first[s] for s in sorted(first)]

    @given(seq=st.one_of(DRAWS, MANY_DISTINCT))
    @settings(max_examples=400, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0, 0])
    @example(seq=[4, 2, 2, 2, 2])
    @example(seq=[3, 3, 2, 2, 1, 1])
    @example(seq=[4] * 16)
    @example(seq=[17, 13, 11, 9, 7, 5, 3, 2, 2, 1])
    def test_drawn(self, seq, unpruned_count_vectors):
        runs = _value_runs(seq)
        proposals = partition.size_feasible_counts(sum(seq), runs)
        assert [count_runs(runs, counts) for counts in proposals] == self._first_per_size(
            seq, unpruned_count_vectors)

    @pytest.mark.parametrize("c1, c2", [("1/10", "2/5"), ("1/20", "9/20")])
    def test_padded(self, c1, c2, unpruned_count_vectors):
        bounds = ParamBounds(Fraction(c1), Fraction(c2))
        for source in reduction_corpus(8):
            seq = build_hard_instance(DegreeSequence(source), bounds).d_prime.degrees
            runs = _value_runs(seq)
            proposals = partition.size_feasible_counts(sum(seq), runs)
            assert [count_runs(runs, counts) for counts in proposals] == self._first_per_size(
                seq, unpruned_count_vectors)

    @pytest.mark.parametrize("seq", [
        (4, 2, 2, 2, 2),  # the 4 leaves s <= 1, and five degrees exceed 1
        (3, 3, 2, 1, 1),  # s = 2 asks 2 degrees of sum 1
        (2, 2, 2, 2, 2)])  # s = 2 asks 2 degrees of at most 2 each for sum 5
    def test_no_size_left_builds_no_table(self, seq, monkeypatch):
        # a size that the degrees at most s cannot fill asks nothing of the
        # table, so with no size left no cap is too small
        monkeypatch.setattr(partition, "SIZE_DP_BITS", 0)
        assert list(partition.size_feasible_counts(sum(seq), _value_runs(seq))) == []
        assert partition.size_feasible_counts(8, _value_runs((2, 2, 2, 2))) is None


class TestEnumerate:
    def test_count_1111(self):
        # C(4,2)/2 unordered balanced labelings
        assert len(list(enumerate_equal_sum_splits(DegreeSequence((1, 1, 1, 1))))) == 3

    def test_count_211(self):
        splits = list(enumerate_equal_sum_splits(DegreeSequence((2, 1, 1))))
        assert len(splits) == 1
        assert splits[0].u == (0,)

    def test_zero_degrees_do_not_multiply_splits(self):
        base = len(list(enumerate_equal_sum_splits(DegreeSequence((1, 1, 1, 1)))))
        padded = len(list(enumerate_equal_sum_splits(DegreeSequence((1, 0, 1, 1, 0, 1)))))
        assert base == padded == 3

    @given(st.lists(st.integers(0, 8), max_size=12))
    @settings(max_examples=200)
    def test_nonempty_iff_exists_and_all_valid(self, seq):
        ds = DegreeSequence(seq)
        splits = list(enumerate_equal_sum_splits(ds))
        assert bool(splits) == equal_sum_split_exists(ds)
        seen = set()
        for w in splits:
            assert_split(seq, w)
            key = tuple(sorted(i for i in w.u if seq[i] > 0))
            assert key not in seen
            seen.add(key)

    def test_yield_order(self):
        # by count vector over 2, 1: (2, 0) puts index 0 on V and yields
        # nothing, then (1, 2), the 2s at 4 and 5 varying slowest, each
        # run's index sets lowest first, then (0, 4)
        ds = DegreeSequence((1, 1, 1, 1, 2, 2))
        assert [w.u for w in enumerate_equal_sum_splits(ds)] == [
            (0, 1, 4), (0, 2, 4), (0, 3, 4), (0, 1, 5), (0, 2, 5), (0, 3, 5), (0, 1, 2, 3)]

    # each split of the unpruned reference walk once, with its first nonzero
    # index on U as the reference has it; zeros, repeated values, and one
    # value up to 16 times
    @given(seq=DRAWS)
    @settings(max_examples=400, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0])
    @example(seq=[5, 1, 1, 1])
    @example(seq=[0, 1, 3, 1, 1])
    def test_same_splits_as_unpruned_walk(self, seq, unpruned_splits):
        ds = DegreeSequence(seq)
        splits = list(enumerate_equal_sum_splits(ds))
        assert len(set(splits)) == len(splits)
        assert set(splits) == {split_with_u(ds, u) for u in unpruned_splits(seq)}


def _ceil_sqrt(m):
    r = isqrt(m)
    return r + (r * r < m)


def _fits(block, positions, m):
    """block + 1 held rows and the checkpoints past the first within
    2*ceil(sqrt(m)) + 2."""
    return block + 1 + positions // block <= 2 * _ceil_sqrt(m) + 2


def _count_walk_spy(monkeypatch):
    """Per count walk that ``decide_exact`` starts, its checkpoints past the
    first and the rows it holds, first and after each rebuild; the first
    two are read from the walk's frame at its first node, once it has built
    its bitsets."""
    walks = []
    count_walk, run_sums = partition._count_walk, partition._run_sums

    def spy_count_walk(sigma, runs, live):
        def spied(*node):
            if len(walks) == started:
                names = walk.gi_frame.f_locals
                walks.append((len(names["checkpoints"]) - 1, [len(names["rows"])]))
            return live(*node)
        started = len(walks)
        walk = count_walk(sigma, runs, spied)
        return walk

    def spy_run_sums(runs, mask, *reach):
        rows = list(run_sums(runs, mask, *reach))
        if reach:  # a rebuild from a checkpoint
            walks[-1][1].append(len(rows))
        return iter(rows)

    monkeypatch.setattr("bdr.decider._count_walk", spy_count_walk)
    monkeypatch.setattr(partition, "_run_sums", spy_run_sums)
    return walks


class TestBlockRule:
    """The count walk sizes its blocks by ``_block``: held rows plus
    checkpoints within 2*ceil(sqrt(m)) + 2 bitsets."""

    def test_largest_block_that_fits(self):
        for m in range(5001):
            limit = 2 * _ceil_sqrt(m) + 2
            # the count walk's d - 1 run positions, all d <= m for small m,
            # else those about its one-block edge and a few more
            runs = range(1, m + 1) if m <= 300 else {1, 2, limit - 2, limit - 1, limit,
                                                     limit + 1, m // 2, m}
            for positions in {d - 1 for d in runs if 1 <= d <= m}:
                block = _block(positions, m)
                assert block >= 1 and _fits(block, positions, m)
                assert not any(_fits(b, positions, m) for b in range(block + 1, limit + 1))

    # the half graph of 1..200 (each value twice), whose count walk
    # rebuilds blocks before it passes budget 1, and the n' = 1604 stall
    @pytest.mark.parametrize("stall", [False, True])
    def test_walks_hold_within_the_bound(self, stall, monkeypatch):
        if stall:
            ds = build_hard_instance(DegreeSequence((1, 1, 1, 1)),
                                     ParamBounds(Fraction(3, 20), Fraction(2, 5))).d_prime
        else:
            ds = DegreeSequence(tuple(v for v in range(1, 201) for _ in (0, 1)))
        m = sum(1 for d in ds.degrees if d)
        limit = 2 * _ceil_sqrt(m) + 2
        count = _count_walk_spy(monkeypatch)
        with pytest.raises(BudgetExceededError):
            decide_exact(ds, budget=20000 if stall else 1)
        (checkpoints, rows), = count
        assert stall or len(rows) > 1
        assert max(rows) + checkpoints <= limit
