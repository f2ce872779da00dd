import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bdr import (DegreeSequence, ParamBounds, balanced_split, build_hard_instance,
                 enumerate_equal_sum_splits, equal_sum_split_exists, find_equal_sum_split)
from bdr.errors import InvariantError
from bdr.gale_ryser import _gale_ryser_bound, _gale_ryser_runs, _value_runs
from bdr.partition import (_count_walk, count_runs, count_vector_walk, equal_sum_walk,
                           half_sum_sets, half_sum_sets_exceed, mask_indices, split_with_u)
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
        # a walk whose first key puts nothing on U: the split must not be
        # returned with sides that miss the target
        monkeypatch.setattr("bdr.partition._count_walk",
                            lambda sigma, runs: lambda: iter([0]))
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
        # U's count vector is the count walk's first key, and each value's U
        # indices are the lowest of that value
        ds = DegreeSequence(seq)
        runs, keys = count_vector_walk(ds)
        first = next(keys, None)
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
        monkeypatch.setattr("bdr.partition.sorted", lambda items, key: sorted(items, key=key)[1:],
                            raising=False)
        with pytest.raises(InvariantError):
            balanced_split(DegreeSequence((2, 1, 1)))


class TestCountVectorWalk:
    """Read through ``count_runs``, the walk's keys are the count vectors of
    the unpruned search, in its order: the prune drops only dead subtrees."""

    @staticmethod
    def _same_vectors(seq, unpruned_count_vectors):
        runs, keys = count_vector_walk(DegreeSequence(seq))
        assert runs == sorted(Counter(d for d in seq if d).items(), reverse=True)
        assert [count_runs(runs, key) for key in keys] == list(unpruned_count_vectors(seq))

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


class TestGaleRyserPrunedWalk:
    """With ``_gale_ryser_bound``, the count walk yields the count vectors of
    the unpruned search that ``_gale_ryser_runs`` accepts, in its order."""

    @staticmethod
    def _same_keys(seq, unpruned_count_vectors):
        sigma = sum(seq)
        runs = _value_runs(seq)
        keys = _count_walk(sigma, runs)(_gale_ryser_bound(runs, sigma // 2))
        assert [count_runs(runs, key) for key in keys] == [
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
        self._same_keys(seq, unpruned_count_vectors)

    @pytest.mark.parametrize("c1, c2", [("1/10", "2/5"), ("1/20", "9/20")])
    def test_padded(self, c1, c2, unpruned_count_vectors):
        bounds = ParamBounds(Fraction(c1), Fraction(c2))
        for source in reduction_corpus(8):
            d_prime = build_hard_instance(DegreeSequence(source), bounds).d_prime
            self._same_keys(d_prime.degrees, unpruned_count_vectors)


def exact_half_sum_sets(seq):
    """The index sets of the nonzero entries of ``seq`` with half its sum,
    one count per sum grown per item."""
    if sum(seq) % 2:
        return 0
    counts = Counter({0: 1})
    for d in seq:
        if d:
            for total, count in list(counts.items()):
                counts[total + d] += count
    return counts[sum(seq) // 2]


class TestHalfSumSets:
    """The saturating count is min(N, 2**b), b = limit.bit_length(), N the
    exact count, so it exceeds ``limit`` iff N does; the walk that adds up
    index sets per count vector agrees."""

    @given(seq=st.one_of(DRAWS, MANY_DISTINCT), extra=st.integers(0, 3000))
    @settings(max_examples=400, deadline=None)
    @example(seq=[], extra=0)
    @example(seq=[3], extra=0)
    @example(seq=[1] * 16, extra=0)
    @example(seq=[2, 2, 0, 2, 2], extra=5)
    def test_against_an_exact_count(self, seq, extra):
        ds = DegreeSequence(seq)
        n = exact_half_sum_sets(seq)
        for limit in {max(n - 1, 0), n, n + 1, extra}:
            assert half_sum_sets(ds, limit) == min(n, 2 ** limit.bit_length()), limit
            walk = _count_walk(ds.sigma, _value_runs(ds.degrees))
            assert half_sum_sets_exceed(ds, limit, walk) == (n > limit), limit

    @pytest.mark.parametrize("seq", [tuple(range(1, 41)), (1,) * 30 + (2,) * 10])
    def test_long_inputs_with_small_limits_walk_the_keys(self, seq, monkeypatch):
        # the count would shift 40 integers of (sigma/2 + 1)*(b + 2) bits;
        # a few count vectors settle it
        n = exact_half_sum_sets(seq)
        monkeypatch.setattr("bdr.partition.half_sum_sets", None)
        ds = DegreeSequence(seq)
        walk = _count_walk(ds.sigma, _value_runs(ds.degrees))
        for limit in (0, 1, 2, 5):
            assert half_sum_sets_exceed(ds, limit, walk) == (n > limit)


class TestIndexSetsPerSplit:
    """A count vector with counts k_i over runs of c_i values stands for
    prod C(c_i, k_i) U index sets; over all count vectors that is two per
    split of the walk, one per side, except for the one all-zero split."""

    @staticmethod
    def _index_sets_and_leaves(seq):
        ds = DegreeSequence(seq)
        runs, keys = count_vector_walk(ds)
        index_sets = sum(prod(map(comb, (c for _, c in runs),
                                  (k for _, k in count_runs(runs, key)[0])))
                         for key in keys)
        return index_sets, sum(1 for _ in equal_sum_walk(ds)[1])

    @given(seq=DRAWS)
    @settings(max_examples=400, deadline=None)
    @example(seq=[3])
    @example(seq=[1, 1, 1])
    @example(seq=[5, 1, 1, 1])
    @example(seq=[2, 2, 0, 2, 2])
    @example(seq=[17, 13, 11, 9, 7, 5, 3, 2, 2, 1])
    def test_twice_the_leaves(self, seq):
        assume(sum(seq) > 0)
        index_sets, leaves = self._index_sets_and_leaves(seq)
        assert index_sets == 2 * leaves

    @pytest.mark.parametrize("seq", [[], [0], [0, 0, 0]])
    def test_all_zero_is_one_of_each(self, seq):
        runs, keys = count_vector_walk(DegreeSequence(seq))
        assert (runs, list(keys)) == ([], [0])
        assert self._index_sets_and_leaves(seq) == (1, 1)


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

    # zeros and repeated values; the pruned walk must drop only subtrees
    # without a split, so its leaves are the unpruned walk's, in order
    @given(seq=st.lists(st.sampled_from([0, 0, 1, 1, 2, 2, 3, 4, 5, 7, 9]), max_size=16))
    @settings(max_examples=400, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0])
    @example(seq=[5, 1, 1, 1])
    def test_same_leaves_as_unpruned_walk(self, seq, unpruned_splits):
        ds = DegreeSequence(seq)
        assert list(enumerate_equal_sum_splits(ds)) == [
            split_with_u(ds, u) for u in unpruned_splits(seq)]

    def test_same_leaves_across_blocks(self, unpruned_splits):
        # about 29 nonzero items of 34: blocks of 6, rebuilt as the walk moves
        # between them, and the sum cap of each rebuild tested
        rng = random.Random(13)
        for _ in range(40):
            seq = [rng.choice((0, 1, 2, 3, 3, 5, 8)) for _ in range(34)]
            ds = DegreeSequence(seq)
            got = [w for _, w in zip(range(3000), enumerate_equal_sum_splits(ds))]
            want = [split_with_u(ds, u) for _, u in zip(range(3000), unpruned_splits(seq))]
            assert got == want

    def test_walk_keys_are_count_vectors(self):
        rng = random.Random(17)
        for _ in range(200):
            seq = [rng.choice((0, 1, 2, 2, 3, 4, 4)) for _ in range(rng.randint(0, 12))]
            ds = DegreeSequence(seq)
            runs, leaves = equal_sum_walk(ds)
            assert runs == sorted(Counter(d for d in seq if d).items(), reverse=True)
            for key, mask in leaves:
                u = mask_indices(mask)
                on_u = Counter(seq[i] for i in u)
                assert all(seq[i] for i in u)
                assert count_runs(runs, key) == (
                    [(v, on_u[v]) for v, _ in runs], [(v, c - on_u[v]) for v, c in runs])
