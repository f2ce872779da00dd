import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bdr import (DegreeSequence, ParamBounds, build_hard_instance,
                 enumerate_equal_sum_splits, equal_sum_split_exists, find_equal_sum_split)
from bdr.errors import InvariantError
from bdr.gale_ryser import _gale_ryser_bound, _gale_ryser_runs, _value_runs
from bdr.partition import (_count_keys, _subset_sums, count_runs, count_vector_walk,
                           equal_sum_walk, half_sum_sets, half_sum_sets_exceed, mask_indices,
                           split_with_u)
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
    u, v = w.u_indices(), w.v_indices()
    assert list(u) == sorted(set(u)) and list(v) == sorted(set(v))
    assert sorted(u + v) == list(range(len(seq)))
    assert all(seq[i] for i in v)
    assert sum(seq[i] for i in u) == sum(seq[i] for i in v) == sum(seq) // 2


def reference_split(ds):
    """The full-table reconstruction the checkpointed one replaced: every
    prefix bitset kept, item i excluded whenever its prefix reaches cur."""
    if ds.sigma % 2:
        return None
    target = ds.sigma // 2
    reachable = list(_subset_sums(ds.degrees, target))
    if not reachable[-1] >> target & 1:
        return None
    u_side = []
    cur = target
    for i in range(ds.n - 1, -1, -1):
        if not reachable[i] >> cur & 1:
            u_side.append(i)
            cur -= ds.degrees[i]
    assert cur == 0
    return split_with_u(ds, u_side)


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
        assert sum(2 for _ in w.u_indices()) == sum(2 for _ in w.v_indices()) == 4

    def test_forced_pair(self):
        w = find_equal_sum_split(DegreeSequence((1, 1)))
        assert len(w.u_indices()) == len(w.v_indices()) == 1

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
        assert {0, 2} <= set(w.u_indices())

    def test_inconsistent_dp_table_raises(self, monkeypatch):
        # a table that claims every sum for every prefix: the reconstruction
        # picks nothing and must not return a split that misses the target
        def every_sum(degrees, target, reach=1):
            yield from [(1 << (target + 1)) - 1] * (len(degrees) + 1)

        monkeypatch.setattr("bdr.partition._subset_sums", every_sum)
        with pytest.raises(InvariantError):
            find_equal_sum_split(DegreeSequence((2, 1, 1)))


class TestSplitMatchesReference:
    # n <= 3: at most two blocks; n = 15, 16, 17 (block size 4, 4, 5): a
    # last block of 3, 4 and 2 items, where the reconstruction starts
    @given(st.one_of(st.sampled_from([0, 1, 2, 3, 15, 16, 17]), st.integers(0, 60))
           .flatmap(lambda n: st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    @settings(max_examples=500, deadline=None)
    def test_same_witness(self, seq):
        ds = DegreeSequence(seq)
        assert find_equal_sum_split(ds) == reference_split(ds)

    def test_seeded_low_region(self):
        rng = random.Random(2000)
        degrees = [rng.randint(200, 400) for _ in range(2000)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(200, 400)
        ds = DegreeSequence(degrees)
        w = find_equal_sum_split(ds)
        assert w is not None and w == reference_split(ds)


class TestWitnessIsReversedWalk:
    """The witness's V side is the U side of the first split the unpruned
    walk meets on the reversed sequence, read back to front.  The
    reconstruction keeps item j off U whenever the items before it reach
    U's remaining sum; the walk puts j on its side whenever those items
    reach that side's remaining sum less j.  The two remainders add up to
    the sum of the items before j, so a subset of them reaches one iff its
    complement reaches the other: the same test."""

    @given(seq=st.lists(st.sampled_from([0, 0, 1, 1, 2, 2, 3, 4, 5, 7, 9]), max_size=16))
    @settings(max_examples=400, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0])
    @example(seq=[5, 1, 1, 1])
    @example(seq=[2, 1, 1, 0])
    def test_first_split_of_reversed_walk(self, seq, unpruned_splits):
        w = find_equal_sum_split(DegreeSequence(seq))
        first = next(unpruned_splits(seq[::-1]), None)
        if w is None:
            assert first is None
        else:
            assert w.v == tuple(len(seq) - 1 - j for j in reversed(first))


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
        keys = _count_keys(sigma, runs, _gale_ryser_bound(runs, sigma // 2))
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
            assert half_sum_sets_exceed(ds, limit) == (n > limit), limit

    @pytest.mark.parametrize("seq", [tuple(range(1, 41)), (1,) * 30 + (2,) * 10])
    def test_long_inputs_with_small_limits_walk_the_keys(self, seq, monkeypatch):
        # the count would shift 40 integers of (sigma/2 + 1)*(b + 2) bits;
        # a few count vectors settle it
        n = exact_half_sum_sets(seq)
        monkeypatch.setattr("bdr.partition.half_sum_sets", None)
        for limit in (0, 1, 2, 5):
            assert half_sum_sets_exceed(DegreeSequence(seq), limit) == (n > limit)


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
        assert splits[0].u_indices() == (0,)

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
            key = tuple(sorted(i for i in w.u_indices() if seq[i] > 0))
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
