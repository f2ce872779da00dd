import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from bdr import (DegreeSequence, enumerate_equal_sum_splits,
                 equal_sum_split_exists, find_equal_sum_split)
from bdr.errors import InvariantError
from bdr.partition import (_subset_sums, count_runs, equal_sum_walk, mask_indices,
                           split_with_u)


def brute_force_exists(seq):
    total = sum(seq)
    if total % 2 != 0:
        return False
    idx = range(len(seq))
    return any(sum(seq[i] for i in sub) == total // 2
               for r in range(len(seq) + 1)
               for sub in combinations(idx, r))


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
