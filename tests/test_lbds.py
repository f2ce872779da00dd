import random
from fractions import Fraction
from math import ceil, floor

import pytest

from bdr import (DegreeClass, DegreeSequence,
                 balancing_hinge_flip, construct_realization, is_bigraphic,
                 lbds, lbds_pair_bigraphic, lbds_shape)
from bdr.errors import InfeasibleClassError, InvalidPairError, InvariantError


def critical_k_check(class1, class2):
    """The pair check as it was first written: the Gale–Ryser inequalities of
    the LBDS pair at the critical indices floor(q), ceil(q) and n1 only, with
    q = (sigma - n1*d1)/(delta1 - d1); every k when the first LBDS is
    constant."""
    a, b = lbds(class1).degrees, lbds(class2).degrees
    n1, sigma, d, delta = class1.n, class1.sigma, class1.d, class1.delta
    if delta == d or sigma == n1 * d:
        ks = range(1, n1 + 1)
    else:
        num, den = sigma - n1 * d, delta - d
        ks = {min(max(k, 1), n1) for k in (num // den, -(-num // den), n1)}
    return all(sum(a[:k]) <= sum(min(k, x) for x in b) for k in ks)


def drop_points(seq):
    """The 1-based k with seq[k-1] > seq[k] in a non-increasing seq, and n."""
    n = len(seq)
    return {k for k in range(1, n) if seq[k - 1] > seq[k]} | {n}


class TestLbds:
    def test_worked_shape(self):
        assert lbds(DegreeClass(5, 10, 1, 3)).degrees == (3, 3, 2, 1, 1)

    def test_constant_class_forced(self):
        assert lbds(DegreeClass(4, 8, 2, 2)).degrees == (2, 2, 2, 2)

    def test_single_max(self):
        assert lbds(DegreeClass(3, 6, 1, 4)).degrees == (4, 1, 1)

    def test_all_max(self):
        assert lbds(DegreeClass(3, 12, 1, 4)).degrees == (4, 4, 4)

    def test_empty_class(self):
        with pytest.raises(InfeasibleClassError):
            lbds(DegreeClass(3, 20, 1, 4))

    def test_intermediate_degree_out_of_range_raises(self, monkeypatch):
        # an empty class that slips past the emptiness check has no
        # intermediate degree within [d, delta]
        monkeypatch.setattr(DegreeClass, "is_empty", property(lambda self: False))
        with pytest.raises(InvariantError):
            lbds_shape(DegreeClass(3, 100, 1, 2))

    def test_shape_identity(self):
        shape = lbds_shape(DegreeClass(6, 17, 2, 4))
        cls = shape.cls
        assert shape.k * cls.delta + shape.d_int + shape.tail * cls.d == cls.sigma

    def test_output_invariants(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 10)
            d = rng.randint(0, 6)
            delta = rng.randint(d, 8)
            sigma = rng.randint(n * d, n * delta)
            cls = DegreeClass(n, sigma, d, delta)
            seq = lbds(cls).degrees
            assert sum(seq) == sigma
            assert min(seq) >= d and max(seq) <= delta
            assert seq == tuple(sorted(seq, reverse=True))
            assert sum(1 for x in seq if d < x < delta) <= 1


class TestLbdsPairBigraphic:
    def test_regular_pair(self):
        c = DegreeClass(3, 6, 2, 2)
        assert lbds_pair_bigraphic(c, c)

    def test_true_pair(self):
        assert lbds_pair_bigraphic(DegreeClass(2, 6, 3, 3), DegreeClass(4, 6, 1, 2))

    def test_degree_exceeds_opposite_class(self):
        assert not lbds_pair_bigraphic(DegreeClass(2, 8, 4, 4), DegreeClass(3, 8, 2, 3))

    def test_unequal_sums(self):
        with pytest.raises(InvalidPairError):
            lbds_pair_bigraphic(DegreeClass(2, 4, 2, 2), DegreeClass(2, 6, 3, 3))

    def test_fast_path_agrees_with_full_check_small_grid(self):
        for sigma in range(1, 21):
            classes = []
            for n in range(1, 8):
                for d in range(0, min(sigma // n, 8) + 1):
                    for delta in range(d, 9):
                        cls = DegreeClass(n, sigma, d, delta)
                        if not cls.is_empty:
                            classes.append(cls)
            for c1 in classes:
                for c2 in classes:
                    assert lbds_pair_bigraphic(c1, c2) == critical_k_check(c1, c2), (c1, c2)

    def test_fast_path_agrees_with_full_check_sampled_large(self):
        rng = random.Random(11)
        checked = 0
        while checked < 4000:
            sigma = rng.randint(1, 80)
            cs = []
            for _ in range(2):
                n = rng.randint(1, 12)
                d = rng.randint(0, min(sigma // n, 10))
                delta = rng.randint(d, 14)
                cs.append(DegreeClass(n, sigma, d, delta))
            if any(c.is_empty for c in cs):
                continue
            checked += 1
            assert lbds_pair_bigraphic(cs[0], cs[1]) == critical_k_check(cs[0], cs[1]), cs

    def test_lbds_drop_points_are_the_critical_indices(self):
        checked = 0
        for n in range(1, 13):
            for delta in range(1, 15):
                for d in range(delta):
                    for sigma in range(n * d + 1, min(n * delta, 60) + 1):
                        q = Fraction(sigma - n * d, delta - d)
                        critical = {min(max(k, 1), n) for k in (floor(q), ceil(q), n)}
                        seq = lbds(DegreeClass(n, sigma, d, delta)).degrees
                        assert drop_points(seq) == critical, (n, sigma, d, delta)
                        checked += 1
        assert checked == 24644


def random_member(rng, cls):
    """A random element of the class, by randomized repair of a box sample."""
    seq = [rng.randint(cls.d, cls.delta) for _ in range(cls.n)]
    while sum(seq) > cls.sigma:
        i = rng.randrange(cls.n)
        if seq[i] > cls.d:
            seq[i] -= 1
    while sum(seq) < cls.sigma:
        i = rng.randrange(cls.n)
        if seq[i] < cls.delta:
            seq[i] += 1
    return DegreeSequence(seq)


def random_nonempty_class(rng, max_n=10, max_sigma=60):
    while True:
        n = rng.randint(1, max_n)
        d = rng.randint(0, 8)
        delta = rng.randint(d, 12)
        if n * d > max_sigma:
            continue
        lo, hi = n * d, min(n * delta, max_sigma)
        if lo > hi:
            continue
        return n, d, delta, lo, hi


class TestExtremality:
    def test_sampled_members_of_bigraphic_lbds_classes_are_bigraphic(self):
        rng = random.Random(23)
        found = 0
        while found < 200:
            n1, d1, delta1, lo1, hi1 = random_nonempty_class(rng)
            n2, d2, delta2, lo2, hi2 = random_nonempty_class(rng)
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo > hi:
                continue
            sigma = rng.randint(lo, hi)
            c1 = DegreeClass(n1, sigma, d1, delta1)
            c2 = DegreeClass(n2, sigma, d2, delta2)
            if not lbds_pair_bigraphic(c1, c2):
                continue
            found += 1
            for _ in range(10):
                p = (random_member(rng, c1).degrees, random_member(rng, c2).degrees)
                assert is_bigraphic(*p), (c1, c2, p)


class TestMonotoneFlipPath:
    def test_balancing_flips_reach_sampled_member_multiset(self):
        rng = random.Random(5)
        reached = 0
        while reached < 40:
            n1, d1, delta1, lo1, hi1 = random_nonempty_class(rng, max_n=6, max_sigma=24)
            n2, d2, delta2, lo2, hi2 = random_nonempty_class(rng, max_n=6, max_sigma=24)
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo > hi:
                continue
            sigma = rng.randint(lo, hi)
            c1 = DegreeClass(n1, sigma, d1, delta1)
            c2 = DegreeClass(n2, sigma, d2, delta2)
            if not lbds_pair_bigraphic(c1, c2):
                continue
            target = sorted(random_member(rng, c1).degrees, reverse=True)
            g = construct_realization(lbds(c1).degrees, lbds(c2).degrees)
            assert g is not None
            for _ in range(300):
                deg = g.u_degrees()
                cur = sorted(deg, reverse=True)
                if cur == target:
                    break
                # the extremal sequence majorizes the target: shift one unit
                # from the first over-target rank to the first under-target one
                hi = next(v for v, t in zip(cur, target) if v > t)
                lo = next(v for v, t in zip(cur, target) if v < t)
                over = deg.index(hi)
                under = deg.index(lo)
                g = balancing_hinge_flip(g, under, over)
            assert sorted(g.u_degrees(), reverse=True) == target
            reached += 1
