import random
from collections import Counter
from fractions import Fraction

import pytest

from bdr import (Decision, DegreeSequence, ParamBounds, RegionClass,
                 classify_region, decide_bdr, decide_exact, max_degree_gap,
                 precheck, threshold_at_or_below, threshold_c2)
from bdr.errors import BudgetExceededError, InputOutOfClassError, InvariantError
from bdr.oracle import brute_force_bipartite_realizable


F = Fraction


class TestClassifyRegion:
    def test_low(self):
        assert classify_region(ParamBounds(F(3, 10), F(2, 5))) is RegionClass.LOW_TRACTABLE

    def test_low_boundary_included(self):
        # c1 = c2^2 / (1 - c2) exactly, with c2 = 1/3
        assert classify_region(ParamBounds(F(1, 6), F(1, 3))) is RegionClass.LOW_TRACTABLE

    def test_high(self):
        assert classify_region(ParamBounds(F(3, 5), F(4, 5))) is RegionClass.HIGH_TRACTABLE

    def test_high_boundary_excluded(self):
        assert classify_region(ParamBounds(F(1, 2), F(9, 10))) is RegionClass.UNCLASSIFIED

    def test_conditionally_hard(self):
        assert classify_region(ParamBounds(F(1, 10), F(2, 5))) is RegionClass.CONDITIONALLY_HARD

    def test_unclassified_gap(self):
        assert classify_region(ParamBounds(F(1, 5), F(2, 5))) is RegionClass.UNCLASSIFIED

    def test_degenerate_zero(self):
        # c1 = 0 satisfies the low-region inequality only at c2 = 0
        assert classify_region(ParamBounds(F(0), F(0))) is RegionClass.LOW_TRACTABLE
        assert classify_region(ParamBounds(F(0), F(1, 4))) is RegionClass.CONDITIONALLY_HARD

    def test_half_half_is_low(self):
        # c1 = c2 = 1/2 sits exactly on the low boundary and below the high one
        assert classify_region(ParamBounds(F(1, 2), F(1, 2))) is RegionClass.LOW_TRACTABLE


class TestThreshold:
    def test_value_at_one_fifth(self):
        t = threshold_c2(F(1, 5))
        assert t == pytest.approx(0.3582575695, abs=1e-9)
        # defining identity: c1 = c2^2 / (1 - c2)
        assert t * t / (1 - t) == pytest.approx(0.2, abs=1e-12)

    def test_exact_predicate_matches_float_off_boundary(self):
        rng = random.Random(3)
        for _ in range(500):
            c1 = F(rng.randint(0, 100), 100)
            c2 = F(rng.randint(1, 100), 100)
            approx = float(c2) <= threshold_c2(c1) + 1e-12
            exact = threshold_at_or_below(c1, c2)
            if abs(float(c2) - threshold_c2(c1)) > 1e-9:
                assert exact == approx, (c1, c2)

    def test_boundary_is_included_exactly(self):
        # c2 = 1/3 gives threshold c1 = 1/6; float evaluation cannot decide this
        assert threshold_at_or_below(F(1, 6), F(1, 3))
        assert not threshold_at_or_below(F(1, 6) - F(1, 10**12), F(1, 3))


class TestMaxDegreeGap:
    def test_closed_form(self):
        c_star, gap = max_degree_gap()
        assert gap == pytest.approx(3 - 2 * 2 ** 0.5, abs=1e-9)
        assert c_star == pytest.approx(3 * 2 ** 0.5 / 2 - 2, abs=1e-6)


class TestPrecheck:
    def test_odd_sum(self):
        d = precheck(DegreeSequence((1, 1, 1)))
        assert d.verdict == "NotBipartite" and d.reason == "no-equal-sum-split"

    def test_degree_above_half(self):
        d = precheck(DegreeSequence((5, 1, 1, 1)))
        assert d.reason == "precheck-degree-at-least-half-sum"

    def test_two_at_half(self):
        d = precheck(DegreeSequence((5, 5)))
        assert d.verdict == "NotBipartite"
        assert d.reason == "precheck-degree-at-least-half-sum"

    def test_trivial_pair(self):
        d = precheck(DegreeSequence((1, 0, 1)))
        assert d.verdict == "Bipartite" and d.reason == "trivial-(1,1)"
        assert len(d.realization.edges) == 1
        assert d.realization.u_count + d.realization.v_count == 3

    def test_star(self):
        d = precheck(DegreeSequence((3, 1, 1, 1)))
        assert d.verdict == "Bipartite"
        assert d.split.u_indices() == (0,)
        assert sorted(d.realization.v_degrees()) == [1, 1, 1]

    def test_min_degree_too_large(self):
        d = precheck(DegreeSequence((2, 2, 2)))
        assert d.verdict == "NotBipartite" and d.reason == "min-degree-too-large"

    def test_no_rule(self):
        assert precheck(DegreeSequence((2, 2, 2, 2, 2, 2))) is None

    def test_verdicts_match_oracle(self):
        rng = random.Random(19)
        for _ in range(2000):
            seq = [rng.randint(0, 6) for _ in range(rng.randint(1, 9))]
            d = precheck(DegreeSequence(seq))
            if d is None:
                continue
            expected = brute_force_bipartite_realizable(DegreeSequence(seq))
            assert (d.verdict == "Bipartite") == expected, seq


class TestDecideBdr:
    LOW = ParamBounds(F(3, 10), F(2, 5))

    def test_out_of_class(self):
        with pytest.raises(InputOutOfClassError):
            decide_bdr(DegreeSequence((1, 5, 5, 5, 5)), self.LOW)

    def test_low_region_positive(self):
        ds = DegreeSequence((4,) * 10)
        d = decide_bdr(ds, self.LOW)
        assert d.verdict == "Bipartite" and d.region is RegionClass.LOW_TRACTABLE
        assert d.realization.u_degrees() + d.realization.v_degrees() == (4,) * 10
        assert sum(ds.degrees[i] for i in d.split.u_indices()) == 20

    def test_low_region_negative(self):
        # nine vertices of degree 3: the degree sum 27 is odd
        d = decide_bdr(DegreeSequence((3,) * 9), ParamBounds(F(1, 3), F(1, 3)))
        assert d.verdict == "NotBipartite" and d.reason == "no-equal-sum-split"
        assert d.region is RegionClass.LOW_TRACTABLE

    def test_high_region(self):
        d = decide_bdr(DegreeSequence((3, 3, 3, 3, 4)), ParamBounds(F(3, 5), F(4, 5)))
        assert d.verdict == "NotBipartite"
        assert d.region is RegionClass.HIGH_TRACTABLE

    @pytest.mark.parametrize("c1, c2", [(F(3, 5), F(4, 5)), (F(0), F(1, 5)),
                                        (F(1, 10), F(2, 5))])
    def test_empty_sequence_never_not_bipartite(self, c1, c2):
        # the empty graph realizes it; no precheck rule fires on it
        d = decide_bdr(DegreeSequence(()), ParamBounds(c1, c2))
        assert d.verdict != "NotBipartite"
        assert decide_exact(DegreeSequence(())).verdict == "Bipartite"

    def test_hard_region_undecided(self):
        bounds = ParamBounds(F(1, 10), F(2, 5))
        ds = DegreeSequence((4, 4, 2, 2, 1, 1, 1, 1, 2, 2))
        d = decide_bdr(ds, bounds)
        assert d.verdict == "Undecided" and d.reason == "exact-search"
        assert d.region is RegionClass.CONDITIONALLY_HARD

    def test_low_region_matches_oracle(self):
        rng = random.Random(41)
        bounds = ParamBounds(F(3, 10), F(2, 5))
        checked = 0
        while checked < 400:
            n = rng.randint(10, 16)
            lo = -(-3 * n // 10)     # ceil(3n/10)
            hi = (2 * n) // 5
            if lo > hi:
                continue
            ds = DegreeSequence([rng.randint(lo, hi) for _ in range(n)])
            if not all(bounds.c1 * n <= x <= bounds.c2 * n for x in ds.degrees):
                continue
            checked += 1
            d = decide_bdr(ds, bounds)
            assert d.verdict in ("Bipartite", "NotBipartite")
            expected = brute_force_bipartite_realizable(ds)
            assert (d.verdict == "Bipartite") == expected, ds


class TestDecideExact:
    def test_positive(self):
        d = decide_exact(DegreeSequence((2, 2, 2, 2)))
        assert d.verdict == "Bipartite"
        assert d.realization is not None

    def test_no_split(self):
        d = decide_exact(DegreeSequence((5, 1, 1, 1)))
        assert d.verdict == "NotBipartite" and d.reason == "no-equal-sum-split"

    def test_splits_exist_but_none_bigraphic(self):
        # 3+3 = 2+2+1+1 is the only balanced split shape and it fails Gale-Ryser
        d = decide_exact(DegreeSequence((3, 3, 2, 2, 1, 1)))
        assert d.verdict in ("Bipartite", "NotBipartite")
        assert (d.verdict == "Bipartite") == brute_force_bipartite_realizable(
            DegreeSequence((3, 3, 2, 2, 1, 1)))

    def test_budget(self):
        # every equal-sum split of (5,3,1,1,1,1) fails Gale-Ryser, so the
        # search walks all four canonical splits unless stopped
        with pytest.raises(BudgetExceededError):
            decide_exact(DegreeSequence((5, 3, 1, 1, 1, 1)), budget=2)

    def test_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(500):
            seq = [rng.randint(0, 5) for _ in range(rng.randint(1, 10))]
            ds = DegreeSequence(seq)
            d = decide_exact(ds)
            assert (d.verdict == "Bipartite") == brute_force_bipartite_realizable(ds), seq
            if d.realization is not None:
                realized = sorted(d.realization.u_degrees() + d.realization.v_degrees())
                assert realized == sorted(ds.nonzero()) or realized == sorted(seq)


class TestDecisionDataclass:
    def test_with_region(self):
        d = Decision("Undecided", "exact-search")
        assert d.with_region(RegionClass.UNCLASSIFIED).region is RegionClass.UNCLASSIFIED
        assert d.region is None


def assert_witness(degrees, d):
    """The documented witness contract: u-vertex i is u_indices[i], v-vertex
    j is v_indices[j], zeros sit on U, and each vertex has as many edges as
    its degree."""
    u, v = d.split.u_indices(), d.split.v_indices()
    assert sorted(u + v) == list(range(len(degrees)))
    assert all(i in u for i, x in enumerate(degrees) if x == 0)
    g = d.realization
    assert (g.u_count, g.v_count) == (len(u), len(v))
    assert g.u_degrees() == tuple(degrees[i] for i in u)
    assert g.v_degrees() == tuple(degrees[j] for j in v)


class TestWitnessContract:
    ZERO_LOW = ParamBounds(F(0), F(1))

    @pytest.mark.parametrize("seq", [(0, 1, 0, 1, 0), (1, 0, 3, 1, 1, 0), (0, 1, 1)])
    def test_zero_before_the_u_vertex(self, seq):
        # the trivial-(1,1) and star branches: a zero ahead of the u-vertex
        # must keep its own u-vertex number, not shift the edges onto it
        ds = DegreeSequence(seq)
        for d in (precheck(ds), decide_bdr(ds, self.ZERO_LOW), decide_exact(ds)):
            assert d.verdict == "Bipartite"
            assert_witness(seq, d)

    def test_all_zero_low_region(self):
        d = decide_bdr(DegreeSequence((0, 0, 0)), ParamBounds(F(0), F(0)))
        assert d.verdict == "Bipartite" and d.reason == "split-found"
        assert_witness((0, 0, 0), d)

    def test_random_sequences_with_zeros(self):
        rng = random.Random(23)
        reasons = Counter()
        for _ in range(1500):
            n = rng.randint(2, 10)
            seq = [min(rng.choice((0, 1, 1, 1, 2, 2, 3)), n) for _ in range(n)]
            seq[rng.randrange(n)] = 0
            if sum(seq) % 2:
                seq[seq.index(max(seq))] -= 1
            ds = DegreeSequence(seq)
            for d in (precheck(ds), decide_bdr(ds, self.ZERO_LOW), decide_exact(ds)):
                if d is not None and d.verdict == "Bipartite":
                    assert_witness(seq, d)
                    reasons[d.reason] += 1
        # every witness-building branch is exercised
        assert set(reasons) == {"trivial-(1,1)", "split-found", "exact-search"}
        assert min(reasons.values()) >= 100


class TestInvariants:
    def test_unrealizable_low_region_split_raises(self, monkeypatch):
        monkeypatch.setattr("bdr.decider.construct_realization", lambda pair: None)
        with pytest.raises(InvariantError):
            decide_bdr(DegreeSequence((4,) * 10), ParamBounds(F(3, 10), F(2, 5)))

    def test_unrealizable_bigraphic_split_raises(self, monkeypatch):
        monkeypatch.setattr("bdr.decider.construct_realization", lambda pair: None)
        with pytest.raises(InvariantError):
            decide_exact(DegreeSequence((2, 2, 2, 2)))
