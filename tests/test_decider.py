import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import bdr.decider
from bdr import (Decision, DegreeSequence, ParamBounds, RegionClass, balanced_split,
                 build_hard_instance, classify_region, decide_bdr, decide_exact,
                 is_bigraphic, max_degree_gap, precheck, threshold_at_or_below,
                 threshold_c2)
from bdr.errors import BudgetExceededError, InputOutOfClassError, InvariantError
from bdr.oracle import brute_force_bipartite_realizable, exhaustive_graph_search
from bdr.gale_ryser import _gale_ryser_bound, _gale_ryser_runs, _value_runs
from bdr.partition import (_count_walk, count_runs, equal_sum_split_exists,
                           size_feasible_counts, split_with_u)
from conftest import MANY_DISTINCT, _unpruned_splits, reduction_corpus


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


def _fraction_threshold(c1, c2):
    """threshold_at_or_below in Fraction arithmetic, as it was first written."""
    return c2 < 1 and c1 * (1 - c2) >= c2 * c2


def _fraction_region(c1, c2):
    """classify_region in Fraction arithmetic, as it was first written."""
    if _fraction_threshold(c1, c2):
        return RegionClass.LOW_TRACTABLE
    if c1 > F(1, 2):
        return RegionClass.HIGH_TRACTABLE
    if c2 < F(1, 2) and (c1 + c2) ** 2 > 2 * c1:
        return RegionClass.CONDITIONALLY_HARD
    return RegionClass.UNCLASSIFIED


# a step off a region boundary too small for a float to see
STEP = F(1, 10 ** 12)


class TestRegionBoundaries:
    """The integer region tests against their Fraction forms, on a grid and
    on points drawn exactly on each boundary and one STEP off it."""

    GRID = sorted({F(p, q) for q in range(1, 25) for p in range(q + 1)})

    def test_grid_matches_fraction_forms(self):
        regions = Counter()
        for c1 in self.GRID:
            for c2 in self.GRID:
                assert threshold_at_or_below(c1, c2) == _fraction_threshold(c1, c2), (c1, c2)
                if c1 <= c2:
                    region = classify_region(ParamBounds(c1, c2))
                    assert region is _fraction_region(c1, c2), (c1, c2)
                    regions[region] += 1
        assert len(regions) == len(RegionClass)
        # c2 >= 1, and ints as well as Fractions
        for c2 in (F(1), F(7, 6), 1, 2):
            assert not threshold_at_or_below(0, c2) and not threshold_at_or_below(F(1, 2), c2)
        assert threshold_at_or_below(0, 0) and threshold_at_or_below(1, F(1, 2))

    def _check(self, c1, c2):
        assert threshold_at_or_below(c1, c2) == _fraction_threshold(c1, c2), (c1, c2)
        if 0 <= c1 <= c2 <= 1:
            region = classify_region(ParamBounds(c1, c2))
            assert region is _fraction_region(c1, c2), (c1, c2)
            return region
        return None

    @given(st.fractions(0, F(1, 2), max_denominator=10 ** 6))
    def test_low_threshold_curve(self, c2):
        # c1*(1 - c2) = c2^2 exactly, with c1 = c2^2 / (1 - c2) <= c2
        c1 = c2 * c2 / (1 - c2)
        assert threshold_at_or_below(c1, c2)
        assert self._check(c1, c2) is RegionClass.LOW_TRACTABLE
        # c2 one step up leaves the low region, one step down stays in it
        assert not threshold_at_or_below(c1, c2 + STEP)
        self._check(c1, c2 + STEP)
        if c2 > 0:
            assert threshold_at_or_below(c1, c2 - STEP)
            self._check(c1, c2 - STEP)
            assert not threshold_at_or_below(c1 - STEP, c2)
            self._check(c1 - STEP, c2)

    @given(st.fractions(F(1, 2), 1, max_denominator=10 ** 6))
    def test_half_line(self, c2):
        # c1 = 1/2 is not high; one step above it is, one below is not
        assert self._check(F(1, 2), c2) is not RegionClass.HIGH_TRACTABLE
        if c2 > F(1, 2):
            assert self._check(F(1, 2) + STEP, c2) is RegionClass.HIGH_TRACTABLE
        assert self._check(F(1, 2) - STEP, c2) is not RegionClass.HIGH_TRACTABLE

    @given(st.fractions(0, 1, max_denominator=10 ** 6))
    def test_hard_curve(self, t):
        # (c1 + c2)^2 = 2*c1 exactly, at c1 = t^2/2 and c2 = t - t^2/2 >= c1
        c1, c2 = t * t / 2, t - t * t / 2
        assert (c1 + c2) ** 2 == 2 * c1
        assert self._check(c1, c2) is not RegionClass.CONDITIONALLY_HARD
        up = self._check(c1, c2 + STEP)
        if c2 + STEP < F(1, 2) and not threshold_at_or_below(c1, c2 + STEP):
            assert up is RegionClass.CONDITIONALLY_HARD
        if c2 - STEP >= c1:
            assert self._check(c1, c2 - STEP) is not RegionClass.CONDITIONALLY_HARD
        self._check(c1 + STEP, c2)


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
        assert d.split.u == (0,)
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
        assert sum(ds.degrees[i] for i in d.split.u) == 20

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


class TestLowRegionFallback:
    """``decide_bdr`` takes the count-walk fallback only when the greedy
    balance and one swap find no split; the two inputs that need it come
    from an exhaustive search over low-region inputs with n <= 20."""

    def test_balanced_path_skips_the_dp(self, monkeypatch):
        def no_dp(ds):
            raise AssertionError("split DP called")

        monkeypatch.setattr("bdr.decider.find_equal_sum_split", no_dp)
        seq = (4,) * 10
        d = decide_bdr(DegreeSequence(seq), ParamBounds(F(3, 10), F(2, 5)))
        assert d.verdict == "Bipartite" and d.reason == "split-found"
        assert_witness(seq, d)

    def test_fallback_finds_the_split(self, monkeypatch):
        calls = []
        dp = bdr.decider.find_equal_sum_split
        monkeypatch.setattr("bdr.decider.find_equal_sum_split",
                            lambda ds: calls.append(ds) or dp(ds))
        seq = (5,) * 8 + (4,) * 5
        ds, bounds = DegreeSequence(seq), ParamBounds(F(3, 10), F(2, 5))
        assert classify_region(bounds) is RegionClass.LOW_TRACTABLE
        assert balanced_split(ds) is None
        d = decide_bdr(ds, bounds)
        assert calls == [ds]
        assert d.verdict == "Bipartite" and d.reason == "split-found"
        assert d.split == dp(ds)
        assert sum(seq[i] for i in d.split.u) == sum(seq[i] for i in d.split.v) == 30
        assert_witness(seq, d)

    def test_fallback_finds_no_split(self):
        # 36 / 2 = 18 is not a multiple of 4
        ds, bounds = DegreeSequence((4,) * 9), ParamBounds(F(4, 9), F(4, 9))
        assert classify_region(bounds) is RegionClass.LOW_TRACTABLE
        assert balanced_split(ds) is None
        d = decide_bdr(ds, bounds)
        assert (d.verdict, d.reason) == ("NotBipartite", "no-equal-sum-split")
        assert d.region is RegionClass.LOW_TRACTABLE and d.split is None


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
        # every equal-sum split of (4,3,3,3,1,1,1) puts the 4, a 3 and a 1
        # against two 3s and two 1s: each side meets Gale-Ryser at k = 1, so
        # the size subset sum proposes one, but U fails at k = 2 (7 > 6).
        # The walk counts 3 of the 18 index sets as cut off, more than 2*1 of
        # them, all with the 4 on U: their mirrors, the 4 on V, are not walked
        ds = DegreeSequence((4, 3, 3, 3, 1, 1, 1))
        with pytest.raises(BudgetExceededError):
            decide_exact(ds, budget=1)
        d = decide_exact(ds, budget=2)
        assert (d.verdict, d.reason) == ("NotBipartite", "gale-ryser-violation")

    def test_refuted_by_side_sizes(self):
        # 4 2 2 2 2: m = 5, so |U| = s <= m/2 = 2 and every degree is at
        # most m - s, which for the 4 leaves s <= 1; all five degrees exceed
        # 1 and must be on U, more than s.  No split meets Gale-Ryser at
        # k = 1, though 4 + 2 = 2 + 2 + 2 is an equal-sum split, so no walk
        # runs and the budget is never read
        d = decide_exact(DegreeSequence((4, 2, 2, 2, 2)), budget=0)
        assert (d.verdict, d.reason) == ("NotBipartite", "gale-ryser-violation")

    def test_budget_error_fields(self):
        # both exact searches raise the error the same way: the limit, the
        # count that passed it, and a message built from the two
        with pytest.raises(BudgetExceededError) as exc:
            decide_exact(DegreeSequence((4, 3, 3, 3, 1, 1, 1)), budget=1)
        assert (exc.value.limit, exc.value.examined) == (1, 2)
        assert str(exc.value) == "examined more than 1 equal-sum splits"
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_bipartite_realizable(
                DegreeSequence((17, 13, 11, 9, 7, 5, 3, 2, 2, 1)), budget=1)
        assert (exc.value.limit, exc.value.examined) == (1, 2)
        assert str(exc.value) == "examined more than 1 split count vectors"

    @pytest.mark.parametrize("budget, error", [
        (-1, ValueError), (-20000, ValueError), (2.5, TypeError), (2.0, TypeError),
        (True, TypeError), (False, TypeError), ("3", TypeError), (Fraction(2), TypeError)])
    def test_bad_budget_rejected_before_search(self, monkeypatch, budget, error):
        # budget -1 raised "examined more than -1 equal-sum splits" and 2.5
        # ran; each is now refused before any search starts
        def no_search(*args):
            raise AssertionError("search started")
        monkeypatch.setattr(bdr.decider, "size_feasible_counts", no_search)
        with pytest.raises(error):
            decide_exact(DegreeSequence((4, 3, 3, 3, 1, 1, 1)), budget=budget)

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


def outcome(ds, budget=None):
    """A decision, or the fields and message of the budget error."""
    try:
        return decide_exact(ds, budget)
    except BudgetExceededError as exc:
        return exc.limit, exc.examined, str(exc)


def settled_before_walk(seq):
    """Whether ``decide_exact`` answers ``seq`` before any walk: its size
    tables fit, and no split is size-feasible or a proposal passes."""
    runs = _value_runs(seq)
    proposals = size_feasible_counts(sum(seq), runs)
    if proposals is None:
        return False
    proposals = list(proposals)
    return not proposals or any(_gale_ryser_runs(*count_runs(runs, counts))
                                for counts in proposals)


def spy_walk(monkeypatch):
    """Per ``decide_exact`` call that walks, its runs and the nodes its walk
    enters, as (i, k, passed) in walk order, k the U count of run i - 1,
    seen through the Gale–Ryser bound it is handed."""
    walks = []
    bound = bdr.decider._gale_ryser_bound

    def spy(runs, half):
        live = bound(runs, half)
        nodes = []
        walks.append((runs, nodes))

        def counted(i, rem, k):
            passed = live(i, rem, k)
            nodes.append((i, k, passed))
            return passed
        return counted

    monkeypatch.setattr("bdr.decider._gale_ryser_bound", spy)
    return walks


def cut_index_sets(runs, nodes):
    """D: over the nodes the bound cut, after runs 0..i-1 with k_j of run
    j's c_j values on U, the sum of prod_{j<i} C(c_j, k_j)."""
    path = [0] * len(runs)  # path[j]: run j's U count on the walk's branch
    dead = 0
    for i, k, passed in nodes:
        if i:
            path[i - 1] = k
        if not passed:
            dead += prod(comb(c, k_j) for (_, c), k_j in zip(runs[:i], path))
    return dead


def failing_splits(seq):
    """The equal-sum splits of ``seq`` that fail Gale–Ryser, counted one by
    one on the unpruned split walk."""
    ds = DegreeSequence(seq)
    failing = 0
    for u in _unpruned_splits(seq):
        split = split_with_u(ds, u)
        failing += not is_bigraphic(*(tuple(seq[i] for i in side) for side in (split.u, split.v)))
    return failing


# the padded D' of the exact-search benchmark, and the bound of its
# n' = 1604 stall
HARD = ParamBounds(F(1, 10), F(2, 5))
FAR = ParamBounds(F(3, 20), F(2, 5))

# zeros and repeated values, so that count vectors repeat across splits
SEQS = st.lists(st.sampled_from([0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6]), max_size=14)


class TestAgainstOracles:
    """The verdict is the count-vector oracle's, and the exhaustive graph
    search's where it runs; every Bipartite witness realizes the input."""

    @given(seq=st.one_of(st.lists(st.integers(0, 9), max_size=30),
                         st.lists(st.sampled_from([0, 1, 2, 2, 3, 3, 3, 4, 6]), max_size=30),
                         MANY_DISTINCT))
    @settings(max_examples=400, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0, 0])
    @example(seq=[3, 3, 2, 2, 1, 1])
    @example(seq=[4, 2, 2, 2, 2])
    def test_brute_force(self, seq):
        ds = DegreeSequence(seq)
        d = decide_exact(ds)
        assert (d.verdict == "Bipartite") == brute_force_bipartite_realizable(ds)
        if d.verdict == "Bipartite":
            assert_witness(seq, d)

    @given(seq=st.lists(st.integers(0, 7), max_size=8))
    @settings(max_examples=300, deadline=None)
    @example(seq=[])
    @example(seq=[7, 7, 7, 7, 7, 7, 7, 7])
    @example(seq=[3, 3, 3, 3, 3, 3])
    def test_exhaustive_graph_search(self, seq):
        ds = DegreeSequence(seq)
        d = decide_exact(ds)
        assert (d.verdict == "Bipartite") == exhaustive_graph_search(ds)
        if d.verdict == "Bipartite":
            assert_witness(seq, d)


class TestBudgetPoint:
    """The budget N is passed at the cut that takes the cut index sets D
    past 2N: N = ceil(D/2) - 1 raises, and N = ceil(D/2), which is
    floor(D/2) for even D, gives the decision without a budget."""

    # inputs that the size subset sum leaves to the walk: each has a
    # size-feasible split, no proposal passes Gale-Ryser, and the walk
    # cuts subtrees off
    @pytest.mark.parametrize("seq, dead", [
        ((3, 3, 1, 7, 5, 2, 5, 2, 5, 5, 2, 4), 10),  # Bipartite, the CI's
        ((2, 5, 5, 3, 7, 3, 3, 6, 1, 2, 2, 5), 9),
        ((4, 7, 7, 4, 5, 6, 8, 4, 6, 4, 7, 1, 5, 2), 4),
        ((5, 7, 6, 5, 2, 5, 3, 3, 1, 2, 4, 3), 6),
        ((5, 2, 4, 3, 3, 1, 1, 1), 4),  # NotBipartite
        ((5, 5, 1, 3, 3, 4, 5, 3, 1, 1, 5), 12),  # Bipartite
        ((2, 1, 3, 5, 4, 1, 3, 1), 4),  # NotBipartite
        ((4, 3, 3, 3, 1, 1, 1), 3),
        ((1, 2, 2, 3, 3, 6, 1, 1, 5), 5),
        ((5, 1, 3, 2, 6, 3, 3, 7, 4, 3, 6, 5), 3)])  # Bipartite; odd: floor(D/2) raises too
    def test_at_half_the_cut_index_sets(self, seq, dead, monkeypatch):
        ds = DegreeSequence(seq)
        walks = spy_walk(monkeypatch)
        want = decide_exact(ds)
        assert not settled_before_walk(seq)
        (runs, nodes), = walks
        assert cut_index_sets(runs, nodes) == dead
        n = (dead + 1) // 2
        assert outcome(ds, n) == want
        assert outcome(ds, n - 1) == (n - 1, n, f"examined more than {n - 1} equal-sum splits")
        # more than n - 1 splits do fail: every raise is truthful
        assert failing_splits(seq) > n - 1

    @given(seq=st.one_of(SEQS, MANY_DISTINCT), budget=st.integers(0, 12))
    @settings(max_examples=500, deadline=None)
    @example(seq=[], budget=0)
    @example(seq=[0, 0, 0], budget=0)
    @example(seq=[4, 2, 2, 2, 2], budget=3)
    @example(seq=[4, 2, 2, 2, 2], budget=4)
    def test_answer_or_truthful_raise(self, seq, budget):
        # with a budget the search gives its budget-less decision, or
        # raises only when more than budget splits fail Gale-Ryser
        ds = DegreeSequence(seq)
        got = outcome(ds, budget)
        if isinstance(got, Decision):
            assert got == decide_exact(ds)
        else:
            assert got == (budget, budget + 1, f"examined more than {budget} equal-sum splits")
            assert failing_splits(seq) > budget


class TestWorkBound:
    """With budget N the bound runs on at most (d + 1)(2N + 2) nodes, d the
    number of distinct nonzero degrees, whether the walk answers or raises,
    and never on a mirror, a first-run count k with 2k < c_0."""

    @staticmethod
    def _check(seq, budget, monkeypatch):
        """Whether the walk ran; it runs exactly when the size subset sum
        leaves the input open."""
        walks = spy_walk(monkeypatch)
        outcome(DegreeSequence(seq), budget)
        assert bool(walks) != settled_before_walk(seq)
        for runs, nodes in walks:
            assert len(nodes) <= (len(runs) + 1) * (2 * budget + 2)
            assert all(2 * k >= runs[0][1] for i, k, _ in nodes if i == 1)
        return bool(walks)

    @given(seq=st.one_of(SEQS, MANY_DISTINCT), budget=st.integers(0, 20))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(seq=[3, 3, 1, 7, 5, 2, 5, 2, 5, 5, 2, 4], budget=4)
    @example(seq=[4, 3, 3, 3, 1, 1, 1], budget=0)
    @example(seq=[1, 2, 4, 5, 3, 3, 1, 3], budget=6)
    def test_drawn(self, seq, budget, monkeypatch):
        with monkeypatch.context() as mp:
            self._check(seq, budget, mp)

    @pytest.mark.parametrize("budget", [0, 1, 3, 20000])
    def test_padded_and_long(self, budget, monkeypatch):
        # the 15 padded D' at (1/10, 2/5), the n' = 1604 stall and the half
        # graph of 1..200, whose walk passes budget 20000 before its first
        # accepted key; the walk still runs on seven of them: four
        # NotBipartite and one Bipartite padded D', the stall and the half
        # graph
        seqs = [build_hard_instance(DegreeSequence(source), HARD).d_prime.degrees
                for source in reduction_corpus(8)]
        seqs += [build_hard_instance(DegreeSequence((1, 1, 1, 1)), FAR).d_prime.degrees,
                 tuple(v for v in range(1, 201) for _ in (0, 1))]
        walked = 0
        for seq in seqs:
            with monkeypatch.context() as mp:
                walked += self._check(seq, budget, mp)
        assert walked == 7


class TestMirrorRule:
    """The walk enters no first-run count k with 2k < c_0: each of its count
    vectors lies below its complement, which the walk met before, so the
    decision is the one the walk over both mirrors gives."""

    @given(seq=st.one_of(SEQS, MANY_DISTINCT))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(seq=[])
    @example(seq=[0, 0, 0])
    @example(seq=[5, 1, 1, 1])
    @example(seq=[2, 2, 2, 2])
    @example(seq=[4, 3, 3, 3, 1, 1, 1])
    @example(seq=[5, 2, 4, 3, 3, 1, 1, 1])
    def test_same_decision_as_both_mirrors(self, seq, monkeypatch):
        # with the size subset sum switched off, every input is walked
        ds = DegreeSequence(seq)
        runs = _value_runs(seq)
        counts = next(_count_walk(ds.sigma, runs, _gale_ryser_bound(runs, ds.sigma // 2)), None)
        with monkeypatch.context() as mp:
            mp.setattr("bdr.decider.size_feasible_counts", lambda sigma, runs: None)
            walks = spy_walk(mp)
            d = decide_exact(ds)
        if counts is None:
            assert (d.verdict, d.reason) == ("NotBipartite", "gale-ryser-violation"
                                             if equal_sum_split_exists(ds)
                                             else "no-equal-sum-split")
        else:
            assert d == bdr.decider._witness(ds, runs, counts)
        (spied, nodes), = walks
        assert all(2 * k >= spied[0][1] for i, k, _ in nodes if i == 1)


class TestComplement:
    """A count vector's complement, c_t - k_t on each run, is the same
    split with its sides swapped: for every count vector the walk yields
    that passes Gale–Ryser, the walk yields its complement too, and
    ``count_runs`` reads the complement as the two sides swapped.
    ``_witness`` puts the first nonzero index on U for both, by taking the
    complement of the one that gives the first nonzero value no U count,
    so when one of the two does, it gives one Decision for both."""

    @staticmethod
    def _check(seq):
        """The numbers of count vectors checked, and of those whose
        complement ``_witness`` takes or is handed."""
        ds = DegreeSequence(seq)
        runs = _value_runs(seq)
        first = next((i for i, d in enumerate(seq) if d), None)
        walked = set(_count_walk(ds.sigma, runs))
        checked = joined = 0
        for counts in walked:
            u, v = count_runs(runs, counts)
            if not _gale_ryser_runs(u, v):
                continue
            mirror = tuple(c - k for (_, c), k in zip(runs, counts))
            assert mirror in walked
            assert count_runs(runs, mirror) == (v, u)
            d = bdr.decider._witness(ds, runs, counts)
            assert first is None or first in d.split.u
            checked += 1
            if first is None or not dict(u)[seq[first]] or not dict(v)[seq[first]]:
                assert bdr.decider._witness(ds, runs, mirror) == d
                joined += 1
        return checked, joined

    @given(seq=st.one_of(SEQS, MANY_DISTINCT))
    @settings(max_examples=300, deadline=None)
    @example(seq=[])
    @example(seq=[0, 0, 0])
    @example(seq=[2, 2, 2, 2])
    @example(seq=[5, 1, 1, 1])
    @example(seq=[3, 3, 2, 2, 1, 1])
    def test_drawn(self, seq):
        self._check(seq)

    def test_first_value_alone(self):
        # (1, 1) puts the first index on V and its complement (0, 3) on U
        assert self._check([2, 1, 1, 1, 1]) == (2, 2)

    def test_padded(self):
        # the 15 padded D' at (1/10, 2/5): 98 bigraphic count vectors, each
        # with part of the first value's run on either side, so ``_witness``
        # keeps every one as it is handed
        checked = [self._check(build_hard_instance(DegreeSequence(source), HARD).d_prime.degrees)
                   for source in reduction_corpus(8)]
        assert [sum(side) for side in zip(*checked)] == [98, 0]


class TestWithoutBudget:
    @pytest.mark.parametrize("source, bounds",
                             [(s, HARD) for s in reduction_corpus(8)]
                             + [(s, ParamBounds(F(1, 20), F(9, 20))) for s in reduction_corpus(8)]
                             + [((1, 1, 1, 1), FAR)])
    def test_padded_answered(self, source, bounds):
        # each padded D' of the reduction corpus at (1/10, 2/5) and at
        # (1/20, 9/20), and the n' = 1604 stall, is answered from its first
        # accepted count vector, with no split walked
        ds = build_hard_instance(DegreeSequence(source), bounds).d_prime
        d = decide_exact(ds)
        assert (d.verdict == "Bipartite") == brute_force_bipartite_realizable(ds)
        if d.verdict == "Bipartite":
            assert_witness(ds.degrees, d)


class TestSizeSubsetSum:
    """The subset sum over U sizes that runs before the walk: it refutes
    only inputs with no bigraphic count vector, and its witness keeps the
    documented contract."""

    @given(seq=st.one_of(st.lists(st.integers(0, 7), max_size=8),
                         st.lists(st.sampled_from([0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9]),
                                  max_size=30)))
    @settings(max_examples=400, deadline=None)
    @example(seq=[4, 2, 2, 2, 2])
    @example(seq=[7, 5, 3, 5, 4, 5, 3, 5, 5, 4, 1, 1])
    @example(seq=[4, 3, 3, 3, 1, 1, 1])
    @example(seq=[])
    @example(seq=[0, 0])
    def test_against_the_oracles(self, seq):
        ds = DegreeSequence(seq)
        runs = _value_runs(seq)
        proposals = list(size_feasible_counts(ds.sigma, runs))
        passed = [counts for counts in proposals if _gale_ryser_runs(*count_runs(runs, counts))]
        realizable = (exhaustive_graph_search(ds) if len(seq) <= 8
                      else brute_force_bipartite_realizable(ds))
        if not proposals:  # refuted: no count vector passes Gale-Ryser
            assert not realizable
        if passed:
            assert realizable
            d = outcome(ds, 0)  # settled before the walk, at any budget
            assert (d.verdict, d.reason) == ("Bipartite", "exact-search")
            assert_witness(seq, d)
            # the first proposal that passes, or its complement, is the witness
            u_side = Counter(seq[i] for i in d.split.u if seq[i])
            assert u_side in [Counter(dict(side)) for side in count_runs(runs, passed[0])]
            first = next((i for i, x in enumerate(seq) if x), None)
            assert first is None or first in d.split.u
        elif not proposals:
            d = outcome(ds, 0)
            assert d.verdict == "NotBipartite"
            assert d.reason == ("gale-ryser-violation" if equal_sum_split_exists(ds)
                                else "no-equal-sum-split")

    @pytest.mark.parametrize("top", [30, 60, 62])
    def test_half_graphs_answered(self, top):
        # 1..60 passed budget 20000 in the walk; each answer comes from the
        # first proposal, with the half graph's tables under the cap
        seq = tuple(v for v in range(1, top + 1) for _ in (0, 1))
        d = decide_exact(DegreeSequence(seq), budget=20000)
        assert d.verdict == "Bipartite"
        assert_witness(seq, d)

    def test_just_over_the_cap(self, monkeypatch):
        # the tables of the half graph 1..62 take 8,378,496 bits, under
        # 2**23, and those of 1..63 take 8,914,880: it goes to the walk,
        # which passes the budget as it did for 1..60
        seq = tuple(v for v in range(1, 64) for _ in (0, 1))
        assert size_feasible_counts(sum(seq), _value_runs(seq)) is None
        walks = spy_walk(monkeypatch)
        with pytest.raises(BudgetExceededError):
            decide_exact(DegreeSequence(seq), budget=20000)
        assert len(walks) == 1

    @pytest.mark.parametrize("cap, walked", [(81, 0), (80, 1)])
    def test_cap_boundary(self, cap, walked, monkeypatch):
        # 2 2 2 2: only s = 2 asks, for 2 degrees of sum 4, so R = 3 rows of
        # W = 4 + 1 + 2*2 bits (a row can use two 2s); J = 1 run, so the
        # tables take (J + 2)*R*W = 81 bits
        ds = DegreeSequence((2, 2, 2, 2))
        monkeypatch.setattr("bdr.partition.SIZE_DP_BITS", cap)
        walks = spy_walk(monkeypatch)
        d = decide_exact(ds, budget=0)
        assert d.verdict == "Bipartite" and len(walks) == walked


class TestStall:
    def test_budget_point_and_memory(self):
        # the padded D' of (1,1,1,1) at (3/20, 2/5), n' = 1604: its splits
        # lie deep in a walk of mostly dead subtrees; the suffix bitsets are
        # kept at checkpoints, held rows and checkpoints within
        # 2*ceil(sqrt(m)) + 2 bitsets (``partition._block``), where a table
        # per position would take about 60 MB
        ds = build_hard_instance(DegreeSequence((1, 1, 1, 1)),
                                 ParamBounds(F(3, 20), F(2, 5))).d_prime
        assert ds.n == 1604
        gc.collect()  # empties the free lists, as _traced_peak does
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as exc:
                decide_exact(ds, budget=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.limit, exc.value.examined) == (20000, 20001)
        assert peak < 8 * 2 ** 20
        # its size tables, about 297M bits, are far over the cap: the walk decides
        assert size_feasible_counts(ds.sigma, _value_runs(ds.degrees)) is None


def assert_witness(degrees, d):
    """The documented witness contract: u-vertex i is u_indices[i], v-vertex
    j is v_indices[j], zeros sit on U, and each vertex has as many edges as
    its degree."""
    u, v = d.split.u, d.split.v
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

    @pytest.mark.parametrize("seq", [(), (0,), (0, 0, 0), (0, 2, 1, 1), (2, 0, 1, 1, 0),
                                     (0, 0, 3, 1, 1, 1), (1, 1, 2), (0, 1, 0, 1, 2)])
    def test_exact_search_without_a_nonzero_first(self, seq):
        # no nonzero degree at all, or zeros ahead of the first one: the
        # complement rule looks at the first nonzero degree only.  On
        # (1, 1, 2) the first accepted count vector puts the 2 on U, so its
        # complement is the witness
        d = decide_exact(DegreeSequence(seq))
        assert (d.verdict, d.reason) == ("Bipartite", "exact-search")
        assert_witness(seq, d)
        first = next((i for i, x in enumerate(seq) if x), None)
        assert first is None or first in d.split.u

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
        monkeypatch.setattr("bdr.decider.construct_realization", lambda d1, d2: None)
        with pytest.raises(InvariantError):
            decide_bdr(DegreeSequence((4,) * 10), ParamBounds(F(3, 10), F(2, 5)))

    def test_unrealizable_bigraphic_split_raises(self, monkeypatch):
        monkeypatch.setattr("bdr.decider.construct_realization", lambda d1, d2: None)
        with pytest.raises(InvariantError):
            decide_exact(DegreeSequence((2, 2, 2, 2)))
