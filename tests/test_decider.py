import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bdr.decider
from bdr import (Decision, DegreeSequence, ParamBounds, RegionClass, balanced_split,
                 build_hard_instance, classify_region, construct_realization,
                 decide_bdr, decide_exact, equal_sum_split_exists, is_bigraphic,
                 max_degree_gap, precheck, threshold_at_or_below, threshold_c2)
from bdr.errors import BudgetExceededError, InputOutOfClassError, InvariantError
from bdr.gale_ryser import _gale_ryser_runs
from bdr.oracle import brute_force_bipartite_realizable
from bdr.partition import count_runs, equal_sum_walk, mask_indices, split_with_u
from conftest import MANY_DISTINCT, _traced_peak, _unpruned_splits, reduction_corpus


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
        # every equal-sum split of (5,3,1,1,1,1) fails Gale-Ryser, so the
        # search walks all four canonical splits unless stopped
        with pytest.raises(BudgetExceededError):
            decide_exact(DegreeSequence((5, 3, 1, 1, 1, 1)), budget=2)

    def test_budget_error_fields(self):
        # both exact searches raise the error the same way: the limit, the
        # count that passed it, and a message built from the two
        with pytest.raises(BudgetExceededError) as exc:
            decide_exact(DegreeSequence((5, 3, 1, 1, 1, 1)), budget=2)
        assert (exc.value.limit, exc.value.examined) == (2, 3)
        assert str(exc.value) == "examined more than 2 equal-sum splits"
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_bipartite_realizable(
                DegreeSequence((17, 13, 11, 9, 7, 5, 3, 2, 2, 1)), budget=1)
        assert (exc.value.limit, exc.value.examined) == (1, 2)
        assert str(exc.value) == "examined more than 1 split count vectors"

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


def reference_decide_exact(ds, budget, unpruned_splits):
    """The exact search before its walk was pruned: every split of the
    unpruned walk, each side checked with ``is_bigraphic``."""
    examined = 0
    for u in unpruned_splits(ds.degrees):
        examined += 1
        if budget is not None and examined > budget:
            raise BudgetExceededError(budget, examined, "equal-sum splits")
        split = split_with_u(ds, u)
        d1 = tuple(ds.degrees[i] for i in split.u)
        d2 = tuple(ds.degrees[i] for i in split.v)
        if is_bigraphic(d1, d2):
            return Decision("Bipartite", "exact-search", split=split,
                            realization=construct_realization(d1, d2))
    if not examined:
        return Decision("NotBipartite", "no-equal-sum-split")
    return Decision("NotBipartite", "gale-ryser-violation")


def outcome(search, *args):
    """A decision, or the fields and message of the budget error."""
    try:
        return search(*args)
    except BudgetExceededError as exc:
        return exc.limit, exc.examined, str(exc)


# zeros and repeated values, so that count vectors repeat across splits
SEQS = st.lists(st.sampled_from([0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6]), max_size=14)


@st.composite
def seq_and_budget(draw):
    """A drawn sequence and a budget: none, 0 to 5, or 0 to one more than
    the splits of its walk, where the count-vector pre-pass stops.  Every
    budget, small ones too, goes through the split walk's branch test."""
    seq = draw(st.one_of(SEQS, MANY_DISTINCT))
    leaves = sum(1 for _ in _unpruned_splits(seq))
    return seq, draw(st.one_of(st.none(), st.integers(0, 5), st.integers(0, leaves + 1)))


class TestAgainstUnprunedWalk:
    @given(case=seq_and_budget())
    @settings(max_examples=600, deadline=None)
    @example(case=([], 0))
    @example(case=([0, 0, 0], None))
    @example(case=([5, 3, 1, 1, 1, 1], 3))
    @example(case=([5, 3, 1, 1, 1, 1], 4))
    # the branch test skips a branch only when its own box has no accepted
    # count vector: a walk that skipped every later branch after the first
    # such box gave another witness on both
    @example(case=([3, 7, 4, 3, 1, 2, 2, 3, 7, 2, 3, 1], None))
    @example(case=([3, 6, 3, 5, 1, 2, 2, 2, 1, 1], None))
    def test_same_decision_and_budget_point(self, case, unpruned_splits):
        seq, budget = case
        ds = DegreeSequence(seq)
        assert outcome(decide_exact, ds, budget) == outcome(
            reference_decide_exact, ds, budget, unpruned_splits)

    # Bipartite inputs and L, the position of their first accepted split in
    # the unpruned walk: 1, and three past m + 1; the walk asks its branch
    # test at every budget below, from -5 to L + 1
    FIRST_ACCEPTED = [((2, 2, 2, 2), 1), ((5, 2, 7, 2, 2, 2, 1, 2, 1), 13),
                      ((7, 2, 1, 1, 3, 3, 6, 4, 5, 3, 4, 5, 7, 1), 31),
                      ((1, 3, 6, 3, 3, 7, 4, 1, 7, 1, 6, 7, 3, 3, 1), 382)]

    @pytest.mark.parametrize("seq, first", FIRST_ACCEPTED)
    def test_budget_at_the_first_accepted_split(self, seq, first, unpruned_splits):
        # the accepted split is examined too, so budget L - 1 raises at
        # split L although the search skips the L - 1 splits before it
        ds = DegreeSequence(seq)
        with pytest.raises(BudgetExceededError):
            reference_decide_exact(ds, first - 1, unpruned_splits)
        assert reference_decide_exact(ds, first, unpruned_splits).verdict == "Bipartite"
        for budget in (-5, -1, 0, first - 1, first, first + 1):
            assert outcome(decide_exact, ds, budget) == outcome(
                reference_decide_exact, ds, budget, unpruned_splits), budget
        for budget in (-5, 0):
            # a negative budget fails at the first split, as budget 0 does
            with pytest.raises(BudgetExceededError) as exc:
                decide_exact(ds, budget=budget)
            assert (exc.value.limit, exc.value.examined) == (budget, 1)

    def test_padded_instances(self, unpruned_splits):
        # long runs of equal degrees: the branch test skips whole subtrees
        # of one count vector
        for c1, c2 in [(F(1, 10), F(2, 5)), (F(1, 20), F(9, 20)), (F(3, 20), F(2, 5))]:
            for source in reduction_corpus(6) + [(3, 3, 2)]:
                ds = build_hard_instance(DegreeSequence(source), ParamBounds(c1, c2)).d_prime
                # at (3/20, 2/5), n' = 1604 to 3208, the unpruned walk loses
                # itself in dead subtrees: read the leaves of the split walk
                # without a branch test, which are the same (TestEnumerate)
                if c1 == F(3, 20):
                    leaves = list(islice(equal_sum_walk(ds)[1], 2001))
                    reference = walked_decide_exact
                else:
                    leaves, reference = unpruned_splits, reference_decide_exact
                for budget in (0, 1, 3, 2000):
                    assert outcome(decide_exact, ds, budget) == outcome(
                        reference, ds, budget, leaves), (c1, c2, source, budget)


def walked_decide_exact(ds, budget, leaves):
    """``reference_decide_exact`` on the ``(key, mask)`` leaves of the split
    walk, Gale–Ryser checked once per count vector (``leaves`` must reach
    past the budget or the walk's end)."""
    runs = equal_sum_walk(ds)[0]
    verdicts = {}
    for examined, (key, mask) in enumerate(leaves, 1):
        if budget is not None and examined > budget:
            raise BudgetExceededError(budget, examined, "equal-sum splits")
        if key not in verdicts:
            u, v = count_runs(runs, key)
            verdicts[key] = is_bigraphic(*([d for d, c in side for _ in range(c)]
                                           for side in (u, v)))
        if verdicts[key]:
            split = split_with_u(ds, mask_indices(mask))
            d1 = tuple(ds.degrees[i] for i in split.u)
            d2 = tuple(ds.degrees[i] for i in split.v)
            return Decision("Bipartite", "exact-search", split=split,
                            realization=construct_realization(d1, d2))
    return Decision("NotBipartite", "gale-ryser-violation" if leaves else "no-equal-sum-split")


def _no_split_walk(ds, branch=None):
    raise AssertionError("the split walk ran")


class TestCountVectorPrePass:
    """On a NotBipartite input whose L splits fit the budget, decide_exact
    answers from the count vectors without walking the splits; at budget
    L - 1 it raises at split L, as the unpruned search does."""

    # two NotBipartite inputs of the exact-search benchmark (n = 20) with
    # 2281 and 13868 splits
    N20 = [(2, 2, 8, 5, 9, 7, 3, 6, 0, 8, 3, 1, 0, 8, 1, 0, 8, 2, 1, 4),
           (4, 1, 1, 3, 5, 9, 4, 3, 10, 6, 3, 10, 9, 10, 7, 8, 7, 10, 1, 5)]

    @staticmethod
    def _check(seq, unpruned_splits):
        ds = DegreeSequence(seq)
        leaves = sum(1 for _ in unpruned_splits(seq))
        want = reference_decide_exact(ds, None, unpruned_splits)
        assert want.verdict == "NotBipartite"
        for budget in (leaves - 1, leaves, leaves + 1):
            assert outcome(decide_exact, ds, budget) == outcome(
                reference_decide_exact, ds, budget, unpruned_splits), budget
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("bdr.decider.equal_sum_walk", _no_split_walk)
            for budget in (None, leaves, leaves + 1):
                assert decide_exact(ds, budget) == want

    @pytest.mark.parametrize("seq", [(5, 3, 1, 1, 1, 1), (5, 1, 1, 1), (3, 3, 1)] + N20)
    def test_fixed(self, seq, unpruned_splits):
        self._check(seq, unpruned_splits)

    # an odd sum is evened out with a 1, so that most draws have splits
    @given(seq=SEQS.map(lambda s: s + [1] if sum(s) % 2 else s))
    @settings(max_examples=300, deadline=None)
    def test_drawn(self, seq, unpruned_splits):
        ds = DegreeSequence(seq)
        assume(equal_sum_split_exists(ds) and not brute_force_bipartite_realizable(ds))
        self._check(seq, unpruned_splits)

    @pytest.mark.parametrize("source", [(2, 2, 2), (3, 3, 2), (3, 2, 2, 1)])
    def test_padded_without_budget(self, source):
        # far too many splits to walk (the walk passes 20000 of them), but
        # few count vectors: the unbounded search now ends
        ds = build_hard_instance(DegreeSequence(source), ParamBounds(F(1, 10), F(2, 5))).d_prime
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("bdr.decider.equal_sum_walk", _no_split_walk)
            d = decide_exact(ds)
        assert (d.verdict, d.reason) == ("NotBipartite", "gale-ryser-violation")
        with pytest.raises(BudgetExceededError) as exc:
            decide_exact(ds, budget=20000)
        assert (exc.value.limit, exc.value.examined) == (20000, 20001)

    @pytest.mark.parametrize("c1", [F(1, 10), F(3, 20)])
    def test_padded_budget_point_without_the_split_walk(self, c1):
        # n' = 54 and 2406: the bound cuts off every count vector within 29
        # nodes, and they stand for more than 2*budget index sets, so the
        # split walk would pass the budget; the error comes without it
        ds = build_hard_instance(DegreeSequence((2, 2, 2)), ParamBounds(c1, F(2, 5))).d_prime
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("bdr.decider.equal_sum_walk", _no_split_walk)
            with pytest.raises(BudgetExceededError) as exc:
                decide_exact(ds, budget=20000)
        assert (exc.value.limit, exc.value.examined) == (20000, 20001)

    @pytest.mark.parametrize("seq", [tuple(range(1, 41)), tuple(range(1, 401))])
    def test_many_distinct_degrees_budget_point_without_the_split_walk(self, seq):
        # both children of the root are cut off, two index sets; the third
        # key of the unpruned count walk shows a second split exists
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("bdr.decider.equal_sum_walk", _no_split_walk)
            with pytest.raises(BudgetExceededError) as exc:
                decide_exact(DegreeSequence(seq), budget=1)
        assert (exc.value.limit, exc.value.examined) == (1, 2)

    # 9 and 11 distinct degrees over m = 9 and 11: at least 2*ceil(sqrt(m))
    # + 2, more than one block of ``partition._block`` holds, so the count
    # walk rebuilds a block; 2 and 21 splits
    @pytest.mark.parametrize("seq", [(20, 2, 19, 22, 6, 14, 21, 13, 17),
                                     (1, 8, 7, 13, 5, 25, 11, 21, 4, 3, 10)])
    def test_many_distinct_degrees_run_it(self, seq, unpruned_splits):
        self._check(seq, unpruned_splits)

    def test_many_distinct_degrees_keep_the_split_walk_bound(self):
        # 1..400: 400 runs, and both walks hold block + 1 rows and the
        # checkpoints past {0} within 2*ceil(sqrt(400)) + 2 = 42 bitsets
        # (``partition._block``); the pre-pass's 401 bitsets would take
        # about 2 MB
        ds = DegreeSequence(tuple(range(1, 401)))

        def walk():
            for _ in islice(equal_sum_walk(ds)[1], 2):
                pass

        def search():
            with pytest.raises(BudgetExceededError) as exc:
                decide_exact(ds, budget=1)
            assert (exc.value.limit, exc.value.examined) == (1, 2)

        assert _traced_peak(search) < _traced_peak(walk) + 64 * 2 ** 10


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

    def test_count_walk_freed_before_split_walk(self):
        # decide_exact keeps the count walk's suffix bitsets for the box
        # walks of its branch test; they are cut to the sums of the small
        # values (44 KB on the stall, not 3 rows of sigma/16 bytes), so it
        # peaks no higher than the walk over 20001 splits
        ds = build_hard_instance(DegreeSequence((1, 1, 1, 1)),
                                 ParamBounds(F(3, 20), F(2, 5))).d_prime

        def walk():
            for _ in islice(equal_sum_walk(ds)[1], 20001):
                pass

        def search():
            with pytest.raises(BudgetExceededError):
                decide_exact(ds, budget=20000)

        assert _traced_peak(search) < _traced_peak(walk) + 64 * 2 ** 10


class TestGuidedWalkWork:
    """The work of the split walk's branch test, counted rather than timed."""

    FAR = ParamBounds(F(3, 20), F(2, 5))

    # the padded D' of the acceptance corpus at (1/10, 2/5) but (1,1,1,1),
    # which is answered, and the n' = 1604 stall
    @pytest.mark.parametrize("source, bounds",
                             [(s, ParamBounds(F(1, 10), F(2, 5))) for s in reduction_corpus(8)[1:]]
                             + [((1, 1, 1, 1), FAR)])
    def test_padded_budget_failures_call_the_kernel_at_most_m_times(self, source, bounds,
                                                                     monkeypatch):
        calls = []
        kernel = _gale_ryser_runs

        def counted(a, b):
            calls.append(1)
            return kernel(a, b)

        # the split walk's leaves and the box walks' leaves
        monkeypatch.setattr("bdr.decider._gale_ryser_runs", counted)
        monkeypatch.setattr("bdr.gale_ryser._gale_ryser_runs", counted)
        ds = build_hard_instance(DegreeSequence(source), bounds).d_prime
        with pytest.raises(BudgetExceededError) as exc:
            decide_exact(ds, budget=20000)
        assert (exc.value.limit, exc.value.examined) == (20000, 20001)
        assert len(calls) <= len(ds.nonzero())

    @pytest.mark.parametrize("seq, cut", [
        (tuple(v for v in range(1, 31) for _ in (0, 1)), True),
        (tuple(range(1, 401)), False)])
    def test_box_walks_stop_by_m_plus_one_nodes(self, seq, cut, monkeypatch):
        # the half graph (each of 1..30 twice): its first box walk is cut
        # off, and the walk reads that branch split by split; without the
        # cut the box walks ran for minutes.  1..400 is NotBipartite, and
        # the count walk before the split walk settles its budget point
        ds = DegreeSequence(seq)
        m = len(ds.nonzero())
        nodes = []
        count_walk = bdr.decider._count_walk

        def counted(sigma, runs):
            walk = count_walk(sigma, runs)

            def box_walk(live=None, lo=None, hi=None):
                if lo is None:
                    return walk(live)
                nodes.append(0)

                def counting(i, rem, k):
                    nodes[-1] += 1
                    assert nodes[-1] <= m + 1, "a box walk went on past m + 1 nodes"
                    return live(i, rem, k)

                return walk(counting, lo, hi)

            return box_walk

        monkeypatch.setattr("bdr.decider._count_walk", counted)
        with pytest.raises(BudgetExceededError) as exc:
            decide_exact(ds, budget=20000)
        assert (exc.value.limit, exc.value.examined) == (20000, 20001)
        assert (m + 1 in nodes) == cut and bool(nodes) == cut


class TestDecisionDataclass:
    def test_with_region(self):
        d = Decision("Undecided", "exact-search")
        assert d.with_region(RegionClass.UNCLASSIFIED).region is RegionClass.UNCLASSIFIED
        assert d.region is None


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

    def test_split_walk_short_of_the_pre_pass_raises(self, monkeypatch):
        # the pre-pass accepts a count vector, so the split walk must reach
        # an accepted split; a walk that yields none breaks that invariant
        monkeypatch.setattr("bdr.decider.equal_sum_walk", lambda ds, branch=None: ([], iter(())))
        with pytest.raises(InvariantError):
            decide_exact(DegreeSequence((2, 2, 2, 2)))
