import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, takewhile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bdr import (DegreeSequence, ParamBounds, build_hard_instance, oracle,
                 verify_reduction_roundtrip)
from bdr.errors import BudgetExceededError
from bdr.oracle import (brute_force_bipartite_realizable,
                        exhaustive_graph_search, exhaustive_pair_search)
from conftest import _traced_peak, _unpruned_count_vectors, reduction_corpus as _corpus


class TestFrozenValues:
    # frozen from the edge-set backtracking search
    CASES = [
        ((3, 3, 2, 2, 1, 1), True),
        ((5, 1, 1, 1), False),
        ((2, 2, 2, 2, 2, 2), True),
        ((1, 1, 1, 1), True),
        ((2, 1, 1, 1, 1), True),
        ((2, 2, 1, 1, 1, 1), True),
        ((3, 3, 1, 1), False),
    ]

    @pytest.mark.parametrize("seq,expected", CASES)
    def test_brute_force(self, seq, expected):
        assert brute_force_bipartite_realizable(DegreeSequence(seq)) == expected

    @pytest.mark.parametrize("seq,expected", CASES)
    def test_graph_search(self, seq, expected):
        assert exhaustive_graph_search(DegreeSequence(seq)) == expected


class TestPairSearch:
    def test_k22(self):
        assert exhaustive_pair_search((2, 2), (2, 2))

    def test_overfull(self):
        assert not exhaustive_pair_search((3,), (1, 1))

    def test_unbalanced(self):
        assert not exhaustive_pair_search((2, 2), (3,))

    def test_zeros_ignored(self):
        assert exhaustive_pair_search((2, 0, 2), (2, 2, 0))


class TestMemo:
    def test_second_call_starts_from_an_empty_memo(self, monkeypatch):
        searched = []
        search = oracle._pair_search

        def counting(du, dv, memo):
            searched.append((du, dv))
            return search(du, dv, memo)

        monkeypatch.setattr(oracle, "_pair_search", counting)
        for run in (lambda: exhaustive_pair_search((3, 3, 2, 2), (3, 3, 2, 2)),
                    lambda: exhaustive_graph_search(DegreeSequence((3, 3, 2, 2, 1, 1)))):
            searched.clear()
            first = run()
            first_searched = list(searched)
            searched.clear()
            assert run() == first
            assert searched == first_searched and len(searched) > 1


class TestAgreement:
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_two_oracles_agree(self, seq):
        ds = DegreeSequence(seq)
        assert (brute_force_bipartite_realizable(ds)
                == exhaustive_graph_search(ds))

    def test_every_small_multiset(self):
        # every even-sum multiset of n <= 8 degrees below n, largest first:
        # the stop at the first mirrored count vector loses no realization
        for n in range(1, 9):
            for seq in combinations_with_replacement(range(n - 1, -1, -1), n):
                if sum(seq) % 2 == 0:
                    ds = DegreeSequence(seq)
                    assert brute_force_bipartite_realizable(ds) == exhaustive_graph_search(ds)

    def test_scales_to_padded_instances(self):
        from bdr import build_hard_instance, ParamBounds
        from fractions import Fraction
        inst = build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)),
                                   ParamBounds(Fraction(1, 10), Fraction(2, 5)))
        assert brute_force_bipartite_realizable(inst.d_prime)


class TestLimits:
    def test_graph_search_size_cap(self):
        with pytest.raises(ValueError):
            exhaustive_graph_search(DegreeSequence((1,) * 9))

    def test_budget(self):
        # 35 = 17 + 13 + 5 is reachable, but the first count vector,
        # (17, 13, 5) against the rest, is not bigraphic, so a second is needed
        seq = [17, 13, 11, 9, 7, 5, 3, 2, 2, 1]
        with pytest.raises(BudgetExceededError):
            brute_force_bipartite_realizable(DegreeSequence(seq), budget=1)

    @pytest.mark.parametrize("budget, error", [
        (-1, ValueError), (2.5, TypeError), (2.0, TypeError), (True, TypeError),
        (False, TypeError), ("3", TypeError), (Fraction(2), TypeError)])
    def test_bad_budget_rejected_before_search(self, budget, error):
        # budget -1 raised "examined more than -1 split count vectors"; the
        # budget is now refused before the count walk starts, also by the
        # round trip, which hands it to the oracle
        def no_search(*args):
            raise AssertionError("search started")
        with mock.patch.object(oracle, "_count_walk", no_search):
            with pytest.raises(error):
                brute_force_bipartite_realizable(DegreeSequence((2, 2, 1, 1)), budget=budget)
            with pytest.raises(error):
                verify_reduction_roundtrip(DegreeSequence((2, 2, 1, 1)),
                                           ParamBounds(Fraction(1, 10), Fraction(2, 5)),
                                           budget=budget)

    def test_memory_within_the_split_walk_bound(self):
        # 1..400: 400 runs, their suffix bitsets checkpointed in blocks
        # (``partition._block``), block rows and the checkpoints past {0}
        # within 2*ceil(sqrt(400)) + 2 = 42 bitsets of sigma/2 bits, where
        # all 401 of them would take about 2 MB; the rest is the walk's
        # per-run lists, its stack and the run DP's temporaries
        ds = DegreeSequence(tuple(range(1, 401)))
        bitsets = 42 * (ds.sigma // 2 // 8 + 1)

        def search():
            with pytest.raises(BudgetExceededError):
                brute_force_bipartite_realizable(ds, budget=1)

        assert _traced_peak(search) < bitsets + 96 * 2 ** 10

    def test_odd_sum_short_circuits(self):
        assert not brute_force_bipartite_realizable(DegreeSequence((1, 1, 1)))

    def test_empty(self):
        assert brute_force_bipartite_realizable(DegreeSequence(()))
        assert exhaustive_graph_search(DegreeSequence(()))


def _unpruned(ds, budget=None):
    """The count-vector search before suffix reachability: the unpruned
    count vectors of ``conftest``, each checked against Gale–Ryser."""
    for examined, (side1, side2) in enumerate(_unpruned_count_vectors(ds.degrees), 1):
        if budget is not None and examined > budget:
            raise BudgetExceededError(budget, examined, "split count vectors")
        if oracle._gale_ryser_lists(side1, side2):
            return True
    return False


def _leaves(search, ds, budget=None):
    """(verdict or the budget message, the Gale–Ryser calls in order, each
    as the two sides' (value, count) runs)."""
    calls = []
    check = oracle._gale_ryser_lists

    def spy(side1, side2):
        calls.append((list(side1), list(side2)))
        return check(side1, side2)

    with mock.patch.object(oracle, "_gale_ryser_lists", spy):
        try:
            outcome = search(ds, budget)
        except BudgetExceededError as exc:
            outcome = str(exc)
    return outcome, calls


def _same_leaves(seq, budgets=True):
    ds = DegreeSequence(seq)
    verdict, calls = _leaves(_unpruned, ds)
    # the reference's calls up to the first count vector whose U counts lie
    # below its V counts, the mirror of one called before
    prefix = list(takewhile(lambda sides: not sides[0] < sides[1], calls))
    assert _leaves(brute_force_bipartite_realizable, ds) == (verdict, prefix)
    if budgets:
        n = len(prefix)
        for b in sorted({0, 1, n // 2, max(n - 1, 0), n, len(calls)}):
            got = _leaves(brute_force_bipartite_realizable, ds, b)
            assert got == (_leaves(_unpruned, ds, b) if b < n else (verdict, prefix))
            assert isinstance(got[0], str) == (b < n)


def _padded(source, c1, c2):
    bounds = ParamBounds(Fraction(c1), Fraction(c2))
    return build_hard_instance(DegreeSequence(source), bounds).d_prime.degrees


class TestSameLeaves:
    """The reachability prune drops only dead subtrees: Gale–Ryser sees the
    count vectors of the unpruned search in its order, up to the first
    whose U counts lie below its V counts, and gives its verdict.  A budget
    is exceeded exactly when it is below the count of those calls, with the
    unpruned search's message."""

    @given(st.one_of(
        st.lists(st.integers(0, 9), max_size=14),
        st.tuples(st.integers(0, 9), st.integers(0, 14)).map(lambda vc: [vc[0]] * vc[1])))
    @example([])
    @example([0, 0, 0])
    @example([1, 1, 1])
    @example([3])
    @example([5] * 6)
    @example([17, 13, 11, 9, 7, 5, 3, 2, 2, 1])
    @settings(max_examples=200, deadline=None)
    def test_drawn(self, seq):
        _same_leaves(seq)

    @pytest.mark.parametrize("source", _corpus(8))
    def test_padded_hard(self, source):
        _same_leaves(_padded(source, "1/10", "2/5"))

    # n' = 1604-2406; the unpruned search takes up to a second on each, so
    # budgets are checked on the smaller inputs only
    @pytest.mark.parametrize("source", _corpus(6))
    def test_padded_far(self, source):
        _same_leaves(_padded(source, "3/20", "2/5"), budgets=False)


def test_deep_search_needs_no_recursion(tmp_path):
    # the star forest K_{1,1} + ... + K_{1,400}: 400 distinct degrees, so
    # 400 levels of search, under a recursion limit of 200
    k = 400
    path = tmp_path / "stars.txt"
    path.write_text(" ".join(map(str, [*range(k, 0, -1), *[1] * (k * (k + 1) // 2)])))
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    code = ("import sys; sys.setrecursionlimit(200); from bdr.cli import main; "
            f"sys.exit(main(['oracle', {str(path)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{"bipartite": true}\n', "")
