import random

import pytest
from hypothesis import given, settings, strategies as st

from bdr import DegreeSequence, oracle
from bdr.errors import BudgetExceededError
from bdr.oracle import (brute_force_bipartite_realizable,
                        exhaustive_graph_search, exhaustive_pair_search)


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
        rng = random.Random(3)
        # many distinct values and an infeasible target force many vectors
        seq = [17, 13, 11, 9, 7, 5, 3, 2, 2, 1]
        with pytest.raises(BudgetExceededError):
            brute_force_bipartite_realizable(DegreeSequence(seq), budget=1)

    def test_odd_sum_short_circuits(self):
        assert not brute_force_bipartite_realizable(DegreeSequence((1, 1, 1)))

    def test_empty(self):
        assert brute_force_bipartite_realizable(DegreeSequence(()))
        assert exhaustive_graph_search(DegreeSequence(()))
