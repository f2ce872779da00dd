import pytest
from hypothesis import given, strategies as st

from bdr import (BipartitePair, BipartiteRealization, DegreeSequence,
                 balancing_hinge_flip, bipartite_to_unipartite,
                 construct_realization, format_realization, hinge_flip,
                 is_bigraphic, is_graphic)
from bdr.errors import InvalidMoveError, InvariantError
from bdr.gale_ryser import _gale_ryser_lists
from bdr.oracle import exhaustive_pair_search


def pair(d1, d2):
    return BipartitePair(DegreeSequence(d1), DegreeSequence(d2))


class TestIsBigraphic:
    def test_k22(self):
        assert is_bigraphic(pair((2, 2), (2, 2)))

    def test_31_22_fails_at_k1(self):
        assert not is_bigraphic(pair((3, 1), (2, 2)))

    def test_k32(self):
        assert is_bigraphic(pair((2, 2, 2), (3, 3)))

    def test_unequal_sums(self):
        assert not is_bigraphic(pair((2, 1), (2, 2)))

    @given(st.lists(st.integers(0, 4), max_size=5),
           st.lists(st.integers(0, 4), max_size=5))
    def test_drop_point_optimization_agrees_with_all_k(self, d1, d2):
        assert is_bigraphic(pair(d1, d2)) == _gale_ryser_lists(d1, d2, range(1, len(d1) + 1))

    @given(st.lists(st.integers(0, 3), max_size=4),
           st.lists(st.integers(0, 3), max_size=4))
    def test_agrees_with_exhaustive_enumeration(self, d1, d2):
        assert is_bigraphic(pair(d1, d2)) == exhaustive_pair_search(d1, d2)


class TestBipartiteToUnipartite:
    def test_shift_by_n_minus_one(self):
        assert bipartite_to_unipartite(pair((2, 2), (2, 2))).degrees == (3, 3, 2, 2)

    def test_single(self):
        assert bipartite_to_unipartite(pair((1,), (1,))).degrees == (1, 1)

    def test_mixed(self):
        assert bipartite_to_unipartite(pair((2, 1, 1), (2, 1, 1))).degrees == (4, 3, 3, 2, 1, 1)

    def test_equivalence_with_graphicality(self):
        # valid whenever every second-class degree is at most len(d1)
        cases = [((2, 2), (2, 2)), ((3, 1), (2, 2)), ((2, 2, 2), (3, 3)),
                 ((1, 1, 1), (3,)), ((2, 1), (1, 1, 1)), ((3, 3), (2, 2, 1, 1))]
        for d1, d2 in cases:
            if all(x <= len(d1) for x in d2):
                p = pair(d1, d2)
                assert is_bigraphic(p) == is_graphic(bipartite_to_unipartite(p))


class TestConstructRealization:
    def test_forced_k22(self):
        g = construct_realization(pair((2, 2), (2, 2)))
        assert len(g.edges) == 4

    def test_forced_star(self):
        g = construct_realization(pair((2,), (1, 1)))
        assert g.edges == frozenset({(0, 0), (0, 1)})

    def test_infeasible(self):
        assert construct_realization(pair((3, 1), (2, 2))) is None

    @given(st.lists(st.integers(0, 4), max_size=5),
           st.lists(st.integers(0, 4), max_size=5))
    def test_succeeds_iff_bigraphic_and_degrees_match(self, d1, d2):
        p = pair(d1, d2)
        g = construct_realization(p)
        if is_bigraphic(p):
            assert g is not None
            assert g.u_degrees() == tuple(d1)
            assert g.v_degrees() == tuple(d2)
        else:
            assert g is None


class TestRealizationLayout:
    def test_derived_views(self):
        g = BipartiteRealization(3, ((0, 2), (), (1,)))
        assert g.u_count == 3
        assert g.u_degrees() == (2, 0, 1) and g.v_degrees() == (1, 1, 1)
        assert g.sorted_edges() == [(0, 0), (0, 2), (2, 1)]
        assert g.edges == frozenset(g.sorted_edges())

    @pytest.mark.parametrize("neighbors", [((1, 0),), ((0, 0),), ((-1, 0),), ((0, 2),),
                                           ((), (2,))])
    def test_rejects_unsorted_repeated_or_out_of_range(self, neighbors):
        with pytest.raises(ValueError):
            BipartiteRealization(2, neighbors)


class TestHingeFlip:
    def test_edge_already_present(self):
        g = construct_realization(pair((2, 2), (2, 2)))
        with pytest.raises(InvalidMoveError):
            hinge_flip(g, 0, 1, 0)

    def test_direct_move(self):
        g = BipartiteRealization(2, ((0, 1), ()))
        assert hinge_flip(g, 0, 1, 1).edges == frozenset({(0, 0), (1, 1)})

    def test_degree_bookkeeping(self):
        g = BipartiteRealization(2, ((0, 1), ()))
        flipped = hinge_flip(g, 0, 1, 1)
        assert g.u_degrees() == (2, 0) and flipped.u_degrees() == (1, 1)
        assert flipped.v_degrees() == g.v_degrees()

    @pytest.mark.parametrize("u", [-1, 2])
    def test_u_out_of_range(self, u):
        g = BipartiteRealization(2, ((0, 1), ()))
        for u1, u2 in ((u, 1), (0, u)):
            with pytest.raises(InvalidMoveError):
                hinge_flip(g, u1, u2, 0)


class TestBalancingHingeFlip:
    def test_balances_31(self):
        g = construct_realization(pair((3, 1), (2, 1, 1)))
        balanced = balancing_hinge_flip(g, 1, 0)
        assert sorted(balanced.u_degrees()) == [2, 2]

    def test_no_gap_rejected(self):
        g = construct_realization(pair((2, 2), (2, 2)))
        with pytest.raises(InvalidMoveError):
            balancing_hinge_flip(g, 0, 1)

    @pytest.mark.parametrize("u", [-1, 3])
    def test_u_out_of_range(self, u):
        # i = -1 would wrap to u_2, whose degree 0 meets the precondition
        # against u_0's degree 3
        g = BipartiteRealization(3, ((0, 1, 2), (), ()))
        for i, j in ((u, 0), (1, u)):
            with pytest.raises(InvalidMoveError):
                balancing_hinge_flip(g, i, j)

    def test_no_eligible_v_raises(self, monkeypatch):
        # degrees that claim a gap the edges do not have: the pigeonhole
        # argument fails, and the flip raises rather than returning
        g = BipartiteRealization(1, ((0,), (0,)))
        monkeypatch.setattr(BipartiteRealization, "u_degrees", lambda self: (0, 2))
        with pytest.raises(InvariantError):
            balancing_hinge_flip(g, 0, 1)

    def test_u_sum_conserved_and_v_unchanged(self):
        g = construct_realization(pair((3, 1), (2, 1, 1)))
        balanced = balancing_hinge_flip(g, 1, 0)
        assert sum(balanced.u_degrees()) == sum(g.u_degrees())
        assert balanced.v_degrees() == g.v_degrees()

    def test_multiset_shift_by_one(self):
        g = construct_realization(pair((4, 1, 1), (2, 2, 1, 1)))
        balanced = balancing_hinge_flip(g, 1, 0)
        assert sorted(balanced.u_degrees()) == [1, 2, 3]


class TestFormat:
    def test_header_and_edges(self):
        g = BipartiteRealization(2, ((0, 1),))
        assert format_realization(g) == "p bipartite 1 2 2\n0 0\n0 1"
