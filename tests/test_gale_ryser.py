import random

import pytest
from hypothesis import given, settings, strategies as st

from bdr import (BipartitePair, BipartiteRealization, DegreeSequence,
                 balancing_hinge_flip, bipartite_to_unipartite,
                 construct_realization, format_realization, hinge_flip,
                 find_equal_sum_split, is_bigraphic, is_graphic)
from bdr.errors import InvalidMoveError, InvariantError
from bdr.oracle import exhaustive_pair_search


def pair(d1, d2):
    return BipartitePair(DegreeSequence(d1), DegreeSequence(d2))


def gale_ryser_all_k(d1, d2):
    """Gale–Ryser at every k: equal sums and, for the non-increasing a and
    each k in 1..n, sum_{i<=k} a_i <= sum_j min(k, b_j)."""
    a = sorted(d1, reverse=True)
    return sum(d1) == sum(d2) and all(
        sum(a[:k]) <= sum(min(k, b) for b in d2) for k in range(1, len(a) + 1))


def reference_realization(p):
    """The per-u-vertex sort realizer the run-based one replaced: the same
    u order, then the first need v-vertices by (-residual, index)."""
    d1, d2 = p.d1.degrees, p.d2.degrees
    if sum(d1) != sum(d2):
        return None
    residual = list(d2)
    order = list(range(len(d2)))
    neighbors = [()] * len(d1)
    for u in sorted(range(len(d1)), key=lambda i: -d1[i]):
        need = d1[u]
        if need == 0:
            continue
        order.sort(key=lambda j: (-residual[j], j))
        chosen = order[:need]
        if len(chosen) < need or residual[chosen[-1]] == 0:
            return None
        for v in chosen:
            residual[v] -= 1
        neighbors[u] = tuple(sorted(chosen))
    if any(residual):
        return None
    return BipartiteRealization(len(d2), tuple(neighbors))


@st.composite
def degree_pairs(draw):
    """Unequal sums, equal sums (bigraphic or not, entries of d1 may exceed
    len(d2)), and the degrees of random bipartite graphs, zeros included."""
    kind = draw(st.sampled_from(["free", "equal", "graph"]))
    if kind == "graph":
        u_count, v_count = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        edges = draw(st.lists(st.booleans(), min_size=u_count * v_count,
                              max_size=u_count * v_count))
        d1 = [sum(edges[u * v_count:(u + 1) * v_count]) for u in range(u_count)]
        d2 = [sum(edges[v::v_count]) for v in range(v_count)]
        return d1, d2
    d1 = draw(st.lists(st.integers(0, 9), max_size=7))
    d2 = draw(st.lists(st.integers(0, 9), max_size=7))
    if kind == "equal":
        diff = sum(d1) - sum(d2)
        (d2 if diff > 0 else d1).append(abs(diff))
    return d1, d2


def random_graph_degrees(rng, u_count, v_count, p):
    d1, d2 = [0] * u_count, [0] * v_count
    for u in range(u_count):
        for v in range(v_count):
            if rng.random() < p:
                d1[u] += 1
                d2[v] += 1
    return d1, d2


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
        assert is_bigraphic(pair(d1, d2)) == gale_ryser_all_k(d1, d2)

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


class TestRealizerMatchesReference:
    @given(degree_pairs())
    @settings(max_examples=500, deadline=None)
    def test_small_pairs(self, d1_d2):
        p = pair(*d1_d2)
        assert construct_realization(p) == reference_realization(p)

    @pytest.mark.parametrize("d1,d2", [((9, 1), (1,) * 10), ((3,), (1, 1)),
                                       ((0, 2, 0), (1, 0, 1)), ((2, 2), (3, 1))])
    def test_edge_cases(self, d1, d2):
        p = pair(d1, d2)
        assert construct_realization(p) == reference_realization(p)

    def test_seeded_low_region_split(self):
        # the pair decide_bdr realizes for a seeded n = 2000 input with
        # degrees in [n/10, n/5]
        rng = random.Random(2000)
        degrees = [rng.randint(200, 400) for _ in range(2000)]
        while sum(degrees) % 2:
            degrees[-1] = rng.randint(200, 400)
        split = find_equal_sum_split(DegreeSequence(degrees))
        p = pair([degrees[i] for i in split.u_indices()],
                 [degrees[i] for i in split.v_indices()])
        g = construct_realization(p)
        assert g is not None and g == reference_realization(p)

    def test_seeded_random_graph(self):
        p = pair(*random_graph_degrees(random.Random(7), 300, 400, 0.2))
        g = construct_realization(p)
        assert g is not None and g == reference_realization(p)


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
