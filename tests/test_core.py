from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bdr import DegreeSequence, ParamBounds, in_class, is_graphic, parse_sequence
from bdr.core import parse_rational
from bdr.errors import ParseError


class TestParseSequence:
    def test_whitespace(self):
        ds = parse_sequence("3 3 1 1")
        assert ds.degrees == (3, 3, 1, 1)
        assert ds.n == 4 and ds.sigma == 8

    def test_commas(self):
        assert parse_sequence("2,2,2").degrees == (2, 2, 2)

    def test_mixed_separators(self):
        assert parse_sequence("1, 2\n3").degrees == (1, 2, 3)

    def test_negative_rejected(self):
        with pytest.raises(ParseError, match="-1"):
            parse_sequence("2 -1")

    def test_non_integer_rejected(self):
        with pytest.raises(ParseError, match="x"):
            parse_sequence("1 x 2")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_sequence("   ")


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("1/3") == Fraction(1, 3)

    def test_decimal_exact(self):
        assert parse_rational("0.3") == Fraction(3, 10)

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")


class TestIsGraphic:
    def test_k4(self):
        assert is_graphic(DegreeSequence((3, 3, 3, 3)))

    def test_3311_not_graphic(self):
        # frozen from exhaustive search over labeled graphs on 4 vertices
        assert not is_graphic(DegreeSequence((3, 3, 1, 1)))

    def test_odd_sum(self):
        assert not is_graphic(DegreeSequence((1, 1, 1)))

    def test_empty_graphic(self):
        assert is_graphic(DegreeSequence(()))

    def test_matches_labeled_graph_enumeration(self, graphic_multisets_7):
        from itertools import combinations_with_replacement
        for n in range(1, 8):
            for seq in combinations_with_replacement(range(6, -1, -1), n):
                padded = tuple(sorted(seq + (0,) * (7 - n)))
                expected = padded in graphic_multisets_7
                assert is_graphic(DegreeSequence(seq)) == expected, seq

    @given(st.lists(st.integers(0, 8), max_size=9), st.randoms())
    def test_permutation_invariant(self, seq, rnd):
        shuffled = list(seq)
        rnd.shuffle(shuffled)
        assert is_graphic(DegreeSequence(seq)) == is_graphic(DegreeSequence(shuffled))

    @given(st.lists(st.integers(0, 8), max_size=9))
    def test_appending_zero_is_neutral(self, seq):
        assert is_graphic(DegreeSequence(seq)) == is_graphic(DegreeSequence(seq + [0]))

    @given(st.lists(st.integers(0, 10), max_size=10))
    def test_drop_point_optimization_agrees_with_all_k(self, seq):
        ds = DegreeSequence(seq)
        assert is_graphic(ds) == is_graphic(ds, check_all_k=True)


class TestInClass:
    def test_exact_boundary_included(self):
        ds = DegreeSequence((2, 2, 2, 2, 2, 2))
        assert in_class(ds, ParamBounds(Fraction(1, 3), Fraction(1, 3)))

    def test_exact_boundary_excluded(self):
        ds = DegreeSequence((3, 3, 3, 3))
        assert not in_class(ds, ParamBounds(Fraction(1, 3), Fraction(1, 2)))

    def test_full_range(self):
        assert in_class(DegreeSequence((2, 2, 3)), ParamBounds(Fraction(0), Fraction(1)))

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ParamBounds(Fraction(1, 2), Fraction(1, 3))

    @pytest.mark.parametrize("c1, c2", [(0.1, Fraction(1, 5)), (0, 1.0), (False, 1), (0, True)])
    def test_inexact_bounds_rejected(self, c1, c2):
        # 0.1 would otherwise become 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            ParamBounds(c1, c2)


class TestDegreeSequence:
    @pytest.mark.parametrize("degrees", [[2.7, True], [2.0], [True], [1, False]])
    def test_inexact_degrees_rejected(self, degrees):
        # int() would have truncated 2.7 to 2 and taken True as 1
        with pytest.raises(TypeError):
            DegreeSequence(degrees)

    def test_numpy_integers_accepted(self):
        degrees = DegreeSequence(np.array([3, 0])).degrees
        assert degrees == (3, 0) and all(type(d) is int for d in degrees)
