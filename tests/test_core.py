import enum
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bdr import DegreeClass, DegreeSequence, ParamBounds, in_class, is_graphic, parse_sequence
from bdr.core import degree_window, parse_rational
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

    def test_unicode_whitespace_separates(self):
        # commas and the characters str.isspace() accepts, runs of them and
        # leading or trailing ones included; the text is not ASCII, yet
        # every token is
        text = ",\u30007\x1c,\u2028 5,,\u00a0\t6\u3000"
        assert parse_sequence(text).degrees == (7, 5, 6)

    def test_negative_rejected(self):
        with pytest.raises(ParseError, match="-1"):
            parse_sequence("2 -1")

    def test_non_integer_rejected(self):
        with pytest.raises(ParseError, match="x"):
            parse_sequence("1 x 2")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_sequence("   ")

    def test_digit_group_underscore_rejected(self):
        # int() reads "1_000" as 1000
        with pytest.raises(ParseError, match="1_000"):
            parse_sequence("2 1_000")

    def test_full_width_digit_rejected(self):
        # int() reads the full-width digit three as 3
        with pytest.raises(ParseError, match="non-integer"):
            parse_sequence("2 \uff13")

    def test_negative_still_named(self):
        with pytest.raises(ParseError, match="negative degree '-12'"):
            parse_sequence("3 -12")

    def test_plus_sign_rejected(self):
        # int() reads "+3" as 3
        with pytest.raises(ParseError, match=r"non-integer token '\+3'"):
            parse_sequence("+3 0 3")

    def test_minus_zero_rejected(self):
        # int() reads "-0" as 0
        with pytest.raises(ParseError, match="'-0'"):
            parse_sequence("3 -0 3")


class TestParseRational:
    def test_fraction(self):
        assert parse_rational("1/3") == Fraction(1, 3)

    def test_decimal_exact(self):
        assert parse_rational("0.3") == Fraction(3, 10)

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")
        for text in ("", "  "):
            with pytest.raises(ParseError, match="empty rational"):
                parse_rational(text)

    def test_digit_group_underscore_rejected(self):
        # Fraction() reads "1_0/3" as 10/3
        with pytest.raises(ParseError):
            parse_rational("1_0/3")

    @pytest.mark.parametrize("text", ["1e-999999999", "1E5", "2.5e-1", "1/1e3"])
    def test_exponent_rejected(self, text):
        # Fraction() expands the exponent: 1e-999999999 would not finish
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_arabic_indic_digits_rejected(self):
        # Fraction() reads ARABIC-INDIC ONE / TWO as 1/2
        with pytest.raises(ParseError):
            parse_rational("\u0661/\u0662")


def erdos_gallai_all_k(seq):
    """Erdős–Gallai at every k: even sum and, for the non-increasing d and
    each k in 1..n, sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(k, d_i)."""
    d = sorted(seq, reverse=True)
    return sum(d) % 2 == 0 and all(
        sum(d[:k]) <= k * (k - 1) + sum(min(k, x) for x in d[k:])
        for k in range(1, len(d) + 1))


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

    @pytest.mark.parametrize("n", range(7))
    def test_graph_enumeration_matches_edge_subsets(self, graphic_multisets, n):
        # every edge subset of K_n once, as the n = 7 fixture was first built
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        masks = np.arange(1 << len(pairs), dtype=np.uint32)
        deg = np.zeros((1 << len(pairs), n), dtype=np.uint8)
        for e, (i, j) in enumerate(pairs):
            bit = ((masks >> e) & 1).astype(np.uint8)
            deg[:, i] += bit
            deg[:, j] += bit
        deg.sort(axis=1)
        expected = {tuple(int(x) for x in row) for row in deg}
        assert graphic_multisets(n) == expected

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
        assert is_graphic(DegreeSequence(seq)) == erdos_gallai_all_k(seq)


class TestInClass:
    def test_exact_boundary_included(self):
        ds = DegreeSequence((2, 2, 2, 2, 2, 2))
        assert in_class(ds, ParamBounds(Fraction(1, 3), Fraction(1, 3)))

    def test_exact_boundary_excluded(self):
        ds = DegreeSequence((3, 3, 3, 3))
        assert not in_class(ds, ParamBounds(Fraction(1, 3), Fraction(1, 2)))

    def test_full_range(self):
        assert in_class(DegreeSequence((2, 2, 3)), ParamBounds(Fraction(0), Fraction(1)))

    def test_matches_fraction_comparison(self):
        # every bound pair with denominators <= 12, n <= 24, and each degree
        # from one below the window to one above it
        fractions = sorted({Fraction(p, q) for q in range(1, 13) for p in range(q + 1)})
        empty = 0
        for c1 in fractions:
            for c2 in (c2 for c2 in fractions if c2 >= c1):
                bounds = ParamBounds(c1, c2)
                for n in range(25):
                    lo, hi = degree_window(bounds, n)
                    empty += lo > hi
                    for d in range(max(lo - 1, 0), hi + 2):
                        ds = DegreeSequence((d,) * n)
                        # the empty sequence is in every class
                        expected = n == 0 or c1 * n <= d <= c2 * n
                        assert in_class(ds, bounds) == expected, (c1, c2, n, d)
        assert empty > 0

    @given(st.data())
    def test_mixed_degrees_match_per_degree_definition(self, data):
        # degrees at both window edges and one past each, in any mix, and ()
        c1, c2 = sorted(data.draw(st.lists(st.fractions(0, 1, max_denominator=12),
                                           min_size=2, max_size=2)))
        bounds = ParamBounds(c1, c2)
        n = data.draw(st.integers(0, 24))
        lo, hi = degree_window(bounds, n)
        edges = sorted({max(d, 0) for d in (lo - 1, lo, hi, hi + 1)})
        ds = DegreeSequence(data.draw(st.lists(st.sampled_from(edges), min_size=n, max_size=n)))
        assert in_class(ds, bounds) == all(c1 * n <= d <= c2 * n for d in ds.degrees)

    def test_window_matches_fraction_ceil_and_floor(self):
        # ceil(c*n) and floor(c*n) taken on Fractions, for every c with
        # denominator <= 24: c*n is an integer at each multiple of c's
        # denominator, and one past or short of it, it is not
        fractions = sorted({Fraction(p, q) for q in range(1, 25) for p in range(q + 1)})
        for c in fractions:
            bounds = ParamBounds(c, c)
            for n in (*range(60), 10 ** 9 + 7, 24 * 10 ** 12, 24 * 10 ** 12 + 1):
                assert degree_window(bounds, n) == (math.ceil(c * n), math.floor(c * n)), (c, n)

    def test_window_of_length_zero(self):
        assert degree_window(ParamBounds(Fraction(1, 3), Fraction(1, 2)), 0) == (0, 0)
        assert degree_window(ParamBounds(Fraction(1, 3), Fraction(1, 2)), 5) == (2, 2)
        assert degree_window(ParamBounds(Fraction(2, 5), Fraction(1, 2)), 7) == (3, 3)
        assert degree_window(ParamBounds(Fraction(1, 3), Fraction(1, 2)), 1) == (1, 0)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ParamBounds(Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(ValueError, match="nonnegative"):
            DegreeClass(-1, 4, 1, 2)
        with pytest.raises(ValueError, match="d <= delta"):
            DegreeClass(3, 4, 3, 2)

    @pytest.mark.parametrize("fields", [
        (5, 10.5, 1, 3), (5.0, 10, 1, 3), (5, 10, 1.0, 3), (5, 10, 1, 3.5),
        (True, 1, 1, 1), (5, 10, False, 3), (5, 10, 1, True), (5, Fraction(10), 1, 3)])
    def test_inexact_class_fields_rejected(self, fields):
        # lbds_shape(DegreeClass(5, 10.5, 1, 3)) gave the intermediate degree
        # 2.5, and a bool was taken as 0 or 1
        with pytest.raises(TypeError):
            DegreeClass(*fields)

    def test_integer_class_fields_become_ints(self):
        cls = DegreeClass(np.int64(5), _Two.TWO, 0, np.int32(3))
        assert (cls.n, cls.sigma, cls.d, cls.delta) == (5, 2, 0, 3)
        assert all(type(x) is int for x in (cls.n, cls.sigma, cls.d, cls.delta))

    @pytest.mark.parametrize("c1, c2", [(0.1, Fraction(1, 5)), (0, 1.0), (False, 1), (0, True)])
    def test_inexact_bounds_rejected(self, c1, c2):
        # 0.1 would otherwise become 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            ParamBounds(c1, c2)


class _Two(enum.IntEnum):
    TWO = 2


class TestDegreeSequence:
    @pytest.mark.parametrize("degrees", [[2.7, True], [2.0], [True], [1, False]])
    def test_inexact_degrees_rejected(self, degrees):
        # int() would have truncated 2.7 to 2 and taken True as 1; a bool
        # is named before a float
        message = ("not bool" if bool in map(type, degrees)
                   else "'float' object cannot be interpreted as an integer")
        with pytest.raises(TypeError, match=message):
            DegreeSequence(degrees)

    @given(st.lists(st.integers(-3, 3), max_size=8))
    def test_first_negative_degree_is_named(self, degrees):
        negative = [d for d in degrees if d < 0]
        if negative:
            with pytest.raises(ValueError, match=f"^negative degree {negative[0]}$"):
                DegreeSequence(degrees)
        else:
            assert DegreeSequence(degrees).degrees == tuple(degrees)

    def test_numpy_integers_accepted(self):
        degrees = DegreeSequence(np.array([3, 0])).degrees
        assert degrees == (3, 0) and all(type(d) is int for d in degrees)
        # an IntEnum and a numpy.int64 among plain ints
        degrees = DegreeSequence([2, _Two.TWO, np.int64(1)]).degrees
        assert degrees == (2, 2, 1) and all(type(d) is int for d in degrees)
