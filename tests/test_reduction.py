import hashlib
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, filterfalse

import pytest

from bdr import (DegreeSequence, ParamBounds, build_hard_instance,
                 choose_padding_n, compute_rational_r, decide_exact,
                 find_equal_sum_split,
                 in_class, lift_realization, project_realization,
                 semiregular_bipartite, verify_reduction_roundtrip)
from bdr.errors import (NotInHardRegionError, ProjectionAuditError,
                        ReductionInvariantError, ReductionPreconditionError)
from bdr import gale_ryser
from bdr.core import _value_runs
from bdr.gale_ryser import (BipartiteRealization, _gale_ryser_runs, construct_realization,
                            hinge_flip)
from bdr.oracle import brute_force_bipartite_realizable
from bdr.partition import _count_walk, count_runs
from bdr.reduction import _round_robin_rows, _sqrt_floor_ceil
from conftest import decoded_rows, pack, reduction_corpus

F = Fraction
HARD = ParamBounds(F(1, 10), F(2, 5))


class TestSqrt:
    """_sqrt_floor_ceil(num, den) is (floor, ceil) of sqrt(num / den)."""

    def test_zero(self):
        assert _sqrt_floor_ceil(0, 1) == _sqrt_floor_ceil(0, 7) == (0, 0)

    def test_exact_rational_squares(self):
        for m in range(1, 60):
            for q in (1, 2, 7, 10):
                # sqrt((m/q)^2) = m/q, in lowest terms and not
                expected = (m // q, -(-m // q))
                assert _sqrt_floor_ceil(m * m, q * q) == expected
                assert _sqrt_floor_ceil(3 * m * m, 3 * q * q) == expected

    def test_next_to_integer_squares(self):
        for m in range(2, 60):
            for q in (1, 2, 3, 997, 10 ** 12):
                # m^2 + 1/q and m^2 - 1/q
                assert _sqrt_floor_ceil(m * m * q + 1, q) == (m, m + 1)
                assert _sqrt_floor_ceil(m * m * q - 1, q) == (m - 1, m)

    def test_brackets_the_root(self):
        rng = random.Random(13)
        for _ in range(2000):
            num, den = rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 3)
            lo, hi = _sqrt_floor_ceil(num, den)
            assert lo * lo * den <= num <= hi * hi * den and hi - lo <= 1
            assert (lo == hi) == (lo * lo * den == num)


def _old_floor_linear_sqrt(a, b, w):
    """floor(a + b*sqrt(w)): the guess-and-correct loop compute_rational_r used."""
    if b == 0 or w == 0:
        return math.floor(a)
    t = b * b * w
    root_floor = math.isqrt(t.numerator // t.denominator)
    m = math.floor(a) + root_floor if b > 0 else math.floor(a) - root_floor - 2

    def at_most_value(candidate):
        rest = F(candidate) - a
        if b > 0:
            return rest <= 0 or rest * rest <= t
        return rest < 0 and rest * rest >= t

    while at_most_value(m + 1):
        m += 1
    while not at_most_value(m):
        m -= 1
    return m


def _old_rational_r(c1, c2):
    """The decimal search as it was written with _old_floor_linear_sqrt."""
    wa, wb = 1 - 2 * c2, 2 * c1
    for digits in range(1, 400):
        scale = 10 ** digits
        if (_old_floor_linear_sqrt(F(0), F(scale), wa)
                == _old_floor_linear_sqrt(F(scale), F(-scale), wb)):
            continue
        ra = F(_old_floor_linear_sqrt(F(1, 2), F(scale), wa), scale)
        rb = F(_old_floor_linear_sqrt(scale + F(1, 2), F(-scale), wb), scale)
        r = (ra + rb) / 2
        if r > 0 and r * r > wa and r < 1 and (1 - r) ** 2 > wb:
            return r
    return None


class TestComputeRationalR:
    def test_worked_value(self):
        assert compute_rational_r(HARD) == F(1, 2)

    def test_matches_old_decimal_search(self):
        # every conditionally hard pair with denominators <= 36, plus pairs
        # whose endpoints are exact squares: 1 - 2*(3/8) = 1/4, 2*(1/18) = 1/9
        from bdr import RegionClass, classify_region
        fractions = sorted({F(p, q) for q in range(1, 37) for p in range(q + 1)})
        pairs = [(c1, c2) for c1 in fractions for c2 in fractions if c1 <= c2]
        pairs += [(F(1, 18), F(3, 8)), (F(1, 18), F(2, 5)), (F(1, 10), F(3, 8)),
                  (F(1, 50), F(3, 8)), (F(1, 18), F(49, 100))]
        checked = squares = 0
        for c1, c2 in pairs:
            bounds = ParamBounds(c1, c2)
            if classify_region(bounds) is not RegionClass.CONDITIONALLY_HARD:
                continue
            assert compute_rational_r(bounds) == _old_rational_r(c1, c2), (c1, c2)
            checked += 1
            squares += c2 == F(3, 8) or c1 == F(1, 18)
        assert checked > 2000 and squares >= 5

    def test_not_hard_region(self):
        with pytest.raises(NotInHardRegionError):
            compute_rational_r(ParamBounds(F(1, 3), F(1, 3)))

    def test_bracket_and_tilde_invariants(self):
        rng = random.Random(29)
        from bdr import RegionClass, classify_region
        checked = 0
        while checked < 60:
            c1 = F(rng.randint(0, 400), 1000)
            c2 = F(rng.randint(1, 499), 1000)
            if c1 > c2:
                continue
            bounds = ParamBounds(c1, c2)
            if classify_region(bounds) is not RegionClass.CONDITIONALLY_HARD:
                continue
            checked += 1
            r = compute_rational_r(bounds)
            assert 0 < r < 1
            assert r * r > 1 - 2 * c2           # r > sqrt(1 - 2 c2)
            assert (1 - r) ** 2 > 2 * c1        # r < 1 - sqrt(2 c1)
            c1t = (1 - r) ** 2 / 2
            c2t = (1 - r * r) / 2
            assert c1 < c1t <= c2t < c2
            assert (c1t + c2t) ** 2 == 2 * c1t


def _old_choose_padding_n(S, c1, c2, r):
    """choose_padding_n as it was written on Fractions, searching n by steps."""
    c1t, c2t = (1 - r) ** 2 / 2, (1 - r * r) / 2
    half_s = S // 2
    moduli = [((c1t + c2t) / 2).denominator, ((c2t - c1t) / 2).denominator, 2]
    for frac in (c1t, c2t):
        moduli.append(frac.denominator * (half_s // math.gcd(frac.numerator, half_s)))
    step = math.lcm(*moduli)
    n = step
    while not (c2t * n + half_s < c2 * (n + S) and c1t * n > c1 * (n + S)):
        n += step
    return n


class TestChoosePaddingN:
    def test_worked_sizes(self):
        r = compute_rational_r(HARD)
        assert choose_padding_n(4, HARD, r) == 32
        assert choose_padding_n(6, HARD, r) == 48

    def test_odd_s_rejected(self):
        with pytest.raises(ReductionPreconditionError):
            choose_padding_n(5, HARD, F(1, 2))

    def test_divisibility(self):
        r = compute_rational_r(HARD)
        c1t = (1 - r) ** 2 / 2
        c2t = (1 - r * r) / 2
        for s in (4, 6, 8, 10):
            n = choose_padding_n(s, HARD, r)
            assert n % 2 == 0
            assert (c1t * n).denominator == 1
            assert (c2t * n).denominator == 1
            assert ((c1t + c2t) / 2 * n).denominator == 1
            assert ((c2t - c1t) / 2 * n).denominator == 1
            assert int(c1t * n) % (s // 2) == 0
            assert int(c2t * n) % (s // 2) == 0
            # strict threshold inequalities on the padded length n + S
            assert c1t * n > HARD.c1 * (n + s)
            assert c2t * n + s // 2 < HARD.c2 * (n + s)


    def test_matches_old_step_search(self):
        # every conditionally hard pair with denominators <= 24; where the
        # padded length n' = n + S is at most 5000, the instance built on S
        # ones carries the constants the Fraction forms give
        from bdr import RegionClass, classify_region
        fractions = sorted({F(p, q) for q in range(1, 25) for p in range(q + 1)})
        pairs = [(c1, c2) for c1 in fractions for c2 in fractions if c1 <= c2
                 and classify_region(ParamBounds(c1, c2)) is RegionClass.CONDITIONALLY_HARD]
        built = 0
        for c1, c2 in pairs:
            bounds = ParamBounds(c1, c2)
            r = _old_rational_r(c1, c2)
            c1t, c2t = (1 - r) ** 2 / 2, (1 - r * r) / 2
            for s in (2, 4, 6, 10, 16, 30, 100):
                n = _old_choose_padding_n(s, c1, c2, r)
                assert choose_padding_n(s, bounds, r) == n, (c1, c2, s)
                if s == 2 or n + s > 5000:  # no source of sum 2 has all degrees < S/2
                    continue
                inst = build_hard_instance(DegreeSequence((1,) * s), bounds)
                shift = (c1t + c2t) / 2 * n
                assert (inst.S, inst.r, inst.c1_tilde, inst.c2_tilde, inst.n) == (s, r, c1t, c2t, n)
                assert (inst.big_value, inst.small_value, inst.shift_base, inst.big_count,
                        inst.small_count, inst.semi_deg) == (
                    c2t * n + s // 2, c1t * n, shift, 2 * shift, n - 2 * shift,
                    (c2t - c1t) / 2 * n), (c1, c2, s)
                assert inst.d_prime.degrees == ((inst.big_value,) * inst.big_count
                                                + (1 + shift,) * s
                                                + (inst.small_value,) * inst.small_count)
                built += 1
        assert len(pairs) > 1000 and built > 3000

    def test_r_outside_the_bracket_rejected(self):
        # at (1/10, 2/5), r = 9/10 gives c1~ = 1/200 < c1 and r = 1/10 gives
        # c2~ = 99/200 > c2; at (1/8, 2/5), r = 1/2 gives c1~ = 1/8 = c1.  No
        # n meets that inequality, where a search for one never returned.  Run
        # apart with a timeout, so such a search fails the test instead of
        # hanging it
        script = """
from fractions import Fraction
from bdr import ParamBounds, choose_padding_n
from bdr.errors import ReductionPreconditionError
for c1, r in (("1/10", "9/10"), ("1/10", "1/10"), ("1/8", "1/2")):
    try:
        choose_padding_n(6, ParamBounds(Fraction(c1), Fraction(2, 5)), Fraction(r))
        print("accepted", r)
    except ReductionPreconditionError as e:
        print("rejected:", e)
"""
        proc = _run_python(script, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "rejected: r = 9/10 gives (c1~, c2~) = (1/200, 19/200), which needs "
            "c1 = 1/10 < c1~ and c2~ < c2 = 2/5\n"
            "rejected: r = 1/10 gives (c1~, c2~) = (81/200, 99/200), which needs "
            "c1 = 1/10 < c1~ and c2~ < c2 = 2/5\n"
            "rejected: r = 1/2 gives (c1~, c2~) = (1/8, 3/8), which needs "
            "c1 = 1/8 < c1~ and c2~ < c2 = 2/5\n")


class TestBuildHardInstance:
    def test_worked_instance(self):
        inst = build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)
        assert inst.S == 6 and inst.n == 48
        assert inst.d_prime.n == 54
        assert Counter(inst.d_prime.degrees) == Counter(
            {21: 24, 6: 24, 13: 4, 12: 1, 14: 1})
        assert in_class(inst.d_prime, HARD)

    def test_roles_align_with_degrees(self):
        # every source of the reduce corpora at the three benchmark bounds:
        # D' is the expansion of its blocks, in the order big, shifted,
        # filler, small; each block's degree is its kind's, and the shifted
        # blocks encode source positions 0 .. n_src - 1 once each, in order
        for c1, c2, max_sum in [(F(1, 10), F(2, 5), 8), (F(1, 20), F(9, 20), 8),
                                (F(3, 20), F(2, 5), 6)]:
            for source in reduction_corpus(max_sum):
                inst = build_hard_instance(DegreeSequence(source), ParamBounds(c1, c2))
                shift = inst.shift_base
                assert list(inst.d_prime.degrees) == [
                    d for _, _, d, count in inst.blocks for _ in range(count)], source
                assert inst.blocks == (
                    ("big", None, inst.big_value, inst.big_count),
                    *(("shifted", i, d + shift, 1) for i, d in enumerate(inst.source.degrees)),
                    ("filler", None, shift, inst.S - inst.source.n),
                    ("small", None, inst.small_value, inst.small_count)), source

    def test_zero_stripping(self):
        a = build_hard_instance(DegreeSequence((2, 0, 1, 1, 1, 0, 1)), HARD)
        b = build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)
        assert a.d_prime == b.d_prime

    def test_odd_sum_rejected(self):
        with pytest.raises(ReductionPreconditionError):
            build_hard_instance(DegreeSequence((1, 1, 1)), HARD)

    def test_large_degree_rejected(self):
        with pytest.raises(ReductionPreconditionError):
            build_hard_instance(DegreeSequence((3, 1, 1, 1)), HARD)

    def test_empty_rejected(self):
        with pytest.raises(ReductionPreconditionError):
            build_hard_instance(DegreeSequence((0, 0)), HARD)


    def test_oversized_padding_rejected(self, monkeypatch):
        # n = 1.2e9 at r = 9/20 is refused before any entry is built; were
        # the guard gone, the call of the first padding constant fails the
        # test instead of a build of 1.2e9 entries
        monkeypatch.setattr("bdr.reduction._exact_quotient", None)
        with pytest.raises(ReductionPreconditionError, match="1203000000 entries"):
            build_hard_instance(DegreeSequence((10 ** 6,) * 3),
                                ParamBounds(F(3, 20), F(2, 5)))
        # the limit is on n + S: 48 + 6 entries at the worked instance
        monkeypatch.undo()
        monkeypatch.setattr("bdr.reduction.MAX_PADDED_ENTRIES", 54)
        assert build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD).d_prime.n == 54
        monkeypatch.setattr("bdr.reduction.MAX_PADDED_ENTRIES", 53)
        with pytest.raises(ReductionPreconditionError, match="exceeds the limit of 53"):
            build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)

    @pytest.mark.parametrize("n", [50, 8])
    def test_inadmissible_padding_rejected(self, monkeypatch, n):
        # 50: c1~*n = 25/4 is not an integer; 8: the constants are integers
        # and the block identities hold, but the big degree exceeds c2*(n+S)
        monkeypatch.setattr("bdr.reduction.choose_padding_n", lambda S, bounds, r: n)
        with pytest.raises(ReductionInvariantError):
            build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)


def _run_python(script, *options, timeout):
    """Run ``script`` in a fresh interpreter that imports bdr from src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *options, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_typed_invariants_survive_python_O():
    # under -O every assert is stripped; the proof invariants must still raise
    script = """
import sys
from fractions import Fraction
import bdr.partition
import bdr.reduction
from bdr import DegreeSequence, ParamBounds
from bdr.errors import InvariantError, ReductionInvariantError
from bdr.gale_ryser import BipartiteRealization
if __debug__:
    sys.exit("not running under -O")
bdr.reduction.choose_padding_n = lambda S, bounds, r: 50
try:
    bdr.reduction.build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)),
                                      ParamBounds(Fraction(1, 10), Fraction(2, 5)))
    sys.exit("inadmissible padding accepted")
except ReductionInvariantError:
    pass
try:
    BipartiteRealization(2, (0b101,))
    sys.exit("out-of-range neighbor accepted")
except ValueError:
    pass
# a count walk whose first count vector puts nothing on U
bdr.partition._count_walk = lambda sigma, runs, live=None: iter([(0, 0)])
try:
    bdr.partition.find_equal_sum_split(DegreeSequence((2, 1, 1)))
    sys.exit("split with unequal sides accepted")
except InvariantError as e:
    if str(e) != "split has side sums 0 and 4":
        sys.exit(f"wrong invariant: {e}")
# c2~ off by a third: the c~ identity (c1~ + c2~)^2 = 2*c1~ fails at r = 1/2
bdr.reduction._c_tilde = lambda r: ((1 - r) ** 2 / 2, (1 - r * r) / 3)
try:
    bdr.reduction.compute_rational_r(ParamBounds(Fraction(1, 10), Fraction(2, 5)))
    sys.exit("broken c~ identity accepted")
except ReductionInvariantError:
    pass
print("ok")
"""
    proc = _run_python(script, "-O", timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


class TestSemiregular:
    def test_round_robin(self):
        g = semiregular_bipartite(4, 3, 6, 2)
        assert set(g.u_degrees()) == {3} and set(g.v_degrees()) == {2}

    def test_zero_degree(self):
        g = semiregular_bipartite(3, 0, 0, 0)
        assert g.edges == frozenset() and g.u_count == 3

    def test_sum_mismatch(self):
        with pytest.raises(ValueError):
            semiregular_bipartite(2, 3, 3, 1)

    def test_degree_too_large(self):
        with pytest.raises(ValueError):
            semiregular_bipartite(2, 4, 3, 8)
        # equal sums, so only the size check can refuse it: one vertex of
        # degree 4 against two of degree 2
        with pytest.raises(ValueError, match="exceeds the opposite class size"):
            semiregular_bipartite(1, 4, 2, 2)

    @pytest.mark.parametrize("params", [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0),
                                        (0, 0, 0, -1)])
    def test_negative_parameter(self, params):
        with pytest.raises(ValueError, match="nonnegative"):
            semiregular_bipartite(*params)

    def test_rows_are_ranges_at_the_offset(self):
        # the lift places each block at an offset; the rows are one range,
        # or two where they wrap, the wrapped part first
        # each row is the int bitset of its ranges
        def mask(*ranges):
            return sum(1 << v for r in ranges for v in r)
        assert _round_robin_rows(10, 6, 4, 3, 2) == (
            mask(range(10, 13)), mask(range(13, 16)), mask(range(10, 13)), mask(range(13, 16)))
        head = mask(range(2), range(4, 6))
        assert _round_robin_rows(10, 6, 4, 3, 2, head) == (
            mask(range(2), range(4, 6), range(10, 13)),
            mask(range(2), range(4, 6), range(13, 16))) * 2
        assert _round_robin_rows(10, 5, 5, 2, 2) == (
            mask(range(10, 12)), mask(range(12, 14)), mask(range(10, 11), range(14, 15)),
            mask(range(11, 13)), mask(range(13, 15)))
        assert _round_robin_rows(10, 5, 3, 0, 0) == (0, 0, 0)

    def test_random_parameters(self):
        # every feasible parameter set with both counts <= 12: the round-robin
        # pattern alone must produce exact degrees, with no repeated edge
        checked = 0
        for a_count in range(1, 13):
            for b_count in range(1, 13):
                for a_deg in range(b_count + 1):
                    if a_count * a_deg % b_count:
                        continue
                    b_deg = a_count * a_deg // b_count
                    g = semiregular_bipartite(a_count, a_deg, b_count, b_deg)
                    assert g.u_degrees() == (a_deg,) * a_count
                    assert g.v_degrees() == (b_deg,) * b_count
                    assert len(g.edges) == a_count * a_deg
                    assert decoded_rows(g) == tuple(
                        tuple(sorted((i * a_deg + t) % b_count for t in range(a_deg)))
                        for i in range(a_count))
                    checked += 1
        assert checked == 432


class TestLiftProject:
    def lifted(self, degrees):
        ds = DegreeSequence(degrees)
        inst = build_hard_instance(ds, HARD)
        split = find_equal_sum_split(inst.source)
        assert split is not None
        g = construct_realization([inst.source.degrees[i] for i in split.u],
                                  [inst.source.degrees[i] for i in split.v])
        assert g is not None
        return ds, inst, split, g

    def test_lift_realizes_d_prime(self):
        _, inst, split, g = self.lifted((2, 1, 1, 1, 1))
        lifted = lift_realization(g, split, inst)
        got = sorted(lifted.u_degrees() + lifted.v_degrees())
        assert got == sorted(inst.d_prime.degrees)

    def test_round_trip_recovers_split_degrees(self):
        _, inst, split, g = self.lifted((2, 1, 1, 1, 1))
        lifted = lift_realization(g, split, inst)
        back = project_realization(lifted, inst)
        assert sorted(back.u_degrees() + back.v_degrees()) == sorted(
            inst.source.degrees)
        assert sorted(back.u_degrees()) == sorted(
            inst.source.degrees[i] for i in split.u)

    def test_lift_rejects_wrong_degrees(self):
        _, inst, split, g = self.lifted((2, 1, 1, 1, 1))
        bad = BipartiteRealization(g.v_count, (0,) * g.u_count)
        with pytest.raises(ValueError):
            lift_realization(bad, split, inst)

    @pytest.mark.parametrize("degrees, flip, message", [
        # remove one edge between two non-big vertices
        ((2, 1, 1, 1, 1), None, "shifted-degree multiset does not match the source"),
        # move the big v-edge (0, 14) from u-vertex 0, source degree 2, to the
        # small u-vertex 15: u-vertex 0 keeps both its source edges
        ((2, 2, 1, 1), (0, 15, 14), "u-vertex 0: degree 13, residual 2, expected 1$"),
        # move the non-big v-edge (0, 0) to u-vertex 15: u-vertex 0 still
        # checks out, the small u-vertex has a residual edge
        ((2, 2, 1, 1), (0, 15, 0), "u-vertex 15: non-shifted residual degree 1$"),
    ])
    def test_project_rejects_tampered_graph(self, degrees, flip, message):
        _, inst, split, g = self.lifted(degrees)
        lifted = lift_realization(g, split, inst)
        big = inst.big_value
        u_deg = lifted.u_degrees()
        v_deg = lifted.v_degrees()
        if flip is None:
            u, v = next((u, v) for u, v in lifted.sorted_edges()
                        if u_deg[u] != big and v_deg[v] != big)
            tampered = without_edge(lifted, u, v)
        else:
            u1, u2, v = flip
            assert g.u_degrees()[u1] == 2 and u_deg[u2] == inst.small_value
            tampered = hinge_flip(lifted, u1, u2, v)
        with pytest.raises(ProjectionAuditError, match=message):
            project_realization(tampered, inst)

    def test_more_sources(self):
        for degrees in ((1, 1, 1, 1), (2, 2, 1, 1, 1, 1), (3, 2, 2, 2, 1, 1, 1)):
            ds, inst, split, g = self.lifted(degrees)
            lifted = lift_realization(g, split, inst)
            back = project_realization(lifted, inst)
            assert sorted(back.u_degrees() + back.v_degrees()) == sorted(
                inst.source.degrees)


# the reduction benchmark's plan (perfbench/workloads.py): the largest S
# of its sources at each bound
BENCHMARK_PLAN = {(F(1, 10), F(2, 5)): 8, (F(1, 20), F(9, 20)): 10, (F(3, 20), F(2, 5)): 6}


def test_lift_project_every_bound():
    """Every realizable source of the benchmark's plan lifts to a realization
    of D' and projects back to the source realization, at all three bounds
    (r = 1/2 and r = 9/20)."""
    lifted_count = 0
    for (c1, c2), max_sum in BENCHMARK_PLAN.items():
        bounds = ParamBounds(c1, c2)
        for seq in reduction_corpus(max_sum):
            inst = build_hard_instance(DegreeSequence(seq), bounds)
            found = decide_exact(inst.source)
            if found.realization is None:
                continue
            g = found.realization
            lifted = lift_realization(g, found.split, inst)
            # counted here, not by v_degrees, which the lift's own audit uses
            rows = decoded_rows(lifted)
            v_counts = Counter(chain.from_iterable(rows))
            v_deg = [v_counts[v] for v in range(lifted.v_count)]
            assert sorted(list(map(len, rows)) + v_deg) == sorted(
                inst.d_prime.degrees), (c1, c2, seq)
            back = project_realization(lifted, inst)
            assert back == g, (c1, c2, seq)
            lifted_count += 1
    assert lifted_count == 38


def per_entry_projection(g_prime, inst):
    """``project_realization`` as it was when it removed the big v-vertices
    from each row entry by entry (``filterfalse``), with the degrees
    counted entry by entry too: the reference of the interval cut."""
    neighbors = decoded_rows(g_prime)
    u_deg = tuple(map(len, neighbors))
    v_counts = Counter(chain.from_iterable(neighbors))
    v_deg = tuple(v_counts[v] for v in range(g_prime.v_count))
    big = inst.big_value
    shift = inst.shift_base
    expected_per_side = inst.big_count // 2
    big_v = {j for j, d in enumerate(v_deg) if d == big}
    if u_deg.count(big) != expected_per_side or len(big_v) != expected_per_side:
        raise ProjectionAuditError(
            f"big-degree vertices split {u_deg.count(big)}/{len(big_v)}, "
            f"expected {expected_per_side} per side")
    residual_rows = tuple(() if d == big else tuple(filterfalse(big_v.__contains__, nbrs))
                          for d, nbrs in zip(u_deg, neighbors))
    res_u = tuple(map(len, residual_rows))
    res_counts = Counter(chain.from_iterable(residual_rows))
    res_v = tuple(res_counts[v] for v in range(g_prime.v_count))
    shifted_values = sorted(d + shift for d in inst.source.degrees)

    def audit_side(deg, res, side):
        kept = []
        for i, d in enumerate(deg):
            if d == big:
                continue
            if d > shift:
                if res[i] != d - shift:
                    raise ProjectionAuditError(
                        f"{side}-vertex {i}: degree {d}, residual {res[i]}, "
                        f"expected {d - shift}")
                kept.append(i)
            elif res[i] != 0:
                raise ProjectionAuditError(
                    f"{side}-vertex {i}: non-shifted residual degree {res[i]}")
        return kept

    keep_u = audit_side(u_deg, res_u, "u")
    keep_v = audit_side(v_deg, res_v, "v")
    if sorted([u_deg[i] for i in keep_u] + [v_deg[j] for j in keep_v]) != shifted_values:
        raise ProjectionAuditError("shifted-degree multiset does not match the source")
    if sum(u_deg[i] - shift for i in keep_u) * 2 != inst.S:
        raise ProjectionAuditError("shifted degrees do not split the source sum evenly")
    v_map = {old: new for new, old in enumerate(keep_v)}
    return pack(len(keep_v), [map(v_map.__getitem__, residual_rows[u]) for u in keep_u])


def projection_or_error(project, g_prime, inst):
    try:
        back = project(g_prime, inst)
    except ProjectionAuditError as exc:
        return "error", str(exc)
    return back.v_count, decoded_rows(back)


def without_edge(g, u, v):
    neighbors = list(decoded_rows(g))
    neighbors[u] = tuple(w for w in neighbors[u] if w != v)
    return pack(g.v_count, neighbors)


def with_v_permuted(g, rng):
    """``g`` with its v-vertices relabeled at random, so that the big ones
    are scattered; equal rows stay equal."""
    perm = list(range(g.v_count))
    rng.shuffle(perm)
    return pack(g.v_count, [map(perm.__getitem__, nbrs) for nbrs in decoded_rows(g)])


class TestProjectionMatchesPerEntry:
    """The projection cuts the intervals of big v-vertices out of each
    distinct row; it must return what the per-entry removal returns, or
    raise the same error with the same message."""

    def test_lifted_permuted_and_tampered_graphs(self):
        rng = random.Random(23)
        outcomes = Counter()
        for (c1, c2), max_sum in BENCHMARK_PLAN.items():
            bounds = ParamBounds(c1, c2)
            for seq in reduction_corpus(max_sum):
                inst = build_hard_instance(DegreeSequence(seq), bounds)
                found = decide_exact(inst.source)
                if found.realization is None:
                    continue
                lifted = lift_realization(found.realization, found.split, inst)
                permuted = with_v_permuted(lifted, rng)
                edges = lifted.sorted_edges()
                graphs = [lifted, permuted,
                          without_edge(lifted, *rng.choice(edges)),
                          without_edge(permuted, *rng.choice(permuted.sorted_edges()))]
                for g in graphs:
                    got = projection_or_error(project_realization, g, inst)
                    assert got == projection_or_error(per_entry_projection, g, inst), seq
                    outcomes[got[0] == "error"] += 1
        # both outcomes occur: the lifted and permuted graphs project, and
        # most single-edge removals break an audit
        assert outcomes[False] >= 2 * 38 and outcomes[True] > 0

    def test_projects_without_decoding_a_row(self, monkeypatch):
        # each kept row is compacted as a bitset: with the row decoder out
        # of reach, every lifted graph of the plan projects to its source
        # realization
        def no_decode(*args):
            raise AssertionError("_decode_bits called")
        projected = 0
        for (c1, c2), max_sum in BENCHMARK_PLAN.items():
            for seq in reduction_corpus(max_sum):
                inst = build_hard_instance(DegreeSequence(seq), ParamBounds(c1, c2))
                found = decide_exact(inst.source)
                if found.realization is None:
                    continue
                lifted = lift_realization(found.realization, found.split, inst)
                with monkeypatch.context() as patch:
                    patch.setattr(gale_ryser, "_decode_bits", no_decode)
                    back = project_realization(lifted, inst)
                assert back == found.realization, seq
                projected += 1
        assert projected == 38

    def test_tampered_graph(self):
        # the graph of TestLiftProject.test_project_rejects_tampered_graph,
        # plus removals that break the big-vertex split on either side
        inst = build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)
        found = decide_exact(inst.source)
        lifted = lift_realization(found.realization, found.split, inst)
        big = inst.big_value
        u_deg, v_deg = lifted.u_degrees(), lifted.v_degrees()
        picks = [(u_deg[u] != big, v_deg[v] != big) for u, v in lifted.sorted_edges()]
        for kind in [(True, True), (False, False), (True, False), (False, True)]:
            u, v = lifted.sorted_edges()[picks.index(kind)]
            g = without_edge(lifted, u, v)
            got = projection_or_error(project_realization, g, inst)
            assert got[0] == "error", kind
            assert got == projection_or_error(per_entry_projection, g, inst), kind


# sha256 over repr((source, v_count, rows)) of each lifted graph of the
# benchmark's plan, realizable sources in corpus order, each row the
# increasing tuple of its v-indices, as the lift built them when it went
# through a checked tuple constructor
LIFT_DIGESTS = {
    (F(1, 10), F(2, 5)): "320789c3e32b8a6af9307253beea27a8e407bcb2f87edce6809cf12339024eac",
    (F(1, 20), F(9, 20)): "586cb73c14e164a5ce6c0569f1d4cf1edf8e27cc928c03fb393a82ea34498978",
    (F(3, 20), F(2, 5)): "35157b9817e827541379ba40ee3957441bbc2c0ce1ba8be07a754f10ad57df3c",
}


@pytest.mark.parametrize("c1, c2", list(LIFT_DIGESTS))
def test_lifted_graphs_are_golden(c1, c2):
    """The lift builds the same rows, byte for byte, as when it built them
    through a checked tuple constructor; they are read back bit by bit
    (``decoded_rows``), so the digest does not depend on ``_decode_bits``."""
    digest = hashlib.sha256()
    for seq in reduction_corpus(BENCHMARK_PLAN[c1, c2]):
        inst = build_hard_instance(DegreeSequence(seq), ParamBounds(c1, c2))
        found = decide_exact(inst.source)
        if found.realization is None:
            continue
        lifted = lift_realization(found.realization, found.split, inst)
        digest.update(repr((seq, lifted.v_count, decoded_rows(lifted))).encode())
    assert digest.hexdigest() == LIFT_DIGESTS[c1, c2]


class TestRoundTripVerdicts:
    def test_realizable_source(self):
        rep = verify_reduction_roundtrip(DegreeSequence((2, 1, 1, 1, 1)), HARD)
        assert rep.source_realizable and rep.padded_realizable and rep.agree

    def test_random_sources_agree(self):
        rng = random.Random(37)
        seen = set()
        checked = 0
        while checked < 25:
            k = rng.randint(2, 7)
            seq = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
            s = sum(seq)
            if s % 2 != 0 or any(2 * d >= s for d in seq):
                continue
            key = tuple(seq)
            if key in seen:
                continue
            seen.add(key)
            checked += 1
            rep = verify_reduction_roundtrip(DegreeSequence(seq), HARD)
            assert rep.agree, seq
            assert rep.source_realizable == brute_force_bipartite_realizable(
                DegreeSequence(seq))


# NotBipartite sources whose padded D' (r = 1/2, n = 4S) is Bipartite: the
# known padding defect at (1/20, 9/20).  Each case pins its set, so a new
# disagreement fails, and so does a fix, which must then empty the set.
# (bounds): (largest S swept, sources checked beyond the sweep, the set)
SWEEP = {
    (F(1, 10), F(2, 5)): (14, (), set()),
    (F(1, 20), F(9, 20)): (14, ((4, 3, 3, 2, 2, 2),),
                           {(2, 2, 2, 2, 2), (4, 2, 2, 2, 2), (5, 2, 2, 2, 2, 1),
                            (4, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 2),
                            (4, 3, 3, 2, 2, 2)}),
    (F(3, 20), F(2, 5)): (10, (), set()),
}


@pytest.mark.parametrize("c1,c2", list(SWEEP))
def test_reduction_agreement_sweep(c1, c2):
    """verify_reduction_roundtrip on every zero-free source with even
    S <= max_sum and all degrees < S/2, and on the extra sources."""
    max_sum, extra, expected = SWEEP[(c1, c2)]
    sources = reduction_corpus(max_sum)
    bounds = ParamBounds(c1, c2)
    disagree = set()
    for seq in sources + list(extra):
        rep = verify_reduction_roundtrip(DegreeSequence(seq), bounds)
        if not rep.agree:
            assert not rep.source_realizable and rep.padded_realizable, seq
            assert rep.instance.r == F(1, 2) and rep.instance.n == 4 * sum(seq), seq
            disagree.add(seq)
    assert disagree == expected


@pytest.mark.parametrize("c1,c2", [(F(1, 10), F(2, 5)), (F(1, 20), F(9, 20))])
def test_uneven_big_vertices_meet_both_necessary_conditions(c1, c2):
    """Every bigraphic count vector of D' puts B/2 + delta big vertices on
    U (B = big_count), oriented so that delta >= 0, and D_U, the source
    degree of U's shifted and filler vertices (each less shift_base), meets
    the two conditions a sound padding size rests on:
    - Gale-Ryser on U at k = B/2 + delta, where every n-sized term cancels
      by the block identities, reads delta^2 <= S/2;
    - equal side sums put rho = (delta - 1)*S + 2*D_U in g*n*Z, with
      g = gcd(2(q-p)^2, 4(q^2-p^2), 2q(q-p)) / (4q^2) for r = p/q, tested
      in integers as 4q^2*rho divisible by gcd(...)*n.
    Neither depends on how n is chosen."""
    bounds = ParamBounds(c1, c2)
    sources = reduction_corpus(14) + [(2,) * 9, (2,) * 11, (2,) * 13, (3,) * 6 + (2,)]
    vectors = 0
    for seq in sources:
        inst = build_hard_instance(DegreeSequence(seq), bounds)
        p, q = inst.r.numerator, inst.r.denominator
        assert inst.r == F(1, 2), seq
        g_num = math.gcd(2 * (q - p) ** 2, 4 * (q * q - p * p), 2 * q * (q - p))
        runs = _value_runs(inst.d_prime.degrees)
        for counts in _count_walk(inst.d_prime.sigma, runs):
            u, v = count_runs(runs, counts)
            if not _gale_ryser_runs(u, v):
                continue
            vectors += 1
            big_on_u = dict(u)[inst.big_value]
            if 2 * big_on_u < inst.big_count:
                u = v
                big_on_u = inst.big_count - big_on_u
            delta = big_on_u - inst.big_count // 2
            d_u = sum(k * (value - inst.shift_base) for value, k in u
                      if inst.shift_base <= value < inst.big_value)
            rho = (delta - 1) * inst.S + 2 * d_u
            assert delta * delta <= inst.S // 2, (seq, counts)
            assert rho * 4 * q * q % (g_num * inst.n) == 0, (seq, counts)
    assert vectors > 1000
