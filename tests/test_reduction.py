import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from bdr import (DegreeSequence, ParamBounds, build_hard_instance,
                 choose_padding_n, compute_rational_r, find_equal_sum_split,
                 in_class, lift_realization, project_realization,
                 semiregular_bipartite, verify_reduction_roundtrip)
from bdr.errors import (NotInHardRegionError, ProjectionAuditError,
                        ReductionInvariantError, ReductionPreconditionError)
from bdr.gale_ryser import BipartiteRealization, construct_realization
from bdr.oracle import brute_force_bipartite_realizable
from bdr.reduction import _ceil_sqrt, _floor_sqrt

F = Fraction
HARD = ParamBounds(F(1, 10), F(2, 5))


class TestSqrt:
    def test_zero(self):
        assert _floor_sqrt(F(0)) == _ceil_sqrt(F(0)) == 0

    def test_exact_rational_squares(self):
        for m in range(1, 60):
            for q in (1, 2, 7, 10):
                # sqrt((m/q)^2) = m/q
                x = F(m * m, q * q)
                assert (_floor_sqrt(x), _ceil_sqrt(x)) == (m // q, -(-m // q))

    def test_next_to_integer_squares(self):
        for m in range(2, 60):
            for q in (1, 2, 3, 997, 10 ** 12):
                above, below = m * m + F(1, q), m * m - F(1, q)
                assert (_floor_sqrt(above), _ceil_sqrt(above)) == (m, m + 1)
                assert (_floor_sqrt(below), _ceil_sqrt(below)) == (m - 1, m)

    def test_brackets_the_root(self):
        rng = random.Random(13)
        for _ in range(2000):
            x = F(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 3))
            lo, hi = _floor_sqrt(x), _ceil_sqrt(x)
            assert lo * lo <= x <= hi * hi and hi - lo <= 1
            assert (lo == hi) == (lo * lo == x)


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


class TestBuildHardInstance:
    def test_worked_instance(self):
        inst = build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)
        assert inst.S == 6 and inst.n == 48
        assert inst.d_prime.n == 54
        assert Counter(inst.d_prime.degrees) == Counter(
            {21: 24, 6: 24, 13: 4, 12: 1, 14: 1})
        assert in_class(inst.d_prime, HARD)

    def test_roles_align_with_degrees(self):
        inst = build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)
        shift = inst.shift_base
        for d, role in zip(inst.d_prime.degrees, inst.roles):
            if role.kind == "big":
                assert d == inst.big_value
            elif role.kind == "small":
                assert d == inst.small_value
            elif role.kind == "filler":
                assert d == shift
            else:
                assert d == inst.source.degrees[role.source_index] + shift

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


    @pytest.mark.parametrize("n", [50, 8])
    def test_inadmissible_padding_rejected(self, monkeypatch, n):
        # 50: c1~*n = 25/4 is not an integer; 8: the constants are integers
        # and the block identities hold, but the big degree exceeds c2*(n+S)
        monkeypatch.setattr("bdr.reduction.choose_padding_n", lambda S, bounds, r: n)
        with pytest.raises(ReductionInvariantError):
            build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)


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
    BipartiteRealization(2, ((0, 2),))
    sys.exit("out-of-range neighbor accepted")
except ValueError:
    pass
bdr.partition._subset_sums = lambda degrees, target, reach=1: iter(
    [(1 << (target + 1)) - 1] * (len(degrees) + 1))
try:
    bdr.partition.find_equal_sum_split(DegreeSequence((2, 1, 1)))
    sys.exit("inconsistent split table accepted")
except InvariantError:
    pass
# c2~ off by a third: the c~ identity (c1~ + c2~)^2 = 2*c1~ fails at r = 1/2
bdr.reduction._c_tilde = lambda r: ((1 - r) ** 2 / 2, (1 - r * r) / 3)
try:
    bdr.reduction.compute_rational_r(ParamBounds(Fraction(1, 10), Fraction(2, 5)))
    sys.exit("broken c~ identity accepted")
except ReductionInvariantError:
    pass
print("ok")
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
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
                    checked += 1
        assert checked == 432


class TestLiftProject:
    def lifted(self, degrees):
        ds = DegreeSequence(degrees)
        inst = build_hard_instance(ds, HARD)
        split = find_equal_sum_split(inst.source)
        assert split is not None
        g = construct_realization([inst.source.degrees[i] for i in split.u_indices()],
                                  [inst.source.degrees[i] for i in split.v_indices()])
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
            inst.source.degrees[i] for i in split.u_indices())

    def test_lift_rejects_wrong_degrees(self):
        _, inst, split, g = self.lifted((2, 1, 1, 1, 1))
        bad = BipartiteRealization(g.v_count, ((),) * g.u_count)
        with pytest.raises(ValueError):
            lift_realization(bad, split, inst)

    def test_project_rejects_tampered_graph(self):
        _, inst, split, g = self.lifted((2, 1, 1, 1, 1))
        lifted = lift_realization(g, split, inst)
        # remove one edge between two non-big vertices: degree audit breaks
        big = inst.big_value
        u_deg = lifted.u_degrees()
        v_deg = lifted.v_degrees()
        u, v = next((u, v) for u, v in lifted.sorted_edges()
                    if u_deg[u] != big and v_deg[v] != big)
        neighbors = list(lifted.neighbors)
        neighbors[u] = tuple(w for w in neighbors[u] if w != v)
        tampered = BipartiteRealization(lifted.v_count, tuple(neighbors))
        with pytest.raises(ProjectionAuditError):
            project_realization(tampered, inst)

    def test_more_sources(self):
        for degrees in ((1, 1, 1, 1), (2, 2, 1, 1, 1, 1), (3, 2, 2, 2, 1, 1, 1)):
            ds, inst, split, g = self.lifted(degrees)
            lifted = lift_realization(g, split, inst)
            back = project_realization(lifted, inst)
            assert sorted(back.u_degrees() + back.v_degrees()) == sorted(
                inst.source.degrees)


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


def _partitions(rem, largest):
    if rem == 0:
        yield ()
        return
    for first in range(min(rem, largest), 0, -1):
        for rest in _partitions(rem - first, first):
            yield (first,) + rest


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
    sources = [p for s in range(4, max_sum + 1, 2) for p in _partitions(s, s // 2 - 1)]
    bounds = ParamBounds(c1, c2)
    disagree = set()
    for seq in sources + list(extra):
        rep = verify_reduction_roundtrip(DegreeSequence(seq), bounds)
        if not rep.agree:
            assert not rep.source_realizable and rep.padded_realizable, seq
            assert rep.instance.r == F(1, 2) and rep.instance.n == 4 * sum(seq), seq
            disagree.add(seq)
    assert disagree == expected
