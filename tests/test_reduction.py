import random
from collections import Counter
from fractions import Fraction

import pytest

from bdr import (DegreeSequence, ParamBounds, build_hard_instance,
                 choose_padding_n, compute_rational_r, find_equal_sum_split,
                 in_class, lift_realization, project_realization,
                 semiregular_bipartite, verify_reduction_roundtrip)
from bdr.errors import (NotInHardRegionError, ProjectionAuditError,
                        ReductionInvariantError, ReductionPreconditionError)
from bdr.gale_ryser import BipartitePair, BipartiteRealization, construct_realization
from bdr.oracle import brute_force_bipartite_realizable
from bdr.reduction import _floor_linear_sqrt

F = Fraction
HARD = ParamBounds(F(1, 10), F(2, 5))


class TestFloorLinearSqrt:
    def test_pure_sqrt(self):
        assert _floor_linear_sqrt(F(0), F(1), F(2)) == 1
        assert _floor_linear_sqrt(F(0), F(10), F(2)) == 14

    def test_negative_coefficient(self):
        # 10 - 10*sqrt(2) = -4.14...
        assert _floor_linear_sqrt(F(10), F(-10), F(2)) == -5

    def test_exact_square(self):
        assert _floor_linear_sqrt(F(0), F(1), F(9)) == 3
        assert _floor_linear_sqrt(F(0), F(-1), F(9)) == -3

    def test_agrees_with_float(self):
        rng = random.Random(13)
        for _ in range(500):
            a = F(rng.randint(-50, 50), rng.randint(1, 9))
            b = F(rng.randint(-50, 50), rng.randint(1, 9))
            w = F(rng.randint(0, 50), rng.randint(1, 9))
            exact = _floor_linear_sqrt(a, b, w)
            approx = float(a) + float(b) * float(w) ** 0.5
            assert abs(exact - approx) < 1.001, (a, b, w)
            assert exact <= approx + 1e-9


class TestComputeRationalR:
    def test_worked_value(self):
        assert compute_rational_r(HARD) == F(1, 2)

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
        pair = BipartitePair(
            DegreeSequence([inst.source.degrees[i] for i in split.u_indices()]),
            DegreeSequence([inst.source.degrees[i] for i in split.v_indices()]))
        g = construct_realization(pair)
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
        bad = BipartiteRealization(g.u_count, g.v_count, frozenset())
        with pytest.raises(ValueError):
            lift_realization(bad, split, inst)

    def test_project_rejects_tampered_graph(self):
        _, inst, split, g = self.lifted((2, 1, 1, 1, 1))
        lifted = lift_realization(g, split, inst)
        # remove one edge between two non-big vertices: degree audit breaks
        big = inst.big_value
        u_deg = lifted.u_degrees()
        v_deg = lifted.v_degrees()
        victim = next((u, v) for u, v in lifted.edges
                      if u_deg[u] != big and v_deg[v] != big)
        tampered = BipartiteRealization(lifted.u_count, lifted.v_count,
                                        lifted.edges - {victim})
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
