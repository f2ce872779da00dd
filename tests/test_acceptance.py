"""Acceptance suite: one test per criterion, named test_criterion_N_*.

Each test is self-contained and checks the full stated corpus at the
stated tolerance; verbose pytest output gives one pass/fail line per
criterion.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from bdr import (DegreeClass, DegreeSequence, ParamBounds,
                 RegionClass, build_hard_instance, classify_region, decide_bdr,
                 equal_sum_split_exists, in_class,
                 is_bigraphic, is_graphic, lbds_pair_bigraphic,
                 lift_realization, max_degree_gap, project_realization,
                 verify_reduction_roundtrip)
from bdr.gale_ryser import construct_realization
from bdr.oracle import (brute_force_bipartite_realizable,
                        exhaustive_pair_search)

F = Fraction
HARD = ParamBounds(F(1, 10), F(2, 5))


def test_criterion_1_gale_ryser_oracle_concordance():
    """is_bigraphic vs exhaustive enumeration, all pairs with n1+n2 <= 8,
    degrees <= 4."""
    checked = 0
    for n1 in range(0, 9):
        for n2 in range(0, 9 - n1):
            for d1 in combinations_with_replacement(range(4, -1, -1), n1):
                for d2 in combinations_with_replacement(range(4, -1, -1), n2):
                    fast = is_bigraphic(d1, d2)
                    slow = exhaustive_pair_search(d1, d2)
                    assert fast == slow, (d1, d2)
                    checked += 1
    assert checked > 40000
    print(f"criterion 1: PASS ({checked} pairs, 0 mismatches)")


def _low_windows(max_den, max_n):
    """Distinct (n, lo, hi) degree windows induced by LowTractable rational
    bounds with denominators <= max_den."""
    fracs = sorted({F(p, q) for q in range(1, max_den + 1)
                    for p in range(0, q + 1)})
    windows = set()
    pairs = 0
    for i, c1 in enumerate(fracs):
        for c2 in fracs[i:]:
            if classify_region(ParamBounds(c1, c2)) is not RegionClass.LOW_TRACTABLE:
                continue
            pairs += 1
            for n in range(1, max_n + 1):
                lo = -((-c1.numerator * n) // c1.denominator)
                hi = (c2.numerator * n) // c2.denominator
                if lo <= hi:
                    windows.add((n, lo, hi))
    return windows, pairs


def test_criterion_2_low_region_split_equivalence():
    """In the LowTractable region, split existence <=> realizable, and
    decide_bdr matches with a valid witness.

    Every rational (c1, c2) with denominators <= 12 induces, per n <= 14,
    an integer degree window [ceil(c1 n), floor(c2 n)]; the verdict of
    decide_bdr depends on the bounds only through that window, so each
    distinct window is checked once against the representative bounds
    (lo/n, hi/n), which lie in the region whenever the inducing pair does.
    """
    windows, pairs = _low_windows(12, 14)
    assert pairs > 0 and windows
    checked = 0
    for n, lo, hi in sorted(windows):
        bounds = ParamBounds(F(lo, n), F(hi, n))
        assert classify_region(bounds) is RegionClass.LOW_TRACTABLE, (n, lo, hi)
        for seq in combinations_with_replacement(range(hi, lo - 1, -1), n):
            ds = DegreeSequence(seq)
            if not is_graphic(ds):
                continue
            checked += 1
            has_split = equal_sum_split_exists(ds)
            realizable = brute_force_bipartite_realizable(ds)
            assert has_split == realizable, (bounds, seq)
            decision = decide_bdr(ds, bounds)
            assert (decision.verdict == "Bipartite") == realizable, (bounds, seq)
            if realizable:
                g = decision.realization
                assert g is not None
                assert sorted(g.u_degrees() + g.v_degrees()) == sorted(seq)
                split = decision.split
                assert split is not None
                assert (sum(seq[i] for i in split.u)
                        == sum(seq[j] for j in split.v))
    print(f"criterion 2: PASS ({pairs} bound pairs, {len(windows)} windows, "
          f"{checked} sequences, 0 counterexamples)")


def test_criterion_3_high_region():
    """Every sequence with all degrees > n/2 (n <= 12, degrees <= n-1) is
    NotBipartite per decider and oracle."""
    checked = 0
    for n in range(3, 13):
        lo = n // 2 + 1
        hi = n - 1
        if lo > hi:
            continue
        for seq in combinations_with_replacement(range(hi, lo - 1, -1), n):
            ds = DegreeSequence(seq)
            checked += 1
            assert not brute_force_bipartite_realizable(ds), seq
            bounds = ParamBounds(F(min(seq), n), F(max(seq), n))
            assert classify_region(bounds) is RegionClass.HIGH_TRACTABLE, seq
            decision = decide_bdr(ds, bounds)
            assert decision.verdict == "NotBipartite", seq
    assert checked > 3000
    print(f"criterion 3: PASS ({checked} sequences, all NotBipartite)")


def test_criterion_4_max_degree_spread():
    c_star, gap = max_degree_gap()
    target_gap = 3 - 2 * 2 ** 0.5
    target_c = 3 * 2 ** 0.5 / 2 - 2
    assert abs(gap - target_gap) < 1e-9
    assert abs(c_star - target_c) < 1e-6
    print(f"criterion 4: PASS (gap {gap:.12f}, argmax {c_star:.9f})")


def _le_sqrt(x: Fraction, w: Fraction) -> bool:
    """x <= sqrt(w), exactly (w >= 0)."""
    if x <= 0:
        return True
    return x * x <= w


def test_criterion_5_algebraic_equivalences():
    """The four square-root identities hold as exact rational equivalences
    on the grid 0 < c1 < c2 < 1/2, denominators <= 50."""
    fracs = sorted({F(p, q) for q in range(1, 51) for p in range(1, q)
                    if 2 * p < q})
    checked = 0
    for i, c1 in enumerate(fracs):
        for c2 in fracs[i + 1:]:
            checked += 1
            # c1 >= c2^2/(1-c2)  <=>  c2 <= (sqrt(c1(c1+4)) - c1)/2
            lhs = c1 >= c2 * c2 / (1 - c2)
            rhs = _le_sqrt(2 * c2 + c1, c1 * (c1 + 4))
            assert lhs == rhs, (c1, c2)
            # c1 < 1 - c2 - sqrt(1-2c2)  <=>  c2 > sqrt(2c1) - c1
            t = 1 - c2 - c1
            lhs = t > 0 and t * t > 1 - 2 * c2
            rhs = (c1 + c2) ** 2 > 2 * c1
            assert lhs == rhs, (c1, c2)
            # (c1+c2)/2*(c2-c1)/2 = (1-c2-c1)/2*c1  <=>  c1 = 1-c2-sqrt(1-2c2)
            lhs = (c1 + c2) * (c2 - c1) / 4 == (1 - c2 - c1) / 2 * c1
            rhs = t >= 0 and t * t == 1 - 2 * c2
            assert lhs == rhs, (c1, c2)
            # ((c1+c2)/2)^2 + (1-c1-c2)/2*c1 = (c1+c2)/2*c2  <=>  c2 = sqrt(2c1)-c1
            lhs = ((c1 + c2) / 2) ** 2 + (1 - c1 - c2) / 2 * c1 == (c1 + c2) / 2 * c2
            rhs = (c1 + c2) ** 2 == 2 * c1
            assert lhs == rhs, (c1, c2)
    assert checked > 10000
    print(f"criterion 5: PASS ({checked} grid points, 4 equivalences each)")


def test_criterion_6_reduction_worked_instance():
    inst = build_hard_instance(DegreeSequence((2, 1, 1, 1, 1)), HARD)
    assert inst.r == F(1, 2)
    assert inst.c1_tilde == F(1, 8) and inst.c2_tilde == F(3, 8)
    assert inst.n == 48 and inst.d_prime.n == 54
    degrees = inst.d_prime.degrees
    by_kind = {}
    for d, role in zip(degrees, inst.roles):
        by_kind.setdefault(role.kind, []).append(d)
    assert by_kind["big"] == [21] * 24
    assert sorted(by_kind["shifted"]) == [13, 13, 13, 13, 14]
    assert by_kind["filler"] == [12]
    assert by_kind["small"] == [6] * 24
    # instance invariants, exact
    assert inst.big_count == (inst.c1_tilde + inst.c2_tilde) * inst.n
    assert inst.small_count == inst.n - inst.big_count
    assert (inst.c1_tilde * inst.n).denominator == 1
    assert int(inst.c1_tilde * inst.n) % (inst.S // 2) == 0
    assert int(inst.c2_tilde * inst.n) % (inst.S // 2) == 0
    assert (inst.c2_tilde * inst.n + inst.S // 2) < HARD.c2 * (inst.n + inst.S)
    assert inst.c1_tilde * inst.n > HARD.c1 * (inst.n + inst.S)
    assert inst.c1_tilde == (1 - inst.r) ** 2 / 2
    assert inst.c2_tilde == (1 - inst.r ** 2) / 2
    assert in_class(inst.d_prime, HARD)
    print("criterion 6: PASS (worked instance reproduced exactly)")


def _reduction_corpus():
    """Zero-free sequences with even sum S <= 8 and all degrees < S/2,
    one per degree multiset."""
    corpus = []
    for s in (4, 6, 8):
        cap = (s - 1) // 2 if s % 2 else s // 2 - 1

        def partitions(rem, mx):
            if rem == 0:
                yield ()
                return
            for first in range(min(rem, mx), 0, -1):
                for rest in partitions(rem - first, first):
                    yield (first,) + rest

        corpus.extend(partitions(s, cap))
    return corpus


def test_criterion_7_reduction_round_trip():
    corpus = _reduction_corpus()
    assert len(corpus) == 15
    for seq in corpus:
        report = verify_reduction_roundtrip(DegreeSequence(seq), HARD)
        assert report.agree, (seq, report.source_realizable,
                              report.padded_realizable)
    print(f"criterion 7: PASS ({len(corpus)} sources, all verdicts agree)")


def test_criterion_8_lift_project_round_trip():
    lifted_count = 0
    for seq in _reduction_corpus():
        ds = DegreeSequence(seq)
        if not brute_force_bipartite_realizable(ds):
            continue
        inst = build_hard_instance(ds, HARD)
        split = None
        g = None
        for candidate in _all_splits(inst.source):
            g = construct_realization(
                [inst.source.degrees[i] for i in candidate.u],
                [inst.source.degrees[j] for j in candidate.v])
            if g is not None:
                split = candidate
                break
        assert split is not None and g is not None, seq
        lifted = lift_realization(g, split, inst)
        # full degree audit against D'
        assert sorted(lifted.u_degrees() + lifted.v_degrees()) == sorted(
            inst.d_prime.degrees), seq
        back = project_realization(lifted, inst)
        # the projection reproduces g's degree assignment exactly
        assert back.u_degrees() == g.u_degrees(), seq
        assert back.v_degrees() == g.v_degrees(), seq
        assert back.edges == g.edges, seq
        lifted_count += 1
    assert lifted_count > 0
    print(f"criterion 8: PASS ({lifted_count} realizable sources round-tripped)")


def _all_splits(ds):
    from bdr import enumerate_equal_sum_splits
    return enumerate_equal_sum_splits(ds)


def test_criterion_9_lbds_extremality_sampled():
    rng = random.Random(2024)
    found = 0
    while found < 1000:
        sigma = rng.randint(1, 60)
        classes = []
        for _ in range(2):
            n = rng.randint(1, 10)
            d = rng.randint(0, min(sigma // n, 8))
            delta = rng.randint(d, min(sigma, 12))
            classes.append(DegreeClass(n, sigma, d, delta))
        if any(c.is_empty for c in classes):
            continue
        c1, c2 = classes
        if not lbds_pair_bigraphic(c1, c2):
            continue
        found += 1
        for _ in range(20):
            pair = (_random_member(rng, c1), _random_member(rng, c2))
            assert is_bigraphic(*pair), (c1, c2, pair)
    print("criterion 9: PASS (1000 class pairs x 20 member pairs, "
          "0 violations)")


def _random_member(rng, cls):
    seq = [rng.randint(cls.d, cls.delta) for _ in range(cls.n)]
    while sum(seq) > cls.sigma:
        i = rng.randrange(cls.n)
        if seq[i] > cls.d:
            seq[i] -= 1
    while sum(seq) < cls.sigma:
        i = rng.randrange(cls.n)
        if seq[i] < cls.delta:
            seq[i] += 1
    return seq
