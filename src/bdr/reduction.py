"""The padding reduction between the unrestricted and parameterized problems.

All derived constants are exact rationals, computed in integer arithmetic
on their numerators and denominators: every inequality is cross-multiplied
and every integrality test is a divmod.  The rational scaling factor r is
found by comparing decimal expansions of the two irrational bracket
endpoints; each digit string is an integer square root (math.isqrt) of a
scaled rational, so no floating point is involved anywhere in the
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

from .core import DegreeSequence, ParamBounds, in_class
from .decider import RegionClass, classify_region
from .errors import (NotInHardRegionError, ProjectionAuditError,
                     ReductionInvariantError, ReductionPreconditionError)
# construct_realization is unused here, but perfbench/tracing.py wraps it at
# this module's binding, so the name must stay
from .gale_ryser import BipartiteRealization, _flags, construct_realization  # noqa: F401
from .partition import SplitWitness

# The most entries, n + S, of a D' that ``build_hard_instance`` builds.  7150 ones
# at (3/20, 2/5), n + S = 1,047,150, took 0.1-0.4 s and a 35 MB tracemalloc peak
# (one Xeon core, Python 3.11); "1000000 1000000 1000000" asks there for n = 1.2e9.
MAX_PADDED_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class ReductionInstance:
    source: DegreeSequence  # zero-stripped
    S: int
    r: Fraction
    c1_tilde: Fraction
    c2_tilde: Fraction
    n: int
    d_prime: DegreeSequence
    # d_prime as runs (kind, source_index, degree, count), in d_prime order:
    # kind is "big", "shifted", "filler" or "small", and source_index is the
    # position in ``source`` a shifted run of count 1 encodes, else None
    blocks: tuple[tuple[str, int | None, int, int], ...]
    big_value: int    # c2~*n + S/2
    small_value: int  # c1~*n
    shift_base: int   # (c1~+c2~)/2*n: the filler degree and the source shift
    big_count: int    # (c1~+c2~)*n
    small_count: int  # n - big_count
    semi_deg: int     # (c2~-c1~)/2*n: degree of L in the semi-regular blocks


def _c_tilde(r: Fraction) -> tuple[Fraction, Fraction]:
    """The padded instance's relative bounds (c1~, c2~) = ((1-r)^2/2, (1-r^2)/2),
    for r = p/q: (q-p)^2 / (2*q^2) and (q^2-p^2) / (2*q^2)."""
    p, q = r.numerator, r.denominator
    den = 2 * q * q
    return Fraction((q - p) ** 2, den), Fraction(q * q - p * p, den)


def _exact_quotient(num: int, den: int, name: str) -> int:
    """num / den, which must be an integer."""
    quotient, rest = divmod(num, den)
    if rest:
        raise ReductionInvariantError(f"{name} = {Fraction(num, den)} is not an integer")
    return quotient


def _sqrt_floor_ceil(num: int, den: int) -> tuple[int, int]:
    """(floor(sqrt(x)), ceil(sqrt(x))) for x = num/den >= 0, den > 0, exactly:
    floor(sqrt(x)) = isqrt(floor(x)), and sqrt(x) is an integer only if x is
    its square."""
    root = isqrt(num // den)
    return root, root if root * root * den == num else root + 1


def compute_rational_r(bounds: ParamBounds) -> Fraction:
    """The rational r strictly between sqrt(1-2*c2) and 1 - sqrt(2*c1).

    Found by rounding both endpoints at the first decimal position where
    their expansions differ and averaging; if rounding spoils the strict
    bracket, one more digit is taken.  Every digit string is the
    ``math.isqrt`` of a scaled rational's integer floor, and the bracket
    test on r = p/q is cross-multiplied into integers, so the loop builds
    no Fraction; r and its c~ are built once, when r is accepted.
    """
    if classify_region(bounds) is not RegionClass.CONDITIONALLY_HARD:
        raise NotInHardRegionError(
            f"bounds ({bounds.c1}, {bounds.c2}) are not in the conditionally hard region")
    a, b = bounds.c1.numerator, bounds.c1.denominator
    c, d = bounds.c2.numerator, bounds.c2.denominator
    # the endpoints are sqrt(wa / d) and 1 - sqrt(wb / b):
    # 1 - 2*c2 = (d - 2*c) / d and 2*c1 = 2*a / b
    wa, wb = d - 2 * c, 2 * a
    for digits in range(1, 400):
        s = 10 ** digits
        ss = s * s
        # the endpoints truncated to `digits` places, times s
        if _sqrt_floor_ceil(ss * wa, d)[0] == s - _sqrt_floor_ceil(ss * wb, b)[1]:
            continue
        # rounded half up instead: floor(s*x + 1/2) = (floor(2*s*x) + 1) // 2
        ra = (_sqrt_floor_ceil(4 * ss * wa, d)[0] + 1) // 2
        rb = s + (1 - _sqrt_floor_ceil(4 * ss * wb, b)[1]) // 2
        p, q = ra + rb, 2 * s
        # strict bracket on r = p/q, square-compared: sqrt(wa / d) < r and
        # r < 1 - sqrt(wb / b), as 0 < r < 1, r^2 > wa / d times q^2*d and
        # (1 - r)^2 > wb / b times q^2*b
        if not (0 < p < q and p * p * d > q * q * wa and (q - p) ** 2 * b > q * q * wb):
            continue
        r = Fraction(p, q)
        c1t, c2t = _c_tilde(r)
        n1, d1, n2, d2 = c1t.numerator, c1t.denominator, c2t.numerator, c2t.denominator
        # implied by the bracket; checked as a derivation tripwire:
        # c1 < c1~ and c2~ < c2, and (c1~ + c2~)^2 = 2*c1~ times (d1*d2)^2
        if not (a * d1 < n1 * b and n2 * d < c * d2
                and (n1 * d2 + n2 * d1) ** 2 == 2 * n1 * d1 * d2 * d2):
            raise ReductionInvariantError(f"r = {r} breaks the identities of the bracket")
        return r
    raise ReductionInvariantError("no admissible r found; bracket endpoints too close")


def choose_padding_n(S: int, bounds: ParamBounds, r: Fraction) -> int:
    """Smallest padding size meeting divisibility and threshold constraints.

    Constraints: c1~*n, c2~*n and (c1~+c2~)/2*n are integers, the first two
    are multiples of S/2, n is even, and both strict threshold inequalities
    hold.  Then (c2~-c1~)/2*n = c2~*n - (c1~+c2~)/2*n is an integer too, as
    the semi-regular blocks of the forward construction need.  The
    divisibility constraints make n a multiple of one step.  Each
    inequality is linear in n, grow*n > base, so it holds exactly for
    n > base // grow, and n is the first multiple of the step above both
    quotients, in closed form; base1 >= 0, so n >= step.

    Raises ReductionPreconditionError unless c1 < c1~ and c2~ < c2, which
    hold for the r of ``compute_rational_r``: otherwise some grow is not
    positive and no n meets its inequality.
    """
    if S < 2 or S % 2 != 0:
        raise ReductionPreconditionError(f"S must be even and >= 2, got {S}")
    c1t, c2t = _c_tilde(r)
    n1, d1, n2, d2 = c1t.numerator, c1t.denominator, c2t.numerator, c2t.denominator
    a, b = bounds.c1.numerator, bounds.c1.denominator
    c, d = bounds.c2.numerator, bounds.c2.denominator
    half_s = S // 2
    # c1~*n > c1*(n + S), times b*d1
    grow1, base1 = b * n1 - a * d1, a * d1 * S
    # c2~*n + S/2 < c2*(n + S), times d*d2
    grow2, base2 = c * d2 - d * n2, d2 * (d * half_s - c * S)
    if grow1 <= 0 or grow2 <= 0:
        raise ReductionPreconditionError(
            f"r = {r} gives (c1~, c2~) = ({c1t}, {c2t}), which needs "
            f"c1 = {bounds.c1} < c1~ and c2~ < c2 = {bounds.c2}")
    den = 2 * d1 * d2  # (c1~ + c2~)/2 over den, reduced below
    step = math.lcm(den // gcd(n1 * d2 + n2 * d1, den), 2,
                    d1 * (half_s // gcd(n1, half_s)), d2 * (half_s // gcd(n2, half_s)))
    return step * (max(base1 // grow1, base2 // grow2) // step + 1)


def build_hard_instance(ds: DegreeSequence, bounds: ParamBounds) -> ReductionInstance:
    """Assemble the padded D' of a zero-free source; refuse a D' over ``MAX_PADDED_ENTRIES``.

    D' is four blocks, in this order: big_count entries of big_value, one
    entry d + shift_base per source degree d in source order (the shifted
    source), S - n_src fillers of degree shift_base (none for an all-ones
    source) and small_count entries of small_value.
    """
    source = DegreeSequence(ds.nonzero())
    S = source.sigma
    if S % 2 != 0:
        raise ReductionPreconditionError(f"degree sum {S} is odd")
    if S < 2:
        raise ReductionPreconditionError("source sequence is empty")
    if any(2 * d >= S for d in source.degrees):
        raise ReductionPreconditionError(
            "a degree of at least S/2 must be resolved by the precheck first")
    r = compute_rational_r(bounds)
    c1t, c2t = _c_tilde(r)
    n = choose_padding_n(S, bounds, r)
    if n + S > MAX_PADDED_ENTRIES:
        raise ReductionPreconditionError(f"padded sequence of n + S = {n + S} entries "
                                         f"exceeds the limit of {MAX_PADDED_ENTRIES}")
    n1, d1, n2, d2 = c1t.numerator, c1t.denominator, c2t.numerator, c2t.denominator
    half_s = S // 2
    big_value = _exact_quotient(n2 * n, d2, "c2~*n") + half_s
    small_value = _exact_quotient(n1 * n, d1, "c1~*n")
    den = 2 * d1 * d2  # (c1~ + c2~)/2 and (c2~ - c1~)/2 over den
    shift = _exact_quotient((n1 * d2 + n2 * d1) * n, den, "(c1~+c2~)/2*n")
    big_count = 2 * shift
    small_count = n - big_count
    semi_deg = _exact_quotient((n2 * d1 - n1 * d2) * n, den, "(c2~-c1~)/2*n")
    s_side = _exact_quotient(n, 2, "n/2") - shift
    # block arithmetic of the proof: L vertices reach the big degree, and the
    # semi-regular blocks L x S have equal degree sums on both sides
    if shift + half_s + semi_deg != big_value or shift * semi_deg != s_side * small_value:
        raise ReductionInvariantError(
            f"padding n = {n} breaks the block identities of the construction")
    blocks = (("big", None, big_value, big_count),
              *(("shifted", i, d + shift, 1) for i, d in enumerate(source.degrees)),
              ("filler", None, shift, S - source.n),
              ("small", None, small_value, small_count))
    degrees: list[int] = []
    for _, _, d, count in blocks:
        degrees += [d] * count
    d_prime = DegreeSequence(degrees)
    if not in_class(d_prime, bounds):
        raise ReductionInvariantError(f"padded sequence of n = {n} is not in the class")
    return ReductionInstance(source, S, r, c1t, c2t, n, d_prime, blocks,
                             big_value, small_value, shift, big_count, small_count,
                             semi_deg)


def _round_robin_rows(offset: int, b_count: int, a_count: int, a_deg: int,
                      b_deg: int, head: int = 0) -> tuple[int, ...]:
    """The rows of a semi-regular block, as int bitsets: a_count vertices of
    degree a_deg against the b_count vertices from ``offset`` on, each of
    degree b_deg, every row also holding the bits of ``head``.

    Row i is the a_deg consecutive vertices of the block from position
    i*a_deg mod b_count, wrapping: one range, or two where it wraps, each
    range [start, stop) the mask ``(1 << stop) - (1 << start)``.  As
    a_deg <= b_count, no pair repeats; the runs tile positions
    0 .. a_count*a_deg - 1 = b_count*b_deg - 1, so every vertex is taken
    exactly b_deg times.  Row i + p repeats row i for
    p = b_count / gcd(a_deg, b_count), and p divides a_count as the degree
    sums agree, so the p distinct rows are built once and repeated.
    """
    if min(b_count, a_count, a_deg, b_deg) < 0:
        raise ValueError("all parameters must be nonnegative")
    if a_count * a_deg != b_count * b_deg:
        raise ValueError(
            f"degree sums differ: {a_count}*{a_deg} != {b_count}*{b_deg}")
    if a_deg == 0:
        return (head,) * a_count
    if a_deg > b_count or b_deg > a_count:
        raise ValueError("degree exceeds the opposite class size")
    period = b_count // gcd(a_deg, b_count)
    stop = offset + b_count
    rows = []
    for i in range(period):
        start = offset + i * a_deg % b_count
        end = start + a_deg
        if end > stop:  # wraps: [offset, end - b_count) and [start, stop)
            end -= b_count
            rows.append(head | (1 << end) - (1 << offset) | (1 << stop) - (1 << start))
        else:
            rows.append(head | (1 << end) - (1 << start))
    return tuple(rows) * (a_count // period)


def semiregular_bipartite(a_count: int, a_deg: int,
                          b_count: int, b_deg: int) -> BipartiteRealization:
    """A bipartite graph with constant degrees a_deg and b_deg per class.

    Built by the modular round-robin pattern (``_round_robin_rows``): vertex
    i takes the a_deg consecutive residues from i*a_deg mod b_count, one or
    two ranges as one int bitset.
    """
    return BipartiteRealization(b_count, _round_robin_rows(0, b_count, a_count, a_deg, b_deg))


def lift_realization(g: BipartiteRealization, split: SplitWitness,
                     inst: ReductionInstance) -> BipartiteRealization:
    """Forward direction: blow a realization of a split of the source up to
    a realization of the padded sequence.

    ``g`` must realize the pair induced by ``split`` on ``inst.source``
    (u-side degrees = degrees at the U indices, in order).

    Each side has the same layout: S/2 source slots (``g``'s vertices, then
    zero-degree padding), the L block of ``shift_base`` vertices, then the S
    block of n/2 - ``shift_base`` vertices; U_G and V_G are the slots.  The
    edges are ``g`` on U_G x V_G, the complete blocks U_G x V_L, U_L x V_G
    and U_L x V_L, and two semi-regular round-robin blocks: U_L x V_S with
    degrees ``semi_deg`` on U_L and ``small_value`` on V_S, and, built on
    its own, U_S x V_L with degrees ``small_value`` on U_S and ``semi_deg``
    on V_L.  So a slot vertex of source degree d has degree d + shift_base
    (a padding slot is a filler), an L vertex has S/2 + shift_base +
    semi_deg = big_value, and an S vertex has small_value.  Every row is
    an int bitset: ``g``'s row (its v-vertices are the first slots, as g
    has at most S/2 of them) ORed with the mask of V_L, the mask of V_L
    alone, or a round-robin row (``_round_robin_rows``), whose repeats
    are one int each.
    """
    src = inst.source
    half_s = inst.S // 2
    if (g.u_degrees() != tuple(src.degrees[i] for i in split.u)
            or g.v_degrees() != tuple(src.degrees[i] for i in split.v)):
        raise ValueError("realization degrees do not match the split")

    shift = inst.shift_base          # |U_L| = |V_L|
    half_n = inst.n // 2
    s_side = half_n - shift          # |U_S| = |V_S|
    l_off, s_off = half_s, half_s + shift
    l_block = (1 << s_off) - (1 << l_off)
    rows = ([row | l_block for row in g.rows]
            + [l_block] * (half_s - g.u_count)
            + list(_round_robin_rows(s_off, s_side, shift, inst.semi_deg,
                                     inst.small_value, (1 << s_off) - 1))
            + list(_round_robin_rows(l_off, shift, s_side, inst.small_value, inst.semi_deg)))
    lifted = BipartiteRealization(half_s + half_n, rows)

    expected: list[int] = sorted(inst.d_prime.degrees)
    got = sorted(lifted.u_degrees() + lifted.v_degrees())
    if got != expected:
        raise ReductionInvariantError("lifted degree audit failed")
    return lifted


def project_realization(g_prime: BipartiteRealization,
                        inst: ReductionInstance) -> BipartiteRealization:
    """Backward direction: strip the padding from a realization of D' whose
    big vertices are even, big_count / 2 on each side.

    Deletes every edge incident to a big-role vertex; the residual graph on
    the shifted-role vertices realizes a split of the source sequence (the
    mod-S/2 argument).  Audits, each raising ProjectionAuditError with the
    offending data: big_count / 2 big vertices per side; residual d - shift
    at each shifted-role vertex of degree d, 0 at the others; the kept
    degrees are the shifted source multiset.  Each side then holds S/2: the
    residual edges number the sum of d - shift over kept u and, counted
    from V, over kept v, and the multiset audit makes the two add up to S.

    This is a partial map, so the backward direction as checked here
    reads: the source is realizable iff D' has a realization whose big
    vertices are even, and the mod-S/2 argument applies to those.
    ``lift_realization`` always builds such a realization.  Where D' is
    realizable but the source is not (the sources pinned at (1/20, 9/20)
    in the tests), no realization of D' projects.  Realizations with the
    big vertices uneven fail the first audit.  Realizing every bigraphic
    count vector of D' for every zero-free source with S <= 8 at
    (1/10, 2/5), S <= 10 at (1/20, 9/20) and S <= 6 at (3/20, 2/5), 48 of
    98, 160 of 314 and 6 of 11 realizations raised ProjectionAuditError,
    each with its big vertices uneven, and every realization with them
    even projected.

    The big v-vertices are cut out of every row by one ``row & ~big``, big
    being their bitset.  Once audited, the residual rows hold only
    shifted-role v-vertices, and each kept row is compacted onto them as a
    bitset: its binary digits, lowest first, filtered by the 0/1 flags of
    the kept v-vertices and read back in base 2.
    """
    u_deg = g_prime.u_degrees()
    v_deg = g_prime.v_degrees()
    big = inst.big_value
    shift = inst.shift_base
    expected_per_side = inst.big_count // 2
    # the big v-vertices as a binary numeral, highest first
    big_v = int(b"0" + bytes([48 + (d == big) for d in reversed(v_deg)]), 2)
    if u_deg.count(big) != expected_per_side or big_v.bit_count() != expected_per_side:
        raise ProjectionAuditError(
            f"big-degree vertices split {u_deg.count(big)}/{big_v.bit_count()}, "
            f"expected {expected_per_side} per side")
    cut = ~big_v
    residual = BipartiteRealization(g_prime.v_count, [
        0 if d == big else row & cut for d, row in zip(u_deg, g_prime.rows)])
    res_u = residual.u_degrees()
    res_v = residual.v_degrees()

    shifted_values = sorted(d + shift for d in inst.source.degrees)

    def audit_side(deg, res, side):
        kept = []
        for i, d in enumerate(deg):
            if d == big:
                continue
            if d > shift:  # shifted-role vertex encoding source degree d - shift
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

    # keep_v is increasing, so the kept v-vertices keep their order
    keep = _flags(sum(1 << j for j in keep_v))  # 0/1 up to the last kept v-vertex
    return BipartiteRealization(len(keep_v), [
        int("".join(compress(bin(residual.rows[u])[:1:-1], keep))[::-1] or "0", 2)
        for u in keep_u])


@dataclass(frozen=True)
class RoundTripReport:
    source_realizable: bool
    padded_realizable: bool
    instance: ReductionInstance

    @property
    def agree(self) -> bool:
        return self.source_realizable == self.padded_realizable


def verify_reduction_roundtrip(ds: DegreeSequence, bounds: ParamBounds,
                               budget: int | None = None) -> RoundTripReport:
    """Check that the source and the padded sequence get the same verdict.

    Both sides use the brute-force oracle.  The padded side stays feasible
    because the oracle reads the splits as count vectors, tuples of U
    counts over the distinct values (``partition._count_walk``), the padded
    sequence has only a handful of distinct values, and the walk enters a
    count prefix only when the rest of the half sum is reachable by the
    remaining values, so every count vector it builds has the half sum.
    """
    # resolved per call, so a wrapper on the oracle module's attribute sees both calls
    from .oracle import brute_force_bipartite_realizable
    inst = build_hard_instance(ds, bounds)
    verdict_src = brute_force_bipartite_realizable(inst.source, budget=budget)
    verdict_pad = brute_force_bipartite_realizable(inst.d_prime, budget=budget)
    return RoundTripReport(verdict_src, verdict_pad, inst)
