"""The padding reduction between the unrestricted and parameterized problems.

All derived constants are exact rationals.  The rational scaling factor r
is found by comparing decimal expansions of the two irrational bracket
endpoints with exact integer square roots; no floating point is involved
anywhere in the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .core import DegreeSequence, ParamBounds, in_class
from .decider import RegionClass, classify_region
from .errors import (NotInHardRegionError, ProjectionAuditError,
                     ReductionInvariantError, ReductionPreconditionError)
# construct_realization is unused here, but perfbench/tracing.py wraps it at
# this module's binding, so the name must stay
from .gale_ryser import BipartiteRealization, construct_realization  # noqa: F401
from .partition import SplitWitness


@dataclass(frozen=True)
class Role:
    """Role of one padded-sequence entry.

    kind is one of "big", "shifted", "filler", "small"; shifted entries
    carry the index of the source degree they encode.
    """

    kind: str
    source_index: int | None = None


@dataclass(frozen=True)
class ReductionInstance:
    source: DegreeSequence  # zero-stripped
    S: int
    r: Fraction
    c1_tilde: Fraction
    c2_tilde: Fraction
    n: int
    d_prime: DegreeSequence
    roles: tuple[Role, ...]
    big_value: int    # c2~*n + S/2
    small_value: int  # c1~*n
    shift_base: int   # (c1~+c2~)/2*n: the filler degree and the source shift
    big_count: int    # (c1~+c2~)*n
    small_count: int  # n - big_count
    semi_deg: int     # (c2~-c1~)/2*n: degree of L in the semi-regular blocks


def _c_tilde(r: Fraction) -> tuple[Fraction, Fraction]:
    """The padded instance's relative bounds (c1~, c2~) = ((1-r)^2/2, (1-r^2)/2)."""
    return (1 - r) ** 2 / 2, (1 - r * r) / 2


def _exact_int(value: Fraction, name: str) -> int:
    if value.denominator != 1:
        raise ReductionInvariantError(f"{name} = {value} is not an integer")
    return value.numerator


# --- exact decimal machinery ------------------------------------------------

def _floor_linear_sqrt(a: Fraction, b: Fraction, w: Fraction) -> int:
    """floor(a + b*sqrt(w)) computed exactly (w >= 0 rational)."""
    if b == 0 or w == 0:
        return math.floor(a)
    t = b * b * w
    root_floor = isqrt(t.numerator // t.denominator)
    if b > 0:
        m = math.floor(a) + root_floor
    else:
        m = math.floor(a) - root_floor - 2

    def at_most_value(candidate: int) -> bool:
        # candidate <= a + b*sqrt(w)
        rest = Fraction(candidate) - a
        if b > 0:
            if rest <= 0:
                return True
            return rest * rest <= t
        if rest >= 0:
            return False
        return rest * rest >= t

    while at_most_value(m + 1):
        m += 1
    while not at_most_value(m):
        m -= 1
    return m


def _round_half_up(a: Fraction, b: Fraction, w: Fraction, digits: int) -> Fraction:
    """(a + b*sqrt(w)) rounded half-up to ``digits`` decimal places."""
    scale = 10 ** digits
    rounded = _floor_linear_sqrt(a * scale + Fraction(1, 2), b * scale, w)
    return Fraction(rounded, scale)


def compute_rational_r(bounds: ParamBounds) -> Fraction:
    """The rational r strictly between sqrt(1-2*c2) and 1 - sqrt(2*c1).

    Found by rounding both endpoints at the first decimal position where
    their expansions differ and averaging; if rounding spoils the strict
    bracket, one more digit is taken.
    """
    if classify_region(bounds) is not RegionClass.CONDITIONALLY_HARD:
        raise NotInHardRegionError(
            f"bounds ({bounds.c1}, {bounds.c2}) are not in the conditionally hard region")
    c1, c2 = bounds.c1, bounds.c2
    wa = 1 - 2 * c2  # lower endpoint is sqrt(wa)
    wb = 2 * c1      # upper endpoint is 1 - sqrt(wb)
    for digits in range(1, 400):
        scale = 10 ** digits
        trunc_a = _floor_linear_sqrt(Fraction(0) * scale, Fraction(scale), wa)
        trunc_b = _floor_linear_sqrt(Fraction(scale), Fraction(-scale), wb)
        if trunc_a == trunc_b:
            continue
        ra = _round_half_up(Fraction(0), Fraction(1), wa, digits)
        rb = _round_half_up(Fraction(1), Fraction(-1), wb, digits)
        r = (ra + rb) / 2
        # strict bracket, square-compared: sqrt(wa) < r and r < 1 - sqrt(wb)
        if not (r > 0 and r * r > wa and r < 1 and (1 - r) ** 2 > wb):
            continue
        c1t, c2t = _c_tilde(r)
        # implied by the bracket; checked as a derivation tripwire
        if not (c1 < c1t and c2t < c2 and (c1t + c2t) ** 2 == 2 * c1t):
            raise ReductionInvariantError(f"r = {r} breaks the identities of the bracket")
        return r
    raise ReductionInvariantError("no admissible r found; bracket endpoints too close")


def choose_padding_n(S: int, bounds: ParamBounds, r: Fraction) -> int:
    """Smallest padding size meeting divisibility and threshold constraints.

    Constraints: c1~*n, c2~*n and (c1~+c2~)/2*n are integers, the first two
    are multiples of S/2, n is even with (c2~-c1~)/2*n integral (needed by
    the semi-regular blocks of the forward construction), and both strict
    threshold inequalities hold.
    """
    if S < 2 or S % 2 != 0:
        raise ReductionPreconditionError(f"S must be even and >= 2, got {S}")
    c1t, c2t = _c_tilde(r)
    cm = (c1t + c2t) / 2
    half_s = S // 2
    moduli = [cm.denominator, ((c2t - c1t) / 2).denominator, 2]
    for frac in (c1t, c2t):
        moduli.append(frac.denominator * (half_s // gcd(frac.numerator, half_s)))
    step = math.lcm(*moduli)
    n = step
    while True:
        if (c2t * n + half_s) < bounds.c2 * (n + S) and c1t * n > bounds.c1 * (n + S):
            return n
        n += step


def build_hard_instance(ds: DegreeSequence, bounds: ParamBounds) -> ReductionInstance:
    """Assemble the padded sequence D' for a zero-free source sequence."""
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
    half_s = S // 2
    big_value = _exact_int(c2t * n, "c2~*n") + half_s
    small_value = _exact_int(c1t * n, "c1~*n")
    shift = _exact_int((c1t + c2t) / 2 * n, "(c1~+c2~)/2*n")
    big_count = 2 * shift
    small_count = n - big_count
    semi_deg = _exact_int((c2t - c1t) / 2 * n, "(c2~-c1~)/2*n")
    s_side = _exact_int(Fraction(n, 2), "n/2") - shift
    # block arithmetic of the proof: L vertices reach the big degree, and the
    # semi-regular blocks L x S have equal degree sums on both sides
    if shift + half_s + semi_deg != big_value or shift * semi_deg != s_side * small_value:
        raise ReductionInvariantError(
            f"padding n = {n} breaks the block identities of the construction")
    filler_count = S - source.n

    degrees: list[int] = []
    roles: list[Role] = []
    degrees += [big_value] * big_count
    roles += [Role("big")] * big_count
    for i, d in enumerate(source.degrees):
        degrees.append(d + shift)
        roles.append(Role("shifted", i))
    degrees += [shift] * filler_count
    roles += [Role("filler")] * filler_count
    degrees += [small_value] * small_count
    roles += [Role("small")] * small_count

    d_prime = DegreeSequence(degrees)
    if not in_class(d_prime, bounds):
        raise ReductionInvariantError(f"padded sequence of n = {n} is not in the class")
    return ReductionInstance(source, S, r, c1t, c2t, n, d_prime, tuple(roles),
                             big_value, small_value, shift, big_count, small_count,
                             semi_deg)


def semiregular_bipartite(a_count: int, a_deg: int,
                          b_count: int, b_deg: int) -> BipartiteRealization:
    """A bipartite graph with constant degrees a_deg and b_deg per class.

    Built by the modular round-robin pattern: vertex i takes the a_deg
    consecutive residues from i*a_deg mod b_count.  As a_deg <= b_count, no
    pair repeats; the runs tile 0 .. a_count*a_deg - 1 = b_count*b_deg - 1,
    so every residue is taken exactly b_deg times.
    """
    if min(a_count, a_deg, b_count, b_deg) < 0:
        raise ValueError("all parameters must be nonnegative")
    if a_count * a_deg != b_count * b_deg:
        raise ValueError(
            f"degree sums differ: {a_count}*{a_deg} != {b_count}*{b_deg}")
    if a_deg == 0:
        return BipartiteRealization(a_count, b_count, frozenset())
    if a_deg > b_count or b_deg > a_count:
        raise ValueError("degree exceeds the opposite class size")
    edges = frozenset((i, (i * a_deg + t) % b_count)
                      for i in range(a_count) for t in range(a_deg))
    return BipartiteRealization(a_count, b_count, edges)


def lift_realization(g: BipartiteRealization, split: SplitWitness,
                     inst: ReductionInstance) -> BipartiteRealization:
    """Forward direction: blow a realization of a split of the source up to
    a realization of the padded sequence.

    ``g`` must realize the pair induced by ``split`` on ``inst.source``
    (u-side degrees = degrees at the U indices, in order).
    """
    src = inst.source
    u_idx = split.u_indices()
    v_idx = split.v_indices()
    half_s = inst.S // 2
    if g.u_count != len(u_idx) or g.v_count != len(v_idx):
        raise ValueError("realization does not match the split's class sizes")
    if (g.u_degrees() != tuple(src.degrees[i] for i in u_idx)
            or g.v_degrees() != tuple(src.degrees[i] for i in v_idx)):
        raise ValueError("realization degrees do not match the split")

    shift = inst.shift_base          # |U_L| = |V_L|
    half_n = inst.n // 2
    s_side = half_n - shift          # |U_S| = |V_S|
    # vertex layout per side: S/2 source slots (split members then zero
    # padding), then the L block, then the S block
    l_off, s_off = half_s, half_s + shift
    total = half_s + half_n
    edges: set[tuple[int, int]] = set(g.edges)
    # complete bipartite blocks: U_L x V_L, U_L x V_G, V_L x U_G
    for ul in range(l_off, l_off + shift):
        for vl in range(l_off, l_off + shift):
            edges.add((ul, vl))
        for vg in range(half_s):
            edges.add((ul, vg))
    for vl in range(l_off, l_off + shift):
        for ug in range(half_s):
            edges.add((ug, vl))
    # semi-regular blocks: U_L x V_S and V_L x U_S
    semi = semiregular_bipartite(shift, inst.semi_deg, s_side, inst.small_value)
    for a, b in semi.edges:
        edges.add((l_off + a, s_off + b))
        edges.add((s_off + b, l_off + a))
    lifted = BipartiteRealization(total, total, frozenset(edges))

    expected: list[int] = sorted(inst.d_prime.degrees)
    got = sorted(lifted.u_degrees() + lifted.v_degrees())
    if got != expected:
        raise ReductionInvariantError("lifted degree audit failed")
    return lifted


def project_realization(g_prime: BipartiteRealization,
                        inst: ReductionInstance) -> BipartiteRealization:
    """Backward direction: strip the padding from any realization of D'.

    Deletes every edge incident to a big-role vertex; the residual graph on
    the shifted-role vertices realizes a split of the source sequence.  Any
    audit failure raises ProjectionAuditError with the offending data.
    """
    u_deg = g_prime.u_degrees()
    v_deg = g_prime.v_degrees()
    big = inst.big_value
    shift = inst.shift_base
    expected_per_side = inst.big_count // 2
    big_u = [i for i, d in enumerate(u_deg) if d == big]
    big_v = [j for j, d in enumerate(v_deg) if d == big]
    if len(big_u) != expected_per_side or len(big_v) != expected_per_side:
        raise ProjectionAuditError(
            f"big-degree vertices split {len(big_u)}/{len(big_v)}, "
            f"expected {expected_per_side} per side")
    big_u_set, big_v_set = set(big_u), set(big_v)
    residual_edges = {(u, v) for u, v in g_prime.edges
                      if u not in big_u_set and v not in big_v_set}
    res_u = [0] * g_prime.u_count
    res_v = [0] * g_prime.v_count
    for u, v in residual_edges:
        res_u[u] += 1
        res_v[v] += 1

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
    # the mod-S/2 argument: shifted degrees must sum equally on both sides
    if sum(u_deg[i] - shift for i in keep_u) * 2 != inst.S:
        raise ProjectionAuditError("shifted degrees do not split the source sum evenly")

    u_map = {old: new for new, old in enumerate(keep_u)}
    v_map = {old: new for new, old in enumerate(keep_v)}
    return BipartiteRealization(
        len(keep_u), len(keep_v),
        frozenset((u_map[u], v_map[v]) for u, v in residual_edges))


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

    Both sides use the brute-force oracle; the padded side stays feasible
    because the oracle enumerates splits by value counts, and the padded
    sequence has only a handful of distinct values.
    """
    from .oracle import brute_force_bipartite_realizable
    inst = build_hard_instance(ds, bounds)
    verdict_src = brute_force_bipartite_realizable(inst.source, budget=budget)
    verdict_pad = brute_force_bipartite_realizable(inst.d_prime, budget=budget)
    return RoundTripReport(verdict_src, verdict_pad, inst)
