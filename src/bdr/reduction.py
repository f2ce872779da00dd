"""The padding reduction between the unrestricted and parameterized problems.

All derived constants are exact rationals.  The rational scaling factor r
is found by comparing decimal expansions of the two irrational bracket
endpoints; each digit string is an integer square root (math.isqrt) of a
scaled rational, so no floating point is involved anywhere in the
construction.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
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


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for rational x >= 0, exactly: floor(sqrt(x)) = isqrt(floor(x))."""
    return isqrt(x.numerator // x.denominator)


def _ceil_sqrt(x: Fraction) -> int:
    """ceil(sqrt(x)) for rational x >= 0; sqrt(x) is an integer only if x is its square."""
    root = _floor_sqrt(x)
    return root if root * root == x else root + 1


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
        s = 10 ** digits
        # the endpoints truncated to `digits` places, times s
        if _floor_sqrt(s * s * wa) == s - _ceil_sqrt(s * s * wb):
            continue
        # rounded half up instead: floor(s*x + 1/2) = (floor(2*s*x) + 1) // 2
        ra = (_floor_sqrt(4 * s * s * wa) + 1) // 2
        rb = s + (1 - _ceil_sqrt(4 * s * s * wb)) // 2
        r = Fraction(ra + rb, 2 * s)
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


def _round_robin_rows(offset: int, b_count: int, a_count: int, a_deg: int,
                      b_deg: int, head: tuple[range, ...] = ()) -> tuple[tuple[range, ...], ...]:
    """The rows of a semi-regular block, as ``from_intervals`` pieces:
    a_count vertices of degree a_deg against the b_count vertices from
    ``offset`` on, each of degree b_deg, every row after the pieces ``head``.

    Row i is the a_deg consecutive vertices of the block from position
    i*a_deg mod b_count, wrapping: one range, or two where it wraps, the
    wrapped part first so the row stays increasing.  As a_deg <= b_count,
    no pair repeats; the runs tile positions 0 .. a_count*a_deg - 1 =
    b_count*b_deg - 1, so every vertex is taken exactly b_deg times.  Row
    i + p repeats row i for p = b_count / gcd(a_deg, b_count), and p
    divides a_count as the degree sums agree; the p distinct rows are built
    once and repeated as the same objects, which ``from_intervals`` then
    builds once each.
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
        rows.append(head + ((range(start, end),) if end <= stop
                            else (range(offset, end - b_count), range(start, stop))))
    return tuple(rows) * (a_count // period)


def semiregular_bipartite(a_count: int, a_deg: int,
                          b_count: int, b_deg: int) -> BipartiteRealization:
    """A bipartite graph with constant degrees a_deg and b_deg per class.

    Built by the modular round-robin pattern (``_round_robin_rows``): vertex
    i takes the a_deg consecutive residues from i*a_deg mod b_count.  Every
    row is one or two ranges, so ``BipartiteRealization.from_intervals``
    checks each in O(1).
    """
    return BipartiteRealization.from_intervals(
        b_count, _round_robin_rows(0, b_count, a_count, a_deg, b_deg))


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
    semi_deg = big_value, and an S vertex has small_value.  The rows go to
    ``BipartiteRealization.from_intervals`` as pieces: the complete blocks
    and the round-robin rows are ranges, checked in O(1) each, and only
    ``g``'s own rows are tuples; a row that holds one is checked as the
    tuple constructor checks it.  Each row is built as
    slices of one tuple of vertex indices, joined with ``g``'s row, and a
    round-robin row that repeats (``_round_robin_rows``) is built once and
    shared.
    """
    src = inst.source
    u_idx = split.u_indices()
    v_idx = split.v_indices()
    half_s = inst.S // 2
    if (g.u_degrees() != tuple(src.degrees[i] for i in u_idx)
            or g.v_degrees() != tuple(src.degrees[i] for i in v_idx)):
        raise ValueError("realization degrees do not match the split")

    shift = inst.shift_base          # |U_L| = |V_L|
    half_n = inst.n // 2
    s_side = half_n - shift          # |U_S| = |V_S|
    l_off, s_off = half_s, half_s + shift
    l_block = range(l_off, s_off)
    g_and_l = range(s_off)
    rows = ([(nbrs, l_block) for nbrs in g.neighbors]
            + [(l_block,)] * (half_s - g.u_count)
            + list(_round_robin_rows(s_off, s_side, shift, inst.semi_deg,
                                     inst.small_value, (g_and_l,)))
            + list(_round_robin_rows(l_off, shift, s_side, inst.small_value, inst.semi_deg)))
    lifted = BipartiteRealization.from_intervals(half_s + half_n, rows)

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
    mod-S/2 argument, audited below).  Any audit failure raises
    ProjectionAuditError with the offending data.

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

    The big v-vertices are cut out of each distinct row object once (rows
    are told apart by ``id``), by the maximal intervals they form: two
    binary searches and a slice for each interval that meets the row or
    lies between two of its entries, O(log m) each on a row of m entries.
    A lifted graph's big v-vertices are the one interval V_L, and its rows
    are mostly shared.
    """
    u_deg = g_prime.u_degrees()
    v_deg = g_prime.v_degrees()
    big = inst.big_value
    shift = inst.shift_base
    expected_per_side = inst.big_count // 2
    is_big = bytes(map(big.__eq__, v_deg))  # 1 at each big v-vertex
    if u_deg.count(big) != expected_per_side or is_big.count(1) != expected_per_side:
        raise ProjectionAuditError(
            f"big-degree vertices split {u_deg.count(big)}/{is_big.count(1)}, "
            f"expected {expected_per_side} per side")
    spans = [run.span() for run in re.finditer(b"\x01+", is_big)]  # maximal big intervals
    stops = [b for _, b in spans]
    rows = g_prime.neighbors
    cut = {}  # id(row): the row without its big v-vertices
    for key, nbrs in dict(zip(map(id, rows), rows)).items():
        kept = []
        i, m = 0, len(nbrs)
        while i < m:
            k = bisect_right(stops, nbrs[i])  # the first interval ending past nbrs[i]
            if k == len(stops):
                kept.append(nbrs[i:])
                break
            j = bisect_left(nbrs, spans[k][0], i)
            kept.append(nbrs[i:j])
            i = bisect_left(nbrs, stops[k], j)
        cut[key] = kept[0] if len(kept) == 1 else sum(kept, ())
    residual = BipartiteRealization(g_prime.v_count, tuple(
        () if d == big else cut[id(nbrs)] for d, nbrs in zip(u_deg, rows)))
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
    # the mod-S/2 argument: shifted degrees must sum equally on both sides
    if sum(u_deg[i] - shift for i in keep_u) * 2 != inst.S:
        raise ProjectionAuditError("shifted degrees do not split the source sum evenly")

    # keep_v is increasing, so the remap keeps each neighbor tuple sorted
    v_map = {old: new for new, old in enumerate(keep_v)}
    return BipartiteRealization(len(keep_v), tuple(
        tuple(map(v_map.__getitem__, residual.neighbors[u])) for u in keep_u))


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
    because the oracle reads the splits as count vectors over the distinct
    values (``partition.count_vector_walk``), the padded sequence has only
    a handful of distinct values, and the walk enters a count prefix only
    when the rest of the half sum is reachable by the remaining values, so
    every count vector it builds has the half sum.
    """
    from .oracle import brute_force_bipartite_realizable
    inst = build_hard_instance(ds, bounds)
    verdict_src = brute_force_bipartite_realizable(inst.source, budget=budget)
    verdict_pad = brute_force_bipartite_realizable(inst.d_prime, budget=budget)
    return RoundTripReport(verdict_src, verdict_pad, inst)
