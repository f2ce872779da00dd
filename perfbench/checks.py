"""Output checks written against the problem statement, not against bdr.

Nothing here imports bdr: a witness is checked edge by edge, and source
realizability for the small reduction sources is decided by a separate
Gale-Ryser scan over every bipartition.  Each check returns None when the
output is right and a short reason otherwise.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


def check_witness(degrees, u_indices, v_indices, edges) -> str | None:
    """A split plus an edge list must realize ``degrees`` exactly.

    ``edges`` pairs positions in ``u_indices`` with positions in
    ``v_indices``, as documented for ``bdr decide``.
    """
    n = len(degrees)
    if sorted(list(u_indices) + list(v_indices)) != list(range(n)):
        return "split does not partition the indices"
    if sum(degrees[i] for i in u_indices) != sum(degrees[j] for j in v_indices):
        return "split sides have unequal sums"
    if len(set(edges)) != len(edges):
        return "repeated edge"
    us, vs = [u for u, _ in edges], [v for _, v in edges]
    if us and not (min(us) >= 0 and max(us) < len(u_indices)
                   and min(vs) >= 0 and max(vs) < len(v_indices)):
        return "edge endpoint out of range"
    du, dv = Counter(us), Counter(vs)
    if any(du[k] != degrees[i] for k, i in enumerate(u_indices)):
        return "a u-vertex's edge count differs from its degree"
    if any(dv[k] != degrees[j] for k, j in enumerate(v_indices)):
        return "a v-vertex's edge count differs from its degree"
    return None


def check_decision(degrees, payload: dict) -> str | None:
    """Check a ``bdr decide`` JSON payload whose verdict is Bipartite."""
    if payload.get("verdict") != "Bipartite":
        return f"verdict {payload.get('verdict')!r} with exit code 0"
    split, edges = payload.get("split"), payload.get("realization")
    if split is None or edges is None:
        return "Bipartite verdict without a witness"
    return check_witness(degrees, split["u_indices"], split["v_indices"],
                         list(map(tuple, edges)))


def degree_multiset(u_count: int, v_count: int, edges) -> list[int] | None:
    """Sorted degrees of a bipartite edge set, or None if an edge is out of
    range."""
    us, vs = [u for u, _ in edges], [v for _, v in edges]
    if us and not (min(us) >= 0 and max(us) < u_count and min(vs) >= 0 and max(vs) < v_count):
        return None
    du, dv = Counter(us), Counter(vs)
    return sorted([du[i] for i in range(u_count)] + [dv[j] for j in range(v_count)])


def bigraphic(a, b) -> bool:
    """Gale-Ryser on two small lists, every k checked."""
    if sum(a) != sum(b):
        return False
    a = sorted(a, reverse=True)
    prefix = 0
    for k, d in enumerate(a, start=1):
        prefix += d
        if prefix > sum(min(k, x) for x in b):
            return False
    return True


def realizable(degrees) -> bool:
    """True iff some bipartition of ``degrees`` is bigraphic (small n only)."""
    n = len(degrees)
    if sum(degrees) % 2:
        return False
    if n == 0:
        return True
    # the last vertex is fixed on the V side; the mirror image is the same split
    for mask in range(1 << (n - 1)):
        u = [degrees[i] for i in range(n - 1) if mask >> i & 1]
        v = [degrees[i] for i in range(n - 1) if not mask >> i & 1] + [degrees[-1]]
        if bigraphic(u, v):
            return True
    return False


def check_reduce(source, c1: Fraction, c2: Fraction, payload: dict) -> str | None:
    """The padded sequence of ``bdr reduce`` must be in class and encode
    every source degree once, all under one common shift."""
    d_prime, roles = payload["d_prime"], payload["roles"]
    total = len(d_prime)
    if total != payload["n"] + sum(source) or len(roles) != total:
        return "padded length is not n + S"
    if sum(d_prime) % 2:
        return "padded degree sum is odd"
    if not all(c1 * total <= d <= c2 * total for d in d_prime):
        return "padded degree outside [c1*n', c2*n']"
    shifted = [(i, role["source_index"]) for i, role in enumerate(roles)
               if role["kind"] == "shifted"]
    if sorted(s for _, s in shifted) != list(range(len(source))):
        return "shifted roles do not cover the source once"
    if len({d_prime[i] - source[s] for i, s in shifted}) != 1:
        return "shifted entries do not share one shift"
    return None
