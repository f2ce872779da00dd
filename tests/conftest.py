import pytest


def _degree_multisets(n):
    """Sorted degree tuples of all labeled simple graphs on n vertices.

    The vertices are taken one at a time; the first joins each subset of
    the others, then its degree is final.  A state is (sorted final
    degrees, sorted partial degrees of the untouched vertices): the untouched
    vertices are interchangeable, since every graph on them is still to come.
    """
    states = {((), (0,) * n)}
    for _ in range(n):
        following = set()
        for done, waiting in states:
            first, rest = waiting[0], waiting[1:]
            for mask in range(1 << len(rest)):
                joined = [d + (mask >> i & 1) for i, d in enumerate(rest)]
                final = first + sum(joined) - sum(rest)
                following.add((tuple(sorted(done + (final,))), tuple(sorted(joined))))
        states = following
    return {done for done, _ in states}


@pytest.fixture(scope="session")
def graphic_multisets():
    """``graphic_multisets(n)``: the degree multisets, sorted ascending, of
    all labeled simple graphs on n vertices, found by enumerating graphs."""
    return _degree_multisets


@pytest.fixture(scope="session")
def graphic_multisets_7(graphic_multisets):
    """Degree multisets of all labeled simple graphs on 7 vertices; sequences
    of length < 7 are looked up after zero-padding (isolated vertices are
    free)."""
    return graphic_multisets(7)
