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


def _unpruned_splits(degrees):
    """The U indices, zeros left out, of every equal-sum split in the order
    of the unpruned walk: the nonzero indices in increasing order, the first
    one fixed on U, include before exclude, depth first, a split yielded as
    soon as its U side reaches sigma/2.  Every subtree is entered unless its
    remainder exceeds what the items after it sum to."""
    sigma = sum(degrees)
    if sigma % 2:
        return
    target = sigma // 2
    nz = [i for i, d in enumerate(degrees) if d > 0]
    if not nz:
        yield ()
        return
    suffix = [0] * (len(nz) + 1)
    for i in range(len(nz) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + degrees[nz[i]]
    stack = [(1, target - degrees[nz[0]], (nz[0],))]
    if stack[0][1] < 0:
        return
    while stack:
        pos, rem, chosen = stack.pop()
        if rem == 0:
            yield chosen
            continue
        if pos >= len(nz) or rem > suffix[pos]:
            continue
        stack.append((pos + 1, rem, chosen))
        d = degrees[nz[pos]]
        if d <= rem:
            stack.append((pos + 1, rem - d, chosen + (nz[pos],)))


@pytest.fixture(scope="session")
def unpruned_splits():
    """``unpruned_splits(degrees)``: the reference split walk, unpruned."""
    return _unpruned_splits
