"""Combinatorics of strictly increasing index tuples and semistandard pairs.

A pair (i, j) consists of a strictly increasing tuple i of length N with
entries in {0, ..., d} and a single entry j in the same range.  The pair is
semistandard when i[0] <= j; these label a basis of the hook-shape kernel
space built in plethy.schur.  The content of a pair is the multiset of all
N + 1 entries, kept as a sorted tuple.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right

from .rings import ConsistencyError, binomial

Pair = tuple[tuple[int, ...], int]


def increasing_tuples(top: int, length: int) -> list[tuple[int, ...]]:
    """Strictly increasing tuples of the given length with entries in
    {0, ..., top}, in lexicographic order."""
    if length < 0 or top < -1:
        raise ValueError(f"bad enumeration bounds ({top}, {length})")
    return list(itertools.combinations(range(top + 1), length))


def is_increasing(i: tuple[int, ...]) -> bool:
    return all(a < b for a, b in zip(i, i[1:]))


def is_semistandard(i: tuple[int, ...], j: int) -> bool:
    return is_increasing(i) and bool(i) and i[0] <= j


def content(i: tuple[int, ...], j: int) -> tuple[int, ...]:
    return tuple(sorted(i + (j,)))


def pair_alpha(i: tuple[int, ...], j: int) -> int:
    """Largest 1-based position alpha with i[alpha] <= j.

    Defined exactly for semistandard pairs; drives both the neighbour map
    and the triangular column pairing.
    """
    _check_semistandard(i, j)
    return _alpha(i, j)


# The structure of a point reads only pairs that semistandard_pairs or a
# content chain made, and wedge labels of a basis, so it takes the helpers
# below, which skip the checks that the public functions make.


def _check_semistandard(i: tuple[int, ...], j: int) -> None:
    if not is_semistandard(i, j):
        raise ValueError(f"pair ({i}, {j}) is not semistandard")


def _alpha(i: tuple[int, ...], j: int) -> int:
    """pair_alpha of a semistandard pair: i is increasing, so the entries
    not exceeding j are its first alpha."""
    return bisect_right(i, j)


def _neighbour(i: tuple[int, ...], j: int) -> Pair:
    """neighbour of a semistandard pair."""
    alpha = _alpha(i, j)
    return i[: alpha - 1] + (j,) + i[alpha:], i[alpha - 1]


def _to_increasing(i: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]]:
    """pair_to_increasing of a semistandard pair, whose k is increasing."""
    alpha = _alpha(i, j)
    return alpha, i[:alpha] + (j + 1,) + tuple(v + 1 for v in i[alpha:])


def _box(k: tuple[int, ...]):
    """box of a strictly increasing k."""
    return itertools.product(*(range(k[a], k[a + 1]) for a in range(len(k) - 1)))


def neighbour(i: tuple[int, ...], j: int) -> Pair:
    """Swap j with the rightmost entry of i not exceeding it.

    Fixed points are exactly the pairs with j appearing in i.  Iterating
    from the pair with maximal second entry walks the full chain of
    semistandard pairs sharing one content; the walk leaves semistandard
    territory after N steps.
    """
    _check_semistandard(i, j)
    return _neighbour(i, j)


def content_chain(values) -> list[Pair]:
    """All semistandard pairs with content a set of N + 1 distinct values,
    ordered by strictly decreasing second entry."""
    vals = tuple(sorted(values))
    if len(set(vals)) != len(vals):
        raise ValueError(f"chain needs distinct values, got {values}")
    if len(vals) < 2:
        raise ValueError("chain needs at least two values")
    pair: Pair = (vals[:-1], vals[-1])
    out = [pair]
    for _ in range(len(vals) - 2):
        pair = _neighbour(*pair)
        out.append(pair)
    seconds = [j for _, j in out]
    if seconds != sorted(set(seconds), reverse=True):
        raise ConsistencyError(f"chain of {values} is not strictly decreasing in j")
    return out


def box(k: tuple[int, ...]):
    """Product of the integer intervals [k[a], k[a+1]), odometer order.

    Every member is automatically strictly increasing: each coordinate is
    capped strictly below the floor of the next interval.  k itself must be
    strictly increasing so the intervals are nonempty and ordered.
    """
    if not is_increasing(k):
        raise ValueError(f"box needs a strictly increasing tuple, got {k}")
    return _box(k)


def pair_sort_key(pair: Pair):
    """Key for the total order: content lexicographically, then larger
    second entry first."""
    i, j = pair
    return content(i, j), -j


def semistandard_pairs(N: int, d: int) -> list[Pair]:
    """All semistandard pairs for (N, d), sorted by pair_sort_key."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    out = [
        (i, j)
        for i in increasing_tuples(d, N)
        for j in range(i[0], d + 1)
    ]
    out.sort(key=pair_sort_key)
    return out


def count_hook_tableaux(N: int, d: int) -> int:
    """Closed count of semistandard pairs: N * C(d+2, N+1).

    Proved by splitting on alpha and applying pair_to_increasing, which
    identifies each slice with the strictly increasing (N+1)-tuples in
    {0, ..., d+1}.
    """
    return N * binomial(d + 2, N + 1)


def pair_to_increasing(i: tuple[int, ...], j: int) -> tuple[int, tuple[int, ...]]:
    """Map a semistandard pair to (alpha, k): insert j + 1 after position
    alpha and shift the tail up by one."""
    _check_semistandard(i, j)
    alpha, k = _to_increasing(i, j)
    if not is_increasing(k):
        raise ConsistencyError(f"pair ({i}, {j}) gave {k}, not increasing")
    return alpha, k
