"""Graded dimensions as polynomials in q.

The q-character of a space counts basis vectors by Y-degree.  The same
quantities come out of three unrelated code paths: the Gaussian-binomial
recurrence, direct tableau enumeration, and basis enumeration of the
constructed spaces; the verification functions cross these paths against
each other.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache

from .rings import IntPoly, binomial
from .spaces import PairCoords, Space, Sym, Tensor, Wedge, basis


def qpoly(coeffs) -> IntPoly:
    return IntPoly(coeffs, "q")


def _count_qpoly(degrees) -> IntPoly:
    """Sum of q^w over an iterable of degrees w: the last step of every
    graded count here."""
    counts = Counter(degrees)
    out = [0] * (max(counts, default=-1) + 1)
    for w, n in counts.items():
        out[w] = n
    return qpoly(out)


def q_integer(n: int) -> IntPoly:
    """1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return qpoly((1,) * n)


@cache
def gaussian_binomial(a: int, b: int) -> IntPoly:
    """q-binomial coefficient by the Pascal recurrence
    [a, b] = [a-1, b-1] + q^b [a-1, b]."""
    if a < 0 or b < 0:
        raise ValueError(f"need nonnegative arguments, got ({a}, {b})")
    if b > a:
        return qpoly(())
    if b == 0:
        return qpoly((1,))
    return gaussian_binomial(a - 1, b - 1) + gaussian_binomial(a - 1, b).shift(b)


def qchar(space: Space) -> IntPoly:
    """Sum of q^(Y-degree) over the basis."""
    return _count_qpoly(map(space.ydegree, basis(space)))


def hook_schur_polynomial(M: int, N: int, d: int) -> IntPoly:
    """Principal specialization of the hook Schur polynomial by tableau
    enumeration: a strictly increasing column of length N, then a weakly
    increasing row tail of length M - 1 bounded below by the column top."""
    if M < 1 or N < 1 or d < 0:
        raise ValueError(f"bad (M, N, d) = ({M}, {N}, {d})")
    return _count_qpoly(
        sum(col) + sum(tail)
        for col in itertools.combinations(range(d + 1), N)
        for tail in itertools.combinations_with_replacement(range(col[0], d + 1), M - 1)
    )


def verify_qchar_identity(N: int, d: int) -> dict:
    """Cross-check every graded dimension identity at one (N, d).

    Recurrence-based polynomials on one side, enumeration on the other;
    also balances the q-characters of the map's two sides up to the q^N
    twist."""
    if N < 1 or d < 0:
        raise ValueError(f"bad (N, d) = ({N}, {d})")
    target = gaussian_binomial(d + 2, N + 1)
    hook_closed = (q_integer(N) * target).shift(N * (N - 1) // 2)
    hook_tableaux = hook_schur_polynomial(2, N, d)
    wedge_closed = target.shift((N + 1) * N // 2)
    wedge_enum = qchar(Wedge(N + 1, Sym(d + 1)))
    wedge_tableaux = hook_schur_polynomial(1, N + 1, d + 1)
    domain_q = qchar(Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1))))
    pairs_q = qchar(PairCoords(N, d))
    return {
        "hook_identity": hook_closed == hook_tableaux,
        "wedge_identity": wedge_closed == wedge_enum == wedge_tableaux,
        "sides_balance": domain_q == pairs_q.shift(N),
        "pairs_match_tableaux": pairs_q == hook_tableaux,
        "dimension_at_one": hook_closed(1) == N * binomial(d + 2, N + 1),
        "hook_qchar": str(hook_closed),
        "wedge_qchar": str(wedge_closed),
    }
