"""Helpers shared by the oracle tests; nothing in the package uses them."""

from plethy import ZZ, LinearMap, pair_sort_key
from plethy.tableaux import Pair, is_increasing


def gamma_coefficients(A: LinearMap) -> dict:
    """The integer maps E_k with A = sum over k of gamma^k E_k, for a map A
    over Z[gamma]; only the k that occur are keys."""
    n = len(A.cols)
    parts: dict = {}
    for j, col in enumerate(A.cols):
        for label, poly in col.items():
            for k, c in enumerate(poly.coeffs):
                if c:
                    cols = parts.get(k)
                    if cols is None:
                        cols = parts[k] = [{} for _ in range(n)]
                    cols[j][label] = c
    return {
        k: LinearMap(A.domain, A.codomain, ZZ, parts[k]) for k in sorted(parts)
    }


def pair_precedes(p: Pair, q: Pair) -> bool:
    """Strict total order on semistandard pairs of one (N, d)."""
    return pair_sort_key(p) < pair_sort_key(q)


def increasing_to_pair(alpha: int, k: tuple[int, ...]) -> Pair:
    """Inverse of pair_to_increasing for the slice at alpha."""
    if not is_increasing(k):
        raise ValueError(f"need a strictly increasing tuple, got {k}")
    if not 1 <= alpha <= len(k) - 1:
        raise ValueError(f"alpha {alpha} out of range for length {len(k)}")
    i = k[:alpha] + tuple(v - 1 for v in k[alpha + 1 :])
    j = k[alpha] - 1
    return i, j
