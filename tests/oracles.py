"""Helpers shared by the oracle tests; nothing in the package uses them."""

from plethy import ZZ, LinearMap


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
