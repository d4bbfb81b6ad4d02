"""Helpers shared by the oracle tests; nothing in the package uses them."""

from plethy import (
    ZZ,
    ConsistencyError,
    LinearMap,
    ModuleElement,
    Sym,
    Tensor,
    Wedge,
    box,
    dim,
    pair_sort_key,
)
from plethy.conjecture import _Rows
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


def basis_image_oracle(ring, N: int, d: int, s: int, k: tuple) -> ModuleElement:
    """The per-label loop that iso.basis_image ran before phi was built from
    one box walk per wedge label: the image of (s, k) summed label by label,
    (i, s + |k| - N - |i|) for each i in box(k), each exponent checked."""
    total = s + sum(k) - N
    coeffs = {}
    for i in box(k):
        j = total - sum(i)
        if not 0 <= j <= d:
            raise ConsistencyError(
                f"Y-exponent {j} escaped 0..{d} at (s={s}, k={k}, i={i})"
            )
        coeffs[(i, j)] = ring.one
    return ModuleElement(Tensor(Wedge(N, Sym(d)), Sym(d)), ring, coeffs)


def kernel_basis_vector(hook, ring, pair) -> ModuleElement:
    """The kernel basis vector of a pair as a label-keyed element, one at
    each label of hook.kernel_support(pair): the oracle for the columns of
    hook.basis_matrix."""
    coeffs = {label: ring.one for label in hook.kernel_support(pair)}
    return ModuleElement(hook.ambient, ring, coeffs)


def phi_oracle(N: int, d: int) -> LinearMap:
    """phi over ZZ, one basis_image_oracle call per domain label."""
    domain = Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1)))
    ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
    return LinearMap.from_function(
        ZZ, domain, ambient, lambda label: basis_image_oracle(ZZ, N, d, *label)
    )


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


def packed_span_coordinates(p: int, U: LinearMap, vectors: list) -> list:
    """The packed algorithm that conjecture._span_coordinates replaced.

    The vectors are echelonized in packed _Rows, leading slot first, and a
    dependent one is a ValueError.  Each stored row b is unpacked by slot
    enumeration, S b = U b - b is eliminated against the echelon, and the
    steps taken are its coordinates; a nonzero remainder is the
    ConsistencyError of a span that S does not preserve."""
    rows = _Rows(p, dim(U.domain))
    for v in vectors:
        x = rows.reduce(rows.pack(v))
        if not x:
            raise ValueError("vectors are not linearly independent")
        rows.insert(x)
    index = {at: j for j, at in enumerate(rows.pivots)}
    coords = []
    for b in rows.pivots.values():
        if p == 2:
            items = {i: 1 for i in range(b.bit_length()) if b >> i & 1}.items()
        else:
            items = {i: c for i, c in enumerate(rows.slots(b)) if c}.items()
        image = U._add_image({i: -c for i, c in items}, items)
        x = rows.pack({i: r for i, c in image.items() if (r := c % p)})
        steps: list = []
        if _reduce_with_steps(rows, x, steps):
            raise ConsistencyError("span is not invariant under the unipotent")
        coords.append({index[at]: r for at, r in steps})
    return coords


def _reduce_with_steps(rows, x: int, steps: list) -> int:
    """rows.reduce(x), appending (bit offset, r) for each step that
    subtracts r times the pivot row at that offset."""
    pivots, p, w = rows.pivots, rows.p, rows.w
    top = x.bit_length()
    while top:
        at = (top - 1) & -w
        s = x >> at
        r = s % p
        if r:
            row = pivots.get(at)
            if row is None:
                return x
            x = x ^ row if p == 2 else x + (p - r) * row - ((s + p - r) << at)
            steps.append((at, r))
        else:
            x -= s << at
        top = x.bit_length()
    return x
