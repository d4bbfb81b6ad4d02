"""The explicit isomorphism onto the hook-shape kernel.

The domain is Sym(N-1) (x) Wedge(N+1, Sym(d+1)).  A domain basis vector is
labeled (s, k); its image is the sum, over the box of k (the product of the
gaps between consecutive entries), of the ambient canonical vectors labeled
(i, s + |k| - N - |i|).  All coefficients are one, so the matrix lives over
the integers and reduces to any ring.

Certificates produced here:
  * every column lands in the kernel of the multiplication map, exactly;
  * in kernel-basis coordinates, with rows sorted by the pair order and
    column m paired to the witness of pair m, the matrix is lower
    unitriangular, hence has determinant one over the integers;
  * an exact integer inverse, verified by round-trip composition;
  * equivariance three ways: Lie generators over the integers, a one-
    parameter unipotent family over a polynomial ring (which certifies the
    statement over every coefficient ring at once), and exhaustive unipotent
    checks over small prime fields;
  * the X/Y swap dualities and their sign law, over the integers.  The swap
    is the action of w = [[0, 1], [1, 0]], built by the same group-action
    code as the unipotents; det w = -1, and phi commutes with GL2 up to
    the twist det^N, so the two swaps agree through phi up to (-1)^N.

The map is one integer matrix, so each route keeps its arithmetic on
integers or on residues reduced once per entry.  The polynomial route
builds its unipotent actions over Z[gamma] and compares the identity
gamma-coefficient by gamma-coefficient, as integer matrices.  Since phi is
integral and k! E^(k) = E^k for the divided powers that make up the
unipotents, the Lie check already implies the polynomial identity; the
group routes add value by cross-checking separately written action code.
"""

from __future__ import annotations

from functools import cache
from math import prod

from . import tableaux
from .rings import (
    ZGAMMA,
    ZZ,
    ConsistencyError,
    PrimeField,
    Ring,
)
from .schur import HookSchurSpace, hook_schur_space
from .spaces import (
    LinearMap,
    ModuleElement,
    Sym,
    Tensor,
    Wedge,
    basis,
    basis_index,
    dim,
    group_action_map,
    identity_map,
    lie_action_map,
    multiplication_map,
)

# the X/Y swap w, of determinant -1
SWAP = ((0, 1), (1, 0))


def reversal_sign(R: int) -> int:
    """Sign of reversing R wedge factors: (-1)^(R(R-1)/2)."""
    if R < 0:
        raise ValueError(f"need R >= 0, got {R}")
    return -1 if R % 4 in (2, 3) else 1


def basis_image(ring: Ring, N: int, d: int, s: int, k: tuple) -> ModuleElement:
    """Image of the domain basis vector (s, k) in the ambient space.

    The Y-exponent attached to each box member i is s + |k| - N - |i|; it
    always lands in {0, ..., d}, and a violation would falsify the
    construction, so it is checked, not clamped.
    """
    if not 0 <= s <= N - 1:
        raise ValueError(f"s = {s} out of range for N = {N}")
    if len(k) != N + 1 or not tableaux.is_increasing(k):
        raise ValueError(f"k = {k} is not strictly increasing of length {N + 1}")
    if k[0] < 0 or k[-1] > d + 1:
        raise ValueError(f"k = {k} out of range 0..{d + 1}")
    hook = hook_schur_space(N, d)
    total = s + sum(k) - N
    coeffs = {}
    for i in tableaux.box(k):
        j = total - sum(i)
        if not 0 <= j <= d:
            raise ConsistencyError(
                f"Y-exponent {j} escaped 0..{d} at (s={s}, k={k}, i={i})"
            )
        coeffs[(i, j)] = ring.one
    return ModuleElement(hook.ambient, ring, coeffs)


def triangular_witness(pair) -> tuple:
    """Domain label (s, k) whose image leads with the given pair."""
    alpha, k = tableaux.pair_to_increasing(*pair)
    return alpha - 1, k


class IsoContext:
    """The map for one (N, d), with its triangular certificate."""

    def __init__(self, N: int, d: int):
        if N < 1 or d < 0:
            raise ValueError(f"bad (N, d) = ({N}, {d})")
        self.N = N
        self.d = d
        self.hook: HookSchurSpace = hook_schur_space(N, d)
        self.domain = Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1)))
        n = dim(self.domain)
        if n != len(self.hook.pairs):
            raise ConsistencyError(
                f"domain dimension {n} differs from pair count {len(self.hook.pairs)}"
            )

        mu = multiplication_map(ZZ, N, d)
        self.matrix = LinearMap.from_function(
            ZZ, self.domain, self.hook.ambient, lambda lab: basis_image(ZZ, N, d, *lab)
        )
        coord_cols = []
        for label, col in zip(basis(self.domain), self.matrix.cols):
            img = ModuleElement(self.hook.ambient, ZZ, col)
            if not mu.apply(img).is_zero():
                raise ConsistencyError(f"image of {label} is outside the kernel")
            coord_cols.append(self.hook.coordinates(img).coeffs)
        self.columns_in_kernel = True
        self.coord_matrix = LinearMap(self.domain, self.hook.coords, ZZ, coord_cols)

        # witness pairing: column of pair m is the image of witness(pair m)
        self.witnesses = [triangular_witness(p) for p in self.hook.pairs]
        if len(set(self.witnesses)) != n or set(self.witnesses) != set(
            basis(self.domain)
        ):
            raise ConsistencyError("witness labels do not biject onto the domain basis")
        # built once and read by every check, the inverse and the digests
        self.paired_columns = self._paired_columns()
        self.diagonal = [col.get(m, 0) for m, col in enumerate(self.paired_columns)]
        self._blocks: dict = {}
        for m, pair in enumerate(self.hook.pairs):
            self._blocks.setdefault(self.hook.coords.ydegree(pair), []).append(m)
        self._check_unitriangular()
        self.unitriangular = True
        self.inverse_round_trip = False  # set by inverse() once both trips pass
        self._inverse = None

    # ------------------------------------------------------------ structure

    def _paired_columns(self):
        """Coordinate columns reordered so column m belongs to pair m,
        keyed by pair position.  Construction stores the result as
        paired_columns, which everything else reads."""
        pos = self.hook.pair_index
        dom_idx = basis_index(self.domain)
        out = []
        for w in self.witnesses:
            col = self.coord_matrix.cols[dom_idx[w]]
            out.append({pos[p]: v for p, v in col.items()})
        return out

    def _check_unitriangular(self):
        for m, (col, diag) in enumerate(zip(self.paired_columns, self.diagonal)):
            if diag != 1:
                raise ConsistencyError(f"diagonal entry at position {m} is not one")
            if min(col) < m:
                raise ConsistencyError(
                    f"column {m} has support above the diagonal: not triangular"
                )

    @property
    def determinant(self) -> int:
        """Product of the diagonal of the paired coordinate matrix."""
        return prod(self.diagonal)

    def weight_blocks(self) -> dict:
        """Pair positions grouped by Y-degree, ascending within each block;
        built once with the context, so callers must not modify it."""
        return self._blocks

    def weight_block_matrix(self, w: int):
        """Dense integer block of the paired coordinate matrix for one
        Y-degree: (row pairs, column witness labels, rows of entries)."""
        idxs = self.weight_blocks().get(w, [])
        cols = self.paired_columns
        rows = [[cols[c].get(r, 0) for c in idxs] for r in idxs]
        return (
            [self.hook.pairs[m] for m in idxs],
            [self.witnesses[m] for m in idxs],
            rows,
        )

    def matrix_over(self, ring: Ring) -> LinearMap:
        return self.matrix.map_entries(ring, ring.from_int)

    def coord_matrix_over(self, ring: Ring) -> LinearMap:
        return self.coord_matrix.map_entries(ring, ring.from_int)

    # --------------------------------------------------------------- inverse

    def inverse(self) -> LinearMap:
        """Exact integer inverse of the coordinate matrix.

        Unitriangularity makes the inverse integral; the matrix only couples
        equal Y-degrees, so substitution runs block by block, on block-local
        positions.  Solving against e_m visits the block's positions c >= m in
        ascending order.  There the pending sum for c is final: a nonzero one
        is kept as x[c] and scattered down the sparse column c, and one that
        cancelled to zero is skipped, so the scatter work is proportional to
        the nonzeros reached.  Both round trips are composed and compared to
        the identity before anything is returned.
        """
        if self._inverse is not None:
            return self._inverse
        paired = self.paired_columns
        inv_cols_by_pos: list = [None] * len(paired)
        for idxs in self.weight_blocks().values():
            b = len(idxs)
            local = {m: k for k, m in enumerate(idxs)}
            try:
                below = [
                    [(local[r], v) for r, v in paired[c].items() if r != c]
                    for c in idxs
                ]
            except KeyError:
                raise ConsistencyError("a column couples two Y-degrees") from None
            for i, m in enumerate(idxs):
                pending = [0] * b
                pending[i] = 1
                x = {}
                for k in range(i, b):
                    xc = pending[k]
                    if not xc:
                        continue
                    x[idxs[k]] = xc
                    for r, v in below[k]:
                        pending[r] -= v * xc
                inv_cols_by_pos[m] = x
        cols = [
            {self.witnesses[c]: val for c, val in x.items()} for x in inv_cols_by_pos
        ]
        inv = LinearMap(self.hook.coords, self.domain, ZZ, cols)
        if self.coord_matrix.compose(inv) != identity_map(ZZ, self.hook.coords):
            raise ConsistencyError("inverse round trip failed on the pair side")
        if inv.compose(self.coord_matrix) != identity_map(ZZ, self.domain):
            raise ConsistencyError("inverse round trip failed on the domain side")
        self.inverse_round_trip = True
        self._inverse = inv
        return inv


@cache
def iso_context(N: int, d: int) -> IsoContext:
    return IsoContext(N, d)


# ---------------------------------------------------------------- verification


def verify_structure(N: int, d: int) -> dict:
    """Isomorphism certificate: dimensions, kernel membership and
    unitriangularity (checked at construction), determinant, inverse round
    trip.  The three checked claims report the flags their checks set."""
    ctx = iso_context(N, d)
    report = {
        "dims_equal": dim(ctx.domain) == len(ctx.hook.pairs),
        "dim_formula": len(ctx.hook.pairs)
        == tableaux.count_hook_tableaux(N, d),
        "columns_in_kernel": ctx.columns_in_kernel,
        "unitriangular": ctx.unitriangular,
        "determinant_one": ctx.determinant == 1,
    }
    inv = ctx.inverse()
    report["inverse_integral"] = all(
        isinstance(v, int) for col in inv.cols for v in col.values()
    )
    report["inverse_round_trip"] = ctx.inverse_round_trip
    return report


def verify_lie_equivariance(N: int, d: int) -> dict:
    """Commutation with both Lie generators, whose matrices are integral,
    compared over the integers."""
    ctx = iso_context(N, d)
    phi = ctx.matrix
    out = {}
    for which in ("e", "f"):
        dom = lie_action_map(which, ctx.domain)
        amb = lie_action_map(which, ctx.hook.ambient)
        out[f"commutes_with_{which}"] = phi.compose(dom) == amb.compose(phi)
    return out


def _unipotent(ring: Ring, gamma, transpose: bool):
    if transpose:
        return ((ring.one, ring.zero), (gamma, ring.one))
    return ((ring.one, gamma), (ring.zero, ring.one))


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


def verify_group_equivariance_poly(N: int, d: int) -> dict:
    """Commutation with the generic unipotent and its transpose over the
    polynomial ring in one variable.

    A polynomial identity in the matrix entries holds under every evaluation
    into every commutative ring, so this single check covers all fields at
    once, prime characteristic included.  Both actions are built over
    Z[gamma]; since phi is integral, phi U_dom(gamma) = U_amb(gamma) phi
    holds exactly when phi E_dom_k = E_amb_k phi over the integers for every
    gamma-degree k, an absent side being the zero map.
    """
    ring = ZGAMMA
    ctx = iso_context(N, d)
    phi = ctx.matrix
    gamma = ring.gen()
    zero = LinearMap(ctx.domain, ctx.hook.ambient, ZZ, [{} for _ in phi.cols])
    out = {}
    for transpose, name in ((False, "upper"), (True, "lower")):
        g = _unipotent(ring, gamma, transpose)
        dom = gamma_coefficients(group_action_map(ring, g, ctx.domain))
        amb = gamma_coefficients(group_action_map(ring, g, ctx.hook.ambient))
        out[f"commutes_with_{name}_unipotent"] = all(
            (phi.compose(dom[k]) if k in dom else zero)
            == (amb[k].compose(phi) if k in amb else zero)
            for k in sorted(dom.keys() | amb.keys())
        )
    return out


def verify_group_equivariance_fp(N: int, d: int, p: int) -> dict:
    """Exhaustive unipotent checks over GF(p), plus unit determinant of the
    reduced coordinate matrix (bijectivity mod p)."""
    ring = PrimeField(p)
    ctx = iso_context(N, d)
    phi = ctx.matrix_over(ring)
    ok = True
    for gamma in range(p):
        for transpose in (False, True):
            g = _unipotent(ring, ring.from_int(gamma), transpose)
            dom = group_action_map(ring, g, ctx.domain)
            amb = group_action_map(ring, g, ctx.hook.ambient)
            if phi.compose(dom) != amb.compose(phi):
                ok = False
    return {
        "commutes_with_all_unipotents": ok,
        "determinant_unit_mod_p": prod(ctx.diagonal) % p == 1 % p,
    }


def verify_duality(N: int, d: int) -> dict:
    """The X/Y swaps, the actions of SWAP on both sides: involutivity,
    generator exchange, and the sign law tying the two swaps through the map.

    The sign is measured from the matrices, then compared with the product
    of the two reversal signs.
    """
    ctx = iso_context(N, d)
    phi = ctx.matrix
    tau = group_action_map(ZZ, SWAP, ctx.domain)
    tau2 = group_action_map(ZZ, SWAP, ctx.hook.ambient)
    e_dom = lie_action_map("e", ctx.domain)
    f_dom = lie_action_map("f", ctx.domain)
    e_amb = lie_action_map("e", ctx.hook.ambient)
    f_amb = lie_action_map("f", ctx.hook.ambient)

    lhs = tau2.compose(phi)
    rhs = phi.compose(tau)
    sign = _measure_sign(lhs, rhs)
    expected = reversal_sign(N) * reversal_sign(N + 1)
    vacuous = lhs.is_zero() and rhs.is_zero()  # zero-dimensional corner
    return {
        "domain_swap_involutive": tau.compose(tau) == identity_map(ZZ, ctx.domain),
        "codomain_swap_involutive": tau2.compose(tau2)
        == identity_map(ZZ, ctx.hook.ambient),
        "domain_swap_exchanges_e_f": e_dom.compose(tau) == tau.compose(f_dom),
        "codomain_swap_exchanges_e_f": tau2.compose(e_amb) == f_amb.compose(tau2),
        "swap_law_sign": sign,
        "swap_law_holds": vacuous
        or (sign is not None and lhs == rhs.map_entries(ZZ, lambda v: sign * v)),
        "swap_law_sign_matches_reversal_signs": vacuous or sign == expected,
    }


def _measure_sign(lhs: LinearMap, rhs: LinearMap):
    """The scalar in {+1, -1} with lhs == sign * rhs, read off the first
    nonzero column; None when no column determines it or none exists."""
    for a, b in zip(lhs.cols, rhs.cols):
        if a and not b or b and not a:
            return None
        if not a:
            continue
        label, val = next(iter(a.items()))
        other = b.get(label)
        if other is None:
            return None
        return 1 if val == other else -1 if val == -other else None
    return None  # zero maps carry no sign information


def gl2_scalar_exponents(N: int, d: int) -> tuple[int, int]:
    """Scalar matrices act on both sides by the same power: the domain's
    homogeneous degree versus the kernel's degree plus the twist 2N."""
    ctx = iso_context(N, d)
    return ctx.domain.total_degree(), ctx.hook.ambient.total_degree() + 2 * N
