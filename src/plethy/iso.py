"""The explicit isomorphism onto the hook-shape kernel.

The domain is Sym(N-1) (x) Wedge(N+1, Sym(d+1)).  A domain basis vector is
labeled (s, k); its image is the sum, over the box of k (the product of the
gaps between consecutive entries), of the ambient canonical vectors labeled
(i, s + |k| - N - |i|).  All coefficients are one, so the matrix lives over
the integers and reduces to any ring.

Certificates produced here, over the kernel basis B, the coordinate map
K and the multiplication map mu of the hook space, all at construction and
one Y-degree block at a time:
  * mu phi = 0, checked column by column, exactly;
  * phi = B C for the coordinate matrix C = K phi, checked column by
    column, so C holds phi's coordinates in the kernel basis;
  * with rows sorted by the pair order and column m paired to the witness
    of pair m, C is lower unitriangular, hence has determinant one over
    the integers;
  * an exact integer inverse, with both round trips checked against the
    identity;
  * equivariance three ways: Lie generators over the integers, a one-
    parameter unipotent family over a polynomial ring (which certifies the
    statement over every coefficient ring at once), and unipotent checks
    over small prime fields that reach every unipotent;
  * the X/Y swap dualities and their sign law, over the integers.  The swap
    is the action of w = [[0, 1], [1, 0]], built by the same group-action
    code as the unipotents; det w = -1, and phi commutes with GL2 up to
    the twist det^N, so the two swaps agree through phi up to (-1)^N.

The map is one integer matrix, so each route keeps its arithmetic on
integers or on residues reduced once per entry.  Five design notes keep
the routes to the work their claims need:

  * structure: positions, not labels, one block at a time.  The N
    columns (s, k) that share a wedge label k share one walk of box(k):
    each member i gives its row pos(i) (d + 1) + t(i), with t(i) = |k| - N
    - |i|, so the rows are column k of psi: Wedge(N+1, Sym(d+1)) ->
    Wedge(N, Sym d) (x) Sym(d+1-N), k -> sum over box(k) of i (x) t(i), and
    column (s, k) of phi is those rows shifted by s.  The least and largest
    t(i) of each k are checked against 0..N-1, so a Y-exponent outside 0..d
    is still a ConsistencyError; basis_image is the per-label view of the
    same rows.  phi and C couple only equal Y-degrees, so the context holds
    psi, 1/N of phi's entries, and checks each block from the columns of
    its witnesses against the hook space's mu, B and K of that block:
    membership, coordinates, triangularity, the inverse and both round
    trips.  It keeps only the inverse; phi, C and the paired columns are
    views built whole on first read, for the equivariance routes and dump
    --what map|coords.  The block digests read each block's paired
    columns, from psi and the block's K, and nothing whole.  mu comes from
    the wedge insertion table and B from the kernel supports, so no
    structure map builds an element per label.

  * poly: the exponent is fixed by weight.  Every entry of the upper
    unipotent U(gamma) is c gamma^k, where k is the drop in Y-degree (the
    rise, for the transpose) and c the entry of U(1) over the integers, so
    U(gamma) = sum over k of gamma^k E_k with integer maps E_k.  A phi that
    maps Y-degree w to w - N only, checked entry by entry, sends the parts
    for different k to rows of different Y-degree, so phi U(1) = U(1) phi
    over ZZ is phi E_k = E_k phi for every k at once.  Only the Sym tables
    are built over Z[gamma], to check the rule where the action code
    makes it.
  * fp: generators.  Over GF(p), U(gamma) = U(1)^gamma, and U(1) with its
    transpose generates every unipotent, so two action pairs cover them all;
    for p > 2 one spot check at gamma = p - 1 cross-checks the group-action
    code.  Both generator pairs are still built over GF(p), but when the
    poly route has just found phi A = B phi over ZZ for U(1) or its
    transpose, and the GF(p) pair equals A and B reduced mod p entry by
    entry, the GF(p) comparison is skipped: reduction ZZ -> GF(p) is a ring
    map and the fp route's phi is phi reduced, so the reduced identity is
    the one the comparison would test.  Without such a record, or when any
    entry differs, the pair is compared directly; the spot check always is.
  * no certificate builds a whole product map.  Each commutation phi A =
    B phi, the swap's sign law included, is checked one domain column at a
    time, both sides summed raw into one dict keyed by basis position and
    dropped, and the first entry that stays nonzero once reduced ends the
    check.  The inverse round trips run one Y-degree block at a time, on
    positions local to the block.  Only the swaps' involutions still
    compose whole maps.
  * no unipotent route builds a tensor action whole.  Both spaces are
    tensor products, and group_action_map gives the action of g on one as
    a KroneckerMap of its factors' actions A (x) B, whose columns are
    built only when read.  _commutes applies it one factor at a time, as
    A (x) B = (A (x) 1)(1 (x) B): on the domain side phi(l' (x) B r) is
    summed once and reused for every left label l, and on the codomain
    side A (x) 1 goes first, equal positions merge, and the Sym table of B
    follows.  A route holds the factor actions only, the largest on
    Wedge(N+1, Sym(d+1)); the swaps, composed with themselves, are built.

Since phi is integral and k! E^(k) = E^k for the divided powers that make
up the unipotents, the Lie check already implies the polynomial identity;
the group routes add value by cross-checking separately written action
code.  Over GF(p) that cross-check is the entry-by-entry comparison of the
GF(p) generator actions with the integer ones, plus the spot check's direct
comparison at gamma = p - 1.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import prod

from . import tableaux
from .rings import (
    ZGAMMA,
    ZZ,
    ConsistencyError,
    PrimeField,
    Ring,
)
from .schur import hook_schur_space
from .spaces import (
    KroneckerMap,
    LinearMap,
    ModuleElement,
    Sym,
    Tensor,
    Wedge,
    _add_columns,
    _settled,
    basis,
    basis_index,
    dim,
    group_action_map,
    identity_map,
    lie_action_map,
)

# the X/Y swap w, of determinant -1
SWAP = ((0, 1), (1, 0))


def reversal_sign(R: int) -> int:
    """Sign of reversing R wedge factors: (-1)^(R(R-1)/2)."""
    if R < 0:
        raise ValueError(f"need R >= 0, got {R}")
    return -1 if R % 4 in (2, 3) else 1


def basis_image(ring: Ring, N: int, d: int, s: int, k: tuple) -> ModuleElement:
    """Image of the domain basis vector (s, k) in the ambient space: the
    rows of _image_rows for k, shifted by s.

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
    coeffs = {r + s: ring.one for r in _image_rows(N, d, k, s, s)}
    ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
    return ModuleElement.from_positions(ambient, ring, coeffs)


def _image_rows(N: int, d: int, k: tuple, s_lo: int, s_hi: int) -> list:
    """psi's column k on ambient positions: for each member i of box(k), in
    box order, the position of (i, t(i)) with t(i) = |k| - N - |i|, that is
    pos(i) (d + 1) + t(i).  Column (s, k) of phi is these rows shifted by s.

    The Y-exponent s + t(i) is checked to land in 0..d for every s in
    s_lo..s_hi; the least and largest t(i) decide it, and an escape names
    the first s and member at which it happens."""
    total = sum(k) - N
    members = list(tableaux._box(k))
    ts = [total - sum(i) for i in members]
    if ts and (min(ts) + s_lo < 0 or max(ts) + s_hi > d):
        for s in range(s_lo, s_hi + 1):
            for i, t in zip(members, ts):
                if not 0 <= s + t <= d:
                    raise ConsistencyError(
                        f"Y-exponent {s + t} escaped 0..{d} at (s={s}, k={k}, i={i})"
                    )
    pos = basis_index(Wedge(N, Sym(d)))
    return [pos[i] * (d + 1) + t for i, t in zip(members, ts)]


def _psi_columns(N: int, d: int) -> list:
    """psi's columns, the _image_rows of each wedge label k of Wedge(N+1,
    Sym(d+1)) in basis order, with every Y-exponent checked for s in
    0..N-1."""
    return [_image_rows(N, d, k, 0, N - 1) for k in basis(Wedge(N + 1, Sym(d + 1)))]


def _phi_columns(psi: list, N: int, ambient: Tensor):
    """The columns of phi in domain order, (s, k) with s outermost: column
    (s, k) is psi's column k shifted by s, so each box is walked once, for
    every s at once.  The keys are the ambient's own position ints, read
    from its basis index, so the map makes no int per entry."""
    keys = list(basis_index(ambient).values())
    for s in range(N):
        for col in psi:
            yield {keys[r + s]: 1 for r in col}


def triangular_witness(pair) -> tuple:
    """Domain label (s, k) whose image leads with the given pair."""
    tableaux._check_semistandard(*pair)
    return _witness(pair)


def _witness(pair) -> tuple:
    """triangular_witness of a semistandard pair."""
    alpha, k = tableaux._to_increasing(*pair)
    return alpha - 1, k


class IsoContext:
    """The map for one (N, d), with its triangular certificate, checked one
    Y-degree block at a time; phi, its coordinates and the paired columns
    are views built on first read."""

    def __init__(self, N: int, d: int):
        if N < 1 or d < 0:
            raise ValueError(f"bad (N, d) = ({N}, {d})")
        self.N = N
        self.d = d
        self.hook = hook = hook_schur_space(N, d)
        self.domain = Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1)))
        n = dim(self.domain)
        if n != len(hook.pairs):
            raise ConsistencyError(
                f"domain dimension {n} differs from pair count {len(hook.pairs)}"
            )
        # psi's columns, 1/N of phi's entries, kept for the view of phi:
        # column (s, k) of phi is column k shifted by s
        self._psi = _psi_columns(N, d)

        # witness pairing: column of pair m is the image of witness(pair m)
        self.witnesses = [_witness(p) for p in hook.pairs]
        if len(set(self.witnesses)) != n or set(self.witnesses) != set(
            basis(self.domain)
        ):
            raise ConsistencyError("witness labels do not biject onto the domain basis")
        dom_idx = basis_index(self.domain)
        self._witness_positions = [dom_idx[w] for w in self.witnesses]

        # one pass over the blocks, each with the hook space's mu, B and K
        # of its Y-degree: phi = B C with C = K phi and mu phi = 0 for each
        # witness's column, C unitriangular, then the block's inverse and
        # both round trips; of a block, only its inverse is kept
        self.diagonal = [0] * n
        self._pair_inverse: list | None = [None] * n
        for w, idxs in self.weight_blocks().items():
            maps = hook.mu_block(w), hook.basis_block(w), hook.coordinate_block(w)
            paired = {
                m: self._coordinates(label, col, w, *maps)
                for m, label, col in self._witness_columns(idxs)
            }
            self._check_unitriangular(paired)
            inv = _block_inverse(paired, idxs)
            if not _is_block_identity(paired, inv, idxs):
                raise ConsistencyError("inverse round trip failed on the pair side")
            if not _is_block_identity(inv, paired, idxs):
                raise ConsistencyError("inverse round trip failed on the domain side")
            for m in idxs:
                self._pair_inverse[m] = inv[m]
        self.columns_in_kernel = True
        self.unitriangular = True
        self.inverse_round_trip = True
        self._inverse = None

    # ------------------------------------------------------------ structure

    def _witness_columns(self, idxs):
        """(m, witness label, phi column) for each pair position m of one
        block: the witness (s, k)'s column is psi's column k shifted by s,
        keyed by ambient position."""
        k_pos = basis_index(self.domain.right)
        psi = self._psi
        for m in idxs:
            s, k = self.witnesses[m]
            yield m, (s, k), {r + s: 1 for r in psi[k_pos[k]]}

    def _coordinates(self, label, col: dict, w: int, mu, B, K) -> dict:
        """C's column K col of a domain label with phi column col, keyed by
        pair position, once mu col = 0 and B K col = col have held; mu, B
        and K are the hook space's maps of the Y-degree block w, and an
        entry of col or of K col outside it fails."""
        try:
            kernel = _add_columns({}, mu, col.items())
        except KeyError as exc:
            at = basis(self.hook.ambient)[exc.args[0]]
            raise ConsistencyError(
                f"image of {label} leaves the Y-degree block {w} at {at}"
            ) from None
        if any(kernel.values()):
            raise ConsistencyError(f"image of {label} is outside the kernel")
        coords = _settled(ZZ, _add_columns({}, K, col.items()))
        try:
            rebuilt = _add_columns({r: -c for r, c in col.items()}, B, coords.items())
        except KeyError as exc:
            at = self.hook.pairs[exc.args[0]]
            raise ConsistencyError(
                f"coordinates of {label} leave the Y-degree block {w} at {at}"
            ) from None
        if any(rebuilt.values()):
            raise ConsistencyError(
                f"image of {label} is not in the span of the kernel basis"
            )
        return coords

    def _check_unitriangular(self, paired: dict):
        """Column m of one block, keyed by pair position, has one at m and
        nothing above it; the diagonal entry is recorded."""
        for m, col in paired.items():
            self.diagonal[m] = col.get(m, 0)
            if self.diagonal[m] != 1:
                raise ConsistencyError(f"diagonal entry at position {m} is not one")
            if min(col) < m:
                raise ConsistencyError(
                    f"column {m} has support above the diagonal: not triangular"
                )

    @cached_property
    def matrix(self) -> LinearMap:
        """phi, whole, built on first read from psi's columns."""
        ambient = self.hook.ambient
        return LinearMap.from_positions(
            self.domain, ambient, ZZ, _phi_columns(self._psi, self.N, ambient)
        )

    @cached_property
    def coord_matrix(self) -> LinearMap:
        """C = K phi, whole, built on first read."""
        return self.hook.K.compose(self.matrix)

    @cached_property
    def paired_columns(self) -> list:
        """The coordinate columns with column m that of pair m's witness,
        keyed by pair position; built on first read."""
        cols = self.coord_matrix.pcols
        return [cols[j] for j in self._witness_positions]

    @property
    def determinant(self) -> int:
        """Product of the diagonal of the paired coordinate matrix."""
        return prod(self.diagonal)

    def weight_blocks(self) -> dict:
        """Pair positions grouped by Y-degree, ascending within each block:
        the hook space's pair_blocks, so callers must not modify it."""
        return self.hook.pair_blocks

    def weight_block_columns(self, w: int) -> dict:
        """The paired coordinate columns of the Y-degree block w, keyed by
        pair position: column m is K phi at pair m's witness, from psi and
        the hook space's K of that block, so no whole map is read."""
        K = self.hook.coordinate_block(w)
        idxs = self.weight_blocks().get(w, [])
        return {
            m: _settled(ZZ, _add_columns({}, K, col.items()))
            for m, _, col in self._witness_columns(idxs)
        }

    def weight_block_matrix(self, w: int):
        """Dense integer block of the paired coordinate matrix for one
        Y-degree: (row pairs, column witness labels, rows of entries)."""
        idxs = self.weight_blocks().get(w, [])
        cols = self.weight_block_columns(w)
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
        """Exact integer inverse of the coordinate matrix.  Construction
        solved it and checked both round trips one block at a time, keyed by
        pair position; the first call moves its rows to the domain positions
        of their witnesses, dropping each pair-keyed column as it is moved."""
        if self._inverse is None:
            cols, wpos = self._pair_inverse, self._witness_positions
            self._pair_inverse = None

            def moved():
                for m, x in enumerate(cols):
                    cols[m] = None
                    yield {wpos[c]: v for c, v in x.items()}

            self._inverse = LinearMap.from_positions(
                self.hook.coords, self.domain, ZZ, moved()
            )
        return self._inverse


def _block_inverse(paired: dict, idxs: list) -> dict:
    """The inverse columns of one unitriangular block, keyed by pair
    position, by sparse forward substitution on block-local positions.
    Solving against e_m visits the block's positions c >= m in ascending
    order.  There the pending sum for c is final: a nonzero one is kept as
    x[c] and scattered down the sparse column c, and one that cancelled to
    zero is skipped, so the scatter work is proportional to the nonzeros
    reached."""
    b = len(idxs)
    local = {m: k for k, m in enumerate(idxs)}
    try:
        below = [[(local[r], v) for r, v in paired[c].items() if r != c] for c in idxs]
    except KeyError:
        raise ConsistencyError("a column couples two Y-degrees") from None
    inv = {}
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
        inv[m] = x
    return inv


def _is_block_identity(left, right, idxs) -> bool:
    """Whether column m of left times right is e_m at every position m of
    one block.  Both hold integer columns keyed by pair position, and each
    column is read at its own pair position (a list or a dict of them will
    do), with column m of the product the sum over c of right[m][c] left[c];
    a paired column and an inverse column each stay inside their block, so
    one block is checked without the rest.  The sums run on block-local
    positions: left's columns are translated once per block, and an entry
    outside the block fails the check."""
    local = {m: k for k, m in enumerate(idxs)}
    try:
        cols = [[(local[r], u) for r, u in left[c].items()] for c in idxs]
        for k, m in enumerate(idxs):
            acc = [0] * len(idxs)
            for c, v in right[m].items():
                for r, u in cols[local[c]]:
                    acc[r] += v * u
            if acc[k] != 1:
                return False
            acc[k] = 0
            if any(acc):
                return False
    except KeyError:
        return False
    return True


@lru_cache(maxsize=1)
def iso_context(N: int, d: int) -> IsoContext:
    """Shared context for the last (N, d) asked for: a command certifies one
    point at a time, so one is held."""
    return IsoContext(N, d)


# ---------------------------------------------------------------- verification


def verify_structure(N: int, d: int) -> dict:
    """Isomorphism certificate: dimensions, kernel membership,
    unitriangularity and the inverse round trips (checked at construction),
    determinant, integral inverse.  The three checked claims report the
    flags their checks set."""
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
        isinstance(v, int) for col in inv.pcols for v in col.values()
    )
    report["inverse_round_trip"] = ctx.inverse_round_trip
    return report


def verify_lie_equivariance(N: int, d: int) -> dict:
    """Commutation with both Lie generators, whose matrices are integral,
    compared over the integers."""
    ctx = iso_context(N, d)
    phi = ctx.matrix
    return {
        f"commutes_with_{which}": _commutes(
            phi,
            lie_action_map(which, ctx.domain),
            lie_action_map(which, ctx.hook.ambient),
        )
        for which in ("e", "f")
    }


def _unipotent(ring: Ring, gamma, transpose: bool):
    if transpose:
        return ((ring.one, ring.zero), (gamma, ring.one))
    return ((ring.one, gamma), (ring.zero, ring.one))


def _commutes(phi: LinearMap, dom: LinearMap, amb: LinearMap) -> bool:
    """Whether phi dom == amb phi, for dom acting on phi's domain and amb on
    its codomain, checked one domain column at a time; no product map is
    built.  Column j of phi dom minus amb phi is summed raw into one dict,
    and the first column that keeps an entry once reduced ends the check.
    Each side is formed by the map's own method, so a tensor action, a
    KroneckerMap, is applied one factor at a time and never built whole.
    """
    if (
        dom.domain != phi.domain
        or dom.codomain != phi.domain
        or amb.domain != phi.codomain
        or amb.codomain != phi.codomain
        or not phi.ring == dom.ring == amb.ring
    ):
        raise ValueError("commutation mismatch")
    ring = phi.ring
    # the residues are reduced only up to the first nonzero one, and not at
    # all when reduce is the identity
    reduce = None if type(ring).reduce is Ring.reduce else ring.reduce
    rows = phi.pcols
    for j, acc in dom._columns_after(phi):
        amb._add_image(acc, ((row, -c) for row, c in rows[j].items()))
        if any(map(reduce, acc.values()) if reduce else acc.values()):
            return False
    return True


def _shifts_y_degree(phi: LinearMap, shift: int) -> bool:
    """Whether each column of phi of Y-degree w lands only on rows of
    Y-degree w - shift."""
    dom_ydeg = phi.domain.ydegree
    ydeg = [phi.codomain.ydegree(label) for label in basis(phi.codomain)]
    for label, col in zip(basis(phi.domain), phi.pcols):
        target = dom_ydeg(label) - shift
        if any(ydeg[row] != target for row in col):
            return False
    return True


def _sym_tables_are_monomial(spaces, transpose: bool) -> bool:
    """Whether every entry of the Z[gamma] action table of each Sym atom of
    the spaces is c gamma^k, with k its Y-degree drop (rise for the
    transpose) and c the same entry of the table of U(1) over ZZ."""
    g = _unipotent(ZGAMMA, ZGAMMA.gen(), transpose)
    g1 = _unipotent(ZZ, 1, transpose)
    sign = -1 if transpose else 1
    for atom in frozenset().union(*(space.sym_atoms() for space in spaces)):
        # a Sym label is its basis position
        polys = group_action_map(ZGAMMA, g, atom).pcols
        ints = group_action_map(ZZ, g1, atom).pcols
        for a, (pcol, icol) in enumerate(zip(polys, ints)):
            if pcol.keys() != icol.keys():
                return False
            for b, c in icol.items():
                k = sign * (a - b)
                if k < 0 or pcol[b].coeffs != (0,) * k + (c,):
                    return False
    return True


# The poly route's last integer comparison of phi with U(1), one slot per
# transpose: (phi, domain action, ambient action, result) over ZZ.  The fp
# route reads it in _passed_over_zz.  Every poly call clears both slots
# first, so they hold the maps of one point at most.  The record is not kept
# on the context: copies of a context (copy.copy) would share it, and the is
# check on phi is what keeps one copy from reading another copy's result.
_zz_unipotent_checks: dict = {}


def verify_group_equivariance_poly(N: int, d: int) -> dict:
    """Commutation with the generic unipotent and its transpose over the
    polynomial ring Z[gamma] in one variable.

    A polynomial identity in the matrix entries holds under every evaluation
    into every commutative ring, so this single check covers all fields at
    once, prime characteristic included.

    The exponent is fixed by weight (see the module notes), so the identity
    is phi E_dom_k = E_amb_k phi for every Y-degree change k, with U(1) =
    sum over k of E_k.  Once phi maps each Y-degree w to w - N only, the
    part at k of a column of phi U(1) - U(1) phi lands on rows of Y-degree
    w - N - k (w - N + k, for the transpose): different k never share a row,
    so the one comparison at gamma = 1 over the integers is the identity
    for every k.  Each key is the three checks together: the Sym tables over
    Z[gamma], from which the action code multiplies out every other entry,
    follow the rule; phi shifts Y-degree by N; and phi commutes with U(1),
    or its transpose, over ZZ.  Each comparison over ZZ that runs is
    recorded for the fp route to reuse.
    """
    ctx = iso_context(N, d)
    phi = ctx.matrix
    spaces = (ctx.domain, ctx.hook.ambient)
    homogeneous = _shifts_y_degree(phi, N)
    _zz_unipotent_checks.clear()
    out = {}
    for transpose, name in ((False, "upper"), (True, "lower")):
        ok = _sym_tables_are_monomial(spaces, transpose) and homogeneous
        if ok:
            g = _unipotent(ZZ, 1, transpose)
            dom = group_action_map(ZZ, g, ctx.domain)
            amb = group_action_map(ZZ, g, ctx.hook.ambient)
            ok = _commutes(phi, dom, amb)
            _zz_unipotent_checks[transpose] = (phi, dom, amb, ok)
        out[f"commutes_with_{name}_unipotent"] = ok
    return out


def _reduces_to(A: LinearMap, B: LinearMap) -> bool:
    """Whether B, a map over GF(p), is the integer map A reduced mod p.  A
    Kronecker map is compared factor by factor, so its columns are never
    built, and no reduced copy of A is made."""
    if A.domain != B.domain or A.codomain != B.codomain:
        return False
    if isinstance(A, KroneckerMap) or isinstance(B, KroneckerMap):
        return (
            type(A) is type(B)
            and _reduces_to(A.left, B.left)
            and _reduces_to(A.right, B.right)
        )
    p = B.ring.p
    return all(
        col_p == {r: m for r, v in col.items() if (m := v % p)}
        for col, col_p in zip(A.pcols, B.pcols)
    )


def _passed_over_zz(phi: LinearMap, transpose: bool, dom, amb) -> bool:
    """Whether the poly route's record shows phi dom_p == amb_p phi over
    GF(p) without a comparison: it compared this very phi (checked with
    is) with integer maps A and B, found phi A == B phi, and dom_p and amb_p
    are A and B reduced mod p.  Reducing that identity mod p is the
    identity over GF(p), since the fp route's phi is phi reduced."""
    record = _zz_unipotent_checks.get(transpose)
    if record is None:
        return False
    phi_zz, A, B, result = record
    return (
        phi_zz is phi and result and _reduces_to(A, dom) and _reduces_to(B, amb)
    )


def verify_group_equivariance_fp(N: int, d: int, p: int) -> dict:
    """Commutation with every unipotent over GF(p), plus unit determinant of
    the reduced coordinate matrix (bijectivity mod p).

    The route checks generators: over GF(p), U(gamma) = U(1)^gamma, so U(1)
    and its transpose generate every unipotent, and phi commutes with all of
    them once it commutes with those two.  For p > 2 one more element, the
    upper unipotent at gamma = p - 1, is checked as a cross-check on the
    group-action code; at p = 2 that element is U(1) itself.

    Every action pair is built over GF(p).  For U(1) and its transpose the
    comparison is skipped when the poly route has found phi A == B phi over
    ZZ for this phi, and the GF(p) actions equal A and B reduced mod p,
    entry by entry: reduction is a ring map, so the identity holds over
    GF(p) too.  Otherwise, and always at the spot check, phi is compared
    with the GF(p) pair directly, so the keys are the same either way.
    """
    ring = PrimeField(p)
    ctx = iso_context(N, d)
    phi = ctx.matrix_over(ring)
    elements = [(1, False), (1, True)] + ([(p - 1, False)] if p > 2 else [])
    ok = True
    for gamma, transpose in elements:
        if not ok:
            break
        g = _unipotent(ring, ring.from_int(gamma), transpose)
        dom = group_action_map(ring, g, ctx.domain)
        amb = group_action_map(ring, g, ctx.hook.ambient)
        ok = (
            gamma == 1 and _passed_over_zz(ctx.matrix, transpose, dom, amb)
        ) or _commutes(phi, dom, amb)
    return {
        "commutes_with_all_unipotents": ok,
        "determinant_unit_mod_p": prod(ctx.diagonal) % p == 1 % p,
    }


def verify_duality(N: int, d: int) -> dict:
    """The X/Y swaps, the actions of SWAP on both sides: involutivity,
    generator exchange, and the sign law tying the two swaps through the map.

    The sign is the s in (1, -1) with phi tau = s tau2 phi, compared with the
    product of the two reversal signs.  Both signs hold only when both sides
    are zero, the zero-dimensional corner, which carries no sign; none holds
    when the law fails, and then no sign is reported either.
    """
    ctx = iso_context(N, d)
    phi = ctx.matrix
    tau = group_action_map(ZZ, SWAP, ctx.domain)
    tau2 = group_action_map(ZZ, SWAP, ctx.hook.ambient)
    e_dom = lie_action_map("e", ctx.domain)
    f_dom = lie_action_map("f", ctx.domain)
    e_amb = lie_action_map("e", ctx.hook.ambient)
    f_amb = lie_action_map("f", ctx.hook.ambient)

    expected = reversal_sign(N) * reversal_sign(N + 1)
    signs = [
        s
        for s in (1, -1)
        if _commutes(phi, tau, tau2.map_entries(ZZ, lambda v: s * v))
    ]
    return {
        "domain_swap_involutive": tau.compose(tau) == identity_map(ZZ, ctx.domain),
        "codomain_swap_involutive": tau2.compose(tau2)
        == identity_map(ZZ, ctx.hook.ambient),
        "domain_swap_exchanges_e_f": _commutes(tau, f_dom, e_dom),
        "codomain_swap_exchanges_e_f": _commutes(tau2, e_amb, f_amb),
        "swap_law_sign": signs[0] if len(signs) == 1 else None,
        "swap_law_holds": bool(signs),
        "swap_law_sign_matches_reversal_signs": expected in signs,
    }


def gl2_scalar_exponents(N: int, d: int) -> tuple[int, int]:
    """Scalar matrices act on both sides by the same power: the domain's
    homogeneous degree versus the kernel's degree plus the twist 2N.  Only
    the two spaces are built, no context."""
    domain = Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1)))
    ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
    return domain.total_degree(), ambient.total_degree() + 2 * N
