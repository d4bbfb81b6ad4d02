"""The hook-shape Schur space: kernel of the multiplication map.

For parameters (N, d) the ambient space is Wedge(N, Sym(d)) (x) Sym(d) and
the multiplication map mu appends the loose factor to the wedge.  Its
kernel carries a distinguished basis indexed by semistandard pairs: the
vector of a pair (i, j) is the ambient basis vector labeled (i, j), plus
the one labeled by the neighbour pair whenever j does not occur in i.  Both
coefficients are one, so the basis matrix B is an integer map.

Coordinates in that basis are one integer map K: ambient -> pair
coordinates, a left inverse of B read off the content chains.  Along a
chain p_0, ..., p_(N-1) the basis vectors overlap in single labels, so the
coordinate of p_t is the alternating sum of the entries at p_t, ..., p_0:
K[p_t, p_s] = (-1)^(t-s) for s <= t.  The chain's terminal label gets a
zero column and a fixed pair, j in i, its own entry.  An element v lies in
the kernel span exactly when B K v = v, which is checked over every ring.

mu, B and K couple only equal Y-degrees: the Y-degree of an ambient label
(i, j) is |i| + j, that of a pair is the sum of its content, and mu keeps
the sum of the factors.  So the space keeps the pair and ambient positions
of each Y-degree, and builds each map one Y-degree block at a time, as
columns keyed by position: mu from the insertion-table row of each ambient
label of the block, B from the kernel supports of its pairs, and K from
the content chains whose content sums to the block's degree, with the
fixed pairs.  The whole maps are views built on first read.

Construction self-verifies, block by block: the pair count matches the
closed formula, and then at each Y-degree w, over the integers, mu B_w = 0
column by column with each column of B_w and each row of mu_w inside the
block, and over the rationals rank B_w = n_w and dim amb_w - rank mu_w =
n_w, with n_w the pairs of degree w.  Every entry stays in its block, so
B and mu are block diagonal, and the whole statements, linear independence
and spanning of the kernel, are the sums of the blocks' ones.  A failure
names its block, and its pair where there is one.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import tableaux
from .rings import QQ, ZZ, ConsistencyError, Ring
from .spaces import (
    LinearMap,
    ModuleElement,
    PairCoords,
    Sym,
    Tensor,
    Wedge,
    _POINT_MEMOS,
    _add_columns,
    _eliminate,
    _insertions,
    _placed,
    _settled,
    basis,
    basis_index,
    dim,
)


class HookSchurSpace:
    """Kernel of Wedge(N, Sym(d)) (x) Sym(d) -> Wedge(N+1, Sym(d)) with its
    semistandard-pair basis B, its coordinate map K and the map mu, all
    over the integers and built one Y-degree block at a time.

    pair_blocks and ambient_blocks map each Y-degree to its pair and its
    ambient positions, ascending; the pair blocks come in the order of
    their first pair.  Callers must not modify them."""

    def __init__(self, N: int, d: int):
        if N < 1 or d < 0:
            raise ValueError(f"bad (N, d) = ({N}, {d})")
        self.N = N
        self.d = d
        self.ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
        self.coords = PairCoords(N, d)
        self.pairs = basis(self.coords)
        self.pair_blocks: dict = {}
        for m, (i, j) in enumerate(self.pairs):
            self.pair_blocks.setdefault(sum(i) + j, []).append(m)
        self.ambient_blocks: dict = {}
        for p, (i, j) in enumerate(basis(self.ambient)):
            self.ambient_blocks.setdefault(sum(i) + j, []).append(p)
        self._verify()

    # ------------------------------------------------------ the block maps

    def mu_block(self, w: int) -> dict:
        """mu on the ambient positions of Y-degree w: the column of (k, a),
        at position t (d + 1) + a for k at position t, is the one that entry
        [t][a] of the wedge insertion table, placing a into k, gives."""
        table = _insertions(Wedge, Sym(self.d), self.N)
        width = self.d + 1
        cols = {}
        for p in self.ambient_blocks.get(w, ()):
            cols[p] = _placed(table[p // width][p % width], 1, -1)
        return cols

    def basis_block(self, w: int) -> dict:
        """B on the pair positions of Y-degree w: each column is its pair's
        kernel support, one at each ambient position."""
        amb = basis_index(self.ambient)
        pairs = self.pairs
        return {
            m: {amb[label]: 1 for label in _support(pairs[m])}
            for m in self.pair_blocks.get(w, ())
        }

    def coordinate_block(self, w: int) -> dict:
        """K on the ambient positions of Y-degree w, the left inverse of B
        that the content chains of that degree give: column p_s of a chain
        holds (-1)^(t-s) at each p_t with t >= s, the terminal's column is
        zero, and a fixed pair's column is one at itself.  A chain starts at
        the label (i, j) with j above i, and every label of a chain has its
        content, so its degree."""
        amb = basis_index(self.ambient)
        pos = basis_index(self.coords)
        labels = basis(self.ambient)
        block = self.ambient_blocks.get(w, [])
        cols: dict = dict.fromkeys(block, {})  # a terminal keeps this zero column
        for p in block:
            i, j = labels[p]
            if j in i:
                cols[p] = {pos[(i, j)]: 1}
            elif j > i[-1]:
                chain = tableaux.content_chain(i + (j,))
                rows = [pos[pair] for pair in chain]
                for s, pair in enumerate(chain):
                    q = amb[pair]
                    if q not in cols:
                        raise ConsistencyError(
                            f"content chain of {i + (j,)} leaves the Y-degree block {w}"
                        )
                    cols[q] = {r: (-1) ** (t - s) for t, r in enumerate(rows[s:], s)}
        return cols

    # ------------------------------------------------- the whole maps, views

    def _whole(self, block, blocks: dict, domain, codomain) -> LinearMap:
        """The map whose columns block(w) gives for each Y-degree w of
        blocks."""
        cols: list = [None] * dim(domain)
        for w in blocks:
            for p, col in block(w).items():
                cols[p] = col
        return LinearMap.from_positions(domain, codomain, ZZ, cols)

    @cached_property
    def mu(self) -> LinearMap:
        """mu, whole, from the blocks on first read."""
        codomain = Wedge(self.N + 1, Sym(self.d))
        return self._whole(self.mu_block, self.ambient_blocks, self.ambient, codomain)

    @cached_property
    def B(self) -> LinearMap:
        """B, whole, from the blocks on first read."""
        return self._whole(self.basis_block, self.pair_blocks, self.coords, self.ambient)

    @cached_property
    def K(self) -> LinearMap:
        """K, whole, from the blocks on first read."""
        return self._whole(self.coordinate_block, self.ambient_blocks, self.ambient, self.coords)

    # ------------------------------------------------------------- vectors

    def kernel_support(self, pair) -> tuple:
        """Ambient labels carrying the pair's kernel basis vector."""
        tableaux._check_semistandard(*pair)
        return _support(pair)

    def basis_matrix(self, ring: Ring) -> LinearMap:
        """Columns are the kernel basis vectors, domain the pair coordinates:
        B over ring."""
        return self.B.map_entries(ring, ring.from_int)

    # --------------------------------------------------------- coordinates

    def coordinates(self, v: ModuleElement) -> ModuleElement:
        """Express an ambient element in the kernel basis: K v, accepted
        when B K v = v.  The entries of K are integers, so K v and B K v are
        summed with the payloads' native + and * and reduced once, all keyed
        by basis position.  B K v != v means v is outside the kernel span,
        and every ring then raises ValueError.  (A label outside the ambient
        basis is refused where the element is built.)
        """
        if v.space != self.ambient:
            raise ValueError("element does not live in the ambient space")
        coords = self.K._add_image({}, v.pcoeffs.items())
        if _settled(v.ring, self.B._add_image({}, coords.items())) != v.pcoeffs:
            return self._coordinates_fallback(v)
        return ModuleElement.from_positions(self.coords, v.ring, coords)

    def _coordinates_fallback(self, v: ModuleElement) -> ModuleElement:
        raise ValueError("element is not in the kernel span")

    # ---------------------------------------------------------------- checks

    def _verify(self):
        N, d = self.N, self.d
        if len(self.pairs) != tableaux.count_hook_tableaux(N, d):
            raise ConsistencyError(
                f"pair enumeration at (N={N}, d={d}) does not match the count formula"
            )
        # the Y-degree of each position of Wedge(N+1, Sym(d)), mu's codomain
        top = [sum(k) for k in tableaux.increasing_tuples(d, N + 1)]
        for w in self.ambient_blocks:
            self._verify_block(w, top)

    def _verify_block(self, w: int, top: list):
        """mu B_w = 0, with B_w inside the block, mu_w's rows of degree w,
        and the two ranks over QQ, at the Y-degree w."""
        mu, B = self.mu_block(w), self.basis_block(w)
        for m, col in B.items():
            pair = self.pairs[m]
            try:
                image = _add_columns({}, mu, col.items())
            except KeyError:
                raise ConsistencyError(
                    f"basis vector of {pair} leaves the Y-degree block {w}"
                ) from None
            if any(image.values()):
                raise ConsistencyError(
                    f"basis vector of {pair} is outside the kernel in the Y-degree block {w}"
                )
        for p, col in mu.items():
            if any(top[r] != w for r in col):
                label = basis(self.ambient)[p]
                raise ConsistencyError(
                    f"the multiplication map leaves the Y-degree block {w} at {label}"
                )
        n = len(B)
        if _rank_over_qq(B.values()) != n:
            raise ConsistencyError(
                f"kernel basis vectors are linearly dependent in the Y-degree block {w}"
            )
        nullity = len(mu) - _rank_over_qq(mu.values())
        if nullity != n:
            raise ConsistencyError(
                "kernel dimension does not match the pair count in the Y-degree "
                f"block {w}: {nullity} against {n}"
            )


def _rank_over_qq(cols) -> int:
    """Rank over QQ of integer columns, each entry taken into QQ."""
    from_int = QQ.from_int
    pivots, _ = _eliminate(
        ({r: from_int(v) for r, v in col.items()} for col in cols), QQ, track=False
    )
    return len(pivots)


def _support(pair) -> tuple:
    """kernel_support of a semistandard pair."""
    i, j = pair
    if j in i:
        return (pair,)
    return (pair, tableaux._neighbour(i, j))


@lru_cache(maxsize=1)
def hook_schur_space(N: int, d: int) -> HookSchurSpace:
    """Shared, construction-verified instance for the last (N, d) asked
    for: the next point evicts it, and spaces.release_point drops it."""
    return HookSchurSpace(N, d)


_POINT_MEMOS.append(hook_schur_space)
