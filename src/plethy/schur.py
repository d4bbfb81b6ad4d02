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

Construction self-verifies: the pair count matches the closed formula, mu B
is zero over the integers, column by column, and ranks over the rationals
confirm linear independence and spanning.
"""

from __future__ import annotations

from functools import lru_cache

from . import tableaux
from .rings import QQ, ZZ, ConsistencyError, Ring
from .spaces import (
    LinearMap,
    ModuleElement,
    PairCoords,
    Sym,
    Tensor,
    Wedge,
    _settled,
    basis,
    basis_index,
    dim,
    multiplication_map,
    rank,
)


class HookSchurSpace:
    """Kernel of Wedge(N, Sym(d)) (x) Sym(d) -> Wedge(N+1, Sym(d)) with its
    semistandard-pair basis B, its coordinate map K and the map mu, all
    over the integers."""

    def __init__(self, N: int, d: int):
        if N < 1 or d < 0:
            raise ValueError(f"bad (N, d) = ({N}, {d})")
        self.N = N
        self.d = d
        self.ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
        self.coords = PairCoords(N, d)
        self.pairs = basis(self.coords)
        self.mu = multiplication_map(ZZ, N, d)
        self.B = self.basis_matrix(ZZ)
        self.K = self._coordinate_map()
        self._verify()

    def _coordinate_map(self) -> LinearMap:
        """K, the left inverse of B that the content chains give: column p_s
        of a chain holds (-1)^(t-s) at each p_t with t >= s, the terminal's
        column is zero, and a fixed pair's column is one at itself."""
        N, d = self.N, self.d
        amb = basis_index(self.ambient)
        pos = basis_index(self.coords)
        cols: list = [{}] * dim(self.ambient)  # a terminal keeps this zero column
        for vals in tableaux.increasing_tuples(d, N + 1):
            chain = tableaux.content_chain(vals)
            rows = [pos[pair] for pair in chain]
            for s, pair in enumerate(chain):
                cols[amb[pair]] = {r: (-1) ** (t - s) for t, r in enumerate(rows[s:], s)}
        for i in tableaux.increasing_tuples(d, N):
            for j in i:
                cols[amb[(i, j)]] = {pos[(i, j)]: 1}
        return LinearMap.from_positions(self.ambient, self.coords, ZZ, cols)

    # ------------------------------------------------------------- vectors

    def kernel_support(self, pair) -> tuple:
        """Ambient labels carrying the pair's kernel basis vector."""
        i, j = pair
        if not tableaux.is_semistandard(i, j):
            raise ValueError(f"pair ({i}, {j}) is not semistandard")
        if j in i:
            return (pair,)
        return (pair, tableaux.neighbour(i, j))

    def kernel_basis_vector(self, ring: Ring, pair) -> ModuleElement:
        coeffs = {label: ring.one for label in self.kernel_support(pair)}
        return ModuleElement(self.ambient, ring, coeffs)

    def basis_matrix(self, ring: Ring) -> LinearMap:
        """Columns are the kernel basis vectors, domain the pair coordinates."""
        return LinearMap.from_function(
            ring,
            self.coords,
            self.ambient,
            lambda pair: self.kernel_basis_vector(ring, pair),
        )

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
        n = len(self.pairs)
        if n != tableaux.count_hook_tableaux(self.N, self.d):
            raise ConsistencyError(
                f"pair enumeration at (N={self.N}, d={self.d}) does not match the count formula"
            )
        mu, B = self.mu, self.B
        for pair, col in zip(self.pairs, B.pcols):
            if any(mu._add_image({}, col.items()).values()):
                raise ConsistencyError(f"basis vector of {pair} is outside the kernel")
        if rank(B.map_entries(QQ, QQ.from_int)) != n:
            raise ConsistencyError("kernel basis vectors are linearly dependent")
        if dim(mu.domain) - rank(mu.map_entries(QQ, QQ.from_int)) != n:
            raise ConsistencyError("kernel dimension does not match the pair count")


@lru_cache(maxsize=1)
def hook_schur_space(N: int, d: int) -> HookSchurSpace:
    """Shared, construction-verified instance for the last (N, d) asked
    for; one point is held at a time."""
    return HookSchurSpace(N, d)
