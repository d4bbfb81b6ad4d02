"""The hook-shape Schur space: kernel of the multiplication map.

For parameters (N, d) the ambient space is Wedge(N, Sym(d)) (x) Sym(d) and
the multiplication map appends the loose factor to the wedge.  Its kernel
carries a distinguished basis indexed by semistandard pairs: the vector of
a pair (i, j) is the ambient basis vector labeled (i, j), plus the one
labeled by the neighbour pair whenever j does not occur in i.  Both
coefficients are one, so the same labels serve over every ring.

Construction self-verifies: the pair count matches the closed formula, every
basis vector maps to zero exactly over the integers, and rank computations
over the rationals confirm linear independence and spanning.
"""

from __future__ import annotations

from functools import cache

from . import tableaux
from .rings import QQ, ZZ, ConsistencyError, Ring
from .spaces import (
    LinearMap,
    ModuleElement,
    PairCoords,
    Sym,
    Tensor,
    Wedge,
    basis,
    basis_index,
    dim,
    multiplication_map,
    rank,
)


class HookSchurSpace:
    """Kernel of Wedge(N, Sym(d)) (x) Sym(d) -> Wedge(N+1, Sym(d)) with its
    semistandard-pair basis."""

    def __init__(self, N: int, d: int):
        if N < 1 or d < 0:
            raise ValueError(f"bad (N, d) = ({N}, {d})")
        self.N = N
        self.d = d
        self.ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
        self.coords = PairCoords(N, d)
        self.pairs = basis(self.coords)
        self.pair_index = basis_index(self.coords)
        self._chains, self._class_of = self._content_classes()
        self._verify()

    def _content_classes(self):
        """The content classes of the ambient basis, built once.

        A class of N + 1 distinct values is its content chain followed by
        its terminal label (i, j) with j the least value; a class with one
        repeated value holds a single fixed pair.  Returns the classes as
        tuples of ambient labels, terminal last, and the map from each
        ambient label to (class number, position in its class)."""
        N, d = self.N, self.d
        chains = []
        for vals in tableaux.increasing_tuples(d, N + 1):
            chains.append((*tableaux.content_chain(vals), (vals[1:], vals[0])))
        for i in tableaux.increasing_tuples(d, N):
            chains.extend(((i, j),) for j in i)
        class_of = {
            label: (c, t) for c, chain in enumerate(chains) for t, label in enumerate(chain)
        }
        return chains, class_of

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
        """Express an ambient element in the kernel basis.

        Each entry of v is sent to its content class by one lookup in the
        table built with the space.  Along a chain the basis vectors overlap
        in single canonical labels, so the coordinates fall out of the
        two-term recurrence c_t = v_t - c_(t-1), summed with native - and
        reduced once; the terminal label must then carry c_(N-1).  A fixed
        pair's class holds that pair alone, whose coordinate is its entry.
        A label in no class, or a failed terminal check, means v is outside
        the kernel, and every ring then raises ValueError.
        """
        if v.space != self.ambient:
            raise ValueError("element does not live in the ambient space")
        ring = v.ring
        zero = ring.zero
        class_of = self._class_of
        classes: dict = {}
        for label, val in v.coeffs.items():
            where = class_of.get(label)
            if where is None:
                return self._coordinates_fallback(v)
            c, t = where
            members = classes.get(c)
            if members is None:
                members = classes[c] = {}
            members[t] = val
        chains = self._chains
        reduce = ring.reduce
        coords: dict = {}
        for c, members in classes.items():
            chain = chains[c]
            last = len(chain) - 1
            if not last:  # a fixed pair
                coords[chain[0]] = members[0]
                continue
            running = zero
            for t in range(last):
                running = members.get(t, zero) - running
                coords[chain[t]] = running
            if reduce(members.get(last, zero) - running):
                return self._coordinates_fallback(v)
        return ModuleElement(self.coords, ring, coords)

    def _coordinates_fallback(self, v: ModuleElement) -> ModuleElement:
        raise ValueError("element is not in the kernel span")

    # ---------------------------------------------------------------- checks

    def _verify(self):
        n = len(self.pairs)
        if n != tableaux.count_hook_tableaux(self.N, self.d):
            raise ConsistencyError(
                f"pair enumeration at (N={self.N}, d={self.d}) does not match the count formula"
            )
        mu = multiplication_map(ZZ, self.N, self.d)
        for pair in self.pairs:
            if not mu.apply(self.kernel_basis_vector(ZZ, pair)).is_zero():
                raise ConsistencyError(f"basis vector of {pair} is outside the kernel")
        if rank(self.basis_matrix(QQ)) != n:
            raise ConsistencyError("kernel basis vectors are linearly dependent")
        mu_rank = rank(multiplication_map(QQ, self.N, self.d))
        if dim(mu.domain) - mu_rank != n:
            raise ConsistencyError("kernel dimension does not match the pair count")


@cache
def hook_schur_space(N: int, d: int) -> HookSchurSpace:
    """Shared, construction-verified instance for (N, d)."""
    return HookSchurSpace(N, d)
