"""Helpers shared by the oracle tests; nothing in the package uses them."""

import csv
import io
from math import gcd

from plethy import (
    QQ,
    ZZ,
    ConsistencyError,
    LinearMap,
    ModuleElement,
    Sym,
    Tensor,
    Wedge,
    box,
    dim,
    multiplication_map,
    pair_sort_key,
    rank,
)
from plethy import tableaux
from plethy.rings import Ring
from plethy.conjecture import _Rows
from plethy.iso import _is_block_identity, _phi_columns, _psi_columns, _witness
from plethy.schur import _support, hook_schur_space
from plethy.spaces import basis, basis_index
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


# ------------------------------------------------------------------------
# The hook space's maps as HookSchurSpace built them before it built them
# one Y-degree block at a time: mu, B and K whole, and the checks on the
# whole maps.


def whole_mu(hook) -> LinearMap:
    """mu, whole: the multiplication map over ZZ."""
    return multiplication_map(ZZ, hook.N, hook.d)


def whole_basis_matrix(hook, ring=ZZ) -> LinearMap:
    """B, whole: each column its pair's kernel support, keyed by ambient
    position."""
    amb = basis_index(hook.ambient)
    one = ring.one
    cols = ({amb[label]: one for label in _support(pair)} for pair in hook.pairs)
    return LinearMap.from_positions(hook.coords, hook.ambient, ring, cols)


def whole_coordinate_map(hook) -> LinearMap:
    """K, whole, from every content chain and fixed pair: column p_s of a
    chain holds (-1)^(t-s) at each p_t with t >= s, the terminal's column is
    zero, and a fixed pair's column is one at itself."""
    N, d = hook.N, hook.d
    amb = basis_index(hook.ambient)
    pos = basis_index(hook.coords)
    cols: list = [{}] * dim(hook.ambient)  # a terminal keeps this zero column
    for vals in tableaux.increasing_tuples(d, N + 1):
        chain = tableaux.content_chain(vals)
        rows = [pos[pair] for pair in chain]
        for s, pair in enumerate(chain):
            cols[amb[pair]] = {r: (-1) ** (t - s) for t, r in enumerate(rows[s:], s)}
    for i in tableaux.increasing_tuples(d, N):
        for j in i:
            cols[amb[(i, j)]] = {pos[(i, j)]: 1}
    return LinearMap.from_positions(hook.ambient, hook.coords, ZZ, cols)


def whole_verify(hook) -> None:
    """The checks on the whole maps: the pair count, mu B = 0 column by
    column, and the two ranks over QQ."""
    n = len(hook.pairs)
    if n != tableaux.count_hook_tableaux(hook.N, hook.d):
        raise ConsistencyError("pair enumeration does not match the count formula")
    mu, B = whole_mu(hook), whole_basis_matrix(hook)
    for pair, col in zip(hook.pairs, B.pcols):
        if any(mu._add_image({}, col.items()).values()):
            raise ConsistencyError(f"basis vector of {pair} is outside the kernel")
    if rank(B.map_entries(QQ, QQ.from_int)) != n:
        raise ConsistencyError("kernel basis vectors are linearly dependent")
    if dim(mu.domain) - rank(mu.map_entries(QQ, QQ.from_int)) != n:
        raise ConsistencyError("kernel dimension does not match the pair count")


def linear_map_json_oracle(A: LinearMap) -> dict:
    """The JSON form of A as linear_map_to_json built it before the payload
    streamed: both label arrays and the entries, by column and then by row,
    made whole."""
    to_json = A.ring.payload_to_json
    return {
        "kind": "linear_map",
        "ring": A.ring.to_json(),
        "domain": A.domain.to_json(),
        "codomain": A.codomain.to_json(),
        "domain_basis": [A.domain.label_to_json(l) for l in basis(A.domain)],
        "codomain_basis": [A.codomain.label_to_json(l) for l in basis(A.codomain)],
        "entries": [
            [r, c, to_json(v)] for c, col in enumerate(A.pcols) for r, v in sorted(col.items())
        ],
    }


def csv_text_oracle(header: list, rows) -> str:
    """A header row and then the rows as CSV text, each line ending in a
    bare newline, as csv_text wrote them before CSV streamed: one
    csv.writer into a StringIO, the text made whole."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def linear_map_csv_oracle(A: LinearMap) -> str:
    """The CSV text of A as linear_map_to_csv made it before CSV streamed:
    every cell read with col.get, the ring's zero where a column has no
    entry."""
    return csv_text_oracle(
        [""] + [A.domain.label_str(l) for l in basis(A.domain)],
        (
            [A.codomain.label_str(label)]
            + [A.ring.to_str(col.get(r, A.ring.zero)) for col in A.pcols]
            for r, label in enumerate(basis(A.codomain))
        ),
    )


def phi_oracle(N: int, d: int) -> LinearMap:
    """phi over ZZ, one basis_image_oracle call per domain label."""
    domain = Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1)))
    ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
    return LinearMap.from_function(
        ZZ, domain, ambient, lambda label: basis_image_oracle(ZZ, N, d, *label)
    )


class WholeMapContext:
    """The structure as IsoContext built it before it ran one Y-degree
    block at a time: phi whole from _phi_columns, C = K phi by compose with
    whole_coordinate_map, the membership loop over every column in domain
    order against whole_mu and whole_basis_matrix, the paired columns, the
    unitriangular check, and the inverse built on first call by block
    substitution, with both round trips.  It has the attributes that
    weight_block_digests reads, so the digests of both can be compared."""

    def __init__(self, N: int, d: int):
        self.N = N
        self.d = d
        self.hook = hook = hook_schur_space(N, d)
        self.domain = Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1)))
        n = dim(self.domain)
        if n != len(hook.pairs):
            raise ConsistencyError("domain dimension differs from pair count")
        self.matrix = LinearMap.from_positions(
            self.domain, hook.ambient, ZZ, _phi_columns(_psi_columns(N, d), N, hook.ambient)
        )
        self.coord_matrix = whole_coordinate_map(hook).compose(self.matrix)
        mu, B = whole_mu(hook), whole_basis_matrix(hook)
        for label, col, coords in zip(
            basis(self.domain), self.matrix.pcols, self.coord_matrix.pcols
        ):
            if any(mu._add_image({}, col.items()).values()):
                raise ConsistencyError(f"image of {label} is outside the kernel")
            if any(B._add_image({r: -c for r, c in col.items()}, coords.items()).values()):
                raise ConsistencyError(
                    f"image of {label} is not in the span of the kernel basis"
                )
        self.witnesses = [_witness(p) for p in hook.pairs]
        if set(self.witnesses) != set(basis(self.domain)) or len(self.witnesses) != n:
            raise ConsistencyError("witness labels do not biject onto the domain basis")
        dom_idx = basis_index(self.domain)
        self._witness_positions = [dom_idx[w] for w in self.witnesses]
        cols = self.coord_matrix.pcols
        self.paired_columns = [cols[j] for j in self._witness_positions]
        self.diagonal = [col.get(m, 0) for m, col in enumerate(self.paired_columns)]
        self._blocks: dict = {}
        for m, pair in enumerate(hook.pairs):
            self._blocks.setdefault(hook.coords.ydegree(pair), []).append(m)
        for m, (col, diag) in enumerate(zip(self.paired_columns, self.diagonal)):
            if diag != 1:
                raise ConsistencyError(f"diagonal entry at position {m} is not one")
            if min(col) < m:
                raise ConsistencyError(
                    f"column {m} has support above the diagonal: not triangular"
                )
        self._inverse = None

    def weight_blocks(self) -> dict:
        return self._blocks

    def weight_block_columns(self, w: int) -> dict:
        return {m: self.paired_columns[m] for m in self._blocks.get(w, [])}

    def inverse(self) -> LinearMap:
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
            if not _is_block_identity(paired, inv_cols_by_pos, idxs):
                raise ConsistencyError("inverse round trip failed on the pair side")
            if not _is_block_identity(inv_cols_by_pos, paired, idxs):
                raise ConsistencyError("inverse round trip failed on the domain side")
        wpos = self._witness_positions
        self._inverse = LinearMap.from_positions(
            self.hook.coords,
            self.domain,
            ZZ,
            ({wpos[c]: v for c, v in x.items()} for x in inv_cols_by_pos),
        )
        return self._inverse



# ------------------------------------------------------------------------
# A tensor's Lie action as Tensor._lie_columns built it before the action
# was kept as its factors' Kronecker sum: every column, whole.


def tensor_lie_columns(which: str, space) -> list:
    """The integer columns of e or f on a space, keyed by position.  On a
    Tensor, column (l, r) is the left factor's column l placed at right
    label r, plus the right factor's column r placed at left label l."""
    if type(space) is not Tensor:
        return space._lie_columns(which)
    m = dim(space.right)
    rcols = tensor_lie_columns(which, space.right)
    cols = []
    for l, lcol in enumerate(tensor_lie_columns(which, space.left)):
        for r, rcol in enumerate(rcols):
            out = {ll * m + r: lv for ll, lv in lcol.items()}
            for rl, rv in rcol.items():
                key = l * m + rl
                out[key] = out.get(key, 0) + rv
            cols.append(out)
    return cols


def whole_lie_map(which: str, space) -> LinearMap:
    """e or f on a space over ZZ, a plain LinearMap built whole."""
    return LinearMap.from_positions(space, space, ZZ, tensor_lie_columns(which, space))

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


# ------------------------------------------------------------------------
# The eliminations that spaces._eliminate replaced, as they were: _echelon
# (smallest-row pivoting, a division per step) for fields, _integer_kernel
# for ZZ, and _reduced_rows, whose forward pass cleared each vector of every
# lead before it.


def _sub_scaled(target: dict, source: dict, factor, ring: Ring):
    """target -= factor * source, in place: each touched entry is reduced
    once and dropped when zero."""
    reduce = ring.reduce
    zero = ring.zero
    for k, val in source.items():
        s = reduce(target.get(k, zero) - factor * val)
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def _echelon(cols, ring: Ring, track: bool):
    """Column reduction with deterministic smallest-row pivoting.

    cols: dicts keyed by row index.  Returns (pivots, kernel_combos) where
    pivots maps a row index to (reduced column, combination) and each
    kernel combination expresses 0 as a combination of original columns
    with the trailing coefficient equal to one.
    """
    if not ring.is_field:
        raise ValueError(f"elimination needs a field, not {ring.name}")
    pivots: dict = {}
    kernel = []
    for j, col in enumerate(cols):
        v = dict(col)
        combo = {j: ring.one} if track else None
        while v:
            r = min(v)
            hit = pivots.get(r)
            if hit is None:
                pivots[r] = (v, combo)
                break
            pv, pc = hit
            f = ring.div(v[r], pv[r])
            _sub_scaled(v, pv, f, ring)
            if track:
                _sub_scaled(combo, pc, f, ring)
        else:
            kernel.append(combo)
    return pivots, kernel


def _combined(s: int, x: dict, t: int, y: dict) -> dict:
    """s x + t y for integer vectors, with the zeros dropped."""
    out = {k: s * c for k, c in x.items()} if s != 1 else dict(x)
    get = out.get
    for k, c in y.items():
        out[k] = get(k, 0) + t * c
    return {k: c for k, c in out.items() if c}


def _divided(x: dict, g: int) -> dict:
    return {k: c // g for k, c in x.items()} if g != 1 else x


def _integer_kernel(cols) -> list[dict]:
    """The kernel combinations of _echelon over QQ, each scaled to a
    primitive integer vector with positive trailing coefficient, by
    fraction-free column reduction with the same pivoting.

    A step with entry a at the pivot row r and pivot entry b replaces v by
    (b/g) v - (a/g) pv, g = gcd(a, b), and its combination likewise, so
    each v and each combination is a nonzero integer multiple of the one
    over QQ, and the same rows become pivots.  Each stored pivot, with its
    combination, and each kernel combination is divided by its content."""
    pivots: dict = {}
    kernel = []
    for j, col in enumerate(cols):
        v = dict(col)
        combo = {j: 1}
        while v:
            r = min(v)
            hit = pivots.get(r)
            if hit is None:
                g = gcd(*v.values(), *combo.values())
                pivots[r] = (_divided(v, g), _divided(combo, g))
                break
            pv, pc = hit
            a, b = v[r], pv[r]
            g = gcd(a, b)
            a, b = a // g, b // g
            v = _combined(b, v, -a, pv)
            combo = _combined(b, combo, -a, pc)
        else:
            g = gcd(*combo.values())
            kernel.append(_divided(combo, g if combo[j] > 0 else -g))
    return kernel


def _cleared(p: int, v: dict, rows: dict, own=None) -> dict:
    """v, a sparse GF(p) vector, less v[i] times the row at lead i for every
    lead i of rows but own at which v is nonzero, until v is zero at all of
    them; changed in place and returned.

    Each row is zero above its lead, so subtracting it brings in only lower
    positions: within a round the leads are taken highest first, and a
    lead that a row brings in is taken in the next round."""
    while True:
        hits = sorted((i for i in v if i in rows and i != own), reverse=True)
        if not hits:
            return v
        get = v.get
        for lead in hits:
            c = get(lead)
            if c is None:
                continue
            for i, a in rows[lead].items():
                x = (get(i, 0) - c * a) % p
                if x:
                    v[i] = x
                else:
                    del v[i]


def _reduced_rows(p: int, vectors) -> dict:
    """Sparse rows over GF(p) in reduced echelon form spanning the given
    vectors, keyed by lead, in the order the vectors gave them; a dependent
    vector is a ValueError.

    A row's lead is its highest position, where it is one and every other
    row is zero.  Each vector is cleared of the leads before it and stored
    scaled; then each row, lowest lead first, is cleared of the leads below
    its own, whose rows are reduced by then.  Vectors in that form already,
    as the scan's kernel vectors are, stay as they are, at the cost of one
    lookup per entry in each pass."""
    rows: dict = {}
    for v in vectors:
        v = _cleared(p, dict(v), rows)
        if not v:
            raise ValueError("vectors are not linearly independent")
        lead = max(v)
        inv = pow(v[lead], -1, p)
        rows[lead] = {i: c * inv % p for i, c in v.items()} if inv != 1 else v
    for lead in sorted(rows):
        _cleared(p, rows[lead], rows, lead)
    return rows
