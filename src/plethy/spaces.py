"""Representation spaces for SL2 with exact scalars.

Spaces are immutable descriptors built from Sym(c) atoms: wedge powers,
symmetric powers, binary tensors, and the coordinate space of the sorted
semistandard pairs.  A basis vector of Sym(c) is the monomial
X^(c-a) Y^a, labeled by the Y-exponent a.  Wedge and SymPower labels are
strictly or weakly increasing tuples of inner labels; tensor labels are
pairs.  Basis enumeration order is fixed once and for all: lexicographic
tuples, tensor pairs with the left factor outermost.

Each space type carries its own facts as methods: its basis and dim, the
Y-degree of a label and the total degree, the label format, and its group
and Lie action matrices, built from its factors' matrices the way the
functors are: Sym^c(g), then Wedge^r, Sym^r and tensor products of those.
A tensor's group action is kept as the Kronecker product of its factors'
matrices, formed whole only when something reads its columns.  JSON forms
come from the dataclass fields.  The module functions basis, basis_index
and dim hold the one cache that all equal spaces share.  To add a kind,
write one Space subclass with its fields, basis, dim, degrees, label_str
and actions, and add it to the space_from_json kind table, _KINDS.

A map's columns and a vector's coefficients are keyed by basis position,
the one form maps and vectors take between layers.  Labels are taken and
shown only at the edges: the LinearMap and ModuleElement constructors and
from_function translate them once, through one helper, and reject a label
outside the basis; from_positions takes positions as they are; cols and
coeffs are label views.

The two-by-two matrix g = ((g11, g12), (g21, g22)) acts on the left by
g.X = g11 X + g21 Y and g.Y = g12 X + g22 Y, so columns of g are the
images of the basis.  The Lie generators e = X d/dY and f = Y d/dX have
integer matrices.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cache, lru_cache
from math import gcd
from typing import ClassVar

from .rings import ConsistencyError, Ring, ZZ, binomial, json_int, json_kind
from . import tableaux


def _frozen_space(cls):
    """cls as a frozen dataclass whose hash, the dataclass hash of its
    fields, is taken once per space and kept.  Equal spaces built apart
    hash equal; the basis, basis_index and dim caches hash a space on every
    lookup, and the field hash of a nested space recurses through it."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


class Space:
    """The interface of a space kind, a frozen dataclass (made by
    _frozen_space, which keeps its hash) with a JSON kind.

    A kind writes its fields and these: _basis() and _dim() enumerate and
    count the basis (call basis and dim, which cache them); ydegree(label)
    is the total Y-exponent of a basis vector and total_degree() the
    degree in X, Y that every basis vector shares; label_str formats one
    label.  The JSON methods below serve every kind, from its fields.
    sym_atoms() is the set of Sym atoms it is built from.

    _action_map(ring, g) is the matrix of g, a LinearMap; by default it
    holds _action_columns(ring, g), the columns in basis order keyed by
    basis position, a list or a one-pass iterator whose entries may be
    unreduced.  A Tensor instead keeps its factors' maps in a
    KroneckerMap.  _lie_columns(which) is the list of the integer columns
    of e or f, keyed by position.  A kind builds both from
    its factors' columns: a divided power D^r(Sym c), say, would expand
    each label's image from the columns of Sym(c), as _Power does, with
    its own coefficients.  A kind that is not a polynomial space inherits
    the refusals below, which come before any label is looked at."""

    kind: ClassVar[str]

    def to_json(self) -> dict:
        """The kind, then each field in order, a Space field as its to_json()."""
        out = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.to_json() if isinstance(v, Space) else v
        return out

    def label_to_json(self, label):
        """A label with its tuples, at every depth, as lists."""
        if type(label) is not tuple:
            return label
        return [v if type(v) is int else self.label_to_json(v) for v in label]

    def label_from_json(self, data):
        """A label with its lists, at every depth, as tuples; a leaf that is
        not an int raises ValueError."""
        if type(data) is not list:
            return json_int(data, "a label entry")
        return tuple(v if type(v) is int else self.label_from_json(v) for v in data)

    def sym_atoms(self) -> frozenset:
        """The Sym atoms the space is built from, read off its fields."""
        return frozenset().union(
            *(f.sym_atoms() for f in vars(self).values() if isinstance(f, Space))
        )

    def _action_map(self, ring: Ring, g) -> "LinearMap":
        return LinearMap.from_positions(self, self, ring, self._action_columns(ring, g))

    def _action_columns(self, ring: Ring, g):
        raise TypeError(f"the group action is undefined on {self!r}")

    def _lie_columns(self, which: str) -> list:
        raise TypeError(f"the Lie action is undefined on {self!r}")


@_frozen_space
class Sym(Space):
    """Sym^c E, dimension c + 1."""

    c: int

    kind = "sym"

    def __post_init__(self):
        if self.c < 0:
            raise ValueError(f"Sym needs c >= 0, got {self.c}")

    def sym_atoms(self):
        return frozenset((self,))

    def _basis(self):
        return tuple(range(self.c + 1))

    def _dim(self):
        return self.c + 1

    def ydegree(self, label) -> int:
        return label

    def total_degree(self) -> int:
        return self.c

    def label_str(self, label) -> str:
        return str(label)

    def _action_columns(self, ring, g):
        return _sym_action_table(ring, g, self.c)

    def _lie_columns(self, which):
        c = self.c
        if which == "e":
            return [{a - 1: a} if a >= 1 else {} for a in range(c + 1)]
        return [{a + 1: c - a} if a <= c - 1 else {} for a in range(c + 1)]


@_frozen_space
class _Power(Space):
    """The r-th power of a Sym atom: labels are strictly (Wedge) or weakly
    (SymPower) increasing tuples of inner labels."""

    r: int
    inner: Sym

    strict: ClassVar[bool]

    def __post_init__(self):
        name = type(self).__name__
        if self.r < 0:
            raise ValueError(f"{name} needs r >= 0, got {self.r}")
        if not isinstance(self.inner, Sym):
            raise ValueError(f"{name} supports Sym atoms only")

    def ydegree(self, label) -> int:
        return sum(label)

    def total_degree(self) -> int:
        return self.r * self.inner.c

    def label_str(self, label) -> str:
        return "(" + ",".join(map(str, label)) + ")"

    def _action_columns(self, ring, g):
        """Each label's image, in basis order, keyed by basis position: the
        image of its prefix label[:-1] times the inner column of label[-1].
        Labels that share a prefix are contiguous in lexicographic order,
        so only the images of the current label's prefixes are kept, as a
        stack: images[k] is the image of label[:k], keyed by position in
        the k-th power.  Placing one more factor b reads the level-k table
        of _insertions, which gives the position in the (k+1)-th power, as
        ~pos when the wedge sign is -1 and None for a repeated wedge
        factor; the tables are pure space data, cached across points.  The
        last level is yielded raw, as the LinearMap settles each column."""
        inner = [col.items() for col in self.inner._action_columns(ring, g)]
        tables = [_insertions(type(self), self.inner, k) for k in range(self.r)]
        last = self.r - 1
        zero = ring.zero
        images = [{0: ring.one}]
        prev = ()
        for label in basis(self):
            k = 0
            while k < len(images) - 1 and label[k] == prev[k]:
                k += 1
            del images[k + 1 :]
            for k in range(k, self.r):
                table = tables[k]
                terms = inner[label[k]]
                out: dict = {}
                get = out.get
                for t, v in images[k].items():
                    row = table[t]
                    for b, cb in terms:
                        j = row[b]
                        if j is None:
                            continue
                        if j < 0:
                            j = ~j
                            out[j] = get(j, zero) - v * cb
                        else:
                            out[j] = get(j, zero) + v * cb
                images.append(out if k == last else _settled(ring, out))
            yield images.pop()
            prev = label

    def _lie_columns(self, which):
        """e and f move one factor by one step, as on the inner Sym, whose
        labels are its positions.  A wedge label stays sorted unless the
        moved factor repeats another, which gives zero."""
        inner = self.inner._lie_columns(which)
        idx = basis_index(self)
        cols = []
        for label in basis(self):
            out: dict = {}
            for i, a in enumerate(label):
                for b, coeff in inner[a].items():
                    if self.strict and b in label:
                        continue
                    new = label[:i] + (b,) + label[i + 1 :]
                    row = idx[new if self.strict else tuple(sorted(new))]
                    out[row] = out.get(row, 0) + coeff
            cols.append(out)
        return cols


class Wedge(_Power):
    """Wedge^r of an inner Sym space."""

    strict = True
    kind = "wedge"

    def _basis(self):
        return tuple(itertools.combinations(range(self.inner.c + 1), self.r))

    def _dim(self):
        return binomial(self.inner.c + 1, self.r)


class SymPower(_Power):
    """Sym^r of an inner Sym space, basis of weakly increasing tuples."""

    strict = False
    kind = "sympower"

    def _basis(self):
        return tuple(
            itertools.combinations_with_replacement(range(self.inner.c + 1), self.r)
        )

    def _dim(self):
        return binomial(self.inner.c + self.r, self.r)


@_frozen_space
class Tensor(Space):
    left: Space
    right: Space

    kind = "tensor"

    def _basis(self):
        return tuple((l, r) for l in basis(self.left) for r in basis(self.right))

    def _dim(self):
        return dim(self.left) * dim(self.right)

    def ydegree(self, label) -> int:
        return self.left.ydegree(label[0]) + self.right.ydegree(label[1])

    def total_degree(self) -> int:
        return self.left.total_degree() + self.right.total_degree()

    def label_str(self, label) -> str:
        return self.left.label_str(label[0]) + "|" + self.right.label_str(label[1])

    def _action_map(self, ring, g):
        return KroneckerMap(
            self.left._action_map(ring, g), self.right._action_map(ring, g)
        )

    def _lie_columns(self, which):
        # position (l, r) is l * m + r, with m the right factor's dimension
        m = dim(self.right)
        rcols = self.right._lie_columns(which)
        cols = []
        for l, lcol in enumerate(self.left._lie_columns(which)):
            for r, rcol in enumerate(rcols):
                out = {ll * m + r: lv for ll, lv in lcol.items()}
                for rl, rv in rcol.items():
                    key = l * m + rl
                    out[key] = out.get(key, 0) + rv
                cols.append(out)
        return cols


@_frozen_space
class PairCoords(Space):
    """Coordinate space whose basis is the sorted semistandard pairs.

    Not itself a polynomial space; it names coordinates with respect to the
    distinguished kernel basis, so kernel-valued maps can be ordinary
    LinearMaps.  Group and Lie actions are undefined on it.
    """

    N: int
    d: int

    kind = "paircoords"

    def __post_init__(self):
        if self.N < 1 or self.d < 0:
            raise ValueError(f"bad (N, d) = ({self.N}, {self.d})")

    def _basis(self):
        return tuple(tableaux.semistandard_pairs(self.N, self.d))

    def _dim(self):
        return tableaux.count_hook_tableaux(self.N, self.d)

    def ydegree(self, label) -> int:
        return sum(label[0]) + label[1]

    def total_degree(self) -> int:
        return (self.N + 1) * self.d

    def label_str(self, label) -> str:
        return "(" + ",".join(map(str, label[0])) + ")|" + str(label[1])


_KINDS = {cls.kind: cls for cls in (Sym, Wedge, SymPower, Tensor, PairCoords)}


def space_from_json(data) -> Space:
    """The space that Space.to_json wrote as data, or ValueError.  A field
    declared int must be a JSON integer; any other field is a space."""
    cls = json_kind(data, _KINDS)
    if cls is None:
        raise ValueError(f"not a space of a known kind: {data!r}")
    names = [f.name for f in fields(cls)]
    if set(data) != {"kind", *names}:
        raise ValueError(f"a {cls.kind} space has the fields {names}, got {data!r}")
    return cls(*(
        json_int(data[f.name], f"{cls.kind} field {f.name}")
        if f.type == "int" else space_from_json(data[f.name])
        for f in fields(cls)
    ))


@cache
def basis(space: Space) -> tuple:
    return space._basis()


@cache
def basis_index(space: Space) -> dict:
    return {label: n for n, label in enumerate(basis(space))}


@cache
def dim(space: Space) -> int:
    return space._dim()


@cache
def _insertions(kind: type, inner: Sym, k: int) -> list:
    """The table that places one more factor into kind(k, inner): entry
    [t][b] is the position in kind(k + 1, inner) of the label at position
    t with the inner label b placed by bisect.  In a wedge, moving b past
    the k - pos larger factors gives the sign (-1)^(k - pos), stored as
    ~position when it is -1, and a repeated factor is None.  Every caller
    shares one table, so it is read-only.  The two levels' bases are
    enumerated here and not cached, so a table keeps no label tuples."""
    strict = kind.strict
    place = {u: j for j, u in enumerate(kind(k + 1, inner)._basis())}
    table = []
    for t in kind(k, inner)._basis():
        row = []
        for b in range(inner.c + 1):
            pos = bisect_left(t, b)
            if strict and pos < k and t[pos] == b:
                row.append(None)
                continue
            j = place[t[:pos] + (b,) + t[pos:]]
            row.append(~j if strict and (k - pos) & 1 else j)
        table.append(row)
    return table


def wedge_normalize(factors, top: int):
    """Sort wedge factors, tracking the permutation sign.

    Returns None when a factor repeats, else (sorted tuple, sign).  Factors
    outside {0, ..., top} are a caller bug, not a zero vector, and raise.
    """
    for a in factors:
        if not 0 <= a <= top:
            raise ValueError(f"wedge factor {a} out of range 0..{top}")
    if len(set(factors)) != len(factors):
        return None
    fs = list(factors)
    sign = 1
    # insertion sort; desk-scale tuples are tiny
    for t in range(1, len(fs)):
        u = t
        while u > 0 and fs[u - 1] > fs[u]:
            fs[u - 1], fs[u] = fs[u], fs[u - 1]
            sign = -sign
            u -= 1
    return tuple(fs), sign


class ModuleElement:
    """Sparse vector in a space: pcoeffs maps basis positions to nonzero
    coefficients.

    The constructor takes coefficients keyed by basis label, translates
    them once and rejects a label outside the basis with ValueError;
    from_positions takes them keyed by position.  coeffs is the label
    view."""

    __slots__ = ("space", "ring", "pcoeffs")

    def __init__(self, space: Space, ring: Ring, coeffs=None):
        self.space = space
        self.ring = ring
        self.pcoeffs = _settled(ring, _to_positions(space)(coeffs or {}))

    @classmethod
    def from_positions(cls, space: Space, ring: Ring, pcoeffs) -> "ModuleElement":
        """The element whose coefficients, keyed by basis position, are pcoeffs."""
        v = cls.__new__(cls)
        v.space, v.ring, v.pcoeffs = space, ring, _settled(ring, pcoeffs)
        return v

    @classmethod
    def basis_vector(cls, space: Space, ring: Ring, label) -> "ModuleElement":
        return cls(space, ring, {label: ring.one})

    @classmethod
    def zero(cls, space: Space, ring: Ring) -> "ModuleElement":
        return cls(space, ring, {})

    @property
    def coeffs(self) -> dict:
        """The coefficients keyed by basis label."""
        return _labelled(self.space, self.pcoeffs)

    def _match(self, other: "ModuleElement"):
        if self.space != other.space or self.ring != other.ring:
            raise ValueError("space or ring mismatch")

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        self._match(other)
        out = dict(self.pcoeffs)
        zero = self.ring.zero
        for r, val in other.pcoeffs.items():
            out[r] = out.get(r, zero) + val
        return ModuleElement.from_positions(self.space, self.ring, out)

    def __neg__(self) -> "ModuleElement":
        return self.scale(-self.ring.one)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def scale(self, s) -> "ModuleElement":
        return ModuleElement.from_positions(
            self.space, self.ring, {r: s * v for r, v in self.pcoeffs.items()}
        )

    def is_zero(self) -> bool:
        return not self.pcoeffs

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.space == other.space
            and self.ring == other.ring
            and self.pcoeffs == other.pcoeffs
        )

    def homogeneous_ydegree(self):
        """The common Y-degree of the support, or None if mixed or zero."""
        labels = basis(self.space)
        degs = {self.space.ydegree(labels[r]) for r in self.pcoeffs}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self):
        if not self.pcoeffs:
            return "0"
        labels = basis(self.space)
        parts = [
            f"{self.ring.to_str(v)}*{self.space.label_str(labels[r])}"
            for r, v in sorted(self.pcoeffs.items())
        ]
        return " + ".join(parts)


def _settled(ring: Ring, acc: dict) -> dict:
    """The one accumulate-and-drop-zeros step: each entry of a dict summed
    with the payloads' native + and * is reduced once by the ring, and the
    zeros are dropped."""
    if type(ring).reduce is Ring.reduce:  # the identity: only drop zeros
        return {k: v for k, v in acc.items() if v}
    reduce = ring.reduce
    return {k: r for k, v in acc.items() if (r := reduce(v))}


def _labelled(space: Space, col: dict) -> dict:
    """A dict keyed by basis position of space, rekeyed by label."""
    labels = basis(space)
    return {labels[r]: v for r, v in col.items()}


def _to_positions(space: Space):
    """The one translation from labels: a function that rekeys a dict keyed
    by basis label of space by basis position, and raises ValueError on a
    label outside the basis."""
    idx = basis_index(space)

    def positions(coeffs: dict) -> dict:
        try:
            return {idx[label]: v for label, v in coeffs.items()}
        except KeyError as e:
            raise ValueError(
                f"label {e.args[0]!r} is not in the basis of {space}"
            ) from None

    return positions


class LinearMap:
    """Sparse matrix between two spaces: pcols[j], the column of domain
    position j, maps codomain positions to nonzero entries.

    The constructor and from_function take columns keyed by codomain
    label, translate them once, and reject a label outside the basis with
    ValueError; from_positions takes them keyed by position.  Either way
    columns may be raw accumulations, from any iterable: each entry is
    reduced once here and zeros are dropped, so a generator of raw columns
    never holds more than one of them.  cols is the label view."""

    __slots__ = ("domain", "codomain", "ring", "pcols", "_cols")

    def __init__(self, domain: Space, codomain: Space, ring: Ring, cols):
        self._fill(domain, codomain, ring, map(_to_positions(codomain), cols))

    def _fill(self, domain: Space, codomain: Space, ring: Ring, pcols) -> None:
        self.pcols = [_settled(ring, col) for col in pcols]
        if len(self.pcols) != dim(domain):
            raise ValueError("column count does not match the domain dimension")
        self.domain = domain
        self.codomain = codomain
        self.ring = ring
        self._cols = None

    @classmethod
    def from_positions(cls, domain: Space, codomain: Space, ring: Ring, pcols) -> "LinearMap":
        """The map whose columns, keyed by codomain position, are pcols."""
        A = LinearMap.__new__(LinearMap)
        A._fill(domain, codomain, ring, pcols)
        return A

    @classmethod
    def from_function(cls, ring: Ring, domain: Space, codomain: Space, fn) -> "LinearMap":
        """fn maps a domain basis label to an element, or to a coefficient
        dict keyed by codomain label."""
        positions = _to_positions(codomain)

        def image(label):
            img = fn(label)
            if isinstance(img, ModuleElement):
                if img.space != codomain or img.ring != ring:
                    raise ValueError("image space or ring mismatch")
                return img.pcoeffs
            return positions(img)

        return cls.from_positions(domain, codomain, ring, map(image, basis(domain)))

    @property
    def cols(self) -> list:
        """The columns keyed by codomain label, built on first read."""
        if self._cols is None:
            self._cols = self._label_cols()
        return self._cols

    def _label_cols(self) -> list:
        return [_labelled(self.codomain, col) for col in self.pcols]

    def column(self, label) -> ModuleElement:
        col = self.pcols[basis_index(self.domain)[label]]
        return ModuleElement.from_positions(self.codomain, self.ring, col)

    def apply(self, v: ModuleElement) -> ModuleElement:
        if v.space != self.domain or v.ring != self.ring:
            raise ValueError("space or ring mismatch")
        out = self._add_image({}, v.pcoeffs.items())
        return ModuleElement.from_positions(self.codomain, self.ring, out)

    # The raw image of a vector, and the columns of phi after this map, one
    # method per map kind: a KroneckerMap overrides both to work from its
    # factors.  phi A == B phi is checked by the pair of them.

    def _add_image(self, acc: dict, items) -> dict:
        """Add to acc, keyed by codomain position, the raw image of the
        vector given as (domain position, coefficient) pairs; return acc."""
        cols = self.pcols
        zero = self.ring.zero
        get = acc.get
        for pos, c in items:
            for row, m in cols[pos].items():
                acc[row] = get(row, zero) + c * m
        return acc

    def _columns_after(self, phi: "LinearMap"):
        """The pairs (j, column j of phi after self, raw), one for every
        column j, in some order."""
        for j, col in enumerate(self.pcols):
            yield j, phi._add_image({}, col.items())

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain != self.domain or other.ring != self.ring:
            raise ValueError("composition mismatch")
        cols = (self._add_image({}, col.items()) for col in other.pcols)
        return LinearMap.from_positions(other.domain, self.codomain, self.ring, cols)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        if (
            other.domain != self.domain
            or other.codomain != self.codomain
            or other.ring != self.ring
        ):
            raise ValueError("map mismatch")
        zero = self.ring.zero
        cols = []
        for a, b in zip(self.pcols, other.pcols):
            out = dict(a)
            for r, v in b.items():
                out[r] = out.get(r, zero) - v
            cols.append(out)
        return LinearMap.from_positions(self.domain, self.codomain, self.ring, cols)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.ring == other.ring
            and self.pcols == other.pcols
        )

    def map_entries(self, ring2: Ring, fn) -> "LinearMap":
        """Push every entry through fn into ring2 (e.g. reduce mod p)."""
        return LinearMap.from_positions(
            self.domain,
            self.codomain,
            ring2,
            ({r: fn(v) for r, v in col.items()} for col in self.pcols),
        )

    def entry_count(self) -> int:
        return sum(len(col) for col in self.pcols)


class KroneckerMap(LinearMap):
    """The Kronecker product A (x) B of two maps over one ring, from
    Tensor(A.domain, B.domain) to Tensor(A.codomain, B.codomain): column
    (l, r) holds a b at (l', r') for each entry a at l' of column l of A
    and b at r' of column r of B.  Position (l, r) of a tensor basis is
    l * n + r, with n the dimension of the right factor.

    It keeps its two factors, and forms its columns, settled as any
    LinearMap's, only when something first reads pcols.  The commutation
    check never does: with A (x) B = (A (x) 1)(1 (x) B), _add_image and
    _columns_after apply one factor at a time."""

    __slots__ = ("left", "right", "_pcols")

    def __init__(self, left: LinearMap, right: LinearMap):
        if left.ring != right.ring:
            raise ValueError("factor rings differ")
        self.domain = Tensor(left.domain, right.domain)
        self.codomain = Tensor(left.codomain, right.codomain)
        self.ring = left.ring
        self.left = left
        self.right = right
        self._pcols = None
        self._cols = None

    @property
    def pcols(self) -> list:
        if self._pcols is None:
            self._pcols = self._product_columns()
        return self._pcols

    def _product_columns(self) -> list:
        ring = self.ring
        m = dim(self.right.codomain)
        rcols = [col.items() for col in self.right.pcols]
        return [
            _settled(ring, {ll * m + rl: a * b for ll, a in lcol.items() for rl, b in rcol})
            for lcol in self.left.pcols
            for rcol in rcols
        ]

    def _columns_after(self, phi):
        # column (l, r) of phi (A (x) B) is the sum over l' of A[l', l]
        # phi(l' (x) B r); right label outermost, each phi(l' (x) B r) is
        # summed once and reused for every l
        rows = phi.pcols
        left = self.left.pcols
        right = self.right.pcols
        zero = self.ring.zero
        n = len(right)
        m = dim(self.right.codomain)
        for r, rcol in enumerate(right):
            sums: dict = {}
            for l, lcol in enumerate(left):
                acc: dict = {}
                get = acc.get
                for ll, a in lcol.items():
                    part = sums.get(ll)
                    if part is None:
                        part = sums[ll] = {}
                        pget = part.get
                        base = ll * m
                        for rl, b in rcol.items():
                            for row, v in rows[base + rl].items():
                                part[row] = pget(row, zero) + b * v
                    for row, v in part.items():
                        acc[row] = get(row, zero) + a * v
                yield l * n + r, acc

    def _add_image(self, acc, items):
        # A (x) 1 first; its raw sums merge equal positions before 1 (x) B
        left = self.left.pcols
        right = self.right.pcols
        zero = self.ring.zero
        n = len(right)
        m = dim(self.right.codomain)
        mid: dict = {}
        get = mid.get
        for pos, c in items:
            l, r = divmod(pos, n)
            for ll, a in left[l].items():
                key = ll * n + r
                mid[key] = get(key, zero) + c * a
        get = acc.get
        for key, v in mid.items():
            if v:
                ll, r = divmod(key, n)
                base = ll * m
                for rl, b in right[r].items():
                    row = base + rl
                    acc[row] = get(row, zero) + v * b
        return acc


def identity_map(ring: Ring, space: Space) -> LinearMap:
    return LinearMap.from_positions(
        space, space, ring, ({j: ring.one} for j in range(dim(space)))
    )


# ---------------------------------------------------------------- group action


def _linear_form_powers(ring: Ring, s, t, c: int):
    """For m = 0..c, the nonzero coefficients of (s X + t Y)^m as
    (Y-degree, coefficient) pairs."""
    ss, ts = [ring.one], [ring.one]
    for _ in range(c):
        ss.append(ring.reduce(ss[-1] * s))
        ts.append(ring.reduce(ts[-1] * t))
    out = []
    for m in range(c + 1):
        terms = [ring.reduce(binomial(m, u) * ss[m - u] * ts[u]) for u in range(m + 1)]
        out.append([(u, cu) for u, cu in enumerate(terms) if cu])
    return out


@lru_cache(maxsize=1024)
def _sym_action_table(ring: Ring, g, c: int):
    """For each label a of Sym(c), the expansion of g.(X^(c-a) Y^a).

    Memoized per (ring, g, c): every caller shares one table, so it is
    read-only, and a caller that changes it must change a copy."""
    (g11, g12), (g21, g22) = g
    xs = _linear_form_powers(ring, g11, g21, c)
    ys = _linear_form_powers(ring, g12, g22, c)
    zero = ring.zero
    table = []
    for a in range(c + 1):
        out: dict = {}
        for u, cu in xs[c - a]:
            for v, cv in ys[a]:
                out[u + v] = out.get(u + v, zero) + cu * cv
        table.append(_settled(ring, out))
    return table


def group_action_map(ring: Ring, g, space: Space) -> LinearMap:
    """The action matrix of g on a space; on a Tensor, a KroneckerMap of
    the factors' matrices, whose columns are built when first read."""
    if len(g) != 2 or any(len(row) != 2 for row in g):
        raise ValueError("expected a 2x2 matrix")
    return space._action_map(ring, tuple(map(tuple, g)))


# ------------------------------------------------------------------ Lie action


def lie_action_map(which: str, space: Space) -> LinearMap:
    """The integer matrix of e = X d/dY, which lowers the Y-degree by one,
    or of f = Y d/dX, which raises it."""
    if which not in ("e", "f"):
        raise ValueError(f"unknown generator {which!r}")
    return LinearMap.from_positions(space, space, ZZ, space._lie_columns(which))


# ------------------------------------------------------- multiplication map


def multiplication_map(ring: Ring, N: int, d: int) -> LinearMap:
    """Append the loose tensor factor to the wedge:
    Wedge(N, Sym(d)) (x) Sym(d) -> Wedge(N+1, Sym(d))."""
    if N < 1 or d < 0:
        raise ValueError(f"bad (N, d) = ({N}, {d})")
    domain = Tensor(Wedge(N, Sym(d)), Sym(d))
    codomain = Wedge(N + 1, Sym(d))

    def fn(label):
        k, a = label
        norm = wedge_normalize(k + (a,), d)
        if norm is None:
            return {}
        lab, sgn = norm
        return {lab: ring.from_int(sgn)}

    return LinearMap.from_function(ring, domain, codomain, fn)


# ------------------------------------------------------------- linear algebra


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


def rank(A: LinearMap) -> int:
    pivots, _ = _echelon(A.pcols, A.ring, track=False)
    return len(pivots)


def rank_of_vectors(vectors: list[ModuleElement]) -> int:
    """Rank of the span of elements of one space over one field."""
    if not vectors:
        return 0
    first = vectors[0]
    for v in vectors:
        first._match(v)
    pivots, _ = _echelon([v.pcoeffs for v in vectors], first.ring, track=False)
    return len(pivots)


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


def kernel_basis(A: LinearMap) -> list[ModuleElement]:
    """A basis of ker A as domain elements, each verified to map to zero.

    Over a field the vectors come from _echelon.  Over ZZ they are a basis
    over QQ of the kernel made of primitive integer vectors, from
    _integer_kernel (not always a basis of the integer kernel lattice): no
    Fraction is formed, and the zero check runs over ZZ."""
    if A.ring == ZZ:
        combos = _integer_kernel(A.pcols)
    else:
        _, combos = _echelon(A.pcols, A.ring, track=True)
    out = []
    for combo in combos:
        if _settled(A.ring, A._add_image({}, combo.items())):
            raise ConsistencyError("kernel vector failed the zero check")
        out.append(ModuleElement.from_positions(A.domain, A.ring, combo))
    return out
