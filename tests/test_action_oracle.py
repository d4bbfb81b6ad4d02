"""Differential tests: the native-arithmetic group action, Lie action and
compose, and the structure maps mu and B, against the original per-label
algorithms, kept here as reference oracles only.  The hand-written X/Y flip
maps are kept as the oracle for the group action at the swap matrix.

The oracle action multiplies out every product of single-factor images and
makes one Ring method call per scalar operation; the oracle compose does
the same per product.  Both drop zeros as they go.  The oracle Lie action
applies e or f to one basis label at a time, factor by factor.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethy import (
    QQ,
    ZGAMMA,
    ZZ,
    IntPoly,
    KroneckerMap,
    LinearMap,
    PrimeField,
    Sym,
    SymPower,
    Tensor,
    Wedge,
    basis,
    basis_index,
    binomial,
    dim,
    group_action_map,
    hook_schur_space,
    identity_map,
    iso_context,
    lie_action_map,
    multiplication_map,
    wedge_normalize,
)
import plethy.spaces as spaces
from oracles import gamma_coefficients, kernel_basis_vector, whole_lie_map

RINGS = (ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), ZGAMMA)


# ------------------------------------------------------------------ oracles


def _oracle_linear_form_power(ring, s, t, m):
    return [
        ring.mul(
            ring.from_int(binomial(m, u)), ring.mul(ring.pow(s, m - u), ring.pow(t, u))
        )
        for u in range(m + 1)
    ]


def _oracle_sym_table(ring, g, c):
    (g11, g12), (g21, g22) = g
    table = []
    for a in range(c + 1):
        xs = _oracle_linear_form_power(ring, g11, g21, c - a)
        ys = _oracle_linear_form_power(ring, g12, g22, a)
        out = {}
        for u, cu in enumerate(xs):
            if ring.is_zero(cu):
                continue
            for v, cv in enumerate(ys):
                if ring.is_zero(cv):
                    continue
                s = ring.add(out.get(u + v, ring.zero), ring.mul(cu, cv))
                if ring.is_zero(s):
                    out.pop(u + v, None)
                else:
                    out[u + v] = s
        table.append(out)
    return table


def _oracle_product_expand(ring, factor_dicts, combine):
    out = {}
    for combo in itertools.product(*(fd.items() for fd in factor_dicts)):
        target = combine(tuple(b for b, _ in combo))
        if target is None:
            continue
        label, sgn = target
        val = ring.from_int(sgn)
        for _, cv in combo:
            val = ring.mul(val, cv)
        s = ring.add(out.get(label, ring.zero), val)
        if ring.is_zero(s):
            out.pop(label, None)
        else:
            out[label] = s
    return out


def _oracle_label_action(ring, g, space, label):
    if isinstance(space, Sym):
        return _oracle_sym_table(ring, g, space.c)[label]
    if isinstance(space, (Wedge, SymPower)):
        c = space.inner.c
        table = _oracle_sym_table(ring, g, c)
        if isinstance(space, Wedge):
            combine = lambda ls: wedge_normalize(ls, c)  # noqa: E731
        else:
            combine = lambda ls: (tuple(sorted(ls)), 1)  # noqa: E731
        return _oracle_product_expand(ring, [table[a] for a in label], combine)
    lpart = _oracle_label_action(ring, g, space.left, label[0])
    rpart = _oracle_label_action(ring, g, space.right, label[1])
    return {
        (ll, rl): ring.mul(lv, rv)
        for ll, lv in lpart.items()
        for rl, rv in rpart.items()
    }


def oracle_action_cols(ring, g, space):
    return [
        {l: v for l, v in _oracle_label_action(ring, g, space, label).items()
         if not ring.is_zero(v)}
        for label in basis(space)
    ]


def _oracle_lie_label(which, space, label):
    """The image of one basis label under e or f, integer entries."""
    if isinstance(space, Sym):
        a, c = label, space.c
        if which == "e":
            return {a - 1: a} if a >= 1 else {}
        return {a + 1: c - a} if a <= c - 1 else {}
    if isinstance(space, (Wedge, SymPower)):
        c = space.inner.c
        out = {}
        for idx, a in enumerate(label):
            if which == "e":
                if a < 1:
                    continue
                new = label[:idx] + (a - 1,) + label[idx + 1 :]
                coeff = a
            else:
                if a > c - 1:
                    continue
                new = label[:idx] + (a + 1,) + label[idx + 1 :]
                coeff = c - a
            if isinstance(space, Wedge):
                if any(x == y for x, y in zip(new, new[1:])):
                    continue
            else:
                new = tuple(sorted(new))
            out[new] = out.get(new, 0) + coeff
        return out
    l0, l1 = label
    out = {(ll, l1): lv for ll, lv in _oracle_lie_label(which, space.left, l0).items()}
    for rl, rv in _oracle_lie_label(which, space.right, l1).items():
        key = (l0, rl)
        out[key] = out.get(key, 0) + rv
    return out


def oracle_lie_cols(which, space):
    return [
        {l: v for l, v in _oracle_lie_label(which, space, label).items() if v}
        for label in basis(space)
    ]


def flip_domain_map(ring, N, d):
    """X <-> Y swap on the domain: complement the wedge labels in d+1 and
    reflect the loose exponent in N-1.  An involution."""
    domain = iso_context(N, d).domain

    def fn(label):
        s, k = label
        norm = wedge_normalize(tuple(d + 1 - v for v in k), d + 1)
        lab, sgn = norm  # complements of distinct entries stay distinct
        return {(N - 1 - s, lab): ring.from_int(sgn)}

    return LinearMap.from_function(ring, domain, domain, fn)


def flip_codomain_map(ring, N, d):
    """X <-> Y swap on the ambient space: complement wedge labels and the
    loose exponent in d.  An involution."""
    ambient = hook_schur_space(N, d).ambient

    def fn(label):
        k, a = label
        norm = wedge_normalize(tuple(d - v for v in k), d)
        lab, sgn = norm
        return {(lab, d - a): ring.from_int(sgn)}

    return LinearMap.from_function(ring, ambient, ambient, fn)


def oracle_compose_cols(A, B):
    ring = A.ring
    idx = basis_index(A.domain)
    cols = []
    for col in B.cols:
        out = {}
        for bl, c in col.items():
            for cl, m in A.cols[idx[bl]].items():
                s = ring.add(out.get(cl, ring.zero), ring.mul(c, m))
                if ring.is_zero(s):
                    out.pop(cl, None)
                else:
                    out[cl] = s
        cols.append(out)
    return cols


def oracle_multiplication_map(ring, N, d):
    """mu one label at a time: sort k + (a,) by wedge_normalize."""

    def fn(label):
        k, a = label
        norm = wedge_normalize(k + (a,), d)
        if norm is None:
            return {}
        lab, sgn = norm
        return {lab: ring.from_int(sgn)}

    domain = Tensor(Wedge(N, Sym(d)), Sym(d))
    return LinearMap.from_function(ring, domain, Wedge(N + 1, Sym(d)), fn)


def oracle_basis_matrix(hook, ring):
    """B one kernel basis vector, a label-keyed element, per pair."""
    return LinearMap.from_function(
        ring, hook.coords, hook.ambient, lambda p: kernel_basis_vector(hook, ring, p)
    )


# --------------------------------------------------------------- strategies

_atoms = st.one_of(
    st.integers(0, 4).map(Sym),
    st.builds(Wedge, st.integers(0, 3), st.integers(0, 5).map(Sym)),
    st.builds(SymPower, st.integers(0, 3), st.integers(0, 3).map(Sym)),
)
SPACES = st.recursive(
    _atoms, lambda inner: st.builds(Tensor, inner, inner), max_leaves=3
).filter(lambda s: dim(s) <= 40)

SMALL_SPACES = SPACES.filter(lambda s: dim(s) <= 8)

# single powers deep enough to read every level k < r <= 5 of the insertion
# tables, bounded by dimension and by the oracle's product count
DEEP_POWERS = st.one_of(
    st.integers(3, 5).flatmap(
        lambda r: st.builds(Wedge, st.just(r), st.integers(r - 1, 7).map(Sym))
    ),
    st.builds(SymPower, st.integers(3, 5), st.integers(0, 3).map(Sym)),
).filter(lambda s: dim(s) <= 40 and dim(s) * (s.inner.c + 1) ** s.r <= 50_000)


def scalars(ring):
    """Small payloads of a ring, zero included, so sums can cancel."""
    if ring == ZZ:
        return st.integers(-3, 3)
    if ring == QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if ring == ZGAMMA:
        return st.lists(st.integers(-2, 2), max_size=3).map(
            lambda cs: IntPoly(cs, "gamma")
        )
    return st.integers(0, ring.p - 1)


@st.composite
def ring_and_matrix(draw, rings=RINGS):
    """A ring and a 2x2 matrix over it; singular matrices (second row a
    multiple of the first) are drawn on purpose."""
    ring = draw(st.sampled_from(rings))
    xs = scalars(ring)
    a, b = draw(xs), draw(xs)
    if draw(st.booleans()):
        k = draw(xs)
        c, d = ring.mul(k, a), ring.mul(k, b)
    else:
        c, d = draw(xs), draw(xs)
    return ring, ((a, b), (c, d))


@st.composite
def sparse_map(draw, ring, domain, codomain):
    labels = basis(codomain)
    cols = []
    for _ in basis(domain):
        support = draw(st.lists(st.sampled_from(labels), max_size=4)) if labels else []
        cols.append({l: draw(scalars(ring)) for l in support})
    return LinearMap(domain, codomain, ring, cols)


@st.composite
def composable_maps(draw):
    ring = draw(st.sampled_from(RINGS))
    small = SPACES.filter(lambda s: dim(s) <= 12)
    s0, s1, s2 = draw(small), draw(small), draw(small)
    return draw(sparse_map(ring, s1, s2)), draw(sparse_map(ring, s0, s1))


# --------------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(ring_and_matrix(), SPACES)
def test_action_map_matches_oracle(ring_g, space):
    ring, g = ring_g
    A = group_action_map(ring, g, space)
    assert A.cols == oracle_action_cols(ring, g, space)


@settings(max_examples=80, deadline=None)
@given(ring_and_matrix(), DEEP_POWERS)
def test_deep_power_action_matches_oracle(ring_g, space):
    ring, g = ring_g
    A = group_action_map(ring, g, space)
    assert A.cols == oracle_action_cols(ring, g, space)


@pytest.mark.parametrize("kind", [Wedge, SymPower])
def test_insertion_tables_place_a_factor_as_sorting_does(kind):
    # entry [t][b] against sorting t + (b,): its position in the next
    # power, ~position for a wedge sign of -1, None for a repeated factor
    for c in range(7):
        inner = Sym(c)
        for k in range(6):
            table = spaces._insertions(kind, inner, k)
            assert table is spaces._insertions(kind, inner, k)
            labels = basis(kind(k, inner))
            assert len(table) == len(labels)
            idx = basis_index(kind(k + 1, inner))
            for t, row in zip(labels, table):
                assert len(row) == c + 1
                for b, entry in enumerate(row):
                    if kind is SymPower:
                        assert entry == idx[tuple(sorted(t + (b,)))]
                        continue
                    placed = wedge_normalize(t + (b,), c)
                    if placed is None:
                        assert entry is None
                    else:
                        label, sign = placed
                        assert entry == (idx[label] if sign == 1 else ~idx[label])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((ZZ, QQ, PrimeField(2), PrimeField(3), ZGAMMA)),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=7),
)
def test_multiplication_map_matches_the_sorting_oracle(ring, N, d):
    # GF(2) is drawn because -1 = 1 there; N > d + 1 gives empty spaces
    mu = multiplication_map(ring, N, d)
    oracle = oracle_multiplication_map(ring, N, d)
    assert mu == oracle
    assert mu.cols == oracle.cols


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_basis_matrix_matches_the_kernel_vector_oracle(ring):
    for N, d in ((1, 0), (1, 4), (2, 4), (3, 5), (4, 4), (3, 1)):
        hook = hook_schur_space(N, d)
        B = hook.basis_matrix(ring)
        oracle = oracle_basis_matrix(hook, ring)
        assert B == oracle
        assert [list(col) for col in B.pcols] == [list(col) for col in oracle.pcols]


@pytest.mark.parametrize(
    "ring,digest",
    [
        (ZZ, "3051f4cb2aa87a5f6390f99d8b3a5ea993dd45ab360b00ce6cd125e99ba93034"),
        (PrimeField(3), "b011a3e2663c2b8379d83dc44f548737ee6c00a904c96afcc7e8d6c36f0b5d84"),
    ],
)
def test_unipotent_on_wedge_5_sym_11_is_pinned(ring, digest):
    # the columns, their keys in order, of the builder that placed each
    # factor by bisect into label tuples and translated them at the end
    A = group_action_map(ring, ((1, 1), (0, 1)), Wedge(5, Sym(11)))
    assert hashlib.sha256(repr(A.pcols).encode()).hexdigest() == digest


def test_action_oracle_covers_a_wedge_sign():
    # g swaps X and Y up to sign, so every wedge image is a signed basis label
    g = ((0, 1), (1, 0))
    space = Wedge(2, Sym(2))
    A = group_action_map(ZZ, g, space)
    assert A.cols == oracle_action_cols(ZZ, g, space)
    assert A.column((0, 1)).coeffs == {(1, 2): -1}


def _swap_matches_flips(ring, N, d):
    swap = ((ring.zero, ring.one), (ring.one, ring.zero))
    ctx = iso_context(N, d)
    for space, flip in (
        (ctx.domain, flip_domain_map),
        (ctx.hook.ambient, flip_codomain_map),
    ):
        assert group_action_map(ring, swap, space).cols == flip(ring, N, d).cols, (
            ring, N, d, space)


@pytest.mark.parametrize(
    "N,d", [(N, d) for d in range(7) for N in range(1, d + 3)]
)
def test_swap_action_matches_flip_oracle(N, d):
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(3)):
        _swap_matches_flips(ring, N, d)


@pytest.mark.parametrize("N,d", [(1, 0), (2, 4), (3, 3), (4, 5)])
def test_swap_action_matches_flip_oracle_over_zgamma(N, d):
    _swap_matches_flips(ZGAMMA, N, d)


@settings(max_examples=100, deadline=None)
@given(ring_and_matrix(), SMALL_SPACES, SMALL_SPACES)
def test_tensor_action_is_the_kronecker_product_of_the_factor_actions(
    ring_g, left, right
):
    # the rule that lets the commutation check apply g (x) g one factor at
    # a time: column (l, r) holds a b at (l', r'), entry for entry
    ring, g = ring_g
    space = Tensor(left, right)
    lcols = group_action_map(ring, g, left).cols
    rcols = group_action_map(ring, g, right).cols
    kron = []
    for lcol in lcols:
        for rcol in rcols:
            out = {}
            for ll, lv in lcol.items():
                for rl, rv in rcol.items():
                    v = ring.mul(lv, rv)
                    if not ring.is_zero(v):
                        out[(ll, rl)] = v
            kron.append(out)
    assert group_action_map(ring, g, space).cols == kron
    # one shared Sym table per (ring, g, c), equal to a fresh build
    for atom in space.sym_atoms():
        table = spaces._sym_action_table(ring, g, atom.c)
        assert table is spaces._sym_action_table(ring, g, atom.c)
        assert table == spaces._sym_action_table.__wrapped__(ring, g, atom.c)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from("ef"), SPACES)
def test_lie_map_matches_oracle(which, space):
    A = lie_action_map(which, space)
    assert A.ring == ZZ
    assert A.cols == oracle_lie_cols(which, space)



# tensors of the atoms, one of them nested
TENSORS = st.one_of(
    SPACES.filter(lambda s: type(s) is Tensor),
    st.builds(Tensor, st.builds(Tensor, _atoms, _atoms), _atoms).filter(
        lambda s: dim(s) <= 40
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from("ef"), TENSORS, st.data())
def test_tensor_lie_map_on_its_factors_matches_the_whole_map(which, space, data):
    # the Kronecker sum e (x) 1 + 1 (x) e against the whole map that
    # Tensor._lie_columns built: the raw image of a vector and the columns
    # of a map phi after it, which form no column, then the columns, in the
    # same order
    A = lie_action_map(which, space)
    W = whole_lie_map(which, space)
    assert isinstance(A, spaces.KroneckerSum) and A.ring == ZZ
    n = dim(space)
    raw = data.draw(st.lists(st.tuples(st.integers(0, 10**6), scalars(ZZ)), max_size=6))
    items = [(pos % n, c) for pos, c in raw] if n else []
    settled = spaces._settled
    assert settled(ZZ, A._add_image({}, items)) == settled(ZZ, W._add_image({}, items))
    phi = data.draw(sparse_map(ZZ, space, data.draw(SMALL_SPACES)))
    after = dict(A._columns_after(phi))
    assert sorted(after) == list(range(n))
    assert all(
        settled(ZZ, after[j]) == settled(ZZ, col) for j, col in W._columns_after(phi)
    )
    assert A._pcols is None
    assert A.pcols == W.pcols
    assert [list(col) for col in A.pcols] == [list(col) for col in W.pcols]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((ZZ, PrimeField(2), PrimeField(3), PrimeField(5))), st.data())
def test_kronecker_compose_composes_the_factors(ring, data):
    # (A (x) B)(C (x) D) = AC (x) BD, against the whole composition
    tiny = SPACES.filter(lambda s: dim(s) <= 5)
    l0, l1, l2, r0, r1, r2 = (data.draw(tiny) for _ in range(6))
    outer = KroneckerMap(
        data.draw(sparse_map(ring, l1, l2)), data.draw(sparse_map(ring, r1, r2))
    )
    inner = KroneckerMap(
        data.draw(sparse_map(ring, l0, l1)), data.draw(sparse_map(ring, r0, r1))
    )
    product = outer.compose(inner)
    assert isinstance(product, KroneckerMap) and product._pcols is None
    assert product.cols == oracle_compose_cols(outer, inner)
    # a plain map on either side composes whole, as before
    plain = LinearMap(inner.domain, inner.codomain, ring, inner.cols)
    assert type(outer.compose(plain)) is LinearMap
    assert outer.compose(plain).cols == product.cols
    # factor spaces that do not match are refused, as by any compose
    if l0 != l1 or r0 != r1:
        with pytest.raises(ValueError, match="composition mismatch"):
            outer.compose(KroneckerMap(identity_map(ring, l0), identity_map(ring, r0)))


@pytest.mark.parametrize("ring", [ZZ, PrimeField(3)])
def test_kronecker_maps_compare_and_scale_as_their_products(ring):
    left, right = Wedge(2, Sym(3)), Sym(2)
    space = Tensor(left, right)
    plain = LinearMap.from_positions(
        space, space, ring, ({j: ring.one} for j in range(dim(space)))
    )
    one = identity_map(ring, space)
    assert isinstance(one, KroneckerMap) and one == plain and plain == one
    # unequal factors whose products are equal: -1 (x) -1 is the identity
    minus = KroneckerMap(
        identity_map(ring, left).scale(-1), identity_map(ring, right).scale(-1)
    )
    assert minus == one
    half = KroneckerMap(identity_map(ring, left).scale(-1), identity_map(ring, right))
    assert half != one
    # a Kronecker sum is only of maps from a space to itself
    with pytest.raises(ValueError, match="from a space to itself"):
        spaces.KroneckerSum(multiplication_map(ring, 1, 1), identity_map(ring, right))
    g = ((ring.from_int(1), ring.from_int(2)), (ring.zero, ring.one))
    A = group_action_map(ring, g, space)
    for s in (1, -1, 2):
        scaled = A.scale(s)
        assert isinstance(scaled, KroneckerMap)
        assert scaled.cols == LinearMap(space, space, ring, A.cols).scale(s).cols

@settings(max_examples=150, deadline=None)
@given(composable_maps())
def test_compose_matches_oracle(maps):
    A, B = maps
    assert A.compose(B).cols == oracle_compose_cols(A, B)


@settings(max_examples=60, deadline=None)
@given(ring_and_matrix((ZGAMMA,)), SPACES)
def test_gamma_coefficients_reassemble_the_map(ring_g, space):
    ring, g = ring_g
    A = group_action_map(ring, g, space)
    parts = gamma_coefficients(A)
    assert all(P.ring == ZZ and any(P.cols) for P in parts.values())
    gamma = ZGAMMA.gen()
    total = [{} for _ in A.cols]
    for k, P in parts.items():
        for out, col in zip(total, P.cols):
            for l, c in col.items():
                out[l] = out.get(l, ZGAMMA.zero) + c * gamma**k
    assert LinearMap(A.domain, A.codomain, ZGAMMA, total) == A
