"""Differential tests: the equivariance routes against the earlier ones,
kept here as reference oracles only.

The oracle polynomial route builds both unipotent actions over Z[gamma]
and compares them gamma-coefficient by gamma-coefficient.  The oracle
prime-field route composes one action pair for every gamma in 0..p-1, for
both transposes.  Both are compared with the routes in plethy.iso on the
true map and on maps broken at random.

The column-at-a-time comparison iso._commutes is checked against the
whole-map comparison it replaced, which builds both products and compares
them with ==, on plain maps and on tensor actions (which _commutes applies
one factor at a time), and against the per-k comparison that cuts each
action map into one map per Y-degree change k: a per-k pass implies a
whole pass, and on a Y-homogeneous map the two agree, which is what lets
the polynomial route compare once after checking homogeneity.  Those oracles run on
random sparse maps and on the routes themselves.

The prime-field route skips its GF(p) comparison for U(1) and its
transpose when the polynomial route's record shows the same phi commuting
with integer maps that reduce to the GF(p) ones.  The last tests count the
GF(p) comparisons that remain, and poison the record, to show that the
route's keys equal the direct oracle's whatever the record holds.
"""

import copy
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plethy.iso as iso
from plethy import (
    ZGAMMA,
    ZZ,
    KroneckerMap,
    LinearMap,
    PrimeField,
    Sym,
    SymPower,
    Tensor,
    Wedge,
    basis,
    basis_index,
    group_action_map,
    identity_map,
    iso_context,
    lie_action_map,
    verify_duality,
    verify_group_equivariance_fp,
    verify_group_equivariance_poly,
    verify_lie_equivariance,
)
from oracles import gamma_coefficients
from plethy.cli import verify_point

PRIMES = (2, 3, 5, 7)
GRID = [(N, d) for d in range(6) for N in range(1, 4)]


# ------------------------------------------------------------------ oracles


def oracle_poly(ctx) -> dict:
    ring = ZGAMMA
    phi = ctx.matrix
    gamma = ring.gen()
    zero = LinearMap(ctx.domain, ctx.hook.ambient, ZZ, [{} for _ in phi.cols])
    out = {}
    for transpose, name in ((False, "upper"), (True, "lower")):
        g = iso._unipotent(ring, gamma, transpose)
        dom = gamma_coefficients(group_action_map(ring, g, ctx.domain))
        amb = gamma_coefficients(group_action_map(ring, g, ctx.hook.ambient))
        out[f"commutes_with_{name}_unipotent"] = all(
            (phi.compose(dom[k]) if k in dom else zero)
            == (amb[k].compose(phi) if k in amb else zero)
            for k in sorted(dom.keys() | amb.keys())
        )
    return out


def oracle_fp(ctx, p: int) -> dict:
    ring = PrimeField(p)
    phi = ctx.matrix_over(ring)
    ok = True
    for gamma in range(p):
        for transpose in (False, True):
            g = iso._unipotent(ring, ring.from_int(gamma), transpose)
            dom = group_action_map(ring, g, ctx.domain)
            amb = group_action_map(ring, g, ctx.hook.ambient)
            if phi.compose(dom) != amb.compose(phi):
                ok = False
    return {
        "commutes_with_all_unipotents": ok,
        "determinant_unit_mod_p": prod(ctx.diagonal) % p == 1 % p,
    }


def oracle_commutes(phi, A, B) -> bool:
    """phi A == B phi, with both products built whole."""
    return phi.compose(A) == B.compose(phi)


def oracle_ychange_parts(A, transpose: bool) -> dict:
    """The maps E_k that split an action map A on one space by Y-degree
    change: E_k keeps the entries whose row label lies k below its column
    label, or k above it for the transpose.  A row label outside the basis
    is split by its own Y-degree."""
    space = A.domain
    ydeg = {label: space.ydegree(label) for label in basis(space)}
    get = ydeg.get
    sign = -1 if transpose else 1
    n = len(A.cols)
    parts: dict = {}
    for j, (w, col) in enumerate(zip(ydeg.values(), A.cols)):
        for label, c in col.items():
            v = get(label)
            k = sign * (w - (space.ydegree(label) if v is None else v))
            cols = parts.get(k)
            if cols is None:
                cols = parts[k] = [{} for _ in range(n)]
            cols[j][label] = c
    return {k: LinearMap(space, space, A.ring, parts[k]) for k in sorted(parts)}


def oracle_commutes_by_ychange(phi, A, B, transpose: bool) -> bool:
    """phi E_k == F_k phi for every Y-degree change k, with E_k and F_k the
    parts of A and B, an absent part being the zero map."""
    dom = oracle_ychange_parts(A, transpose)
    amb = oracle_ychange_parts(B, transpose)
    zero = LinearMap(phi.domain, phi.codomain, phi.ring, [{} for _ in phi.cols])
    return all(
        (phi.compose(dom[k]) if k in dom else zero)
        == (amb[k].compose(phi) if k in amb else zero)
        for k in sorted(dom.keys() | amb.keys())
    )


def oracle_lie(ctx) -> dict:
    return {
        f"commutes_with_{which}": oracle_commutes(
            ctx.matrix,
            lie_action_map(which, ctx.domain),
            lie_action_map(which, ctx.hook.ambient),
        )
        for which in ("e", "f")
    }


def oracle_poly_by_ychange(ctx) -> dict:
    out = {}
    for transpose, name in ((False, "upper"), (True, "lower")):
        g = iso._unipotent(ZZ, 1, transpose)
        out[f"commutes_with_{name}_unipotent"] = iso._sym_tables_are_monomial(
            (ctx.domain, ctx.hook.ambient), transpose
        ) and oracle_commutes_by_ychange(
            ctx.matrix,
            group_action_map(ZZ, g, ctx.domain),
            group_action_map(ZZ, g, ctx.hook.ambient),
            transpose,
        )
    return out


def oracle_fp_generators(ctx, p: int) -> dict:
    ring = PrimeField(p)
    phi = ctx.matrix_over(ring)
    elements = [(1, False), (1, True)] + ([(p - 1, False)] if p > 2 else [])
    ok = True
    for gamma, transpose in elements:
        g = iso._unipotent(ring, ring.from_int(gamma), transpose)
        dom = group_action_map(ring, g, ctx.domain)
        amb = group_action_map(ring, g, ctx.hook.ambient)
        ok = oracle_commutes(phi, dom, amb) and ok
    return {
        "commutes_with_all_unipotents": ok,
        "determinant_unit_mod_p": prod(ctx.diagonal) % p == 1 % p,
    }


def oracle_swap_exchanges(ctx) -> dict:
    tau = group_action_map(ZZ, iso.SWAP, ctx.domain)
    tau2 = group_action_map(ZZ, iso.SWAP, ctx.hook.ambient)
    e_dom, f_dom = (lie_action_map(w, ctx.domain) for w in ("e", "f"))
    e_amb, f_amb = (lie_action_map(w, ctx.hook.ambient) for w in ("e", "f"))
    return {
        "domain_swap_exchanges_e_f": e_dom.compose(tau) == tau.compose(f_dom),
        "codomain_swap_exchanges_e_f": tau2.compose(e_amb) == f_amb.compose(tau2),
    }


# ------------------------------------------------------------ random maps

MAP_RINGS = (ZZ, PrimeField(2), PrimeField(3))
# each space with a wider one of the same shape, whose extra labels lie
# outside the space's basis
SPACE_PAIRS = (
    (Sym(0), Sym(1)),
    (Sym(3), Sym(4)),
    (Wedge(2, Sym(3)), Wedge(2, Sym(4))),
    (Tensor(Sym(1), Sym(2)), Tensor(Sym(2), Sym(3))),
    (Tensor(Sym(1), Wedge(2, Sym(2))), Tensor(Sym(2), Wedge(2, Sym(3)))),
)


def _outside(pair) -> tuple:
    space, wider = pair
    inside = basis_index(space)
    return tuple(label for label in basis(wider) if label not in inside)


@st.composite
def sparse_maps(draw, ring, domain, codomain, extra_rows=()):
    rows = basis(codomain) + tuple(extra_rows)
    cols = []
    for _ in basis(domain):
        entries = draw(
            st.lists(st.tuples(st.sampled_from(rows), st.integers(-3, 3)), max_size=3)
        )
        col: dict = {}
        for row, v in entries:
            col[row] = col.get(row, 0) + v
        cols.append({row: ring.from_int(v) for row, v in col.items()})
    return LinearMap(domain, codomain, ring, cols)


TENSOR_FACTORS = (
    Sym(0),
    Sym(1),
    Sym(2),
    Wedge(2, Sym(2)),
    Wedge(2, Sym(3)),
    SymPower(2, Sym(1)),
    SymPower(2, Sym(2)),
)


def _changed(ring, M, j: int, row, delta: int):
    """A plain copy of M with delta added at (row, column j)."""
    cols = [dict(col) for col in M.cols]
    cols[j][row] = cols[j].get(row, ring.zero) + ring.from_int(delta)
    return LinearMap(M.domain, M.codomain, ring, cols)


@st.composite
def tensor_commutation_cases(draw):
    """(phi, A, B) with A and B the actions of one random integer matrix g
    on two tensor spaces, both KroneckerMaps, over ZZ, GF(2), GF(3) or
    Z[gamma].  phi is equivariant by construction: the identity, the action
    of g itself, the swap of the two tensor factors, or 1 (x) g.  Then one
    entry of phi, or of one factor of A or B, may be changed."""
    ring = draw(st.sampled_from(MAP_RINGS + (ZGAMMA,)))
    g = tuple(
        tuple(ring.from_int(draw(st.integers(-2, 2))) for _ in range(2))
        for _ in range(2)
    )
    left = draw(st.sampled_from(TENSOR_FACTORS))
    right = draw(st.sampled_from(TENSOR_FACTORS))
    X = Tensor(left, right)
    kind = draw(st.sampled_from(("identity", "action", "swap", "one_tensor_g")))
    Y = Tensor(right, left) if kind == "swap" else X
    if kind == "identity":
        phi = identity_map(ring, X)
    elif kind == "action":
        phi = group_action_map(ring, g, X)
    elif kind == "swap":
        phi = LinearMap.from_function(
            ring, X, Y, lambda label: {(label[1], label[0]): ring.one}
        )
    else:
        phi = KroneckerMap(identity_map(ring, left), group_action_map(ring, g, right))
    A = group_action_map(ring, g, X)
    B = group_action_map(ring, g, Y)
    target = draw(st.sampled_from(("none", "phi", "A", "B")))
    delta = draw(st.integers(1, 4))
    if target == "phi":
        j = draw(st.integers(0, len(phi.cols) - 1))
        phi = _changed(ring, phi, j, draw(st.sampled_from(basis(Y))), delta)
    elif target != "none":
        M = A if target == "A" else B
        side = draw(st.sampled_from(("left", "right")))
        F = getattr(M, side)
        j = draw(st.integers(0, len(F.cols) - 1))
        F = _changed(ring, F, j, draw(st.sampled_from(basis(F.codomain))), delta)
        M = KroneckerMap(F, M.right) if side == "left" else KroneckerMap(M.left, F)
        if target == "A":
            A = M
        else:
            B = M
    return phi, A, B


@st.composite
def commutation_cases(draw):
    """(phi, A, B, transpose) for the question phi A == B phi.  The maps
    commute by construction in most draws, before one entry of phi, A or B
    may be changed.  A row label outside the basis is refused where a map
    is built (test_a_row_outside_the_basis_is_refused_where_the_map_is_built).
    A quarter of the draws are tensor_commutation_cases."""
    transpose = draw(st.booleans())
    source = draw(st.sampled_from(("action", "random", "independent", "tensor")))
    if source == "tensor":
        return (*draw(tensor_commutation_cases()), transpose)
    ring = draw(st.sampled_from(MAP_RINGS))
    x_pair = draw(st.sampled_from(SPACE_PAIRS))
    X = x_pair[0]
    if source == "independent":
        Y = draw(st.sampled_from(SPACE_PAIRS))[0]
        phi = draw(sparse_maps(ring, X, Y))
        A = draw(sparse_maps(ring, X, X))
        B = draw(sparse_maps(ring, Y, Y))
    else:
        Y = X
        if source == "action":
            A = group_action_map(ring, iso._unipotent(ring, ring.one, transpose), X)
        else:
            A = draw(sparse_maps(ring, X, X))
        lie = lie_action_map("f" if transpose else "e", X)
        phi = draw(
            st.sampled_from(
                (
                    identity_map(ring, X),
                    A,
                    A.compose(A) - A,
                    lie.map_entries(ring, ring.from_int),
                )
            )
        )
        B = A
    target = draw(st.sampled_from(("none", "phi", "A", "B")))
    if target != "none":
        M = {"phi": phi, "A": A, "B": B}[target]
        j = draw(st.integers(0, len(M.cols) - 1))
        row = draw(st.sampled_from(basis(M.codomain)))
        M = _changed(ring, M, j, row, draw(st.integers(1, 4)))
        if target == "phi":
            phi = M
        elif target == "A":
            A = M
        else:
            B = M
    return phi, A, B, transpose


# ------------------------------------------------------------------ breaks


def _broken(ctx, kind: str, j: int, r: int, delta: int):
    """A copy of ctx whose map is broken in column j; r picks an entry of
    that column or an ambient label, delta is the added integer."""
    cols = [dict(col) for col in ctx.matrix.cols]
    col = cols[j]
    labels = list(col)
    label = labels[r % len(labels)]
    ydeg = ctx.hook.ambient.ydegree
    amb = basis(ctx.hook.ambient)
    if kind == "shift":
        col[label] += delta
    elif kind == "drop":
        del col[label]
    elif kind == "add_same_degree":
        same = [l for l in amb if ydeg(l) == ydeg(label)]
        target = same[r % len(same)]
        col[target] = col.get(target, 0) + delta
    else:  # move an entry to a label of another Y-degree
        other = [l for l in amb if ydeg(l) != ydeg(label)]
        target = other[r % len(other)]
        col[target] = col.get(target, 0) + col.pop(label)
    broken = copy.copy(ctx)
    broken.matrix = LinearMap(ctx.domain, ctx.hook.ambient, ZZ, cols)
    return broken


def _reports(ctx, p):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(iso, "iso_context", lambda N, d: ctx)
        return (
            verify_group_equivariance_poly(ctx.N, ctx.d),
            verify_group_equivariance_fp(ctx.N, ctx.d, p),
        )


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("N, d", GRID)
def test_true_map_matches_oracle(N, d):
    ctx = iso_context(N, d)
    assert verify_group_equivariance_poly(N, d) == oracle_poly(ctx)
    for p in PRIMES:
        assert verify_group_equivariance_fp(N, d, p) == oracle_fp(ctx, p), p


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(1, 3),
    d=st.integers(1, 4),
    p=st.sampled_from(PRIMES),
    kind=st.sampled_from(("shift", "drop", "add_same_degree", "move_degree")),
    j=st.integers(0, 10**6),
    r=st.integers(0, 10**6),
    delta=st.sampled_from((1, -1, 2, 3, 5, 7, 10)),
)
def test_broken_maps_match_oracle(N, d, p, kind, j, r, delta):
    ctx = iso_context(N, d)
    nonzero = [m for m, col in enumerate(ctx.matrix.cols) if col]
    if not nonzero:
        return
    broken = _broken(ctx, kind, nonzero[j % len(nonzero)], r, delta)
    assert _reports(broken, p) == (oracle_poly(broken), oracle_fp(broken, p))


@pytest.mark.parametrize("p", PRIMES)
def test_a_map_that_mixes_y_degrees_fails_both_routes(p):
    # one entry of phi moved to a label of another Y-degree: phi is no
    # longer Y-homogeneous, and both the oracle and the route see it
    ctx = iso_context(2, 3)
    broken = _broken(ctx, "move_degree", 3, 0, 0)
    poly, fp = _reports(broken, p)
    assert poly == oracle_poly(broken) == {
        "commutes_with_upper_unipotent": False,
        "commutes_with_lower_unipotent": False,
    }
    assert fp == oracle_fp(broken, p)
    assert fp["commutes_with_all_unipotents"] is False


@settings(max_examples=300, deadline=None)
@given(commutation_cases())
def test_commutes_matches_the_whole_map_oracle(case):
    phi, A, B, _ = case
    assert iso._commutes(phi, A, B) == oracle_commutes(phi, A, B)


@settings(max_examples=200, deadline=None)
@given(tensor_commutation_cases())
def test_factored_commutes_matches_the_whole_map_oracle_on_tensor_actions(case):
    # _commutes applies A and B one factor at a time and never builds them;
    # the oracle composes their built-out columns
    phi, A, B = case
    assert isinstance(A, KroneckerMap) and isinstance(B, KroneckerMap)
    result = iso._commutes(phi, A, B)
    assert A._pcols is None and B._pcols is None
    assert A._cols is None and B._cols is None
    built = [LinearMap(M.domain, M.codomain, M.ring, M.cols) for M in (A, B)]
    assert result == oracle_commutes(phi, *built)


def _y_shifts(phi) -> set:
    """The Y-degree drops from column label to row label over the entries
    of phi: at most one for a Y-homogeneous map."""
    return {
        phi.domain.ydegree(label) - phi.codomain.ydegree(row)
        for label, col in zip(basis(phi.domain), phi.cols)
        for row in col
    }


@settings(max_examples=300, deadline=None)
@given(commutation_cases())
def test_commutes_matches_the_per_k_oracle_on_y_homogeneous_maps(case):
    # the parts of a column at different k land on different Y-degrees once
    # phi shifts every Y-degree by one constant, so the whole comparison is
    # the per-k one; otherwise a per-k pass still implies a whole pass
    phi, A, B, transpose = case
    whole = iso._commutes(phi, A, B)
    per_k = oracle_commutes_by_ychange(phi, A, B, transpose)
    shifts = _y_shifts(phi)
    for shift in shifts | {0}:
        assert iso._shifts_y_degree(phi, shift) == (shifts <= {shift})
    if len(shifts) <= 1:
        assert whole == per_k
    elif per_k:
        assert whole


@pytest.mark.parametrize("transpose", [False, True])
def test_commutes_by_ychange_sees_negative_changes_and_outside_rows(transpose):
    # U(1) on Sym(3) commutes with e (f, for the transpose), which shifts
    # Y-degree by one; one entry of B that moves the wrong way breaks it,
    # and the route and the per-k oracle both see it.  An entry that leaves
    # the basis is refused where B is built
    X = Sym(3)
    A = group_action_map(ZZ, iso._unipotent(ZZ, 1, transpose), X)
    phi = lie_action_map("f" if transpose else "e", X)
    assert iso._shifts_y_degree(phi, -1 if transpose else 1)
    assert iso._commutes(phi, A, A)
    assert oracle_commutes_by_ychange(phi, A, A, transpose)
    col = 3 if transpose else 0
    for row in (1, 2, -1, 4):  # k < 0 at 1 and 2; -1 and 4 are outside
        cols = [dict(c) for c in A.cols]
        cols[col][row] = cols[col].get(row, 0) + 1
        if row not in basis(X):
            with pytest.raises(ValueError, match="not in the basis"):
                LinearMap(X, X, ZZ, cols)
            continue
        B = LinearMap(X, X, ZZ, cols)
        assert iso._commutes(phi, A, B) is False, row
        assert oracle_commutes_by_ychange(phi, A, B, transpose) is False, row


def test_two_rows_outside_the_basis_do_not_cancel():
    # opposite entries at two different labels outside the basis of Sym(3)
    # would be two nonzero rows of phi A - B phi, not one that sums to zero;
    # the map that holds them is refused where it is built
    X = Sym(3)
    A = identity_map(ZZ, X)
    cols = [dict(c) for c in A.cols]
    cols[0][-1] = 1
    cols[0][4] = -1
    with pytest.raises(ValueError, match="not in the basis"):
        LinearMap(X, X, ZZ, cols)


@pytest.mark.parametrize("pair", SPACE_PAIRS, ids=lambda pair: repr(pair[0]))
@pytest.mark.parametrize("ring", MAP_RINGS, ids=str)
def test_a_row_outside_the_basis_is_refused_where_the_map_is_built(pair, ring):
    # each label of the wider space that is not in the basis is refused as
    # a row: in any column of a copy of an action map (the constructor),
    # through from_function, and in a factor of a KroneckerMap
    X = pair[0]
    A = group_action_map(ring, iso._unipotent(ring, ring.one, False), X)
    outside = _outside(pair)
    assert outside
    for row in outside:
        for j in range(len(A.cols)):
            with pytest.raises(ValueError, match="not in the basis"):
                _changed(ring, A, j, row, 1)
        with pytest.raises(ValueError, match="not in the basis"):
            LinearMap.from_function(ring, X, X, lambda label: {row: ring.one})
        with pytest.raises(ValueError, match="not in the basis"):
            KroneckerMap(A, LinearMap(X, X, ring, [{row: ring.one}] * len(A.cols)))


def test_kronecker_factor_with_a_row_outside_its_basis_is_refused():
    # a factor whose row lies outside its basis is refused where the factor
    # is built, so KroneckerMap's position arithmetic sees only positions
    with pytest.raises(ValueError, match="not in the basis"):
        A = LinearMap(Sym(1), Sym(1), ZZ, [{5: 1}, {1: 1}])
        KroneckerMap(A, A)


def test_poly_route_rejects_a_y_inhomogeneous_map_the_per_k_oracle_passes():
    # one whole comparison is weaker than the per-k identity on a map that
    # mixes Y-degrees: A = E_0 + E_1 on Sym(1), with E_0 = diag(2, 0) and
    # E_1 moving Y down, commutes with itself but not part by part
    X = Sym(1)
    A = LinearMap(X, X, ZZ, [{0: 2}, {0: 1}])
    assert iso._commutes(A, A, A)
    assert oracle_commutes_by_ychange(A, A, A, False) is False
    assert not iso._shifts_y_degree(A, 0)
    # so the poly route requires phi to shift Y-degree by N, which makes
    # each key alone stricter than the Z[gamma] identity: at (1, 1), one
    # entry added at another Y-degree keeps the upper identity, and both
    # keys fail
    ctx = iso_context(1, 1)
    cols = [dict(col) for col in ctx.matrix.cols]
    label = ((0,), 0)
    cols[2][label] = cols[2].get(label, 0) + 1
    broken = copy.copy(ctx)
    broken.matrix = LinearMap(ctx.domain, ctx.hook.ambient, ZZ, cols)
    oracle = {
        "commutes_with_upper_unipotent": True,
        "commutes_with_lower_unipotent": False,
    }
    assert oracle_poly(broken) == oracle_poly_by_ychange(broken) == oracle
    poly, _ = _reports(broken, 2)
    assert poly == {
        "commutes_with_upper_unipotent": False,
        "commutes_with_lower_unipotent": False,
    }


def test_commutes_rejects_mismatched_maps():
    A = identity_map(ZZ, Sym(2))
    with pytest.raises(ValueError, match="mismatch"):
        iso._commutes(identity_map(ZZ, Sym(1)), A, A)
    with pytest.raises(ValueError, match="mismatch"):
        iso._commutes(A, A, A.map_entries(PrimeField(2), lambda v: v % 2))


@pytest.mark.parametrize("N, d", GRID)
def test_routes_match_the_whole_map_oracles(N, d):
    ctx = iso_context(N, d)
    assert verify_lie_equivariance(N, d) == oracle_lie(ctx)
    assert verify_group_equivariance_poly(N, d) == oracle_poly_by_ychange(ctx)
    for p in PRIMES:
        assert verify_group_equivariance_fp(N, d, p) == oracle_fp_generators(ctx, p)
    report = verify_duality(N, d)
    assert {k: report[k] for k in oracle_swap_exchanges(ctx)} == (
        oracle_swap_exchanges(ctx)
    )


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(1, 3),
    d=st.integers(1, 4),
    p=st.sampled_from(PRIMES),
    kind=st.sampled_from(("shift", "drop", "add_same_degree", "move_degree")),
    j=st.integers(0, 10**6),
    r=st.integers(0, 10**6),
    delta=st.sampled_from((1, -1, 2, 3, 5, 7, 10)),
)
def test_broken_maps_match_the_whole_map_oracles(N, d, p, kind, j, r, delta):
    ctx = iso_context(N, d)
    nonzero = [m for m, col in enumerate(ctx.matrix.cols) if col]
    if not nonzero:
        return
    broken = _broken(ctx, kind, nonzero[j % len(nonzero)], r, delta)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(iso, "iso_context", lambda N, d: broken)
        assert verify_lie_equivariance(N, d) == oracle_lie(broken)
        assert verify_group_equivariance_poly(N, d) == oracle_poly_by_ychange(broken)
        assert verify_group_equivariance_fp(N, d, p) == oracle_fp_generators(
            broken, p
        )


# ------------------------------------------------- the fp route's shortcut


def _counting_fp_commutes(monkeypatch) -> dict:
    """Patch iso._commutes to count its calls over each GF(p), keyed by p."""
    counts: dict = {}
    real = iso._commutes

    def counting(phi, dom, amb):
        if isinstance(phi.ring, PrimeField):
            counts[phi.ring.p] = counts.get(phi.ring.p, 0) + 1
        return real(phi, dom, amb)

    monkeypatch.setattr(iso, "_commutes", counting)
    return counts


@pytest.mark.parametrize("N, d", [(1, 3), (2, 4), (3, 5)])
def test_verify_point_compares_over_gf_p_only_at_the_spot_check(monkeypatch, N, d):
    # the poly route runs first and leaves its integer comparisons, so the
    # generators need no GF(p) comparison, and the spot check at p - 1 has one
    counts = _counting_fp_commutes(monkeypatch)
    point = verify_point(N, d, (2, 3, 5))
    assert all(point["checks"].values())
    assert counts == {3: 1, 5: 1}


@pytest.mark.parametrize("N, d", GRID)
def test_fp_route_alone_equals_fp_route_after_poly(monkeypatch, N, d):
    ctx = iso_context(N, d)
    for p in PRIMES:
        monkeypatch.setattr(iso, "_zz_unipotent_checks", {})
        counts = _counting_fp_commutes(monkeypatch)
        alone = verify_group_equivariance_fp(N, d, p)
        assert counts.get(p) == (3 if p > 2 else 2)
        counts.clear()
        verify_group_equivariance_poly(N, d)
        after = verify_group_equivariance_fp(N, d, p)
        assert counts.get(p, 0) == (1 if p > 2 else 0)
        assert alone == after == oracle_fp(ctx, p), p


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reduces_to_matches_the_reduced_copy_of_each_factor(data):
    # an integer action and a GF(p) one of the same matrix g on a tensor
    # space, one factor entry of either possibly changed, by a multiple of
    # p or not; a plain map is compared whole
    p = data.draw(st.sampled_from(PRIMES))
    ring = PrimeField(p)
    g = tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(2)) for _ in range(2))
    X = Tensor(*(data.draw(st.sampled_from(TENSOR_FACTORS)) for _ in range(2)))
    A = group_action_map(ZZ, g, X)
    B = group_action_map(ring, tuple(tuple(map(ring.from_int, row)) for row in g), X)
    target = data.draw(st.sampled_from(("none", "A", "B")))
    if target != "none":
        M, R = (A, ZZ) if target == "A" else (B, ring)
        side = data.draw(st.sampled_from(("left", "right")))
        F = getattr(M, side)
        j = data.draw(st.integers(0, len(F.cols) - 1))
        row = data.draw(st.sampled_from(basis(F.codomain)))
        F = _changed(R, F, j, row, data.draw(st.sampled_from((1, 2, p, 2 * p))))
        M = KroneckerMap(F, M.right) if side == "left" else KroneckerMap(M.left, F)
        A, B = (M, B) if target == "A" else (A, M)
    if data.draw(st.booleans()):
        A, B = A.right, B.right
        factors = [(A, B)]
    else:
        factors = [(A.left, B.left), (A.right, B.right)]
    reduced = all(F.map_entries(ring, ring.from_int) == G for F, G in factors)
    assert iso._reduces_to(A, B) == reduced
    if isinstance(A, KroneckerMap):
        assert A._pcols is None and B._pcols is None


def _poisoned(kind: str, broken, other):
    """A record for the fp route on broken that no honest poly run on
    broken leaves: phi with identity maps, Kronecker products like the
    actions, which it commutes with but whose reductions are not the GF(p)
    actions, or with the integer actions of another point."""
    if kind == "identity":
        dom, amb = (
            KroneckerMap(identity_map(ZZ, space.left), identity_map(ZZ, space.right))
            for space in (broken.domain, broken.hook.ambient)
        )
        assert iso._commutes(broken.matrix, dom, amb)
        return {t: (broken.matrix, dom, amb, True) for t in (False, True)}
    return {
        t: (
            broken.matrix,
            group_action_map(ZZ, iso._unipotent(ZZ, 1, t), other.domain),
            group_action_map(ZZ, iso._unipotent(ZZ, 1, t), other.hook.ambient),
            True,
        )
        for t in (False, True)
    }


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(1, 3),
    d=st.integers(1, 4),
    p=st.sampled_from(PRIMES),
    kind=st.sampled_from(("shift", "drop", "add_same_degree", "move_degree")),
    j=st.integers(0, 10**6),
    r=st.integers(0, 10**6),
    delta=st.sampled_from((1, -1, 2, 3, 5, 7, 10)),
)
def test_a_poisoned_record_cannot_change_the_fp_keys(N, d, p, kind, j, r, delta):
    ctx = iso_context(N, d)
    nonzero = [m for m, col in enumerate(ctx.matrix.cols) if col]
    if not nonzero:
        return
    broken = _broken(ctx, kind, nonzero[j % len(nonzero)], r, delta)
    expected = {c: oracle_fp(c, p) for c in (ctx, broken)}
    other = iso_context(N, d + 1)
    with pytest.MonkeyPatch.context() as m:
        for poison in ("identity", "other_point"):
            m.setattr(iso, "_zz_unipotent_checks", _poisoned(poison, broken, other))
            m.setattr(iso, "iso_context", lambda N, d: broken)
            assert verify_group_equivariance_fp(N, d, p) == expected[broken], poison
        # the record of one copy's phi, read by a route on the other copy
        for recorded, checked in ((ctx, broken), (broken, ctx)):
            m.setattr(iso, "_zz_unipotent_checks", {})
            m.setattr(iso, "iso_context", lambda N, d: recorded)
            verify_group_equivariance_poly(N, d)
            m.setattr(iso, "iso_context", lambda N, d: checked)
            assert verify_group_equivariance_fp(N, d, p) == expected[checked]
