"""The explicit map, its triangular certificate, and its symmetries."""

import copy
import hashlib
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethy import (
    QQ,
    ZGAMMA,
    ZZ,
    ConsistencyError,
    IsoContext,
    LinearMap,
    PrimeField,
    Sym,
    basis,
    basis_index,
    basis_image,
    box,
    dim,
    gamma_coefficients,
    gl2_scalar_exponents,
    group_action_map,
    identity_map,
    increasing_tuples,
    iso_context,
    multiplication_map,
    reversal_sign,
    triangular_witness,
    verify_duality,
    verify_group_equivariance_fp,
    verify_group_equivariance_poly,
    verify_lie_equivariance,
    verify_structure,
    weight_block_digests,
)
import plethy.iso as iso
from plethy.cli import verify_point

# ------------------------------------------------------------- the map itself


def test_six_term_expansion_golden():
    v = basis_image(ZZ, 3, 5, 1, (0, 2, 3, 6))
    assert v.coeffs == {
        ((0, 2, 3), 4): 1,
        ((0, 2, 4), 3): 1,
        ((0, 2, 5), 2): 1,
        ((1, 2, 3), 3): 1,
        ((1, 2, 4), 2): 1,
        ((1, 2, 5), 1): 1,
    }


def test_single_box_images():
    # consecutive corners leave a one-point box
    v = basis_image(ZZ, 2, 4, 0, (0, 1, 2))
    assert v.coeffs == {((0, 1), 0): 1}
    w = basis_image(ZZ, 2, 4, 1, (2, 3, 4))
    assert w.coeffs == {((2, 3), 3): 1}
    u = basis_image(ZZ, 3, 5, 2, (1, 2, 3, 4))
    assert u.coeffs == {((1, 2, 3), 3): 1}


def test_rank_one_case_closed_form():
    # at N = 1 each image enumerates the interval between the two corners
    d = 4
    for k in increasing_tuples(d + 1, 2):
        for s in range(1):
            v = basis_image(ZZ, 1, d, s, k)
            expected = {
                ((i,), k[0] + k[1] - 1 - i): 1 for i in range(k[0], k[1])
            }
            assert v.coeffs == expected


def test_image_support_is_the_box():
    v = basis_image(ZZ, 3, 5, 0, (0, 2, 4, 6))
    assert {i for (i, j) in v.coeffs} == set(box((0, 2, 4, 6)))
    assert all(c == 1 for c in v.coeffs.values())


def test_images_are_homogeneous_with_twist():
    ctx = iso_context(3, 5)
    for s, k in basis(ctx.domain):
        v = basis_image(ZZ, 3, 5, s, k)
        w = ctx.domain.ydegree((s, k))
        assert v.homogeneous_ydegree() == w - 3  # twist by N


def test_columns_lie_in_the_kernel():
    mu = multiplication_map(ZZ, 2, 4)
    phi = iso_context(2, 4).matrix_over(ZZ)
    for label in basis(phi.domain):
        assert mu.apply(phi.column(label)).is_zero()


# ------------------------------------------------------ triangular certificate


def test_triangular_witness_goldens():
    assert triangular_witness(((0, 3), 4)) == (1, (0, 3, 5))
    assert triangular_witness(((0, 4), 3)) == (0, (0, 4, 5))
    assert triangular_witness(((1, 2), 4)) == (1, (1, 2, 5))
    assert triangular_witness(((1, 4), 2)) == (0, (1, 3, 5))
    assert triangular_witness(((1, 3), 3)) == (1, (1, 3, 4))
    assert triangular_witness(((2, 3), 2)) == (0, (2, 3, 4))


def test_witnesses_cover_domain_basis():
    for N, d in ((1, 4), (2, 4), (3, 5)):
        ctx = iso_context(N, d)
        witnesses = [triangular_witness(p) for p in ctx.hook.pairs]
        assert sorted(witnesses) == sorted(basis(ctx.domain))


def test_weight_block_golden_6x6():
    rows, cols, mat = iso_context(2, 4).weight_block_matrix(7)
    assert rows == [
        ((0, 3), 4),
        ((0, 4), 3),
        ((1, 2), 4),
        ((1, 4), 2),
        ((1, 3), 3),
        ((2, 3), 2),
    ]
    assert cols == [
        (1, (0, 3, 5)),
        (0, (0, 4, 5)),
        (1, (1, 2, 5)),
        (0, (1, 3, 5)),
        (1, (1, 3, 4)),
        (0, (2, 3, 4)),
    ]
    assert mat == [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 1, 0, 1, 0, 0],
        [1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 1, 1],
    ]


def _block_text_from_matrix(ctx, w):
    """The canonical block text, rebuilt from the dense weight_block_matrix."""
    rows, cols, mat = ctx.weight_block_matrix(w)
    lines = [
        "rows=" + ";".join(ctx.hook.coords.label_str(p) for p in rows),
        "cols=" + ";".join(ctx.domain.label_str(c) for c in cols),
    ]
    lines.extend(",".join(map(str, row)) for row in mat)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("N,d", [(1, 3), (2, 4), (3, 5), (4, 4), (3, 1)])
def test_block_digests_in_one_pass_match_one_at_a_time(N, d):
    ctx = iso_context(N, d)
    digests = weight_block_digests(ctx)
    assert list(digests) == sorted(ctx.weight_blocks())
    assert digests == {
        w: hashlib.sha256(_block_text_from_matrix(ctx, w).encode()).hexdigest()
        for w in digests
    }


def test_weight_block_digest_matches_frozen_serialization():
    ctx = iso_context(2, 4)
    expected_lines = [
        "rows=(0,3)|4;(0,4)|3;(1,2)|4;(1,4)|2;(1,3)|3;(2,3)|2",
        "cols=1|(0,3,5);0|(0,4,5);1|(1,2,5);0|(1,3,5);1|(1,3,4);0|(2,3,4)",
        "1,0,0,0,0,0",
        "0,1,0,0,0,0",
        "0,0,1,0,0,0",
        "1,1,0,1,0,0",
        "1,0,1,1,1,0",
        "1,0,0,1,1,1",
    ]
    text = "\n".join(expected_lines) + "\n"
    assert (
        weight_block_digests(ctx)[7]
        == hashlib.sha256(text.encode()).hexdigest()
    )


@pytest.mark.parametrize("N,d", [(1, 3), (2, 4), (3, 5), (2, 6)])
def test_structure_certificate(N, d):
    report = verify_structure(N, d)
    assert report == {
        "dims_equal": True,
        "dim_formula": True,
        "columns_in_kernel": True,
        "unitriangular": True,
        "determinant_one": True,
        "inverse_integral": True,
        "inverse_round_trip": True,
    }


def test_structure_flags_are_set_by_the_checks():
    ctx = IsoContext(2, 3)
    assert ctx.columns_in_kernel is True and ctx.unitriangular is True
    assert ctx.inverse_round_trip is False  # the inverse has not run yet
    ctx.inverse()
    assert ctx.inverse_round_trip is True


def test_structure_report_reads_the_flags(monkeypatch):
    ctx = iso_context(2, 3)
    ctx.inverse()  # cached, so the report does not run the round trip again
    for flag in ("columns_in_kernel", "unitriangular", "inverse_round_trip"):
        with monkeypatch.context() as m:
            m.setattr(ctx, flag, False)
            assert verify_structure(2, 3)[flag] is False


def test_factorization_through_coordinates():
    # ambient matrix == basis matrix after coordinate matrix, over ZZ
    for N, d in ((2, 4), (3, 5)):
        ctx = iso_context(N, d)
        phi = ctx.matrix_over(ZZ)
        comp = ctx.hook.basis_matrix(ZZ).compose(ctx.coord_matrix_over(ZZ))
        assert comp == phi


def test_inverse_round_trips_explicitly():
    for N, d in ((2, 4), (3, 5)):
        ctx = iso_context(N, d)
        inv = ctx.inverse()
        coord = ctx.coord_matrix_over(ZZ)
        assert coord.compose(inv) == identity_map(ZZ, ctx.hook.coords)
        assert inv.compose(coord) == identity_map(ZZ, ctx.domain)
        assert all(isinstance(v, int) for col in inv.cols for v in col.values())


def test_inverse_rejects_a_column_that_leaves_its_block(monkeypatch):
    ctx = IsoContext(2, 3)
    n = len(ctx.hook.pairs)
    # singleton blocks: every off-diagonal entry now leaves its block
    monkeypatch.setattr(ctx, "weight_blocks", lambda: {m: [m] for m in range(n)})
    with pytest.raises(ConsistencyError, match="couples two Y-degrees"):
        ctx.inverse()


def test_determinant_is_one():
    for N, d in ((1, 5), (2, 4), (3, 4)):
        assert iso_context(N, d).determinant == 1


def _fresh_paired_structure(ctx):
    """The paired columns and weight blocks rebuilt from the coordinate
    matrix and the witnesses, independently of the stored copies."""
    pos = ctx.hook.pair_index
    dom_idx = basis_index(ctx.domain)
    paired = [
        {pos[p]: v for p, v in ctx.coord_matrix.cols[dom_idx[w]].items()}
        for w in ctx.witnesses
    ]
    blocks: dict = {}
    for m, pair in enumerate(ctx.hook.pairs):
        blocks.setdefault(ctx.hook.coords.ydegree(pair), []).append(m)
    return paired, blocks


def _dense_block_inverse(paired, idxs):
    """Inverse columns of one unitriangular block by dense forward
    substitution, keyed by pair position."""
    out = {}
    for m in idxs:
        x = {m: 1}
        for r in idxs:
            if r > m:
                acc = sum(paired[c].get(r, 0) * x.get(c, 0) for c in idxs if c < r)
                if acc:
                    x[r] = -acc
        out[m] = x
    return out


@pytest.mark.parametrize("N,d", [(1, 3), (2, 4), (3, 5), (4, 6), (3, 1)])
def test_stored_paired_structure_matches_a_fresh_rebuild(N, d):
    ctx = iso_context(N, d)
    inv = ctx.inverse()  # read the stored structure before comparing it
    digests = weight_block_digests(ctx)
    paired, blocks = _fresh_paired_structure(ctx)
    assert ctx.paired_columns == paired
    assert ctx.weight_blocks() == blocks
    assert ctx.diagonal == [col.get(m, 0) for m, col in enumerate(paired)]
    assert ctx.determinant == prod(col.get(m, 0) for m, col in enumerate(paired)) == 1
    hook = ctx.hook
    expected_inverse = [None] * len(paired)
    expected_digests = {}
    for w, idxs in sorted(blocks.items()):
        dense = [[paired[c].get(r, 0) for c in idxs] for r in idxs]
        assert ctx.weight_block_matrix(w) == (
            [hook.pairs[m] for m in idxs],
            [ctx.witnesses[m] for m in idxs],
            dense,
        )
        for m, x in _dense_block_inverse(paired, idxs).items():
            expected_inverse[m] = {ctx.witnesses[c]: v for c, v in x.items()}
        lines = [
            "rows=" + ";".join(hook.coords.label_str(hook.pairs[m]) for m in idxs),
            "cols=" + ";".join(ctx.domain.label_str(ctx.witnesses[m]) for m in idxs),
        ]
        lines += [",".join(map(str, row)) for row in dense]
        text = "\n".join(lines) + "\n"
        expected_digests[w] = hashlib.sha256(text.encode()).hexdigest()
    assert inv.cols == expected_inverse
    assert digests == expected_digests


def test_verify_point_builds_the_paired_columns_once(monkeypatch):
    builds = []
    build = IsoContext._paired_columns

    def counted(self):
        builds.append((self.N, self.d))
        return build(self)

    monkeypatch.setattr(IsoContext, "_paired_columns", counted)
    iso_context.cache_clear()
    try:
        point = verify_point(2, 3, (2, 3))
    finally:
        iso_context.cache_clear()  # drop the context built under the wrapper
    assert all(point["checks"].values())
    assert builds == [(2, 3)]


# ----------------------------------------------------------------- equivariance


@pytest.mark.parametrize("N,d", [(1, 4), (2, 4), (3, 5)])
def test_lie_equivariance(N, d):
    assert verify_lie_equivariance(N, d) == {
        "commutes_with_e": True,
        "commutes_with_f": True,
    }


@pytest.mark.parametrize("N,d", [(1, 4), (2, 4), (3, 4)])
def test_polynomial_unipotent_equivariance(N, d):
    assert verify_group_equivariance_poly(N, d) == {
        "commutes_with_upper_unipotent": True,
        "commutes_with_lower_unipotent": True,
    }


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exhaustive_equivariance_mod_p(p):
    assert verify_group_equivariance_fp(2, 4, p) == {
        "commutes_with_all_unipotents": True,
        "determinant_unit_mod_p": True,
    }


def test_generic_unipotent_specializes_to_rational_action():
    # evaluating the polynomial action at gamma = 2 recovers the rational one
    space = iso_context(2, 4).domain
    gamma = ZGAMMA.gen()
    g_poly = ((ZGAMMA.one, gamma), (ZGAMMA.zero, ZGAMMA.one))
    A = group_action_map(ZGAMMA, g_poly, space)
    evaluated = A.map_entries(QQ, lambda poly: Fraction(poly(2)))
    g_rat = ((QQ.one, QQ.from_int(2)), (QQ.zero, QQ.one))
    assert evaluated == group_action_map(QQ, g_rat, space)


def _broken_context(N, d):
    """A copy of the context whose map has the first entry of column 3
    raised by one; the cached context is left alone."""
    ctx = iso_context(N, d)
    broken = copy.copy(ctx)
    cols = [dict(col) for col in ctx.matrix.cols]
    label = next(iter(cols[3]))
    cols[3][label] += 1
    broken.matrix = LinearMap(ctx.domain, ctx.hook.ambient, ZZ, cols)
    return broken


def test_every_route_catches_a_broken_map(monkeypatch):
    broken = _broken_context(2, 4)
    monkeypatch.setattr(iso, "iso_context", lambda N, d: broken)
    assert verify_lie_equivariance(2, 4) == {
        "commutes_with_e": False,
        "commutes_with_f": False,
    }
    assert verify_group_equivariance_poly(2, 4) == {
        "commutes_with_upper_unipotent": False,
        "commutes_with_lower_unipotent": False,
    }
    for p in (2, 3, 5):
        assert verify_group_equivariance_fp(2, 4, p) == {
            "commutes_with_all_unipotents": False,
            "determinant_unit_mod_p": True,  # read from the coordinate matrix
        }
    assert verify_duality(2, 4)["swap_law_holds"] is False


def test_poly_route_compares_every_gamma_degree(monkeypatch):
    # add gamma^k to one diagonal entry of the ambient action, for every
    # degree k that occurs and one that does not: the route must fail each time
    N, d = 2, 3
    ctx = iso_context(N, d)
    real = iso.group_action_map
    gamma = ZGAMMA.gen()
    row = next(iter(ctx.matrix.cols[0]))  # phi's column 0 reaches this label
    top = 0
    for transpose in (False, True):
        g = iso._unipotent(ZGAMMA, gamma, transpose)
        for space in (ctx.domain, ctx.hook.ambient):
            top = max(top, *gamma_coefficients(real(ZGAMMA, g, space)))
    assert top >= 2

    for k in range(top + 2):

        def corrupted(ring, g, space, k=k):
            A = real(ring, g, space)
            if space != ctx.hook.ambient:
                return A
            cols = [dict(col) for col in A.cols]
            col = cols[basis_index(space)[row]]
            col[row] = col.get(row, ZGAMMA.zero) + gamma**k
            return LinearMap(space, space, ring, cols)

        with monkeypatch.context() as m:
            m.setattr(iso, "group_action_map", corrupted)
            assert verify_group_equivariance_poly(N, d) == {
                "commutes_with_upper_unipotent": False,
                "commutes_with_lower_unipotent": False,
            }, k


def test_gamma_coefficients_split_a_known_map():
    gamma = ZGAMMA.gen()
    g = ((ZGAMMA.one, gamma), (ZGAMMA.zero, ZGAMMA.one))
    A = group_action_map(ZGAMMA, g, Sym(2))
    parts = gamma_coefficients(A)
    assert sorted(parts) == [0, 1, 2]
    assert parts[0] == identity_map(ZZ, Sym(2))
    # X^(2-a) Y^a -> X^(2-a) (gamma X + Y)^a
    assert parts[1].cols == [{}, {0: 1}, {1: 2}]
    assert parts[2].cols == [{}, {}, {0: 1}]


# ---------------------------------------------------------------------- duality


def test_reversal_sign_table():
    assert [reversal_sign(R) for R in range(1, 9)] == [1, -1, -1, 1, 1, -1, -1, 1]


@pytest.mark.parametrize("N,d", [(1, 3), (2, 4), (3, 4)])
def test_duality_suite(N, d):
    report = verify_duality(N, d)
    assert report["domain_swap_involutive"]
    assert report["codomain_swap_involutive"]
    assert report["domain_swap_exchanges_e_f"]
    assert report["codomain_swap_exchanges_e_f"]
    assert report["swap_law_holds"]
    assert report["swap_law_sign_matches_reversal_signs"]
    assert report["swap_law_sign"] == reversal_sign(N) * reversal_sign(N + 1)
    # both reversal signs multiply to the parity of the rank
    assert report["swap_law_sign"] == (-1) ** N


def test_flip_maps_are_permutation_matrices_up_to_sign():
    ctx = iso_context(2, 4)
    for space in (ctx.domain, ctx.hook.ambient):
        A = group_action_map(QQ, ((QQ.zero, QQ.one), (QQ.one, QQ.zero)), space)
        for col in A.cols:
            assert len(col) == 1
            ((_, value),) = col.items()
            assert value in (Fraction(1), Fraction(-1))


@pytest.mark.parametrize("side", ["domain", "ambient"])
def test_duality_route_catches_a_broken_swap(monkeypatch, side):
    # negate one entry of the swap map on one side: the sign law must fail
    ctx = iso_context(2, 4)
    target = ctx.domain if side == "domain" else ctx.hook.ambient
    real = iso.group_action_map

    def broken(ring, g, space):
        A = real(ring, g, space)
        if space != target:
            return A
        cols = [dict(col) for col in A.cols]
        ((label, value),) = cols[3].items()
        cols[3][label] = -value
        return LinearMap(space, space, ring, cols)

    monkeypatch.setattr(iso, "group_action_map", broken)
    assert verify_duality(2, 4)["swap_law_holds"] is False


# ----------------------------------------------------------------- gl2 scalars


def test_gl2_scalar_exponents_golden():
    assert gl2_scalar_exponents(2, 4) == (16, 16)


@pytest.mark.parametrize("N,d", [(1, 2), (2, 3), (3, 5), (4, 6)])
def test_gl2_scalar_exponents_balance(N, d):
    a, b = gl2_scalar_exponents(N, d)
    assert a == b


# ------------------------------------------------------------------ properties


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_every_image_has_kernel_coordinates(data):
    N = data.draw(st.integers(min_value=1, max_value=3))
    d = data.draw(st.integers(min_value=max(0, N - 1), max_value=6))
    ctx = iso_context(N, d)
    labels = basis(ctx.domain)
    if not labels:
        return
    s, k = data.draw(st.sampled_from(list(labels)))
    image = basis_image(ZZ, N, d, s, k)
    coords = ctx.hook.coordinates(image)  # raises if not in the span
    # the paired coordinate is always there with coefficient one
    witness_pair = next(
        p for p in ctx.hook.pairs if triangular_witness(p) == (s, k)
    )
    assert coords.coeffs.get(witness_pair) == 1


def test_empty_edge_case():
    # N = d + 2: all spaces are zero dimensional but everything still runs
    ctx = iso_context(3, 1)
    assert dim(ctx.domain) == 0
    assert verify_structure(3, 1)["determinant_one"]
    assert verify_lie_equivariance(3, 1)["commutes_with_e"]
    assert verify_duality(3, 1)["swap_law_holds"]
