"""The explicit map, its triangular certificate, and its symmetries."""

import copy
import hashlib
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plethy import (
    QQ,
    ZGAMMA,
    ZZ,
    ConsistencyError,
    HookSchurSpace,
    IsoContext,
    LinearMap,
    PairCoords,
    PrimeField,
    Sym,
    Tensor,
    Wedge,
    basis,
    basis_index,
    basis_image,
    box,
    dim,
    gl2_scalar_exponents,
    group_action_map,
    hook_schur_space,
    identity_map,
    increasing_tuples,
    iso_context,
    lie_action_map,
    multiplication_map,
    release_point,
    reversal_sign,
    triangular_witness,
    verify_duality,
    verify_group_equivariance_fp,
    verify_group_equivariance_poly,
    verify_lie_equivariance,
    verify_structure,
    weight_block_digests,
)
from oracles import basis_image_oracle, gamma_coefficients, phi_oracle
import plethy.iso as iso
import plethy.tableaux as tableaux
import plethy.spaces as spaces
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


def test_structure_flags_are_set_by_the_checks(monkeypatch):
    # construction runs both round trips of every block, so a context exists
    # only once every check has passed; inverse() runs no check again
    trips = []
    real = iso._is_block_identity

    def counted(left, right, idxs):
        trips.append(list(idxs))
        return real(left, right, idxs)

    monkeypatch.setattr(iso, "_is_block_identity", counted)
    ctx = IsoContext(2, 3)
    assert ctx.columns_in_kernel is True and ctx.unitriangular is True
    assert ctx.inverse_round_trip is True
    blocks = list(ctx.weight_blocks().values())
    assert trips == [idxs for idxs in blocks for _ in range(2)]
    ctx.inverse()
    assert len(trips) == 2 * len(blocks)


def test_structure_report_reads_the_flags(monkeypatch):
    ctx = iso_context(2, 3)
    ctx.inverse()  # cached, so the report reads this very inverse
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


@pytest.mark.parametrize(
    "k, extra, message",
    [
        # the extra row is ((1, 2), s + 2) in column (s, k): at s = 0 the
        # kernel vector of the fixed pair ((1, 2), 2), in the block of column
        # (0, k) and below its diagonal; at s = 1 the bare canonical vector
        # ((1, 2), 3), with j outside i, which is never in the kernel
        ((0, 3, 4), ((1, 2), 2), "image of (1, (0, 3, 4)) is outside the kernel"),
        # ((0, 1), s + 1): at s = 0 a kernel vector too, but of Y-degree 2,
        # while column (0, k) lands in the block of Y-degree 4, whose mu has
        # no column at that label.  The blocks run in ascending Y-degree, so
        # that is found before column (1, k) leaves the block of Y-degree 5
        (
            (0, 2, 4),
            ((0, 1), 1),
            "image of (0, (0, 2, 4)) leaves the Y-degree block 4 at ((0, 1), 1)",
        ),
    ],
)
def test_an_image_outside_the_kernel_fails_structure_and_names_its_label(
    monkeypatch, k, extra, message
):
    real = iso._image_rows
    hook = hook_schur_space(2, 3)
    row = basis_index(hook.ambient)[extra]

    def leaving(N, d, kk, s_lo, s_hi):
        rows = real(N, d, kk, s_lo, s_hi)
        if (N, d, kk) == (2, 3, k):
            rows = rows + [row]
        return rows

    monkeypatch.setattr(iso, "_image_rows", leaving)
    release_point()
    try:
        point = verify_point(2, 3, (2,))
    finally:
        release_point()  # drop the contexts built under the patch
    assert point["checks"]["structure.consistency"] is False
    assert point["data"]["structure.consistency_error"] == message


def test_an_escaped_exponent_fails_both_the_image_and_the_context(monkeypatch):
    # a corrupted box that also yields (2, 3): for k = (0, 1, 2) its exponent
    # is |k| - N - |i| = 3 - 2 - 5 = -4, outside 0..d.  The box patched is
    # the unchecked one that the structure and basis_image walk
    real = tableaux._box
    monkeypatch.setattr(tableaux, "_box", lambda k: [*real(k), (2, 3)])
    message = r"Y-exponent -4 escaped 0\.\.3 at \(s=0, k=\(0, 1, 2\), i=\(2, 3\)\)"
    with pytest.raises(ConsistencyError, match=message):
        basis_image(ZZ, 2, 3, 0, (0, 1, 2))
    with pytest.raises(ConsistencyError, match=message):
        IsoContext(2, 3)
    # above the range: (0, 1) in the box of (2, 3, 4) gets 9 - 2 - 1 = 6
    monkeypatch.setattr(tableaux, "_box", lambda k: [*real(k), (0, 1)])
    with pytest.raises(ConsistencyError, match=r"Y-exponent 7 escaped 0\.\.3 at \(s=1"):
        basis_image(ZZ, 2, 3, 1, (2, 3, 4))


def _corrupt_block(monkeypatch, name: str, w: int, corrupt):
    """Patch the hook space's block map `name` so that its block w goes
    through corrupt(cols) first; every other block is left as it is."""
    real = getattr(HookSchurSpace, name)

    def corrupted(self, ww):
        cols = real(self, ww)
        if ww == w:
            cols = {p: dict(col) for p, col in cols.items()}
            corrupt(cols)
        return cols

    monkeypatch.setattr(HookSchurSpace, name, corrupted)


def test_coordinates_that_do_not_rebuild_the_image_fail_construction(monkeypatch):
    # K with one entry off in the block of Y-degree 3: mu phi = 0 still
    # holds, but B K phi != phi
    hook = hook_schur_space(2, 3)
    label = ((0, 1), 2)
    p, m = basis_index(hook.ambient)[label], basis_index(hook.coords)[label]

    def corrupt(cols):
        assert cols[p][m] == 1
        cols[p][m] = 7

    _corrupt_block(monkeypatch, "coordinate_block", 3, corrupt)
    with pytest.raises(ConsistencyError, match="not in the span of the kernel basis"):
        IsoContext(2, 3)


def test_structure_needs_no_apply_and_no_coordinates_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("a column went through apply or coordinates")

    monkeypatch.setattr(LinearMap, "apply", refuse)
    monkeypatch.setattr(HookSchurSpace, "coordinates", refuse)
    release_point()
    try:
        report = verify_structure(4, 6)
    finally:
        release_point()
    assert report and all(v is True for v in report.values())


def test_the_structure_maps_are_built_on_positions(monkeypatch):
    # phi from one box walk per wedge label, mu from the insertion tables,
    # B from the kernel supports: no per-label image or element is built
    def refuse(*args, **kwargs):
        raise AssertionError("a structure map was built label by label")

    release_point()
    try:
        with monkeypatch.context() as m:
            m.setattr(LinearMap, "from_function", refuse)
            m.setattr(iso, "basis_image", refuse)
            m.setattr(HookSchurSpace, "kernel_support", refuse)
            m.setattr(spaces, "wedge_normalize", refuse)
            ctx = IsoContext(4, 6)
            ctx.inverse()
    finally:
        release_point()
    assert ctx.columns_in_kernel and ctx.unitriangular and ctx.inverse_round_trip
    assert ctx.matrix == phi_oracle(4, 6)


def test_the_structure_checks_no_pair_or_wedge_label_again(monkeypatch):
    # every pair comes from semistandard_pairs or a content chain and every
    # k from a wedge basis, so the structure takes the unchecked helpers
    def refuse(*args):
        raise AssertionError("a pair or a wedge label was checked again")

    release_point()
    try:
        with monkeypatch.context() as m:
            m.setattr(tableaux, "is_semistandard", refuse)
            m.setattr(tableaux, "is_increasing", refuse)
            ctx = IsoContext(4, 6)
            ctx.inverse()
    finally:
        release_point()
    assert ctx.columns_in_kernel and ctx.unitriangular and ctx.inverse_round_trip
    assert ctx.witnesses == [triangular_witness(p) for p in ctx.hook.pairs]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=9))
@example(3, 1)  # N = d + 2: every space is zero dimensional
@example(5, 3)
@example(5, 9)
@example(1, 0)
def test_phi_built_on_positions_equals_the_per_label_loop(N, d):
    ambient = Tensor(Wedge(N, Sym(d)), Sym(d))
    domain = Tensor(Sym(N - 1), Wedge(N + 1, Sym(d + 1)))
    phi = LinearMap.from_positions(
        domain, ambient, ZZ, iso._phi_columns(iso._psi_columns(N, d), N, ambient)
    )
    oracle = phi_oracle(N, d)
    assert phi == oracle
    # the same key order, so every digest of the columns is unchanged
    assert [list(col) for col in phi.pcols] == [list(col) for col in oracle.pcols]
    for s, k in basis(domain)[:: max(1, dim(domain) // 7)]:
        for ring in (ZZ, PrimeField(2), ZGAMMA):
            assert basis_image(ring, N, d, s, k) == basis_image_oracle(ring, N, d, s, k)


def test_inverse_round_trips_explicitly():
    for N, d in ((2, 4), (3, 5)):
        ctx = iso_context(N, d)
        inv = ctx.inverse()
        coord = ctx.coord_matrix_over(ZZ)
        assert coord.compose(inv) == identity_map(ZZ, ctx.hook.coords)
        assert inv.compose(coord) == identity_map(ZZ, ctx.domain)
        assert all(isinstance(v, int) for col in inv.cols for v in col.values())


def test_inverse_rejects_a_column_that_leaves_its_block(monkeypatch):
    # the K of the block of Y-degree 3 also sends one label to the last
    # pair, of a higher Y-degree, and its B takes that pair to zero, so
    # B K phi = phi still holds; the entry lies below the diagonal, so the
    # triangular check passes and the substitution, which runs on
    # block-local positions, is the check that refuses it
    hook = hook_schur_space(2, 3)
    p = basis_index(hook.ambient)[((0, 1), 2)]
    last = len(hook.pairs) - 1
    assert last > max(hook.pair_blocks[3])
    _corrupt_block(monkeypatch, "coordinate_block", 3, lambda cols: cols[p].update({last: 1}))
    _corrupt_block(monkeypatch, "basis_block", 3, lambda cols: cols.update({last: {}}))
    with pytest.raises(ConsistencyError, match="couples two Y-degrees"):
        IsoContext(2, 3)


@pytest.mark.parametrize("side", ["pair", "domain"])
def test_inverse_round_trip_catches_one_corrupted_entry(monkeypatch, side):
    # the check of the named side gets the inverse with one entry off by one,
    # in the largest block; the other side gets the exact inverse.  The
    # block and its paired columns come from an unpatched context
    ref = IsoContext(3, 5)
    idxs = max(ref.weight_blocks().values(), key=len)
    paired = {m: ref.paired_columns[m] for m in idxs}
    # a unitriangular block with an entry off the diagonal is not its own
    # inverse, so the paired side is told apart by its columns
    assert len(idxs) > 1 and any(len(paired[m]) > 1 for m in idxs)
    real = iso._is_block_identity

    def corrupting(left, right, block):
        if block != idxs:
            return real(left, right, block)
        pair_side = all(left[m] == paired[m] for m in idxs)
        if pair_side != (side == "pair"):
            return real(left, right, block)
        inv = copy.copy(right if pair_side else left)
        inv[idxs[0]] = dict(inv[idxs[0]])
        inv[idxs[0]][idxs[-1]] = inv[idxs[0]].get(idxs[-1], 0) + 1
        return real(left, inv, block) if pair_side else real(inv, right, block)

    monkeypatch.setattr(iso, "_is_block_identity", corrupting)
    with pytest.raises(ConsistencyError, match=f"failed on the {side} side"):
        IsoContext(3, 5)


def test_determinant_is_one():
    for N, d in ((1, 5), (2, 4), (3, 4)):
        assert iso_context(N, d).determinant == 1


def _fresh_paired_structure(ctx):
    """The paired columns and weight blocks rebuilt from the coordinate
    matrix and the witnesses, independently of the stored copies."""
    pos = basis_index(ctx.hook.coords)
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


def test_verify_point_builds_no_whole_coordinate_map(monkeypatch):
    # the block digests take each block's paired columns from psi and the
    # block's K, so verify reads no whole K, mu or B of the hook space and
    # composes no map into the pair coordinates
    builds = []
    compose = LinearMap.compose

    def counted(self, other):
        if isinstance(self.codomain, PairCoords):
            builds.append(self.codomain)
        return compose(self, other)

    def refuse(self):
        raise AssertionError("verify read a whole map of the hook space")

    monkeypatch.setattr(LinearMap, "compose", counted)
    for view in ("mu", "B", "K"):
        monkeypatch.setattr(HookSchurSpace, view, property(refuse))
    release_point()
    try:
        point = verify_point(3, 4, (2, 3))
    finally:
        # drop the context and hook space built under the wrapper
        release_point()
    assert all(point["checks"].values())
    assert len(point["block_hashes"]) == len(iso_context(3, 4).weight_blocks())
    assert builds == []


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


def test_poly_route_compares_every_y_degree_change(monkeypatch):
    # add 1 to one entry of the integer U(1) on the ambient side, at Y-degree
    # change k, for every k that occurs: the route must fail each time.  The
    # corrupted column is reached by phi; its row is a basis label k steps
    # down (up, for the transpose).  One more k puts the row one step
    # outside the basis, and that map is refused where it is built.
    N, d = 2, 3
    ctx = iso_context(N, d)
    amb = ctx.hook.ambient
    real = iso.group_action_map
    by_ydeg = {}
    for label in basis(amb):
        by_ydeg.setdefault(amb.ydegree(label), label)
    low, high = min(by_ydeg), max(by_ydeg)
    top = high - low  # the largest change between two basis labels
    reached = {l for col in ctx.matrix.cols for l in col}
    assert by_ydeg[low] in reached and by_ydeg[high] in reached

    for k in range(top + 2):

        def corrupted(ring, g, space, k=k):
            A = real(ring, g, space)
            if space != amb:
                return A
            transpose = g[1][0] != 0
            w, shift = (low, k) if transpose else (high, -k)
            col_label = by_ydeg[w]
            i, j = col_label
            row = by_ydeg.get(w + shift, (i, j + shift))
            cols = [dict(col) for col in A.cols]
            col = cols[basis_index(amb)[col_label]]
            col[row] = col.get(row, 0) + 1
            return LinearMap(space, space, ring, cols)

        if k > top:
            for transpose in (False, True):
                g = iso._unipotent(ZZ, 1, transpose)
                with pytest.raises(ValueError, match="not in the basis"):
                    corrupted(ZZ, g, amb)
            continue
        with monkeypatch.context() as m:
            m.setattr(iso, "group_action_map", corrupted)
            assert verify_group_equivariance_poly(N, d) == {
                "commutes_with_upper_unipotent": False,
                "commutes_with_lower_unipotent": False,
            }, k


def test_poly_route_checks_the_gamma_exponent_of_the_sym_tables(monkeypatch):
    # the Z[gamma] table of Sym(c) gets gamma^(k+1) at one off-diagonal
    # entry; the integer U(1) is untouched, so only the monomial check sees it
    real = spaces._sym_action_table

    def wrong_exponent(ring, g, c):
        table = real(ring, g, c)
        if ring != ZGAMMA or c == 0:
            return table
        table = [dict(col) for col in table]
        a, b = (1, 0) if g[0][1] else (0, 1)
        table[a][b] = table[a][b] * ZGAMMA.gen()
        return table

    assert verify_group_equivariance_poly(2, 3) == {
        "commutes_with_upper_unipotent": True,
        "commutes_with_lower_unipotent": True,
    }
    monkeypatch.setattr(spaces, "_sym_action_table", wrong_exponent)
    assert verify_group_equivariance_poly(2, 3) == {
        "commutes_with_upper_unipotent": False,
        "commutes_with_lower_unipotent": False,
    }


@pytest.mark.parametrize("p, builds", [(2, 4), (3, 6), (5, 6), (7, 6)])
def test_fp_route_builds_only_the_generators_and_one_spot_check(monkeypatch, p, builds):
    calls = []
    real = iso.group_action_map

    def counting(ring, g, space):
        calls.append((g, space))
        return real(ring, g, space)

    monkeypatch.setattr(iso, "group_action_map", counting)
    assert verify_group_equivariance_fp(2, 4, p)["commutes_with_all_unipotents"]
    assert len(calls) == builds
    gammas = {(g[0][1], g[1][0]) for g, _ in calls}
    assert gammas == {(1, 0), (0, 1), (p - 1, 0)}


@pytest.mark.parametrize("N, d", [(2, 4), (3, 5)])
def test_unipotent_routes_never_build_a_tensor_action_whole(monkeypatch, N, d):
    # both sides of every commutation are tensor actions, applied one
    # factor at a time; building one whole would raise here
    def refuse(self):
        raise AssertionError("a tensor action was built whole")

    monkeypatch.setattr(spaces.LinearMap, "_label_cols", refuse)
    monkeypatch.setattr(spaces.KroneckerMap, "_whole_columns", refuse)
    reports = [verify_group_equivariance_poly(N, d)]
    reports += [verify_group_equivariance_fp(N, d, p) for p in (2, 3)]
    for report in reports:
        assert report and all(value is True for value in report.values()), report
    U = group_action_map(ZZ, ((1, 1), (0, 1)), iso_context(N, d).domain)
    with pytest.raises(AssertionError, match="built whole"):
        U.cols
    with pytest.raises(AssertionError, match="built whole"):
        U.pcols



@pytest.mark.parametrize("N, d", [(2, 4), (3, 5)])
def test_lie_and_duality_never_build_a_tensor_map_whole(monkeypatch, N, d):
    # e and f on a tensor are Kronecker sums and the swaps Kronecker maps;
    # the checks apply them one factor at a time, the swaps' involutions
    # compose factors and compare them with the identity's factors, and the
    # signed swap signs one factor.  Building any of them whole would raise
    # here; phi alone is whole
    expected = verify_lie_equivariance(N, d), verify_duality(N, d)

    def refuse(self):
        raise AssertionError("a tensor map was built whole")

    monkeypatch.setattr(spaces.LinearMap, "_label_cols", refuse)
    monkeypatch.setattr(spaces.KroneckerSum, "_whole_columns", refuse)
    monkeypatch.setattr(spaces.KroneckerMap, "_whole_columns", refuse)
    lie, duality = verify_lie_equivariance(N, d), verify_duality(N, d)
    assert (lie, duality) == expected
    assert all(value is True for value in lie.values()), lie
    assert duality["swap_law_sign"] == reversal_sign(N) * reversal_sign(N + 1)
    assert all(v is True for k, v in duality.items() if k != "swap_law_sign"), duality
    E = lie_action_map("e", iso_context(N, d).hook.ambient)
    with pytest.raises(AssertionError, match="built whole"):
        E.pcols

@pytest.mark.parametrize("p", [3, 5, 7])
def test_fp_route_catches_a_fault_seen_only_at_the_spot_check(monkeypatch, p):
    ctx = iso_context(2, 4)
    real = iso.group_action_map
    row = next(iter(ctx.matrix.cols[0]))

    def corrupted(ring, g, space):
        A = real(ring, g, space)
        if space != ctx.hook.ambient or g[0][1] != p - 1:
            return A
        cols = [dict(col) for col in A.cols]
        col = cols[basis_index(space)[row]]
        col[row] = col.get(row, 0) + 1
        return LinearMap(space, space, ring, cols)

    monkeypatch.setattr(iso, "group_action_map", corrupted)
    assert verify_group_equivariance_fp(2, 4, p)["commutes_with_all_unipotents"] is False


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fp_route_law_catches_an_identity_at_the_spot_check(monkeypatch, p):
    # an action code that gives the identity at gamma = p - 1 on both spaces
    # commutes with every phi, so comparing phi with it cannot see the
    # fault; the group law U(p - 1) U(1) = 1 does, with the poly route's
    # record and without it
    ctx = iso_context(2, 4)
    ring = PrimeField(p)
    spot = iso._unipotent(ring, ring.from_int(p - 1), False)
    real = iso.group_action_map

    def identity_at_the_spot(ring, g, space):
        if g == spot:
            return identity_map(ring, space)
        return real(ring, g, space)

    monkeypatch.setattr(iso, "group_action_map", identity_at_the_spot)
    sides = (ctx.domain, ctx.hook.ambient)
    dom, amb = (identity_at_the_spot(ring, spot, space) for space in sides)
    assert iso._commutes(ctx.matrix_over(ring), dom, amb)
    verify_group_equivariance_poly(2, 4)
    after = verify_group_equivariance_fp(2, 4, p)
    monkeypatch.setattr(iso, "_zz_unipotent_checks", {})
    alone = verify_group_equivariance_fp(2, 4, p)
    assert after == alone == {
        "commutes_with_all_unipotents": False,
        "determinant_unit_mod_p": True,
    }


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


def test_duality_sign_is_none_when_the_law_fails(monkeypatch):
    # negate the last column of the ambient swap: phi tau = s tau2 phi then
    # holds for neither sign, so no sign is reported and none matches
    ctx = iso_context(2, 4)
    real = iso.group_action_map

    def broken(ring, g, space):
        A = real(ring, g, space)
        if space != ctx.hook.ambient or g != iso.SWAP:
            return A
        cols = [dict(col) for col in A.cols]
        cols[-1] = {label: -value for label, value in cols[-1].items()}
        return LinearMap(space, space, ring, cols)

    monkeypatch.setattr(iso, "group_action_map", broken)
    report = verify_duality(2, 4)
    assert report["swap_law_sign"] is None
    assert report["swap_law_holds"] is False
    assert report["swap_law_sign_matches_reversal_signs"] is False


# ----------------------------------------------------------------- gl2 scalars


def test_gl2_scalar_exponents_golden():
    assert gl2_scalar_exponents(2, 4) == (16, 16)


@pytest.mark.parametrize("N,d", [(1, 2), (2, 3), (3, 5), (4, 6)])
def test_gl2_scalar_exponents_balance(N, d):
    a, b = gl2_scalar_exponents(N, d)
    assert a == b


def test_gl2_scalar_exponents_build_no_context(monkeypatch):
    grid = [(N, d) for d in range(9) for N in range(1, min(4, d + 2) + 1)]
    # the degrees as read off a context's own spaces
    expected = {}
    for N, d in grid:
        ctx = iso_context(N, d)
        expected[N, d] = (
            ctx.domain.total_degree(),
            ctx.hook.ambient.total_degree() + 2 * N,
        )

    def refuse(self, N, d):
        raise AssertionError("a context was built for the scalar exponents")

    monkeypatch.setattr(IsoContext, "__init__", refuse)
    iso_context.cache_clear()
    assert {(N, d): gl2_scalar_exponents(N, d) for N, d in grid} == expected


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


def test_the_paired_coordinates_are_ones_and_their_inverse_is_signs():
    # the paired coordinate matrix C (column m: K phi at pair m's witness)
    # has every nonzero entry 1, and its inverse every nonzero entry 1 or
    # -1, at each point with N <= 4 and d <= 8
    points = [(N, d) for N in range(1, 5) for d in range(9) if N <= d + 2]
    assert len(points) == 33
    for N, d in points:
        ctx = iso_context(N, d)
        for w in ctx.weight_blocks():
            for m, col in ctx.weight_block_columns(w).items():
                assert set(col.values()) == {1}, (N, d, m)
        for c, col in enumerate(ctx.inverse().pcols):
            assert set(col.values()) <= {1, -1}, (N, d, c)
            assert col, (N, d, c)
