"""The hook-shape kernel space and its semistandard-pair basis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethy import (
    QQ,
    ZZ,
    ConsistencyError,
    HookSchurSpace,
    ModuleElement,
    PrimeField,
    basis_index,
    hook_schur_space,
    identity_map,
    multiplication_map,
    neighbour,
    rank_of_vectors,
    semistandard_pairs,
)

import plethy.tableaux as tableaux
from oracles import kernel_basis_vector


def test_kernel_membership_all_pairs():
    hook = hook_schur_space(2, 4)
    assert len(hook.pairs) == 40
    for ring in (ZZ, PrimeField(2), PrimeField(3)):
        mu = multiplication_map(ring, 2, 4)
        for pair in hook.pairs:
            assert mu.apply(kernel_basis_vector(hook, ring, pair)).is_zero()


def test_kernel_support_shapes():
    hook = hook_schur_space(2, 4)
    # j inside i: the single canonical term
    assert hook.kernel_support(((0, 2), 2)) == (((0, 2), 2),)
    # j outside i: canonical term plus its neighbour
    assert hook.kernel_support(((0, 1), 2)) == (((0, 1), 2), ((0, 2), 1))
    for pair in hook.pairs:
        i, j = pair
        support = hook.kernel_support(pair)
        assert support[0] == pair
        if j in i:
            assert len(support) == 1
        else:
            assert support[1] == neighbour(i, j)


def test_kernel_support_rejects_non_semistandard():
    hook = hook_schur_space(2, 4)
    with pytest.raises(ValueError):
        hook.kernel_support(((2, 3), 0))


def test_basis_is_independent_and_spans_kernel():
    for N, d in ((1, 4), (2, 4), (3, 5)):
        hook = hook_schur_space(N, d)
        mu = multiplication_map(QQ, N, d)
        vectors = [kernel_basis_vector(hook, QQ, p) for p in hook.pairs]
        assert rank_of_vectors(vectors) == len(vectors)
        from plethy import dim, rank

        assert len(vectors) == dim(mu.domain) - rank(mu)


def test_coordinates_round_trip_over_zz():
    hook = hook_schur_space(3, 5)
    rng = random.Random(11)
    for _ in range(10):
        chosen = rng.sample(hook.pairs, 8)
        coeffs = {p: rng.randint(-5, 5) for p in chosen}
        v = ModuleElement.zero(hook.ambient, ZZ)
        for p, c in coeffs.items():
            v = v + kernel_basis_vector(hook, ZZ, p).scale(c)
        coords = hook.coordinates(v)
        assert {p: c for p, c in coords.coeffs.items()} == {
            p: c for p, c in coeffs.items() if c
        }


def test_coordinates_round_trip_mod_p():
    ring = PrimeField(5)
    hook = hook_schur_space(2, 4)
    rng = random.Random(5)
    for _ in range(10):
        coeffs = {p: rng.randrange(5) for p in rng.sample(hook.pairs, 6)}
        v = ModuleElement.zero(hook.ambient, ring)
        for p, c in coeffs.items():
            v = v + kernel_basis_vector(hook, ring, p).scale(c)
        coords = hook.coordinates(v)
        recovered = ModuleElement.zero(hook.ambient, ring)
        for p, c in coords.coeffs.items():
            recovered = recovered + kernel_basis_vector(hook, ring, p).scale(c)
        assert recovered == v


def test_coordinates_reject_non_kernel_elements():
    hook = hook_schur_space(2, 4)
    # a bare canonical vector with j outside i is never in the kernel
    v = ModuleElement.basis_vector(hook.ambient, ZZ, ((0, 1), 3))
    with pytest.raises(ValueError):
        hook.coordinates(v)
    w = ModuleElement.basis_vector(hook.ambient, QQ, ((1, 3), 2)).scale(
        Fraction(1, 2)
    )
    with pytest.raises(ValueError):
        hook.coordinates(w)


def test_coordinates_of_basis_vectors_are_unit():
    hook = hook_schur_space(2, 4)
    for pair in hook.pairs:
        coords = hook.coordinates(kernel_basis_vector(hook, ZZ, pair))
        assert coords.coeffs == {pair: 1}


@pytest.mark.parametrize("N, d", [(N, d) for d in range(8) for N in range(1, d + 3)])
def test_coordinate_map_is_a_left_inverse_of_the_basis_matrix(N, d):
    hook = hook_schur_space(N, d)
    assert hook.K.compose(hook.B) == identity_map(ZZ, hook.coords)


def test_basis_matrix_columns_are_kernel_vectors():
    hook = hook_schur_space(2, 3)
    B = hook.basis_matrix(ZZ)
    assert B.domain == hook.coords
    assert B.codomain == hook.ambient
    for pair in hook.pairs:
        assert B.column(pair) == kernel_basis_vector(hook, ZZ, pair)


def test_degenerate_sizes():
    # N = d + 2 collapses everything to zero dimension
    hook = hook_schur_space(3, 1)
    assert list(hook.pairs) == []
    assert hook.basis_matrix(ZZ).cols == []
    # N = d + 1 is the smallest nonzero column case
    assert len(hook_schur_space(3, 2).pairs) == 3


def test_bad_parameters_raise():
    with pytest.raises(ValueError):
        hook_schur_space(0, 4)
    with pytest.raises(ValueError):
        hook_schur_space(2, -1)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pair_order_matches_basis_listing(data):
    N = data.draw(st.integers(min_value=1, max_value=3))
    d = data.draw(st.integers(min_value=max(0, N - 1), max_value=6))
    hook = hook_schur_space(N, d)
    assert list(hook.pairs) == semistandard_pairs(N, d)
    assert all(basis_index(hook.coords)[p] == n for n, p in enumerate(hook.pairs))


# ------------------------------------------------- checks one block at a time


def _corrupt_block(monkeypatch, name: str, w: int, corrupt):
    """Patch the block map `name` of HookSchurSpace so that its block w
    goes through corrupt(hook, cols) first; every other block is as it is."""
    real = getattr(HookSchurSpace, name)

    def corrupted(self, ww):
        cols = real(self, ww)
        if ww == w:
            cols = {p: dict(col) for p, col in cols.items()}
            corrupt(self, cols)
        return cols

    monkeypatch.setattr(HookSchurSpace, name, corrupted)


def _chain_labels(hook, vals):
    """Ambient positions of the content chain of vals, its terminal
    included: every label with content vals."""
    amb = basis_index(hook.ambient)
    return [amb[(vals[:t] + vals[t + 1 :], vals[t])] for t in range(len(vals))]


def test_a_basis_vector_outside_the_kernel_names_its_pair_and_block(monkeypatch):
    # the vector of ((0, 1), 2) also takes the terminal ((1, 2), 0) of its
    # chain, whose image under mu is not cancelled
    def corrupt(hook, cols):
        m = basis_index(hook.coords)[((0, 1), 2)]
        cols[m][basis_index(hook.ambient)[((1, 2), 0)]] = 1

    _corrupt_block(monkeypatch, "basis_block", 3, corrupt)
    message = r"^basis vector of \(\(0, 1\), 2\) is outside the kernel in the Y-degree block 3$"
    with pytest.raises(ConsistencyError, match=message):
        HookSchurSpace(2, 3)


def test_dependent_basis_vectors_name_their_block(monkeypatch):
    # the second pair of the block gets the first pair's vector, which is
    # in the kernel, so only the rank tells them apart
    def corrupt(hook, cols):
        first, second = list(cols)[:2]
        cols[second] = dict(cols[first])

    _corrupt_block(monkeypatch, "basis_block", 4, corrupt)
    message = r"^kernel basis vectors are linearly dependent in the Y-degree block 4$"
    with pytest.raises(ConsistencyError, match=message):
        HookSchurSpace(2, 3)


def test_a_kernel_larger_than_the_pair_count_names_its_block(monkeypatch):
    # mu sends every label of the content (0, 1, 3) to zero: the basis
    # vectors stay in the kernel, and the kernel grows by one
    n = len(hook_schur_space(2, 3).pair_blocks[4])

    def corrupt(hook, cols):
        for p in _chain_labels(hook, (0, 1, 3)):
            cols[p] = {}

    _corrupt_block(monkeypatch, "mu_block", 4, corrupt)
    message = (
        r"^kernel dimension does not match the pair count in the Y-degree "
        rf"block 4: {n + 1} against {n}$"
    )
    with pytest.raises(ConsistencyError, match=message):
        HookSchurSpace(2, 3)


@pytest.mark.parametrize(
    "name, message",
    [
        ("basis_block", r"^basis vector of \(\(0, 1\), 2\) leaves the Y-degree block 3$"),
        (
            "mu_block",
            r"^the multiplication map leaves the Y-degree block 3 at \(\(0, 1\), 2\)$",
        ),
    ],
)
def test_an_entry_that_leaves_its_block_fails_construction(monkeypatch, name, message):
    # at (2, 3) the Y-degree 3 block takes B's column of ((0, 1), 2) to the
    # label ((0, 1), 1), of Y-degree 2; or mu's columns that land on the
    # wedge (0, 1, 2), position 0 of Wedge(3, Sym(3)), to (0, 1, 3), position
    # 1, of Y-degree 4, with their signs, so that mu B = 0 still holds
    def corrupt(hook, cols):
        if name == "basis_block":
            m = basis_index(hook.coords)[((0, 1), 2)]
            cols[m][basis_index(hook.ambient)[((0, 1), 1)]] = 1
        else:
            for p, col in cols.items():
                if 0 in col:
                    cols[p] = {1: col[0]}

    _corrupt_block(monkeypatch, name, 3, corrupt)
    with pytest.raises(ConsistencyError, match=message):
        HookSchurSpace(2, 3)


def test_a_content_chain_that_leaves_its_block_fails_the_coordinate_map(monkeypatch):
    # a chain that also yields a pair of another content, so of another
    # Y-degree, is refused where K's block is built
    hook = hook_schur_space(2, 3)
    real = tableaux.content_chain
    monkeypatch.setattr(tableaux, "content_chain", lambda vals: real(vals) + [((0, 1), 0)])
    with pytest.raises(
        ConsistencyError, match=r"^content chain of \(0, 1, 2\) leaves the Y-degree block 3$"
    ):
        hook.coordinate_block(3)
