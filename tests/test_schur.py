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
    ModuleElement,
    PrimeField,
    hook_schur_space,
    multiplication_map,
    neighbour,
    rank_of_vectors,
    semistandard_pairs,
)


def test_kernel_membership_all_pairs():
    hook = hook_schur_space(2, 4)
    assert len(hook.pairs) == 40
    for ring in (ZZ, PrimeField(2), PrimeField(3)):
        mu = multiplication_map(ring, 2, 4)
        for pair in hook.pairs:
            assert mu.apply(hook.kernel_basis_vector(ring, pair)).is_zero()


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
        vectors = [hook.kernel_basis_vector(QQ, p) for p in hook.pairs]
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
            v = v + hook.kernel_basis_vector(ZZ, p).scale(c)
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
            v = v + hook.kernel_basis_vector(ring, p).scale(c)
        coords = hook.coordinates(v)
        recovered = ModuleElement.zero(hook.ambient, ring)
        for p, c in coords.coeffs.items():
            recovered = recovered + hook.kernel_basis_vector(ring, p).scale(c)
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
        coords = hook.coordinates(hook.kernel_basis_vector(ZZ, pair))
        assert coords.coeffs == {pair: 1}


def test_basis_matrix_columns_are_kernel_vectors():
    hook = hook_schur_space(2, 3)
    B = hook.basis_matrix(ZZ)
    assert B.domain == hook.coords
    assert B.codomain == hook.ambient
    for pair in hook.pairs:
        assert B.column(pair) == hook.kernel_basis_vector(ZZ, pair)


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
    assert all(hook.pair_index[p] == n for n, p in enumerate(hook.pairs))
