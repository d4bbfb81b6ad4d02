"""Differential tests: the one sparse elimination, spaces._eliminate, against
the three it replaced, kept in oracles.py as reference oracles only.

A kernel vector is e_j less the unique combination of the earlier
independent columns that equals column j, scaled, so it does not depend on
the pivot rule: rank and kernel_basis must agree exactly with _echelon over
each field, and over ZZ with _integer_kernel and the rank over QQ.  The
reduced echelon form of a span is unique, so _reduced_rows must return the
same rows, in the same order."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethy import QQ, ZZ, LinearMap, PrimeField, Sym, dim, kernel_basis, rank
from plethy.conjecture import (
    _reduced_rows,
    hook_domain,
    hook_kernel_map,
    hook_kernel_vectors,
)

import oracles

RINGS = (ZZ, QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7))

RANDOM_MAPS = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=4),
        min_size=n,
        max_size=n,
    )
).map(lambda cols: LinearMap.from_positions(Sym(len(cols) - 1), Sym(5), ZZ, cols))

HOOK_MAPS = (
    st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(0, 3))
    .filter(lambda mnd: dim(hook_domain(*mnd)) <= 200)
    .map(lambda mnd: hook_kernel_map(ZZ, *mnd))
)


def oracle_rank_and_kernel(A: LinearMap):
    """The rank and kernel combinations as the old eliminations gave them:
    _echelon over a field; over ZZ, _echelon's rank over QQ and
    _integer_kernel's vectors."""
    if A.ring == ZZ:
        rational = [{r: Fraction(c) for r, c in col.items()} for col in A.pcols]
        pivots, _ = oracles._echelon(rational, QQ, track=False)
        return len(pivots), oracles._integer_kernel(A.pcols)
    pivots, kernel = oracles._echelon(A.pcols, A.ring, track=True)
    return len(pivots), kernel


@settings(max_examples=60, deadline=None)
@given(st.one_of(RANDOM_MAPS, HOOK_MAPS))
def test_rank_and_kernel_match_the_old_eliminations(A):
    for ring in RINGS:
        B = A if ring == ZZ else A.map_entries(ring, ring.from_int)
        expected_rank, expected_kernel = oracle_rank_and_kernel(B)
        assert rank(B) == expected_rank
        assert [v.pcoeffs for v in kernel_basis(B)] == expected_kernel


def rows(reduced_rows, p, vectors):
    """The (lead, row) pairs in order, or ValueError for dependent vectors."""
    try:
        return list(reduced_rows(p, vectors).items())
    except ValueError:
        return ValueError


def assert_same_rows(p, vectors):
    assert rows(_reduced_rows, p, vectors) == rows(oracles._reduced_rows, p, vectors)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(
                st.dictionaries(st.integers(0, 7), st.integers(1, p - 1), max_size=5),
                max_size=6,
            ),
        )
    )
)
def test_reduced_rows_match_the_old_forward_pass(case):
    assert_same_rows(*case)


def summed(x: dict, y: dict, p: int) -> dict:
    out = dict(x)
    for i, c in y.items():
        out[i] = (out.get(i, 0) + c) % p
    return {i: c for i, c in out.items() if c}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("point", ((3, 2, 3), (4, 1, 2), (6, 1, 2)))
def test_reduced_rows_of_kernel_vectors_match_the_old_forward_pass(p, point):
    # the kernel vectors are their own rows; each summed with the next
    # spans the same space, in a form that both passes must reduce, and
    # gives its rows in another order
    vectors = [v.pcoeffs for v in hook_kernel_vectors(PrimeField(p), *point)]
    mixed = [summed(x, y, p) for x, y in zip(vectors, vectors[1:])] + vectors[-1:]
    assert_same_rows(p, vectors)
    assert_same_rows(p, mixed)
    assert rows(_reduced_rows, p, mixed) != rows(_reduced_rows, p, vectors)
