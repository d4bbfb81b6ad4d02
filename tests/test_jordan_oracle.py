"""Differential tests: the packed Jordan fingerprint against the original
dict-elimination algorithm, kept here as a reference oracle only, the
sparse span coordinates against the packed ones they replaced, and the
tensor rule against the direct fingerprint of the whole tensor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plethy import (
    ConsistencyError,
    ModuleElement,
    PrimeField,
    Sym,
    SymPower,
    Tensor,
    Wedge,
    basis,
    dim,
    group_action_map,
    hook_domain,
    hook_kernel_vectors,
    identity_map,
    jordan_fingerprint,
    jordan_type_from_ranks,
    lhs_space,
    rank_of_vectors,
)
from plethy.conjecture import _power_ranks, _span_coordinates, _tensor_jordan_type

from oracles import packed_span_coordinates

PRIMES = st.sampled_from((2, 3, 5, 7))


def oracle_fingerprint(p, space, vectors=None):
    """The original algorithm: every rank recomputed by dict elimination
    on ambient vectors."""
    ring = PrimeField(p)
    U = group_action_map(
        ring, ((ring.one, ring.one), (ring.zero, ring.one)), space
    )
    if vectors is None:
        vectors = [ModuleElement.basis_vector(space, ring, l) for l in basis(space)]
    else:
        for v in vectors:
            if v.space != space or v.ring != ring:
                raise ValueError("vectors do not match the space or field")
    r0 = rank_of_vectors(vectors)
    if r0 != len(vectors):
        raise ValueError("vectors are not linearly independent")
    if vectors and rank_of_vectors(vectors + [U.apply(v) for v in vectors]) != r0:
        raise ConsistencyError("span is not invariant under the unipotent")
    shift = U - identity_map(ring, space)
    ranks = [r0]
    cur = vectors
    while ranks[-1] > 0:
        cur = [shift.apply(v) for v in cur]
        ranks.append(rank_of_vectors(cur))
        if len(ranks) > p + 1:
            raise ConsistencyError("nilpotency degree exceeded the characteristic")
    return jordan_type_from_ranks(ranks)


def outcome(fn, *args):
    """The result, or the exception type, of a fingerprint call."""
    try:
        return fn(*args)
    except (ValueError, ConsistencyError) as exc:
        return type(exc)


_atoms = st.one_of(
    st.integers(0, 4).map(Sym),
    st.builds(Wedge, st.integers(0, 3), st.integers(0, 5).map(Sym)),
    st.builds(SymPower, st.integers(0, 2), st.integers(0, 3).map(Sym)),
)
SPACES = st.recursive(
    _atoms, lambda inner: st.builds(Tensor, inner, inner), max_leaves=3
).filter(lambda s: dim(s) <= 40)


@settings(max_examples=60, deadline=None)
@given(PRIMES, SPACES)
def test_ambient_fingerprint_matches_oracle(p, space):
    assert jordan_fingerprint(p, space) == oracle_fingerprint(p, space)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_hook_kernel_fingerprint_matches_oracle(p):
    ring = PrimeField(p)
    for M, N, d in ((1, 2, 3), (2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2)):
        vectors = hook_kernel_vectors(ring, M, N, d)
        space = hook_domain(M, N, d)
        assert jordan_fingerprint(p, space, vectors) == oracle_fingerprint(
            p, space, vectors
        )
        left = lhs_space(M, N, d)
        assert jordan_fingerprint(p, left) == oracle_fingerprint(p, left)


@st.composite
def vector_sets(draw):
    """A space over GF(p) with a few vectors: random ones (usually neither
    independent nor invariant) or an independent spanning set of the
    invariant subspace the random ones generate."""
    p = draw(PRIMES)
    space = draw(SPACES.filter(lambda s: dim(s) > 0))
    ring = PrimeField(p)
    labels = basis(space)
    vectors = []
    for _ in range(draw(st.integers(0, 3))):
        support = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4))
        coeffs = {l: draw(st.integers(0, p - 1)) for l in support}
        vectors.append(ModuleElement(space, ring, coeffs))
    if draw(st.booleans()):
        U = group_action_map(
            ring, ((ring.one, ring.one), (ring.zero, ring.one)), space
        )
        orbit = list(vectors)
        for v in vectors:
            # U - 1 is nilpotent, so (U - 1)^dim(space) v is zero
            for _ in range(dim(space) + 1):
                if v.is_zero():
                    break
                v = U.apply(v) - v
                orbit.append(v)
            else:
                raise AssertionError(
                    f"U - 1 is not nilpotent on {space} over GF({p})"
                )
        vectors = []
        for v in orbit:
            if rank_of_vectors(vectors + [v]) > len(vectors):
                vectors.append(v)
    return p, space, vectors


@settings(max_examples=80, deadline=None)
@given(vector_sets())
def test_span_fingerprint_matches_oracle(case):
    p, space, vectors = case
    assert outcome(jordan_fingerprint, p, space, vectors) == outcome(
        oracle_fingerprint, p, space, vectors
    )


# ------------------------------------------------------ span coordinates


def span_outcome(span, p, space, vectors):
    """The Jordan type of S on the span from span's coordinates, or the
    exception type."""
    ring = PrimeField(p)
    U = group_action_map(ring, ((ring.one, ring.one), (ring.zero, ring.one)), space)
    try:
        coords = span(p, U, [v.pcoeffs for v in vectors])
        return jordan_type_from_ranks(_power_ranks(p, coords))
    except (ValueError, ConsistencyError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(vector_sets())
def test_span_coordinates_match_the_packed_oracle(case):
    p, space, vectors = case
    assert span_outcome(_span_coordinates, p, space, vectors) == span_outcome(
        packed_span_coordinates, p, space, vectors
    )


@settings(max_examples=40, deadline=None)
@given(
    PRIMES,
    st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(0, 5)).filter(
        lambda mnd: dim(hook_domain(*mnd)) <= 600
    ),
)
def test_span_coordinates_of_kernel_vectors_equal_the_packed_ones(p, point):
    # on kernel vectors the reduced echelon basis is the vectors
    # themselves, as the packed echelon was, so the columns are identical
    ring = PrimeField(p)
    space = hook_domain(*point)
    vectors = [v.pcoeffs for v in hook_kernel_vectors(ring, *point)]
    U = group_action_map(ring, ((ring.one, ring.one), (ring.zero, ring.one)), space)
    assert _span_coordinates(p, U, vectors) == packed_span_coordinates(p, U, vectors)


# ----------------------------------------------------------- the tensor rule


def direct_fingerprint(p, space):
    """The fingerprint of the whole space computed on it, not by the tensor
    rule: the full basis passed as the vectors."""
    ring = PrimeField(p)
    return jordan_fingerprint(
        p, space, [ModuleElement.basis_vector(space, ring, l) for l in basis(space)]
    )


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_tensor_rule_on_two_blocks(p):
    for r in range(1, p + 1):
        for s in range(1, p + 1):
            parts = _tensor_jordan_type(p, (r,), (s,))
            assert sum(parts) == r * s
            assert all(1 <= k <= p for k in parts)
            assert list(parts) == sorted(parts, reverse=True)
            assert parts == _tensor_jordan_type(p, (s,), (r,))
            if r == 1:
                assert parts == (s,)
            if p in (r, s):
                assert parts == (p,) * min(r, s)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_tensor_rule_sums_over_pairs_of_blocks(p):
    # u (x) u on a sum of blocks is the sum over pairs of blocks, repeated
    # blocks included, whatever order the blocks come in
    left = tuple(range(p, 0, -1)) + (p, 1)
    right = (1,) + tuple(range(1, p + 1))
    pairwise = [k for r in left for s in right for k in _tensor_jordan_type(p, (r,), (s,))]
    parts = _tensor_jordan_type(p, left, right)
    assert parts == tuple(sorted(pairwise, reverse=True))
    assert parts == _tensor_jordan_type(p, right, left)
    assert sum(parts) == sum(left) * sum(right)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_tensor_rule_matches_the_direct_fingerprint_on_sym_pairs(p):
    # Sym(c) for c in 0..2p has one to three distinct block sizes mod p
    for a in range(2 * p + 1):
        for b in range(a, 2 * p + 1):
            T = Tensor(Sym(a), Sym(b))
            assert jordan_fingerprint(p, T) == direct_fingerprint(p, T), T


# at each p in 2, 3, 5, 7 both factors of one of these tensors have two or
# more distinct block sizes; the last one nests a tensor in a factor
TENSORS = (
    Tensor(Wedge(2, Sym(4)), SymPower(2, Sym(6))),
    Tensor(Wedge(2, Sym(3)), SymPower(3, Sym(6))),
    Tensor(Wedge(3, Sym(5)), SymPower(2, Sym(2))),
    Tensor(Tensor(Sym(2), Wedge(2, Sym(3))), SymPower(2, Sym(4))),
)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_tensor_rule_matches_the_direct_fingerprint_on_powers(p):
    def sizes(space):
        return len(set(jordan_fingerprint(p, space)))

    assert any(sizes(T.left) > 1 and sizes(T.right) > 1 for T in TENSORS)
    for T in TENSORS:
        assert jordan_fingerprint(p, T) == direct_fingerprint(p, T), T


# every M >= 2 lhs of the scan-grid workload (M 1..3, N 1..2, d 0..6 at
# p = 2, 3) and of the odd-prime scan pin (M 2..4, N 1..2, d 1..3 at
# p = 5, 7)
SCAN_GRID_LHS = [
    (M, N, d, p)
    for M in (2, 3) for N in (1, 2) for d in range(7) for p in (2, 3)
] + [
    (M, N, d, p)
    for M in (2, 3, 4) for N in (1, 2) for d in (1, 2, 3) for p in (5, 7)
]


@pytest.mark.parametrize("M, N, d, p", SCAN_GRID_LHS)
def test_tensor_rule_matches_the_direct_fingerprint_on_scan_lhs(M, N, d, p):
    left = lhs_space(M, N, d)
    assert jordan_fingerprint(p, left) == direct_fingerprint(p, left)
