"""Coefficient rings and the dense integer polynomial."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plethy import (
    QQ,
    ZGAMMA,
    ZZ,
    IntPoly,
    IntPolynomialRing,
    PrimeField,
    binomial,
    ring_by_name,
)

small_ints = st.integers(min_value=-50, max_value=50)
coeff_lists = st.lists(small_ints, max_size=6)


def test_binomial_matches_math_comb():
    for n in range(12):
        for k in range(12):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -1)


# ------------------------------------------------------------------- IntPoly


def test_intpoly_normalizes_trailing_zeros():
    p = IntPoly([1, 2, 0, 0], "q")
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly([0, 0], "q").degree == -1  # zero polynomial sentinel


@pytest.mark.parametrize("coeffs", [[True], [1.0], [1, 0.0], [False]], ids=str)
def test_intpoly_rejects_coefficients_that_are_not_ints(coeffs):
    # a bool is not read as 0 or 1, and a float zero is not dropped
    with pytest.raises(ValueError):
        IntPoly(coeffs)


def test_intpoly_str_and_eval():
    p = IntPoly([1, 2], "gamma")
    assert str(p) == "1+2*gamma"
    assert p(3) == 7
    assert p(Fraction(1, 2)) == 2


def test_intpoly_var_mismatch_raises():
    with pytest.raises(ValueError):
        IntPoly([1], "q") + IntPoly([1], "gamma")


def test_intpoly_shift_is_monomial_multiple():
    p = IntPoly([1, 1], "q")
    assert p.shift(2) == IntPoly([0, 0, 1, 1], "q")


@given(coeff_lists, coeff_lists, small_ints)
def test_intpoly_evaluation_is_a_homomorphism(a, b, x):
    p = IntPoly(a, "q")
    r = IntPoly(b, "q")
    assert (p + r)(x) == p(x) + r(x)
    assert (p * r)(x) == p(x) * r(x)
    assert (-p)(x) == -p(x)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_intpoly_ring_laws(a, b, c):
    p, r, s = (IntPoly(t, "q") for t in (a, b, c))
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(coeff_lists, st.integers(min_value=0, max_value=4))
def test_intpoly_pow_is_repeated_product(a, n):
    p = IntPoly(a, "q")
    expected = IntPoly([1], "q")
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


# --------------------------------------------------------------------- rings


def ring_elements(ring):
    if ring == ZZ:
        return small_ints.map(ring.from_int)
    if ring == QQ:
        return st.tuples(small_ints, st.integers(min_value=1, max_value=9)).map(
            lambda t: Fraction(t[0], t[1])
        )
    if isinstance(ring, PrimeField):
        return st.integers(min_value=0, max_value=ring.p - 1)
    return coeff_lists.map(lambda c: IntPoly(c, ring.var))


@pytest.mark.parametrize(
    "ring", [ZZ, QQ, PrimeField(2), PrimeField(7), ZGAMMA], ids=str
)
def test_ring_laws(ring):
    elems = ring_elements(ring)

    @given(elems, elems, elems)
    def inner(a, b, c):
        assert ring.eq(ring.add(a, b), ring.add(b, a))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))
        assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
        assert ring.eq(
            ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c))
        )
        assert ring.eq(ring.add(a, ring.neg(a)), ring.zero)
        assert ring.eq(ring.mul(a, ring.one), a)
        assert ring.eq(ring.sub(a, b), ring.add(a, ring.neg(b)))

    inner()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 65521])
def test_prime_field_accepts_primes(p):
    assert PrimeField(p).p == p


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 65537, 100000])
def test_prime_field_rejects_nonprimes_and_large(p):
    with pytest.raises(ValueError):
        PrimeField(p)


def test_prime_field_inverses():
    ring = PrimeField(13)
    for a in range(1, 13):
        assert ring.mul(a, ring.div(ring.one, a)) == 1


def test_division_errors():
    with pytest.raises(ValueError):
        ZZ.div(1, 2)  # not a field
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).div(1, 0)


@given(small_ints, small_ints)
def test_reduction_mod_p_is_a_homomorphism(a, b):
    ring = PrimeField(7)
    ra, rb = ring.from_int(a), ring.from_int(b)
    assert ring.from_int(a + b) == ring.add(ra, rb)
    assert ring.from_int(a * b) == ring.mul(ra, rb)
    assert ring.from_int(-a) == ring.neg(ra)


@given(coeff_lists, coeff_lists)
def test_gamma_ring_evaluates_into_rationals(a, b):
    # evaluating a polynomial identity at a rational point must preserve it
    p, r = IntPoly(a, "gamma"), IntPoly(b, "gamma")
    prod = ZGAMMA.mul(p, r)
    x = Fraction(3, 2)
    assert prod(x) == p(x) * r(x)


def test_ring_by_name():
    assert ring_by_name("rat") == QQ
    assert ring_by_name("int") == ZZ
    assert ring_by_name("polygamma") == ZGAMMA
    assert ring_by_name("fp", 5) == PrimeField(5)
    with pytest.raises(ValueError):
        ring_by_name("fp")
    with pytest.raises(ValueError):
        ring_by_name("octonion")


def test_rings_compare_by_kind():
    assert ZZ != QQ
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert IntPolynomialRing("q") == IntPolynomialRing("q")
    assert IntPolynomialRing("q") != IntPolynomialRing("gamma")
