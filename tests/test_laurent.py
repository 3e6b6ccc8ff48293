"""Laurent polynomial ring, exact division, symmetrization, cyclotomic
polynomials, and resultants."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotcover.exact_linalg import resultant
from knotcover.laurent_poly import (
    LaurentPoly,
    NotAKnotPolynomial,
    NotSymmetrizable,
    ZeroArgument,
    symmetrize_alexander,
)

laurents = st.builds(
    LaurentPoly,
    st.integers(min_value=-4, max_value=4),
    st.lists(st.integers(min_value=-6, max_value=6), max_size=6),
)
nonzero_laurents = laurents.filter(lambda p: not p.is_zero())
# Ordinary polynomials: min_deg 0 before trimming, so a zero constant term
# shows up as a positive min_deg.
int_polys = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5).map(
    lambda cs: LaurentPoly(0, cs)
)
nonzero_int_polys = int_polys.filter(lambda p: not p.is_zero())


def test_trimming_and_zero():
    assert LaurentPoly(5, (0, 0)) == LaurentPoly.zero()
    assert LaurentPoly(2, (0, 3, 0)).min_deg == 3
    assert LaurentPoly(2, (0, 3, 0)).coeffs == (3,)
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.one().coeff(0) == 1


def test_text_round_trip_examples():
    examples = [
        (LaurentPoly(-1, (1, -1, 1)), "1*t^-1 - 1 + 1*t^1"),
        (LaurentPoly(-1, (-1, 3, -1)), "-1*t^-1 + 3 - 1*t^1"),
        (LaurentPoly(-1, (2, -3, 2)), "2*t^-1 - 3 + 2*t^1"),
        (LaurentPoly.one(), "1"),
        (LaurentPoly.zero(), "0"),
        (LaurentPoly.t(3, -7), "-7*t^3"),
    ]
    for poly, text in examples:
        assert poly.to_text() == text


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(laurents, laurents)
def test_involution_is_a_ring_map(a, b):
    assert a.involute().involute() == a
    assert (a * b).involute() == a.involute() * b.involute()
    assert (a + b).involute() == a.involute() + b.involute()


@given(laurents, nonzero_laurents)
def test_exact_division_inverts_multiplication(a, b):
    assert (a * b) / b == a
    with pytest.raises(TypeError):
        (a * b) // b
    assert (a * -3) / -3 == a


@given(int_polys, nonzero_int_polys)
def test_int_poly_divmod(a, b):
    # Long division of ordinary polynomials: the quotient of a product by a
    # factor is the other factor, and nothing is left over.
    q = (a * b) / b
    assert q == a
    assert (a * b - q * b).is_zero()


def test_division_requires_exactness():
    with pytest.raises(ValueError):
        (LaurentPoly(0, (1, 0, 1))) / LaurentPoly(0, (1, 1))
    with pytest.raises(ValueError):
        LaurentPoly(0, (1,)) / LaurentPoly(0, (1, 1))
    with pytest.raises(ValueError):
        LaurentPoly(0, (3, 6)) / 2
    with pytest.raises(ZeroDivisionError):
        LaurentPoly.one() / LaurentPoly.zero()


def test_eval_rational():
    p = LaurentPoly(-1, (1, -1, 1))
    assert p.eval_rational(Fraction(2)) == Fraction(3, 2)
    assert p.eval_rational(Fraction(1)) == 1
    with pytest.raises(ZeroArgument):
        p.eval_rational(Fraction(0))


@given(laurents, st.fractions(min_value=-4, max_value=4).filter(lambda q: q != 0))
def test_eval_rational_is_a_homomorphism(a, x):
    b = LaurentPoly(-1, (2, 1))
    assert (a * b).eval_rational(x) == a.eval_rational(x) * b.eval_rational(x)


def test_symmetrize_alexander_normalizes():
    assert symmetrize_alexander(LaurentPoly(0, (1, -1, 1))) == LaurentPoly(-1, (1, -1, 1))
    assert symmetrize_alexander(LaurentPoly(3, (-2, 3, -2))) == LaurentPoly(-1, (2, -3, 2))
    assert symmetrize_alexander(LaurentPoly(0, (1,))) == LaurentPoly.one()


def test_symmetrize_alexander_rejections():
    with pytest.raises(NotSymmetrizable):
        symmetrize_alexander(LaurentPoly(0, (1, 2)))
    with pytest.raises(NotSymmetrizable):
        symmetrize_alexander(LaurentPoly(0, (1, 1)))
    with pytest.raises(NotAKnotPolynomial):
        symmetrize_alexander(LaurentPoly(0, (1, 1, 1)))
    with pytest.raises(ValueError):
        symmetrize_alexander(LaurentPoly.zero())


def test_resultant_fixed_values():
    # ascending-coefficient Sylvester convention: lc(g)^deg(f) * prod f(roots of g)
    assert resultant(LaurentPoly(0, (-2, 1)), LaurentPoly(0, (-3, 1))) == 1
    assert resultant(LaurentPoly(0, (1, 0, 1)), LaurentPoly(0, (-1, 1))) == 2
    assert resultant(LaurentPoly(0, (0, 1)), LaurentPoly(0, (0, 1))) == 0
    assert resultant(LaurentPoly(0, (-1, 0, 1)), LaurentPoly(0, (-4, 0, 1))) == 9


def test_resultant_rejects_negative_powers():
    with pytest.raises(ValueError):
        resultant(LaurentPoly(-1, (1, -1, 1)), LaurentPoly(0, (1, 1)))


@given(nonzero_int_polys, nonzero_int_polys)
def test_resultant_swap_sign(f, g):
    sign = (-1) ** (f.max_deg() * g.max_deg())
    assert resultant(f, g) == sign * resultant(g, f)


@given(nonzero_int_polys, nonzero_int_polys, nonzero_int_polys)
def test_resultant_multiplicative(f1, f2, g):
    assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)


def test_cyclotomic_small():
    assert LaurentPoly.cyclotomic(1) == LaurentPoly(0, (-1, 1))
    assert LaurentPoly.cyclotomic(2) == LaurentPoly(0, (1, 1))
    assert LaurentPoly.cyclotomic(4) == LaurentPoly(0, (1, 0, 1))
    assert LaurentPoly.cyclotomic(6) == LaurentPoly(0, (1, -1, 1))
    assert LaurentPoly.cyclotomic(12) == LaurentPoly(0, (1, 0, -1, 0, 1))


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_product_is_t_n_minus_1(n):
    product = LaurentPoly.one()
    for d in range(1, n + 1):
        if n % d == 0:
            product = product * LaurentPoly.cyclotomic(d)
    want = LaurentPoly(0, [-1] + [0] * (n - 1) + [1])
    assert product == want


def test_all_ones():
    assert LaurentPoly.all_ones(4) == LaurentPoly(0, (1, 1, 1, 1))
    assert LaurentPoly.all_ones(1) == LaurentPoly.one()


def test_phi_values():
    # Euler-phi degrees for a sample of indices
    for n, deg in ((5, 4), (8, 4), (9, 6), (15, 8), (30, 8)):
        assert LaurentPoly.cyclotomic(n).max_deg() == deg

