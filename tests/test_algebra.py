"""Tests for the exact polynomial layer, H_q in monomials and the moment engine."""

from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, strategies as st

from steinscope.algebra import (
    QI,
    RationalPoly,
    falling_factorial,
    gaussian_moment,
    gaussian_power_moments,
    hermite_to_monomial,
    unit_ipow,
)
from steinscope.malliavin import hermite_product

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)

poly_st = st.dictionaries(
    st.integers(min_value=0, max_value=8), fractions_st, max_size=6
).map(RationalPoly)

qi_st = st.builds(QI, fractions_st, fractions_st)


class TestQI:
    def test_arithmetic(self):
        z = QI(1, 2) * QI(3, -1)
        assert z == QI(5, 5)
        assert QI(5, 5) / QI(1, 2) == QI(3, -1)
        assert QI(0, 1) * QI(0, 1) == QI(-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QI(1) / QI(0)

    def test_unit_powers(self):
        assert unit_ipow(0) == QI(1)
        assert unit_ipow(1) == QI(0, 1)
        assert unit_ipow(2) == QI(-1)
        assert unit_ipow(3) == QI(0, -1)
        assert unit_ipow(-1) == QI(0, -1)
        assert unit_ipow(7) == unit_ipow(3)

    @given(qi_st, qi_st)
    def test_conjugate_multiplicative(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(qi_st)
    def test_norm_via_conjugate(self, a):
        n = a * a.conjugate()
        assert n.is_real()
        assert n.re >= 0


class TestRationalPoly:
    def test_basics(self):
        p = RationalPoly({0: 1, 2: -3})
        assert p.degree() == 2
        assert p.valuation() == 0
        assert p.coeff(2) == -3
        assert p.coeff(5) == 0
        assert p(Fraction(2)) == 1 - 12
        assert RationalPoly().degree() == -1
        assert RationalPoly().valuation() is None

    def test_derivative(self):
        p = RationalPoly({3: 2, 1: 5})
        assert p.derivative() == RationalPoly({2: 6, 0: 5})
        assert RationalPoly({0: 7}).derivative().is_zero()

    @given(poly_st, poly_st, poly_st)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()

    @given(poly_st, poly_st)
    def test_degree_additivity(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).degree() == a.degree() + b.degree()
            assert (a * b).valuation() == a.valuation() + b.valuation()

    @given(poly_st, poly_st)
    def test_derivative_is_linear(self, a, b):
        assert (a + b).derivative() == a.derivative() + b.derivative()

    @given(poly_st, poly_st)
    def test_product_rule(self, a, b):
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

    @given(poly_st, fractions_st)
    def test_evaluation_is_ring_hom(self, a, x):
        assert (a * a)(x) == a(x) * a(x)


def gaussian_expectation(p):
    """E[p(X)] for X ~ N(0,1): the k = 1 term of the moment engine."""
    return next(islice(gaussian_power_moments(p), 1, None))


def hermite_coefficients(p):
    """The Hermite coefficients of p, read back as c_r = E[p H_r] / r!."""
    return {
        r: gaussian_expectation(p * hermite_to_monomial(r)) / factorial(r)
        for r in range(p.degree() + 1)
    }


class TestHermite:
    def test_small_cases(self):
        assert hermite_to_monomial(0) == RationalPoly({0: 1})
        assert hermite_to_monomial(1) == RationalPoly({1: 1})
        assert hermite_to_monomial(2) == RationalPoly({2: 1, 0: -1})
        assert hermite_to_monomial(3) == RationalPoly({3: 1, 1: -3})
        assert hermite_to_monomial(4) == RationalPoly({4: 1, 2: -6, 0: 3})
        with pytest.raises(ValueError, match="Hermite degree"):
            hermite_to_monomial(-1)

    @pytest.mark.parametrize("q", [*range(1, 41), 300, 700])
    def test_derivative_lowers_the_degree(self, q):
        # H_q' = q H_{q-1}, an identity the three-term recurrence never uses
        assert hermite_to_monomial(q).derivative() == q * hermite_to_monomial(q - 1)

    @pytest.mark.parametrize("q", range(31))
    def test_round_trip(self, q):
        assert hermite_coefficients(hermite_to_monomial(q)) == {
            r: int(r == q) for r in range(q + 1)
        }

    @given(poly_st)
    def test_round_trip_random(self, p):
        back = RationalPoly()
        for r, c in hermite_coefficients(p).items():
            back = back + c * hermite_to_monomial(r)
        assert back == p

    # hermite_product lives in malliavin; this is its check against the
    # monomial basis built here
    @pytest.mark.parametrize("a", range(9))
    @pytest.mark.parametrize("b", range(9))
    def test_product_matches_monomial_multiplication(self, a, b):
        lhs = hermite_product(a, b).to_poly()
        rhs = hermite_to_monomial(a) * hermite_to_monomial(b)
        assert lhs == rhs

    @pytest.mark.parametrize("a", range(13))
    @pytest.mark.parametrize("b", range(13))
    def test_orthogonality(self, a, b):
        # E[H_a H_b] = a! delta_{ab}
        e = gaussian_expectation(hermite_to_monomial(a) * hermite_to_monomial(b))
        assert e == (factorial(a) if a == b else 0)


class TestGaussianMoment:
    def test_values(self):
        assert gaussian_moment(0) == 1
        assert gaussian_moment(1) == 0
        assert gaussian_moment(3) == 0
        assert gaussian_moment(4) == 3
        assert gaussian_moment(12) == 10395
        with pytest.raises(ValueError):
            gaussian_moment(-1)

    @pytest.mark.parametrize("n", range(0, 16, 2))
    def test_recurrence(self, n):
        assert gaussian_moment(n + 2) == (n + 1) * gaussian_moment(n)

    def test_power_moments_of_x_and_of_zero(self):
        x = RationalPoly({1: 1})
        assert list(islice(gaussian_power_moments(x), 20)) == [
            gaussian_moment(k) for k in range(20)
        ]
        assert list(islice(gaussian_power_moments(RationalPoly()), 3)) == [1, 0, 0]

    def test_power_moments_clear_denominators(self):
        # (X/2 + 1/3)^2 has mean 1/4 + 1/9; its square has mean
        # E[X^4]/16 + 6 E[X^2]/36 + 1/81
        f = RationalPoly({1: Fraction(1, 2), 0: Fraction(1, 3)})
        moments = list(islice(gaussian_power_moments(f), 5))
        assert moments[:3] == [1, Fraction(1, 3), Fraction(1, 4) + Fraction(1, 9)]
        assert moments[4] == (
            Fraction(3, 16) + 6 * Fraction(1, 4) * Fraction(1, 9) + Fraction(1, 81)
        )


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(2, 4) == 0
