"""Tests for the exact polynomial and Hermite-basis layer."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from steinscope.algebra import (
    QI,
    GaussianRationalPoly,
    HermiteExpansion,
    RationalPoly,
    falling_factorial,
    gaussian_moment,
    hermite_product,
    hermite_to_monomial,
    monomial_to_hermite,
    poly_gaussian_expectation,
    unit_ipow,
)

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)

poly_st = st.dictionaries(
    st.integers(min_value=0, max_value=8), fractions_st, max_size=6
).map(RationalPoly)

qi_st = st.builds(QI, fractions_st, fractions_st)

gpoly_st = st.dictionaries(
    st.integers(min_value=0, max_value=8), qi_st, max_size=6
).map(GaussianRationalPoly)


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

    def test_shift(self):
        p = RationalPoly({1: 1})
        assert p.shift(2) == RationalPoly({3: 1})
        with pytest.raises(ValueError):
            p.shift(-2)

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


class TestGaussianRationalPoly:
    @given(gpoly_st, gpoly_st)
    def test_conjugate_distributes(self, a, b):
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_real_imag_split(self):
        p = GaussianRationalPoly({0: QI(1, 2), 3: QI(0, -5)})
        assert p.real_part() == RationalPoly({0: 1})
        assert p.imag_part() == RationalPoly({0: 2, 3: -5})
        assert not p.is_real()
        assert p.real_part().to_gaussian().is_real()


class TestHermite:
    def test_small_cases(self):
        assert hermite_to_monomial(0) == RationalPoly({0: 1})
        assert hermite_to_monomial(1) == RationalPoly({1: 1})
        assert hermite_to_monomial(2) == RationalPoly({2: 1, 0: -1})
        assert hermite_to_monomial(3) == RationalPoly({3: 1, 1: -3})
        assert hermite_to_monomial(4) == RationalPoly({4: 1, 2: -6, 0: 3})

    @pytest.mark.parametrize("q", range(31))
    def test_round_trip(self, q):
        e = monomial_to_hermite(hermite_to_monomial(q))
        assert e == HermiteExpansion({q: 1})

    @given(poly_st)
    def test_round_trip_random(self, p):
        assert monomial_to_hermite(p).to_poly() == p

    def test_product_h3_h3(self):
        assert hermite_product(3, 3) == HermiteExpansion(
            {6: 1, 4: 9, 2: 18, 0: 6}
        )

    def test_product_h3_h1(self):
        assert hermite_product(3, 1) == HermiteExpansion({4: 1, 2: 3})

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
        e = poly_gaussian_expectation(
            hermite_to_monomial(a) * hermite_to_monomial(b)
        )
        assert e == (factorial(a) if a == b else 0)

    def test_expansion_moments(self):
        f = HermiteExpansion({3: 1})
        assert f.expectation() == 0
        assert f.second_moment() == 6
        g = HermiteExpansion({0: 2, 2: 1})
        assert g.expectation() == 2
        assert g.second_moment() == 4 + 2

    def test_expansion_product(self):
        f = HermiteExpansion({3: 1})
        assert f * f == HermiteExpansion({6: 1, 4: 9, 2: 18, 0: 6})
        assert 2 * f == HermiteExpansion({3: 2})

    def test_expansion_ring_keeps_the_subclass(self):
        from steinscope.malliavin import ChaosElement

        f, g = ChaosElement({3: 1}), HermiteExpansion({1: 2})
        for result in (f + g, f - g, -f, f * g, 2 * f, f * Fraction(1, 2)):
            assert type(result) is ChaosElement
        assert type(g + f) is HermiteExpansion
        assert f - f == HermiteExpansion() and (f - f).is_zero()

    def test_expansion_has_no_monomial_operations(self):
        with pytest.raises(ValueError, match="Hermite degree"):
            HermiteExpansion({-1: 1})
        f = HermiteExpansion({2: 1})
        assert not hasattr(f, "shift")
        assert not callable(f)


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


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(2, 4) == 0
