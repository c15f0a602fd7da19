"""Tests for the exact polynomial layer, H_q in monomials and the moment engine."""

import math
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from steinscope.algebra import (
    RationalPoly,
    _as_fraction,
    accumulate,
    echelon_insert,
    falling_factorials,
    falling_poly,
    float_horner,
    gaussian_moment,
    gaussian_power_moments,
    hermite_to_monomial,
    primitive,
)
from steinscope.malliavin import hermite_product

from chaos_witness import cumulants_from_moments, to_poly
from qi_witness import QI, GaussianRationalPoly

fractions_st = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)

poly_st = st.dictionaries(
    st.integers(min_value=0, max_value=8), fractions_st, max_size=6
).map(RationalPoly)

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

    @given(poly_st, fractions_st)
    def test_evaluation_is_the_sum_of_the_terms(self, a, x):
        assert a(x) == sum((v * x**d for d, v in a.c.items()), Fraction(0))
        assert a(int(x)) == sum((v * int(x) ** d for d, v in a.c.items()), Fraction(0))


# coefficients with exact zeros of both signs, samples of both signs
_floats_st = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=True),
)


class TestFloatHorner:
    @given(st.lists(_floats_st, min_size=1, max_size=9),
           st.lists(_floats_st, min_size=1, max_size=16))
    def test_bit_for_bit_numpy_polyval(self, coef, samples):
        import numpy as np

        x = np.array(samples)
        coef = np.array(coef)
        expected = np.polynomial.polynomial.polyval(x, coef)
        assert float_horner(x, coef).tobytes() == expected.tobytes()

    def test_degree_zero_and_zero_polynomial(self):
        import numpy as np

        x = np.array([-2.0, -0.0, 0.0, 3.5])
        assert float_horner(x, np.array([7.0])).tolist() == [7.0] * 4
        zero = float_horner(x, RationalPoly({}).float_coefficients())
        assert zero.tobytes() == np.polynomial.polynomial.polyval(x, [0.0]).tobytes()

    def test_leaves_the_samples_alone(self):
        import numpy as np

        x = np.array([-1.5, 2.0])
        float_horner(x, np.array([1.0, -3.0, 0.5]))
        assert x.tolist() == [-1.5, 2.0]


class TestPrimitive:
    def test_zero_row_is_unchanged(self):
        assert primitive([0, 0, 0]) == [0, 0, 0]
        assert primitive([Fraction(0), Fraction(0)]) == [0, 0]
        assert primitive([]) == []

    def test_positive_scaling_keeps_every_sign(self):
        assert primitive([-6, 0, 4, -10]) == [-3, 0, 2, -5]
        assert primitive([0, -7]) == [0, -1]

    def test_fraction_input_is_cleared(self):
        assert primitive([Fraction(-1, 2), Fraction(3, 4), 0, Fraction(5, 6)]) == [
            -6, 9, 0, 10,
        ]

    @given(st.lists(fractions_st, min_size=1, max_size=6).filter(any))
    def test_coprime_positive_multiple(self, row):
        prim = primitive(row)
        assert all(isinstance(c, int) for c in prim)
        assert math.gcd(*prim) == 1
        scale = next(Fraction(p) / c for p, c in zip(prim, row) if c)
        assert scale > 0
        assert prim == [scale * c for c in row]


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
        lhs = to_poly(hermite_product(a, b))
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


def _falling_product(x, j: int):
    """x (x-1) ... (x-j+1), with the empty product 1."""
    out = 1
    for l in range(j):
        out *= x - l
    return out


def test_falling_factorials():
    assert falling_factorials(5, 0) == [1]
    assert falling_factorials(5, 3) == [1, 5, 20, 60]
    assert falling_factorials(0, 3) == [1, 0, 0, 0]
    # zeros past k: (2)_3 = (2)_4 = 0
    assert falling_factorials(2, 4) == [1, 2, 2, 0, 0]
    for k in range(8):
        ff = falling_factorials(k, 10)
        assert all(type(v) is int for v in ff)
        assert ff == [_falling_product(k, j) for j in range(11)]
        assert all(v == 0 for v in ff[k + 1:])


class TestAccumulate:
    def test_zero_sums_are_dropped(self):
        pairs = [(1, Fraction(1, 2)), (2, 3), (1, Fraction(-1, 2)), (3, 0), (2, 1)]
        assert accumulate(pairs) == {2: 4}

    def test_adds_into_out_in_place(self):
        out = {0: Fraction(1), 1: Fraction(2)}
        result = accumulate([(1, -2), (5, Fraction(1, 3))], out)
        assert result is out
        assert out == {0: 1, 5: Fraction(1, 3)}

    def test_gaussian_rational_values(self):
        assert accumulate([("a", QI(1, 1)), ("a", QI(0, -1)), ("b", QI(0, 2)),
                           ("b", QI(0, -2))]) == {"a": QI(1)}

    def test_polynomial_values(self):
        # _SparseDict.__bool__ makes a zero polynomial a zero sum
        x = RationalPoly({1: 1})
        out = accumulate([(0, x), (1, RationalPoly({0: 2})), (0, -x)])
        assert out == {1: RationalPoly({0: 2})}
        assert not RationalPoly() and not GaussianRationalPoly({3: QI()})

    @given(st.lists(st.tuples(st.integers(0, 4), fractions_st)))
    def test_matches_summing_then_pruning(self, pairs):
        sums = {}
        for key, value in pairs:
            sums[key] = sums.get(key, 0) + value
        assert accumulate(pairs) == {k: v for k, v in sums.items() if v}


sparse_rows = st.lists(st.dictionaries(st.integers(0, 4), fractions_st.filter(bool)), max_size=6)


class TestEchelonInsert:
    @staticmethod
    def row(**entries):
        return {int(c[1:]): Fraction(v) for c, v in entries.items()}

    def test_pivots_and_a_dependent_row(self):
        pivots = {}
        assert echelon_insert(pivots, self.row(c0=1, c2=2), max) == 2
        assert echelon_insert(pivots, self.row(c1=3, c2=1), max) == 1
        form = {2: {0: Fraction(1, 2), 2: 1}, 1: {0: Fraction(-1, 6), 1: 1}}
        assert pivots == form
        assert echelon_insert(pivots, self.row(c0=1, c1=3, c2=3), max) is None
        assert echelon_insert(pivots, {}, max) is None
        assert pivots == form
        # a new pivot clears its column from the rows already there
        assert echelon_insert(pivots, self.row(c0=4), max) == 0
        assert pivots == {2: {2: 1}, 1: {1: 1}, 0: {0: 1}}

    def test_the_lead_picks_the_pivot(self):
        pivots = {}
        assert echelon_insert(pivots, {(0, 1): Fraction(2), (1, 0): Fraction(-2)}, min) == (0, 1)
        assert pivots == {(0, 1): {(0, 1): 1, (1, 0): -1}}

    @settings(max_examples=150, deadline=None)
    @given(sparse_rows.flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
    def test_the_form_is_reduced_and_ignores_row_order(self, rows_and_shuffle):
        rows, shuffled = rows_and_shuffle
        for lead in (min, max):
            forms = []
            for order in (rows, shuffled):
                pivots = {}
                found = [echelon_insert(pivots, row, lead) for row in order]
                assert sorted(c for c in found if c is not None) == sorted(pivots)
                for col, row in pivots.items():
                    assert lead(row) == col and row[col] == 1
                    assert not any(c in pivots for c in row if c != col)
                forms.append(pivots)
            assert forms[0] == forms[1]


@pytest.mark.parametrize("k", range(7))
def test_falling_poly_agrees_with_falling_factorial(k):
    for start in range(k + 1):
        p = falling_poly(k, start)
        assert p.degree() == k - start
        for x in (Fraction(-3), Fraction(1, 2), Fraction(4), Fraction(7, 3)):
            head = _falling_product(x, start)
            if head:
                assert p(x) == _falling_product(x, k) / head
            else:
                assert p(x) == _falling_product(x - start, k - start)
        assert [falling_poly(j)(k) for j in range(9)] == falling_factorials(k, 8)


def test_cumulants_from_moments_of_the_standard_gaussian():
    assert [cumulants_from_moments(gaussian_moment, r) for r in range(1, 7)] == [
        0, 1, 0, 0, 0, 0
    ]


_digits = st.text("0123456789", min_size=1, max_size=6)
_int_text = st.builds(lambda sign, d: sign + d, st.sampled_from(["", "+", "-"]), _digits)
_blank = st.text(" \t\n", max_size=2)


class TestReader:
    """``_as_fraction`` on text: a signed integer or p/q, nothing else."""

    @given(st.fractions(), _blank, _blank)
    def test_round_trips_every_fraction(self, q, before, after):
        assert _as_fraction(before + str(q) + after) == q

    @given(st.one_of(
        st.builds("{}e{}".format, _int_text, _int_text),  # exponent
        st.builds("{}E{}".format, _int_text, _digits),
        st.builds("{}.{}".format, _int_text, _digits),  # decimal
        st.builds(".{}".format, _digits),
        st.builds("{}_{}".format, _int_text, _digits),  # underscore
        st.builds("{}/{}_{}".format, _int_text, _digits, _digits),
        _blank,  # empty
        st.builds("{}/{}".format, _int_text, st.text("0", min_size=1, max_size=4)),  # /0
        st.builds("{}/-{}".format, _int_text, _digits),
        st.builds("{}/{}/{}".format, _int_text, _digits, _digits),
        st.sampled_from(["/", "-", "+", "1/", "/2", "1 / 2", "- 1", "inf", "nan", "\u0663"]),
    ))
    def test_rejects_text_outside_the_grammar(self, text):
        with pytest.raises(ValueError, match="malformed rational"):
            _as_fraction(text)

    def test_long_text_is_clipped_in_the_message(self):
        with pytest.raises(ValueError) as info:
            _as_fraction("1e" + "9" * 5000)
        assert len(str(info.value)) < 80

    def test_over_long_literal_hits_the_int_digit_limit(self):
        with pytest.raises(ValueError, match="limit"):
            _as_fraction("9" * 5000)
