"""Tests for the exact one-dimensional Malliavin Gamma calculus.

All Gamma expansions asserted coefficientwise below were derived once by
an independent symbolic computation (iterating the definition by hand in
the monomial basis and converting back) and are frozen here as oracles.
The package's ``gamma_levels`` is checked against the definition-level
calculus of ``chaos_witness``, which the remaining tests exercise.
"""

from fractions import Fraction
from itertools import islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from steinscope import malliavin
from steinscope.algebra import gaussian_power_moments, primitive
from steinscope.discovery import _nullspace
from steinscope.malliavin import (
    ChaosElement,
    check_gamma_characterisation,
    gamma_levels,
    hermite_product,
    identity_catalog,
)

import chaos_witness
from chaos_witness import (
    L_inverse,
    carre_du_champ,
    check_cumulant_formula,
    expectation,
    gamma_r,
    malliavin_D,
    moment,
    ou_generator,
    to_poly,
)

F = Fraction


def H(q):
    return ChaosElement({q: 1})


def levels(el, R):
    """Gamma_0(el) .. Gamma_R(el) from the package's ``gamma_levels``."""
    return list(islice(gamma_levels(el), R + 1))


chaos_st = st.dictionaries(
    st.integers(min_value=0, max_value=8),
    st.fractions(min_value=-8, max_value=8, max_denominator=10),
    min_size=1,
    max_size=5,
).map(ChaosElement)


class TestChaosElement:
    def test_expectation_and_second_moment(self):
        el = ChaosElement({0: 2, 3: 1, 4: F(1, 2)})
        assert expectation(el) == 2
        # E[F^2] = sum c_q^2 q! = 4 + 6 + 24/4
        assert expectation(el * el) == 16
        assert expectation(el * el) - expectation(el) ** 2 == 12

    def test_moment_method_matches_known_values(self):
        assert moment(H(3), 0) == 1
        assert moment(H(3), 1) == 0
        assert moment(H(3), 2) == 6
        assert moment(H(3), 4) == 3348
        assert moment(H(3), 6) == 11608920
        assert moment(H(4), 2) == 24

    def test_moment_rejects_negative_order(self):
        with pytest.raises(ValueError):
            moment(H(2), -1)

    def test_zero_element_moments(self):
        zero = ChaosElement()
        assert moment(zero, 0) == 1
        assert moment(zero, 3) == 0

    def test_has_no_monomial_operations(self):
        with pytest.raises(ValueError, match="Hermite degree"):
            ChaosElement({-1: 1})
        f = H(2)
        assert not hasattr(f, "shift")
        assert not callable(f)

    def test_arithmetic_preserves_type(self):
        a, b = H(2), ChaosElement({1: F(1, 3)})
        assert type(a + b) is ChaosElement
        assert type(a - b) is ChaosElement
        assert type(a * b) is ChaosElement
        assert type(3 * a) is ChaosElement
        assert type(-a) is ChaosElement


class TestHermiteProduct:
    def test_product_h3_h3(self):
        assert hermite_product(3, 3) == ChaosElement(
            {6: 1, 4: 9, 2: 18, 0: 6}
        )

    def test_product_h3_h1(self):
        assert hermite_product(3, 1) == ChaosElement({4: 1, 2: 3})

    @settings(max_examples=100, deadline=None)
    @given(chaos_st, chaos_st)
    def test_linearised_product_matches_monomials(self, a, b):
        assert to_poly(a * b) == to_poly(a) * to_poly(b)


class TestBasicOperators:
    def test_derivative_lowers_level(self):
        assert malliavin_D(H(4)) == 4 * H(3)
        assert malliavin_D(ChaosElement({0: 7})).is_zero()

    def test_generator_scales_level(self):
        assert ou_generator(ChaosElement({0: 1, 3: 2})) == ChaosElement({3: -6})

    def test_linverse_inverts_up_to_centering(self):
        el = ChaosElement({0: 1, 2: -1, 4: F(5, 7)})
        centred = el - ChaosElement({0: expectation(el)})
        assert ou_generator(L_inverse(el)) == centred
        assert L_inverse(ou_generator(el)) == centred
        assert L_inverse(ChaosElement({0: 3})).is_zero()

    def test_linverse_of_first_chaos_square(self):
        # H1^2 = H2 + 1, so L^{-1}(H1^2) = -H2/2
        assert L_inverse(H(1) * H(1)) == ChaosElement({2: F(-1, 2)})

    @settings(max_examples=100, deadline=None)
    @given(chaos_st, chaos_st)
    def test_derivative_product_rule(self, a, b):
        assert malliavin_D(a * b) == a * malliavin_D(b) + b * malliavin_D(a)

    @settings(max_examples=100, deadline=None)
    @given(chaos_st, chaos_st)
    def test_derivative_and_linverse_are_linear(self, a, b):
        assert malliavin_D(a + b) == malliavin_D(a) + malliavin_D(b)
        assert L_inverse(a + b) == L_inverse(a) + L_inverse(b)


class TestCarreDuChamp:
    @settings(max_examples=100, deadline=None)
    @given(chaos_st, chaos_st)
    def test_equals_product_of_derivatives(self, a, b):
        assert carre_du_champ(a, b) == malliavin_D(a) * malliavin_D(b)

    def test_distinct_from_gamma_one_beyond_first_chaos(self):
        # Gamma[F, F] = |DF|^2 is p * Gamma_1(F) on pure p-th chaos.  With
        # L^{-1} L = id - E (above) this is the square identity
        # L^{-1}(F^2) = L^{-1} Gamma_1(F) - (F^2 - E[F^2]) / 2p.
        for p in range(1, 6):
            assert carre_du_champ(H(p), H(p)) == p * gamma_r(H(p), 1)
        el = ChaosElement({3: F(2, 5)})
        assert carre_du_champ(el, el) == 3 * gamma_r(el, 1)


# (p, r) -> Gamma_r(H_p), frozen
FROZEN_GAMMAS = {
    (4, 1): {6: 4, 4: 36, 2: 72, 0: 24},
    (4, 2): {8: 16, 6: 384, 4: 2544, 2: 4416, 0: 864},
    (3, 3): {6: 27, 4: 486, 2: 1782, 0: 540},
    (3, 4): {7: 81, 5: 2268, 3: 15714, 1: 19440},
}


class TestGammaOperators:
    def test_gamma_zero_is_identity(self):
        el = ChaosElement({1: 2, 3: F(1, 3)})
        assert gamma_r(el, 0) == el

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gamma_r(H(3), -1)

    def test_gamma_one_of_hermite_basis(self):
        for q in range(1, 9):
            sq = H(q - 1) * H(q - 1)
            assert gamma_r(H(q), 1) == q * sq, q

    def test_frozen_gamma_expansions(self):
        # by the definition and by the package's shift form
        for (p, r), expansion in FROZEN_GAMMAS.items():
            assert gamma_r(H(p), r) == levels(H(p), r)[r] == ChaosElement(expansion), (p, r)

    def test_top_degree_growth(self):
        for p in (3, 4):
            for r in range(6):
                assert gamma_r(H(p), r).degree() == r * (p - 2) + p

    @settings(max_examples=60, deadline=None)
    @given(chaos_st)
    def test_expectation_of_gamma_one_is_variance(self, el):
        mean = expectation(el)
        assert expectation(gamma_r(el, 1)) == expectation(el * el) - mean**2

    @settings(max_examples=40, deadline=None)
    @given(chaos_st)
    def test_iteration_matches_derivative_form(self, el):
        # Gamma_r(F) = DF * (-D L^{-1} Gamma_{r-1}(F)) in one dimension.
        DF = malliavin_D(el)
        prev = el
        for r in range(1, 4):
            cur = gamma_r(el, r)
            assert cur == DF * -malliavin_D(L_inverse(prev))
            prev = cur


class TestGammaLevels:
    """The package's one-product shift form against Gamma_r by its definition."""

    @pytest.mark.parametrize("q", range(1, 9))
    def test_hermite_basis_to_level_eight(self, q):
        assert levels(H(q), 8) == [gamma_r(H(q), r) for r in range(9)]

    @settings(max_examples=40, deadline=None)
    @given(chaos_st)
    def test_random_elements_with_constant_parts(self, el):
        assert levels(el, 5) == [gamma_r(el, r) for r in range(6)]


class TestCumulantFormula:
    def test_exact_for_h3_and_h4(self):
        for p in (3, 4):
            for r in range(6):
                lhs, rhs = check_cumulant_formula(H(p), r)
                assert lhs == rhs, (p, r)

    def test_frozen_cumulants(self):
        assert check_cumulant_formula(H(3), 1) == (6, 6)
        assert check_cumulant_formula(H(3), 3)[1] == 3240
        assert check_cumulant_formula(H(3), 5)[1] == 11314080
        assert check_cumulant_formula(H(4), 1)[1] == 24
        assert check_cumulant_formula(H(4), 2)[1] == 1728
        assert check_cumulant_formula(H(4), 3)[1] == 366336
        assert check_cumulant_formula(H(4), 4)[1] == 123752448
        assert check_cumulant_formula(H(4), 5)[1] == 61557719040

    def test_moments_come_from_one_engine_run(self, monkeypatch):
        runs = []

        def counting(f):
            runs.append(f)
            return gaussian_power_moments(f)

        monkeypatch.setattr(chaos_witness, "gaussian_power_moments", counting)
        assert check_cumulant_formula(H(3), 5) == (11314080, 11314080)
        assert len(runs) == 1

    def test_second_cumulant_is_factorial(self):
        for p in range(1, 7):
            lhs, rhs = check_cumulant_formula(H(p), 1)
            assert lhs == rhs == factorial(p)

    @settings(max_examples=25, deadline=None)
    @given(chaos_st)
    def test_exact_on_random_elements(self, el):
        for r in range(4):
            lhs, rhs = check_cumulant_formula(el, r)
            assert lhs == rhs


class TestGammaCharacterisations:
    def test_catalog_lists_targets(self):
        assert identity_catalog() == {"4.1": "H3", "4.2": "H3", "4.3": "H4"}

    def test_unknown_identity_rejected(self):
        with pytest.raises(KeyError):
            check_gamma_characterisation("9.9")

    def test_first_h3_combination_vanishes(self):
        assert check_gamma_characterisation("4.1").is_zero()

    def test_h4_combination_vanishes(self):
        assert check_gamma_characterisation("4.3").is_zero()

    def test_second_h3_combination_residual_is_minus_three_gamma4(self):
        # As catalogued, the combination does not vanish: the residual is
        # exactly -3 Gamma_4(H3).  Raising the Gamma_4 coefficient from 1
        # to 4 produces an identity that does vanish; both facts are
        # frozen here and the residual is reported, never patched.
        residual = check_gamma_characterisation("4.2")
        Y = H(3)
        assert residual == -3 * gamma_r(Y, 4)
        assert residual == ChaosElement(
            {7: -243, 5: -6804, 3: -47142, 1: -58320})
        corrected = (
            4 * gamma_r(Y, 4)
            + 3 * (Y * gamma_r(Y, 3))
            - 540 * gamma_r(Y, 2)
            - 351 * (Y * gamma_r(Y, 1))
            + 81 * (Y * (ChaosElement({0: 4}) - Y * Y))
        )
        assert corrected.is_zero()

    def test_h4_combination_fails_for_wrong_target(self):
        # Negative control: the H4 combination evaluated at Y = H2 is far
        # from zero, so the vanishing above is not an artefact.
        Y = H(2)
        nine_minus = ChaosElement({0: 9}) - Y
        combo = (
            gamma_r(Y, 3)
            - 60 * gamma_r(Y, 2)
            + 16 * (nine_minus * gamma_r(Y, 1))
            - 192 * ((Y + ChaosElement({0: 6})) * (ChaosElement({0: 3}) - Y))
        )
        assert not combo.is_zero()

    def test_third_cumulant_combination_in_expectation(self):
        # E[27 (8 - Y^2) - 99 Gamma_1(Y) + Gamma_3(Y)] = 0 for Y = H3:
        # the constant term matters, the Gamma parts alone do not cancel.
        Y = H(3)
        combo = (27 * (ChaosElement({0: 8}) - Y * Y)
                 - 99 * gamma_r(Y, 1) + gamma_r(Y, 3))
        assert expectation(combo) == 0
        assert expectation(gamma_r(Y, 3) - 99 * gamma_r(Y, 1)) != 0


def _relation_basis(p, R, J):
    """The discovery engine's basis of the integer relations at Y = H_p(X).

    The columns are the pairs (r, j), 0 <= r <= R and 0 <= j <= J, in lex
    order: (0, j) is Y^j and (r, j) with r >= 1 is Y^j Gamma_r(Y).  There is
    one row per Hermite level.  Each relation comes back as {(r, j): c}.
    """
    Y = H(p)
    keys = [(r, j) for r in range(R + 1) for j in range(J + 1)]
    columns = []
    for r, j in keys:
        column = ChaosElement({0: 1})
        for _ in range(j):
            column = column * Y
        columns.append(column * gamma_r(Y, r) if r else column)
    levels = sorted({q for column in columns for q in column.c})
    rows = [primitive([column.c.get(q, F(0)) for column in columns]) for q in levels]
    return [{k: v for k, v in zip(keys, vector) if v}
            for vector in _nullspace(rows, len(keys))]


class TestGammaRelationBasis:
    """A second witness for the catalogued combinations: the relations among
    Y^j and Y^j Gamma_r(Y) that the nullspace engine finds, not typed."""

    @pytest.mark.parametrize("label, R, J, nullity", [("4.1", 5, 2, 3), ("4.3", 3, 2, 2)])
    def test_catalogued_combination_is_a_basis_vector(self, label, R, J, nullity):
        p, terms = malliavin._IDENTITIES[label]
        basis = _relation_basis(p, R, J)
        assert len(basis) == nullity
        assert terms in basis

    def test_second_h3_combination_is_found_with_gamma4_coefficient_four(self):
        # the corrected form that the residual -3 Gamma_4(H3) above implies
        p, printed = malliavin._IDENTITIES["4.2"]
        basis = _relation_basis(p, 4, 3)
        assert len(basis) == 3
        assert {**printed, (4, 0): 4} in basis
        assert printed not in basis
