"""Tests for Stein operators, the Psi-transform, and the operator catalog."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from steinscope.algebra import QI, RationalPoly, gaussian_moment
from steinscope.budgets import MAX_INDEX
from steinscope.distributions import TARGET_BUILDERS, get_target
from steinscope.operators import (
    FAMILIES,
    BadParameter,
    CfOde,
    NotInImage,
    SteinOperator,
    UnknownOperator,
    catalog_get,
    catalog_names,
    moment_recurrence,
    psi_inverse,
    psi_transform,
    stirling2,
    _stirling_row,
)

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=10)

operator_st = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=5)
    ),
    fractions_st,
    min_size=1,
    max_size=8,
).filter(lambda d: any(d.values())).map(SteinOperator)


class TestSteinOperator:
    def test_shape(self):
        op = SteinOperator({(1, 0): -1, (0, 1): 1})  # f'(y) - y f(y)
        assert (op.m, op.T) == (1, 1)
        assert op.coefficient_poly(0) == RationalPoly({1: -1})
        assert op.coefficient_poly(1) == RationalPoly({0: 1})

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            SteinOperator({})
        with pytest.raises(ValueError):
            SteinOperator({(1, 1): 0})

    def test_linear_combinations(self):
        a = SteinOperator({(0, 1): 1})
        b = SteinOperator({(1, 0): 1})
        assert a + b == SteinOperator({(0, 1): 1, (1, 0): 1})
        assert 3 * b == SteinOperator({(1, 0): 3})

    def test_json_round_trip(self):
        op = catalog_get("H3_T4m3")
        assert SteinOperator.from_json_dict(op.to_json_dict()) == op

    def test_json_rejects_bad_fractions(self):
        d = {"name": "x", "T": 1, "m": 1, "coeff": [["1", "0"], ["0", "1/0"]]}
        with pytest.raises((ValueError, ZeroDivisionError)):
            SteinOperator.from_json_dict(d)

    def test_json_rejects_ragged_rows(self):
        d = {"name": "x", "T": 1, "m": 1, "coeff": [["1", "0", "0"], ["0", "1"]]}
        with pytest.raises(ValueError):
            SteinOperator.from_json_dict(d)


class TestPsiTransformPrintedForms:
    """The transform must reproduce the known closed-form ODEs exactly."""

    def test_degree3_order3_ode(self):
        ode = psi_transform(catalog_get("H3_T4m3"))
        target = CfOde(
            [
                {3: 1080, 1: -12},
                {4: 324, 2: 207, 0: -5},
                {3: 351, 1: 3},
                {4: 81},
            ]
        )
        assert ode == target
        assert ode.unit == QI(0, -1)

    def test_degree4_order3_ode(self):
        ode = psi_transform(catalog_get("H4_T2m3"))
        target = CfOde(
            [
                {2: QI(0, -1728), 1: 1008, 0: QI(0, 24)},
                {2: 576, 1: QI(0, 72), 0: 50},
                {2: QI(0, -48), 1: 64, 0: QI(0, 1)},
                {2: 16},
            ]
        )
        assert ode == target
        assert ode.unit == QI(0, 1)

    def test_degree3_order2_ode(self):
        ode = psi_transform(catalog_get("H3_T5m2"))
        target = CfOde(
            [
                {1: 6, 3: 216, 5: 1944},
                {0: 1, 2: 99, 4: 486},
                {3: 27, 5: 486},
            ]
        )
        assert ode == target
        assert ode.unit == QI(0, 1)

    def test_degree4_order2_ode(self):
        ode = psi_transform(catalog_get("H4_T3m2"))
        target = CfOde(
            [
                {1: -24, 2: QI(0, 576), 3: 3456},
                {0: -1, 1: QI(0, 44), 2: 144, 3: QI(0, 576)},
                {2: QI(0, 16), 3: 192},
            ]
        )
        assert ode == target
        assert ode.unit == QI(0, -1)

    def test_rayleigh_ode(self):
        s = Fraction(3, 2)
        ode = psi_transform(catalog_get(f"PRR:s={s}"))
        target = CfOde([{1: 2 * s}, {2: s, 0: 2 * s - 1}, {1: 1}])
        assert ode == target
        assert ode.unit == QI(0, -1)

    def test_product_normal_ode(self):
        for p in (1, 2, 3, 4, 5, 8):
            for s2 in (Fraction(1), Fraction(2), Fraction(1, 3)):
                ode = psi_transform(catalog_get(f"PN:p={p},sigma2={s2}"))
                coeffs = [{} for _ in range(max(p - 1, 1) + 1)]
                for k in range(1, p + 1):
                    c = coeffs[k - 1]
                    c[k] = c.get(k, Fraction(0)) + s2 * stirling2(p, k)
                coeffs[1][0] = coeffs[1].get(0, Fraction(0)) + 1
                assert ode == CfOde(coeffs)
                assert ode.unit == QI(0, -1)

    def test_gauss_semicircle_ode(self):
        ode = psi_transform(catalog_get("gauss_semicircle_T5"))
        target = CfOde(
            [
                {5: 1, 3: -5},
                {4: 4, 2: -21, 0: 9},
                {5: 1, 3: -2, 1: -9},
                {4: 1, 2: -3},
            ]
        )
        assert ode == target
        assert ode.unit == QI(0, -1)

    def test_beta_gamma_ode(self):
        a, b, r = Fraction(1, 2), Fraction(1), Fraction(2)
        ode = psi_transform(catalog_get(f"BG1:a={a},b={b},r={r}"))
        target = CfOde(
            [
                {0: a * r},
                {1: a + r - 1, 0: QI(0, a + b)},
                {2: 1, 1: QI(0, 1)},
            ]
        )
        assert ode == target
        assert ode.unit == QI(1)

    def test_gamma_mixture_ode(self):
        r, lam, s2 = Fraction(2), Fraction(3), Fraction(1)
        ode = psi_transform(catalog_get(f"G1X:r={r},lam={lam},sigma2={s2}"))
        target = CfOde(
            [{1: r * (r + 1)}, {2: 2 * (r + 1), 0: lam / s2}, {3: 1}]
        )
        assert ode == target

    def test_gamma_difference_ode(self):
        r, s, lam = Fraction(1, 3), Fraction(1, 4), Fraction(2)
        ode = psi_transform(catalog_get(f"G1G2:r={r},s={s},lam={lam}"))
        target = CfOde(
            [{0: r * s}, {1: 1 + r + s, 0: QI(0, lam * lam)}, {2: 1}]
        )
        assert ode == target
        assert ode.unit == QI(1)

    def test_degree5_leading_terms(self):
        ode = psi_transform(catalog_get("H5_T13m4"))
        assert ode.order == 4
        lows = [(c.valuation(), c.coeff(c.valuation())) for c in ode.coeffs]
        assert lows == [
            (1, QI(120)),
            (0, QI(1)),
            (3, QI(81875)),
            (4, QI(31250)),
            (5, QI(3125)),
        ]

    def test_order_and_degree_bookkeeping(self):
        for name in catalog_names():
            op = catalog_get(name if name not in _PARAM_EXAMPLES else _PARAM_EXAMPLES[name])
            ode = psi_transform(op)
            assert ode.order == op.m
            assert max(c.degree() for c in ode.coeffs) == op.T


_PARAM_EXAMPLES = {
    "PN": "PN:p=4,sigma2=1",
    "PRR": "PRR:s=3/2",
    "G1X": "G1X:r=2,lam=1,sigma2=1",
    "BG1": "BG1:a=1/2,b=1,r=2",
    "G1G2": "G1G2:r=1,s=2,lam=1",
}


class TestPsiInverse:
    def test_catalog_round_trip(self):
        for name in catalog_names():
            spec = _PARAM_EXAMPLES.get(name, name)
            op = catalog_get(spec)
            assert psi_inverse(psi_transform(op)) == op

    @settings(max_examples=200, deadline=None)
    @given(operator_st)
    def test_random_round_trip(self, op):
        assert psi_inverse(psi_transform(op)) == op

    def test_rejects_ode_outside_image(self):
        # c0 = 1 would need a (0, 0) term scaled by i^0 AND a nonzero
        # imaginary part elsewhere that no Q-operator produces
        ode = CfOde([{0: QI(1, 1)}, {1: 1}])
        with pytest.raises(NotInImage):
            psi_inverse(ode)


class TestMomentRecurrence:
    def test_gaussian_first_order(self):
        rec = moment_recurrence(catalog_get("gauss_classical"))
        # E[k mu_{k-1} - mu_{k+1}] = 0
        for k in range(13):
            cs = rec.coefficients(k)
            assert cs[1] == -1
            if k:
                assert cs[-1] == k
            assert rec.residual(gaussian_moment, k) == 0

    def test_degree4_k0_row(self):
        rec = moment_recurrence(catalog_get("H4_T2m3"))
        assert rec.coefficients(0) == {2: Fraction(-1), 1: Fraction(50), 0: Fraction(24)}

    def test_leading_coefficient_poly(self):
        rec = moment_recurrence(catalog_get("gauss_semicircle_T5"))
        assert rec.max_shift == 1
        assert rec.min_shift == -5
        p = rec.leading_coefficient_poly()
        assert p == RationalPoly({2: 3, 1: 6, 0: -9})  # 3(k+3)(k-1)

    @settings(max_examples=60, deadline=None)
    @given(operator_st)
    def test_rows_never_reference_negative_moments(self, op):
        rec = moment_recurrence(op)
        for k in range(6):
            for s in rec.coefficients(k):
                assert k + s >= 0


class TestCatalog:
    def test_static_names_present(self):
        names = catalog_names()
        for nm in (
            "gauss_classical",
            "H3_T4m3",
            "H3_T5m2",
            "H4_T2m3",
            "H4_T3m2",
            "H5_T13m4",
            "H6_T6m3",
            "gauss_semicircle_T5",
            "PN",
            "PRR",
            "G1X",
            "BG1",
            "G1G2",
        ):
            assert nm in names

    def test_unknown_name(self):
        with pytest.raises(UnknownOperator):
            catalog_get("H9_T2m1")

    def test_spec_string_parsing(self):
        op = catalog_get("PN:p=4,sigma2=1")
        assert op == catalog_get("PN:sigma2=1,p=4")
        op = catalog_get("PRR:s=3/2")
        assert op == catalog_get("PRR:s=6/4")

    def test_rayleigh_parameter_domain(self):
        for bad in (Fraction(1, 2), Fraction(0), Fraction(-1)):
            with pytest.raises(BadParameter):
                catalog_get(f"PRR:s={bad}")
        catalog_get("PRR:s=51/100")

    def test_product_normal_parameter_domain(self):
        with pytest.raises(BadParameter):
            catalog_get("PN:p=0")
        with pytest.raises(BadParameter):
            catalog_get("PN:p=3/2")
        with pytest.raises(BadParameter):
            catalog_get("PN:p=2,sigma2=0")

    def test_positive_parameter_domains(self):
        with pytest.raises(BadParameter):
            catalog_get("BG1:a=0,b=1,r=1")
        with pytest.raises(BadParameter):
            catalog_get("G1G2:r=1,s=-1,lam=1")
        with pytest.raises(BadParameter):
            catalog_get("G1X:r=1,lam=0,sigma2=1")

    def test_static_takes_no_parameters(self):
        with pytest.raises(BadParameter):
            catalog_get("H3_T4m3:s=1")

    def test_gauss_classical_is_density_operator(self):
        assert catalog_get("gauss_classical") == SteinOperator({(0, 1): 1, (1, 0): -1})


class TestFamilyRegistry:
    """Every family in FAMILIES, through both the catalog and the targets."""

    def test_target_builders_cover_the_families(self):
        assert TARGET_BUILDERS.keys() == FAMILIES.keys()
        assert set(_PARAM_EXAMPLES) == set(FAMILIES)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_canonical_spec_round_trips(self, family):
        op = catalog_get(_PARAM_EXAMPLES[family])
        assert op.name == op.target_hint
        assert catalog_get(op.name) == op
        assert get_target(op.target_hint).name == op.target_hint

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_missing_required_parameter(self, family):
        items = catalog_get(_PARAM_EXAMPLES[family]).name.partition(":")[2].split(",")
        required = [p.name for p in FAMILIES[family].params if p.default is None]
        assert required
        for name in required:
            spec = family + ":" + ",".join(
                item for item in items if not item.startswith(name + "=")
            )
            for lookup in (catalog_get, get_target):
                with pytest.raises(BadParameter, match=f"requires parameter '{name}'"):
                    lookup(spec)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_unknown_parameter(self, family):
        spec = _PARAM_EXAMPLES[family] + ",zz=1"
        for lookup in (catalog_get, get_target):
            with pytest.raises(BadParameter, match="unknown parameters"):
                lookup(spec)

    @pytest.mark.parametrize("spec", ["PN:p=4,p=5", "G1X:r=1,lam=2,lambda=3"])
    def test_repeated_parameter(self, spec):
        for lookup in (catalog_get, get_target):
            with pytest.raises(BadParameter, match="more than once"):
                lookup(spec)

    def test_pn_index_is_bounded_before_any_work(self):
        # the Stirling row of p is O(p^2) integers; p = 10^8 must fail at parse
        assert MAX_INDEX == 1000
        for p in ("0", "1001", "99999999", "3/2"):
            with pytest.raises(BadParameter, match=r"1 <= p <= MAX_INDEX = 1000"):
                catalog_get(f"PN:p={p}")


def test_stirling2_values():
    assert stirling2(4, 2) == 7
    assert stirling2(8, 2) == 127
    assert stirling2(5, 5) == 1
    assert [stirling2(4, k) for k in range(1, 5)] == [1, 7, 6, 1]
    with pytest.raises(ValueError):
        stirling2(3, 0)
    with pytest.raises(ValueError):
        stirling2(3, 4)


def test_stirling2_recurrence_property():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.randint(2, 12)
        k = rng.randint(1, p - 1) + 1
        assert stirling2(p + 1, k) == k * stirling2(p, k) + stirling2(p, k - 1)


def test_stirling2_large_p_on_a_cleared_cache():
    # the explicit sum {p, k} = (1/k!) sum_j (-1)^j C(k, j) (k - j)^p
    _stirling_row.cache_clear()
    p, k = 600, 300
    explicit = sum((-1) ** j * comb(k, j) * (k - j) ** p for j in range(k + 1))
    assert stirling2(p, k) == explicit // factorial(k)
