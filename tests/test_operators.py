"""Tests for Stein operators, the Psi-transform, and the operator catalog."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from steinscope.algebra import RationalPoly, gaussian_moment
from steinscope.budgets import MAX_INDEX
from steinscope.distributions import _TARGETS, get_target
from steinscope.operators import (
    FAMILIES,
    BadParameter,
    SteinOperator,
    UnknownOperator,
    catalog_get,
    catalog_names,
    moment_row,
    moment_shifts,
    parse_spec,
    psi_transform,
    theta_operator,
    top_moment_poly,
)

import qi_witness
from family_witness import BUILDERS, stirling2
from qi_witness import QI, CfOde, gaussian

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
    """The transform must reproduce the known closed-form ODEs exactly.

    Each expected ODE is written over Q(i) (``qi_witness.CfOde``), and
    ``gaussian`` applies the quarter turns of the package's ODE to compare.
    """

    def test_degree3_order3_ode(self):
        ode = gaussian(psi_transform(catalog_get("H3_T4m3")))
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
        ode = gaussian(psi_transform(catalog_get("H4_T2m3")))
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
        ode = gaussian(psi_transform(catalog_get("H3_T5m2")))
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
        ode = gaussian(psi_transform(catalog_get("H4_T3m2")))
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
        ode = gaussian(psi_transform(catalog_get(f"PRR:s={s}")))
        target = CfOde([{1: 2 * s}, {2: s, 0: 2 * s - 1}, {1: 1}])
        assert ode == target
        assert ode.unit == QI(0, -1)

    def test_product_normal_ode(self):
        for p in (1, 2, 3, 4, 5, 8):
            for s2 in (Fraction(1), Fraction(2), Fraction(1, 3)):
                ode = gaussian(psi_transform(catalog_get(f"PN:p={p},sigma2={s2}")))
                coeffs = [{} for _ in range(max(p - 1, 1) + 1)]
                for k in range(1, p + 1):
                    c = coeffs[k - 1]
                    c[k] = c.get(k, Fraction(0)) + s2 * stirling2(p, k)
                coeffs[1][0] = coeffs[1].get(0, Fraction(0)) + 1
                assert ode == CfOde(coeffs)
                assert ode.unit == QI(0, -1)

    def test_gauss_semicircle_ode(self):
        ode = gaussian(psi_transform(catalog_get("gauss_semicircle_T5")))
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
        ode = gaussian(psi_transform(catalog_get(f"BG1:a={a},b={b},r={r}")))
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
        ode = gaussian(psi_transform(catalog_get(f"G1X:r={r},lam={lam},sigma2={s2}")))
        target = CfOde(
            [{1: r * (r + 1)}, {2: 2 * (r + 1), 0: lam / s2}, {3: 1}]
        )
        assert ode == target

    def test_gamma_difference_ode(self):
        r, s, lam = Fraction(1, 3), Fraction(1, 4), Fraction(2)
        ode = gaussian(psi_transform(catalog_get(f"G1G2:r={r},s={s},lam={lam}")))
        target = CfOde(
            [{0: r * s}, {1: 1 + r + s, 0: QI(0, lam * lam)}, {2: 1}]
        )
        assert ode == target
        assert ode.unit == QI(1)

    def test_degree5_leading_terms(self):
        ode = gaussian(psi_transform(catalog_get("H5_T13m4")))
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


class TestPsiTransformCoefficients:
    @settings(max_examples=200, deadline=None)
    @given(operator_st)
    def test_each_entry_becomes_one_ode_term(self, op):
        # a_ij y^i D^j becomes unit * a_ij * i^(j-i) t^j phi^(i), and the ODE
        # has no other term
        ode = gaussian(psi_transform(op))
        powers_of_i = [QI(1), QI(0, 1), QI(-1), QI(0, -1)]
        assert ode.unit in powers_of_i
        assert ode.order == op.m
        terms = {(i, j): v for i, c in enumerate(ode.coeffs) for j, v in c.c.items()}
        assert terms == {(i, j): ode.unit * powers_of_i[(j - i) % 4] * a
                         for (i, j), a in op.a.items()}


# one operator per normalising unit 1, i, -1, -i, with integer and p/q entries
_UNIT_EXAMPLES = (
    SteinOperator({(1, 1): 1, (0, 2): Fraction(-3, 7)}),
    SteinOperator({(1, 0): 2, (0, 3): Fraction(5, 2)}),
    SteinOperator({(2, 2): Fraction(-1, 3), (1, 0): 4, (0, 1): -1}),
    SteinOperator({(2, 1): -6, (2, 0): Fraction(1, 9), (1, 3): 7}),
)


class TestTransformRendering:
    """The report's ode block, printed from rational coefficients and quarter
    turns, is the one the Gaussian-rational transform printed, byte for byte."""

    def test_examples_cover_every_unit(self):
        units = {psi_transform(op).as_json()["unit"] for op in _UNIT_EXAMPLES}
        assert units == {"1", "1*i", "-1", "-1*i"}

    @settings(max_examples=300, deadline=None)
    @given(operator_st)
    @example(_UNIT_EXAMPLES[0])
    @example(_UNIT_EXAMPLES[1])
    @example(_UNIT_EXAMPLES[2])
    @example(_UNIT_EXAMPLES[3])
    def test_ode_block_is_the_gaussian_rendering(self, op):
        reference = qi_witness.psi_transform(op)
        ode = psi_transform(op)
        assert ode.as_json() == qi_witness.rendered(reference)
        assert gaussian(ode) == reference and gaussian(ode).unit == reference.unit


class TestMomentRecurrence:
    def test_gaussian_first_order(self):
        op = catalog_get("gauss_classical")
        # E[k mu_{k-1} - mu_{k+1}] = 0
        for k in range(13):
            cs = moment_row(op, k)
            assert cs[1] == -1
            if k:
                assert cs[-1] == k
            assert sum(c * gaussian_moment(k + s) for s, c in cs.items()) == 0

    def test_degree4_k0_row(self):
        row = moment_row(catalog_get("H4_T2m3"), 0)
        assert row == {2: Fraction(-1), 1: Fraction(50), 0: Fraction(24)}

    def test_prr_k0_row_forces_mean_zero(self):
        # (1 - 2s) E[W] = 0 with s > 1/2: every law PRR(s) annihilates has
        # mean zero, so none lives on (0, infinity)
        assert moment_row(catalog_get("PRR:s=2"), 0) == {1: Fraction(-3)}

    def test_leading_coefficient_poly(self):
        op = catalog_get("gauss_semicircle_T5")
        assert moment_shifts(op) == (-5, 1)
        p = top_moment_poly(op)
        assert p == RationalPoly({2: 3, 1: 6, 0: -9})  # 3(k+3)(k-1)

    @settings(max_examples=60, deadline=None)
    @given(operator_st)
    def test_rows_never_reference_negative_moments(self, op):
        for k in range(6):
            for s in moment_row(op, k):
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
        assert FAMILIES.keys() <= _TARGETS.keys()
        assert all(_TARGETS[family][0] == FAMILIES[family].params for family in FAMILIES)
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
        # the theta^p expansion is O(p^2) integers; p = 10^8 must fail at parse
        assert MAX_INDEX == 1000
        for p in ("0", "1001", "99999999", "3/2"):
            with pytest.raises(BadParameter, match=r"1 <= p <= MAX_INDEX = 1000"):
                catalog_get(f"PN:p={p}")


_POINTS = ("1/3", "1/2", "1", "3/2", "2", "7")
#: PN up to p = 1000, PRR up to s = 10^12 + 1, and 216 rational points of each product law
_FAMILY_GRID = (
    [f"PN:p={p},sigma2={s2}" for p in [*range(1, 41), 100, 500] for s2 in ("1", "3/7", "2")]
    + ["PN:p=1000,sigma2=3/7"]
    + [f"PRR:s={s}" for s in ("3/4", "1", "3/2", "2", "7/3", "1000000000001")]
    + [f"{family}:{keys[0]}={u},{keys[1]}={v},{keys[2]}={w}"
       for family, keys in (("G1X", ("r", "lam", "sigma2")), ("BG1", ("a", "b", "r")),
                            ("G1G2", ("r", "s", "lam")))
       for u in _POINTS for v in _POINTS for w in _POINTS]
)


class TestThetaForm:
    """Each family is one theta-form (A, d, B): y^-e (A(theta) - y^d B(theta)), theta = yD."""

    #: family -> its values -> (A(k), d, B(k), e), written out by hand
    FORMS = {
        "PN": lambda p, sigma2: (lambda k: sigma2 * k ** int(p), 2, lambda k: 1, 1),
        "PRR": lambda s: (lambda k: s * k * (k + 1), 2, lambda k: k + 2 * s - 1, 1),
        "G1X": lambda r, lam, sigma2: (lambda k: k * (k + r - 1) * (k + r), 2,
                                       lambda k: lam / sigma2, 1),
        # the catalogued drift a + r - 1 of yD: the product law's rows would
        # read (k + a)(k + r) = k^2 + (a + r) k + ar (TestBetaGammaDriftCoefficient)
        "BG1": lambda a, b, r: (lambda k: k * k + (a + r - 2) * k + a * r, 1,
                                lambda k: k + a + b, 0),
        "G1G2": lambda r, s, lam: (lambda k: (k + r) * (k + s), 1, lambda k: lam * lam, 0),
    }

    @staticmethod
    def parsed(spec):
        return parse_spec(spec, lambda family: FAMILIES[family].params)

    def test_grid_matches_the_former_builders(self):
        assert {spec.partition(":")[0] for spec in _FAMILY_GRID} == set(FAMILIES)
        for spec in _FAMILY_GRID:
            family, values, _ = self.parsed(spec)
            reference = {key: v for key, v in BUILDERS[family](**values).items() if v}
            assert FAMILIES[family].operator(**values) == reference, spec

    def test_moment_rows_have_two_terms(self):
        # A(theta) y^k = A(k) y^k, so y^-e (A(theta) - y^d B(theta)) has the
        # row A(k) mu_{k-e} - B(k) mu_{k+d-e}; this reads theta through the
        # falling factorials of moment_row, not through theta_operator
        for spec in _FAMILY_GRID:
            family, values, _ = self.parsed(spec)
            A, d, B, e = self.FORMS[family](**values)
            op = catalog_get(spec)
            for k in range(21):
                expected = {s: v for s, v in ((-e, A(k)), (d - e, -B(k))) if v}
                assert moment_row(op, k) == expected, (spec, k)


def theta_power(p: int) -> dict[int, int]:
    """{k: c_k} with theta^p = sum_k c_k y^k D^k, read off ``theta_operator``."""
    op = theta_operator([0] * p + [1], 1, [])
    assert all(i == j - 1 for i, j in op)
    return {j: v for (_, j), v in op.items()}


def test_theta_power_values():
    # Stirling numbers of the second kind
    assert theta_power(4) == {1: 1, 2: 7, 3: 6, 4: 1}
    assert theta_power(8)[2] == 127
    assert theta_power(5)[5] == 1
    assert theta_power(1) == {1: 1}


def test_theta_power_recurrence_property():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.randint(2, 12)
        k = rng.randint(1, p - 1) + 1
        row, next_row = theta_power(p), theta_power(p + 1)
        assert next_row[k] == k * row[k] + row[k - 1]


def test_theta_power_large_p_against_the_explicit_sum():
    # the explicit sum {p, k} = (1/k!) sum_j (-1)^j C(k, j) (k - j)^p
    p, k = 600, 300
    explicit = sum((-1) ** j * comb(k, j) * (k - j) ** p for j in range(k + 1))
    assert theta_power(p)[k] == explicit // factorial(k)
