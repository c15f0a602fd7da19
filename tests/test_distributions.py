"""Tests for target laws (oracles, samplers) and the closed-form
characteristic functions of ``cf_witness``."""

import pickle
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinscope.algebra import gaussian_moment, hermite_to_monomial
from steinscope.budgets import MAX_HERMITE_DEGREE, MAX_INDEX
from steinscope.distributions import (
    NoExactOracle,
    TargetDistribution,
    UnknownTarget,
    get_target,
    hermite_poly_moment,
    target_names,
)
from steinscope.malliavin import ChaosElement
from steinscope.operators import BadParameter, catalog_get
from steinscope.verification import check_moment_recurrence

from cf_witness import BesselRatioCf, GaussianCf, ReciprocalSqrtCf
from chaos_witness import cumulants_from_moments, expectation

F = Fraction


class TestHermitePolyMoment:
    def test_frozen_values(self):
        assert hermite_poly_moment(4, 2) == 24
        assert hermite_poly_moment(3, 4) == 3348
        assert hermite_poly_moment(3, 2) == 6
        assert hermite_poly_moment(3, 6) == 11608920

    def test_first_moment_vanishes(self):
        for p in range(1, 9):
            assert hermite_poly_moment(p, 1) == 0

    def test_second_moment_is_factorial(self):
        for p in range(1, 9):
            assert hermite_poly_moment(p, 2) == factorial(p)

    def test_zeroth_moment(self):
        assert hermite_poly_moment(5, 0) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            hermite_poly_moment(0, 2)
        with pytest.raises(ValueError):
            hermite_poly_moment(3, -1)

    def test_degree_budget(self):
        # E[H_p^k] expands a polynomial of degree p k; the budget is checked first
        assert MAX_HERMITE_DEGREE == 2048
        assert hermite_poly_moment(64, 32) > 0
        with pytest.raises(ValueError, match="MAX_HERMITE_DEGREE = 2048"):
            hermite_poly_moment(64, 33)
        with pytest.raises(ValueError, match="degree 3000"):
            hermite_poly_moment(1000, 3)

    def test_index_budget_is_shared_with_the_families(self):
        assert get_target(f"H{MAX_INDEX}").name == f"H{MAX_INDEX}"
        for spec in (f"H{MAX_INDEX + 1}", "H0", f"PN:p={MAX_INDEX + 1}"):
            with pytest.raises(BadParameter, match=f"MAX_INDEX = {MAX_INDEX}"):
                get_target(spec)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4))
    def test_odd_hermite_odd_moments_vanish(self, p, m):
        if p % 2 == 1:
            assert hermite_poly_moment(p, 2 * m + 1) == 0

    @pytest.mark.parametrize("p", range(1, 9))
    def test_matches_linearised_powers(self, p):
        # second witness: powers of H_p linearised in the Hermite basis
        # share no code with the monomial-basis moment engine
        h_p, power = ChaosElement({p: 1}), ChaosElement({0: 1})
        for k in range(21):
            assert hermite_poly_moment(p, k) == expectation(power)
            power = power * h_p


class TestCumulant:
    def test_frozen_hermite_cumulants(self):
        h3, h4 = get_target("H3"), get_target("H4")
        assert cumulants_from_moments(h3.moment, 2) == 6
        assert cumulants_from_moments(h3.moment, 4) == 3240
        assert cumulants_from_moments(h3.moment, 6) == 11314080
        assert cumulants_from_moments(h4.moment, 2) == 24
        assert cumulants_from_moments(h4.moment, 3) == 1728
        assert cumulants_from_moments(h4.moment, 4) == 366336
        assert cumulants_from_moments(h4.moment, 5) == 123752448
        assert cumulants_from_moments(h4.moment, 6) == 61557719040

    def test_gaussian_cumulants(self):
        g = get_target("gaussian:sigma2=24")
        assert cumulants_from_moments(g.moment, 1) == 0
        assert cumulants_from_moments(g.moment, 2) == 24
        for r in range(3, 9):
            assert cumulants_from_moments(g.moment, r) == 0

    def test_no_oracle(self):
        with pytest.raises(NoExactOracle):
            cumulants_from_moments(get_target("PRR:s=3/2").moment, 2)

    def test_order_domain(self):
        with pytest.raises(ValueError):
            cumulants_from_moments(get_target("H3").moment, 0)

    def test_semicircle_fourth_cumulant(self):
        # mu4 - 3 mu2^2 = 1/8 - 3/16
        assert cumulants_from_moments(get_target("semicircle").moment, 4) == F(-1, 16)

    def test_recursion_against_variance(self):
        mom = lambda k: gaussian_moment(k)
        assert cumulants_from_moments(mom, 2) == 1
        assert cumulants_from_moments(mom, 4) == 0


class TestMomentOracles:
    def test_gaussian(self):
        g = get_target("gaussian")
        assert [g.moment(k) for k in range(7)] == [1, 0, 1, 0, 3, 0, 15]
        g24 = get_target("gaussian:sigma2=24")
        assert g24.moment(2) == 24
        assert g24.moment(4) == 3 * 24**2

    @pytest.mark.parametrize("sigma2", ["1", "6", "1/3"])
    def test_gaussian_is_pn_at_p_1(self, sigma2):
        # N(0, sigma2) is built as the PN law at p = 1: same moments, the
        # same samples as sqrt(sigma2) * standard_normal(n) byte for byte,
        # and the same sigma2 for the closed-form characteristic function
        g = get_target(f"gaussian:sigma2={sigma2}")
        pn = get_target(f"PN:p=1,sigma2={sigma2}")
        assert g.name == ("gaussian" if sigma2 == "1" else f"gaussian:sigma2={sigma2}")
        assert get_target(f"N01:sigma2={sigma2}").name == g.name
        assert dict(g.params) == {"sigma2": F(sigma2)}
        assert g.meta == {"symmetric": True, "zero_mean": True}
        assert [g.moment(k) for k in range(30)] == [pn.moment(k) for k in range(30)]
        assert [g.moment(k) for k in range(30)] == [
            gaussian_moment(k) * F(sigma2) ** (k // 2) for k in range(30)]
        for seed in (0, 5):
            x = g.sample(100003, seed=seed)
            ref = float(F(sigma2)) ** 0.5 * np.random.default_rng(seed).standard_normal(100003)
            assert x.tobytes() == ref.tobytes()
            assert x.tobytes() == pn.sample(100003, seed=seed).tobytes()
        for t in (0.0, 0.5, 2.0):
            for j in range(3):
                assert (GaussianCf(dict(g.params)["sigma2"])(t, j)
                        == GaussianCf(dict(pn.params)["sigma2"])(t, j)
                        == GaussianCf(F(sigma2))(t, j))

    def test_semicircle_catalan(self):
        sc = get_target("semicircle")
        assert sc.moment(2) == F(1, 4)
        assert sc.moment(4) == F(1, 8)
        assert sc.moment(6) == F(5, 64)
        assert sc.moment(8) == F(14, 256)
        assert sc.moment(3) == 0

    def test_pn_moments(self):
        pn = get_target("PN:p=4,sigma2=1")
        assert pn.moment(2) == 1
        assert pn.moment(4) == 3**4
        assert pn.moment(6) == 15**4
        third = get_target("PN:p=2,sigma2=1/3")
        assert third.moment(2) == F(1, 3)
        assert third.moment(4) == F(9, 9)

    def test_no_oracle_families(self):
        for spec in ("PRR:s=2", "G1X:r=1,lam=1", "BG1:a=1,b=2,r=1",
                     "G1G2:r=1,s=1,lam=2"):
            with pytest.raises(NoExactOracle):
                get_target(spec).moment(2)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=6))
    def test_pn_odd_moments_vanish(self, p, m):
        assert get_target(f"PN:p={p}").moment(2 * m + 1) == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            get_target("gaussian").moment(-1)


class TestExactPairs:
    PAIRS = [
        ("gauss_classical", "gaussian"),
        ("H3_T4m3", "H3"),
        ("H3_T5m2", "H3"),
        ("H4_T2m3", "H4"),
        ("H4_T3m2", "H4"),
        ("H5_T13m4", "H5"),
        ("H6_T6m3", "H6"),
        ("PN:p=1,sigma2=1", "PN:p=1,sigma2=1"),
        ("PN:p=2,sigma2=1", "PN:p=2,sigma2=1"),
        ("PN:p=3,sigma2=1", "PN:p=3,sigma2=1"),
        ("PN:p=4,sigma2=1", "PN:p=4,sigma2=1"),
        ("PN:p=5,sigma2=2", "PN:p=5,sigma2=2"),
        ("PN:p=8,sigma2=1/3", "PN:p=8,sigma2=1/3"),
        ("gauss_semicircle_T5", "gaussian"),
        ("gauss_semicircle_T5", "semicircle"),
    ]

    @pytest.mark.parametrize("op_spec,target_spec", PAIRS)
    def test_recurrence_annihilates_target(self, op_spec, target_spec):
        reports = check_moment_recurrence(catalog_get(op_spec), get_target(target_spec), K=12)
        assert all(r.residual == 0 for r in reports)

    def test_target_hint_round_trip(self):
        # The shared fifth-order operator annihilates two laws but its
        # hint can only name one of them (the Gaussian); that asymmetry
        # is the point of keeping hints advisory.
        for op_spec, target_spec in self.PAIRS:
            op = catalog_get(op_spec)
            hint = get_target(op.target_hint).name
            if op_spec == "gauss_semicircle_T5":
                assert hint == "gaussian"
            else:
                assert hint == get_target(target_spec).name


class TestSamplers:
    def test_determinism(self):
        for spec in ("gaussian", "H3", "PN:p=4", "semicircle",
                     "G1X:r=2,lam=1,sigma2=1", "BG1:a=1/2,b=1,r=2",
                     "G1G2:r=1,s=2,lam=1"):
            tgt = get_target(spec)
            a = tgt.sample(512, seed=7)
            b = tgt.sample(512, seed=7)
            c = tgt.sample(512, seed=8)
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)
            assert a.shape == (512,)

    def test_mean_smoke(self):
        n = 10**6
        x = get_target("gaussian").sample(n, seed=0)
        assert abs(x.mean()) < 4 / np.sqrt(n)

    def test_hermite_second_moment(self):
        x = get_target("H3").sample(10**6, seed=1)
        assert abs((x**2).mean() - 6) / 6 < 0.05

    def test_semicircle_support_and_variance(self):
        x = get_target("semicircle").sample(200_000, seed=2)
        assert np.all(np.abs(x) <= 1.0)
        assert abs((x**2).mean() - 0.25) < 0.01

    def test_product_law_moments(self):
        # Exact first/second moments of the product laws, derived from the
        # moment recurrences of their operators, as Monte-Carlo oracles.
        n = 400_000
        x = get_target("G1X:r=2,lam=1,sigma2=1").sample(n, seed=4)
        assert abs(x.mean()) < 0.02
        assert abs((x**2).mean() - 6) / 6 < 0.05
        x = get_target("BG1:a=1/2,b=1,r=2").sample(n, seed=5)
        assert abs(x.mean() - 2 / 3) < 0.01
        assert abs((x**2).mean() - 1.2) / 1.2 < 0.05
        x = get_target("G1G2:r=1,s=2,lam=1").sample(n, seed=6)
        assert abs(x.mean() - 2) < 0.03
        assert abs((x**2).mean() - 12) / 12 < 0.1

    def test_pn_is_product_of_normals(self):
        x = get_target("PN:p=3").sample(300_000, seed=9)
        assert abs((x**2).mean() - 1.0) < 0.05
        assert abs((x**4).mean() - 27) / 27 < 0.2

    @pytest.mark.parametrize("n", [1, 5, 2**17 + 3])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_pn_samples_are_the_row_product_bit_for_bit(self, p, n):
        # the sampler multiplies one row of normals in at a time, with the
        # stream and product order of the (p, n) array's column products
        sigma2 = F(3, 7)
        rows = np.random.default_rng(5).standard_normal((p, n))
        expected = float(sigma2) ** 0.5 * rows.prod(axis=0)
        got = get_target(f"PN:p={p},sigma2=3/7").sample(n, seed=5)
        assert got.tobytes() == expected.tobytes()

    # Each product sampler as one expression on the generator: the draw
    # order and the product order a sampler must keep, bit for bit.
    PRODUCT_STREAMS = {
        "G1X:r=2,lam=3,sigma2=2": lambda rng, n, r=2, lam=3, sigma2=2: (
            float(sigma2) ** 0.5 * rng.standard_normal(n)
            * rng.gamma(float(r), 1.0 / float(lam) ** 0.5, n)
        ),
        "BG1:a=1/2,b=3/2,r=5/2": lambda rng, n, a=F(1, 2), b=F(3, 2), r=F(5, 2): (
            rng.beta(float(a), float(b), n) * rng.gamma(float(r), 1.0, n)
        ),
        "G1G2:r=3/2,s=2,lam=3": lambda rng, n, r=F(3, 2), s=2, lam=3: (
            rng.gamma(float(r), 1.0 / float(lam), n)
            * rng.gamma(float(s), 1.0 / float(lam), n)
        ),
        "semicircle": lambda rng, n: 2.0 * rng.beta(1.5, 1.5, n) - 1.0,
    }

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("n", [1, 5, 2**17 + 3])
    @pytest.mark.parametrize("spec", list(PRODUCT_STREAMS))
    def test_product_samples_keep_their_stream_bit_for_bit(self, spec, n, seed):
        expected = self.PRODUCT_STREAMS[spec](np.random.default_rng(seed), n)
        assert get_target(spec).sample(n, seed=seed).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_hermite_samples_are_polyval_of_normals_bit_for_bit(self, p):
        # H_p(X) is evaluated by algebra.float_horner, with numpy polyval's
        # roundings
        coef = hermite_to_monomial(p).float_coefficients()
        x = np.random.default_rng(3).standard_normal(10**4)
        expected = np.polynomial.polynomial.polyval(x, coef)
        assert get_target(f"H{p}").sample(10**4, seed=3).tobytes() == expected.tobytes()

    def test_parameters_beyond_float_range(self):
        # the law and its metadata build; only sampling needs the floats
        huge = "9" * 400
        for spec in (f"G1G2:r=1,s=2,lam={huge}", f"G1X:r=2,lam={huge},sigma2=1",
                     f"PN:p=1,sigma2={huge}", f"gaussian:sigma2={huge}",
                     f"BG1:a={huge},b=1,r=2"):
            # a law without a sampler would raise NotImplementedError instead
            with pytest.raises(ValueError, match="does not fit in a float"):
                get_target(spec).sample(10)

    def test_analysis_only_target(self):
        with pytest.raises(NotImplementedError, match="no sampler"):
            get_target("PRR:s=3/2").sample(10)

    def test_domain(self):
        with pytest.raises(ValueError):
            get_target("gaussian").sample(0)


class TestCharacteristicFunctions:
    # the closed forms of the gaussian, semicircle and PN:p=2 targets
    def test_values_at_zero(self):
        assert GaussianCf(1)(0.0) == 1.0
        assert BesselRatioCf("J")(0.0) == 1.0
        assert ReciprocalSqrtCf(1)(0.0) == 1.0

    def test_frozen_values(self):
        assert abs(ReciprocalSqrtCf(1)(1.0) - 2**-0.5) < 1e-15
        assert abs(GaussianCf(1)(1.0) - np.exp(-0.5)) < 1e-15

    def test_semicircle_series_window(self):
        sc = BesselRatioCf("J")
        for t in (1e-4, 1e-3, 1e-2):
            assert abs(sc(t) - (1 - t * t / 8 + t**4 / 192)) < 1e-12
        assert abs(sc(0.0, 2) - (-0.25)) < 1e-15

    def test_series_basis_boundary_continuity(self):
        # J-kind switches from power series to the Bessel basis at |t| = 1.
        jcf = BesselRatioCf("J")
        for j in range(5):
            assert abs(jcf(0.999999, j) - jcf(1.000001, j)) < 1e-5

    def test_evenness_and_bound(self):
        # gaussian, semicircle and PN:p=2,sigma2=2
        for cf in (GaussianCf(1), BesselRatioCf("J"), ReciprocalSqrtCf(2)):
            for t in np.linspace(0.1, 10, 23):
                assert abs(cf(float(t))) <= 1 + 1e-12
                assert abs(cf(float(t)) - cf(float(-t))) < 1e-14

    def test_derivatives_against_finite_differences(self):
        engines = [
            GaussianCf(1),
            ReciprocalSqrtCf(F(1, 3)),
            BesselRatioCf("J"),
            BesselRatioCf("Y"),
        ]
        h = 1e-5
        for eng in engines:
            for t in (0.4, 1.9, 5.0):
                fd1 = (eng(t + h) - eng(t - h)) / (2 * h)
                fd2 = (eng(t + h) - 2 * eng(t) + eng(t - h)) / h**2
                assert abs(eng(t, 1) - fd1) < 1e-6 * max(1.0, abs(fd1))
                assert abs(eng(t, 2) - fd2) < 1e-4 * max(1.0, abs(fd2))

    def test_gaussian_cf_ode(self):
        # phi' + t phi = 0 exactly in structure.
        g = GaussianCf(1)
        for t in np.geomspace(0.1, 10, 17):
            assert abs(g(float(t), 1) + t * g(float(t))) < 1e-14

    def test_reciprocal_sqrt_ode(self):
        # (1 + s t^2) phi' + s t phi = 0 for phi = (1 + s t^2)^(-1/2).
        for s in (1.0, 2.0):
            eng = ReciprocalSqrtCf(F(s))
            for t in np.geomspace(0.1, 10, 17):
                t = float(t)
                res = (1 + s * t * t) * eng(t, 1) + s * t * eng(t)
                assert abs(res) < 1e-13

    def test_y_kind_singular_at_zero(self):
        with pytest.raises(ValueError):
            BesselRatioCf("Y")(0.0)

    def test_hermite_one_is_gaussian(self):
        h1, gaussian = get_target("H1"), get_target("gaussian")
        assert [h1.moment(k) for k in range(12)] == [gaussian.moment(k) for k in range(12)]
        assert abs(GaussianCf(1)(2.0) - np.exp(-2.0)) < 1e-15


# One row per target path: the family laws, the Gaussian under both names,
# the semicircle and H<p>.  Each gives the spec, then the law's name, params,
# symmetric, zero_mean and draws, then whether it has an oracle and a sampler.
_TARGET_PATHS = [
    ("PN:p=4", "PN:p=4,sigma2=1", {"p": 4, "sigma2": 1}, True, True, 4, True, True),
    ("PRR:s=3/2", "PRR:s=3/2", {"s": F(3, 2)}, True, True, 1, False, False),
    ("G1X:r=2,lam=1", "G1X:r=2,lam=1,sigma2=1", {"r": 2, "lam": 1, "sigma2": 1},
     True, True, 1, False, True),
    ("BG1:a=1/2,b=1,r=2", "BG1:a=1/2,b=1,r=2", {"a": F(1, 2), "b": 1, "r": 2},
     False, False, 1, False, True),
    ("G1G2:r=1,s=2,lam=1", "G1G2:r=1,s=2,lam=1", {"r": 1, "s": 2, "lam": 1},
     False, False, 1, False, True),
    ("gaussian", "gaussian", {"sigma2": 1}, True, True, 1, True, True),
    ("N01", "gaussian", {"sigma2": 1}, True, True, 1, True, True),
    ("gaussian:sigma2=2", "gaussian:sigma2=2", {"sigma2": 2}, True, True, 1, True, True),
    ("semicircle", "semicircle", {}, True, True, 1, True, True),
    ("H3", "H3", {"p": 3}, True, True, 3, True, True),
    ("H4", "H4", {"p": 4}, False, True, 4, True, True),
    ("H05", "H5", {"p": 5}, True, True, 5, True, True),
]


class TestRegistry:
    def test_target_names(self):
        names = target_names()
        assert names == sorted(names)
        for expected in ("H3", "PN", "PRR", "gaussian", "semicircle", "BG1"):
            assert expected in names

    def test_aliases(self):
        assert get_target("N01").name == "gaussian"

    @pytest.mark.parametrize("spec, name, params, symmetric, zero_mean, draws, oracle, sampler",
                             _TARGET_PATHS, ids=[row[0] for row in _TARGET_PATHS])
    def test_every_target_path_builds_its_law(
            self, spec, name, params, symmetric, zero_mean, draws, oracle, sampler):
        law = get_target(spec)
        assert (law.name, dict(law.params), law.symmetric, law.zero_mean, law.draws) == (
            name, params, symmetric, zero_mean, draws)
        assert all(type(v) is F for v in dict(law.params).values())
        assert (law.oracle is not None, law.sampler is not None) == (oracle, sampler)
        with pytest.raises(AttributeError):
            law.name = "other"

    def test_laws_are_values(self):
        # the capabilities are module-level functions and the parameters a
        # tuple of pairs, so laws compare and hash by value
        for spec, *_ in _TARGET_PATHS:
            assert get_target(spec) == get_target(spec)
            assert hash(get_target(spec)) == hash(get_target(spec))
        same = [("PN:p=4", "PN:p=4,sigma2=1"), ("N01", "gaussian"), ("H3", "H3")]
        for left, right in same:
            assert get_target(left) == get_target(right)
            assert hash(get_target(left)) == hash(get_target(right))
        assert get_target("PN:p=4") != get_target("PN:p=5")
        assert get_target("gaussian") != get_target("gaussian:sigma2=2")
        laws = [get_target(spec) for pair in same for spec in pair]
        for law in laws:
            assert pickle.loads(pickle.dumps(law)) == law
        assert len(set(laws)) == 3

    def test_unknown(self):
        with pytest.raises(UnknownTarget):
            get_target("cauchy")

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            get_target("PRR:s=1/2")
        with pytest.raises(BadParameter):
            get_target("PN:p=0")
        with pytest.raises(BadParameter):
            get_target("PN:p=3/2")
        with pytest.raises(BadParameter):
            get_target("gaussian:sigma2=-1")
        with pytest.raises(BadParameter):
            get_target("semicircle:radius=2")
        with pytest.raises(BadParameter):
            get_target("H3:p=4")

    def test_meta(self):
        assert get_target("H3").meta == {"symmetric": True, "zero_mean": True}
        assert get_target("H4").meta == {"symmetric": False, "zero_mean": True}
        assert get_target("BG1:a=1,b=1,r=1").meta == {
            "symmetric": False,
            "zero_mean": False,
        }
        assert get_target("PN:p=6").meta == {"symmetric": True, "zero_mean": True}

    def test_custom_target_construction(self):
        # The type is open: a user can wire an ad-hoc law for verification.
        law = TargetDistribution(
            "shifted", {},
            symmetric=False, zero_mean=False,
            sampler=lambda rng, n: 1.0 + rng.standard_normal(n),
        )
        x = law.sample(64, seed=0)
        assert x.shape == (64,)
        with pytest.raises(NoExactOracle):
            law.moment(2)
