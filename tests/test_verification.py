"""Tests for exact and Monte-Carlo verification of Stein operators.

Exact mode feeds a moment oracle through the operator's moment recurrence;
Monte-Carlo mode estimates E[S f(W)] over a fixed set of smooth test functions
and flags residuals beyond four standard errors.  All Monte-Carlo outcomes
asserted here were recorded at fixed seeds and are deterministic.
"""

import os
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steinscope import verification
from steinscope.algebra import RationalPoly
from steinscope.budgets import MAX_SAMPLES, OverBudget
from steinscope.distributions import NoExactOracle, TargetDistribution, get_target
from steinscope.operators import SteinOperator, catalog_get, moment_row
from steinscope.verification import (
    ResidualReport,
    _threads,
    check_moment_recurrence,
    image_groups,
    mc_stein_residual,
)

from cf_witness import (
    BesselRatioCf,
    GaussianCf,
    ReciprocalSqrtCf,
    default_ode_grid,
    ode_residual,
)
from qi_witness import psi_transform

F = Fraction

N_MC = 10**5


class TestResidualReport:
    def test_pass_flag_follows_threshold(self):
        assert ResidualReport("t", "exact", F(0), F(0)).passed
        assert not ResidualReport("t", "exact", F(1, 3), F(0)).passed
        assert ResidualReport("t", "mc", 0.5, 0.6).passed
        assert not ResidualReport("t", "mc", 0.7, 0.6).passed
        # |residual| is compared, not the signed value
        assert not ResidualReport("t", "mc", -0.7, 0.6).passed
        assert ResidualReport("t", "mc", -0.5, 0.6).passed

    def test_as_json_exact_mode(self):
        rep = ResidualReport("moment-k=3", "exact", F(2, 3), F(0))
        js = rep.as_json()
        assert list(js.items()) == [
            ("test_id", "moment-k=3"),
            ("mode", "exact"),
            ("residual", "2/3"),
            ("threshold", "0"),
            ("passed", False),
        ]

    def test_as_json_mc_mode(self):
        rep = ResidualReport("cos(1*y)", "mc", 0.001, 0.004,
                             stderr=0.001, n=1000, seed=7)
        js = rep.as_json()
        # the key order is the order report_json prints
        assert list(js.items()) == [
            ("test_id", "cos(1*y)"),
            ("mode", "mc"),
            ("residual", 0.001),
            ("threshold", 0.004),
            ("passed", True),
            ("stderr", 0.001),
            ("n", 1000),
            ("seed", 7),
        ]
        assert js["passed"] is True
        assert isinstance(js["residual"], float)
        assert isinstance(js["threshold"], float)


class TestExactMode:
    def test_h4gen_annihilates_h4_moments(self):
        reports = check_moment_recurrence(
            catalog_get("H4_T2m3"), get_target("H4"), K=10)
        assert len(reports) == 11
        for k, rep in enumerate(reports):
            assert rep.test_id == f"moment-k={k}"
            assert rep.mode == "exact"
            assert isinstance(rep.residual, Fraction)
            assert rep.residual == 0
            assert rep.passed

    def test_gauss_classical_annihilates_gaussian(self):
        reports = check_moment_recurrence(
            catalog_get("gauss_classical"), get_target("gaussian"), K=12)
        assert all(r.passed and r.residual == 0 for r in reports)

    def test_variance_matched_gaussian_caught_at_k_equals_1(self):
        # N(0, 24) matches the H4 law in mean and variance, so the k = 0
        # relation E[W^2] = 50 E[W] + 24 holds; the k = 1 relation already
        # separates the two laws, with an exact nonzero residual.
        reports = check_moment_recurrence(
            catalog_get("H4_T2m3"), get_target("gaussian:sigma2=24"), K=4)
        assert reports[0].passed
        assert not reports[1].passed
        assert abs(reports[1].residual) == 1728

    def test_shared_operator_passes_for_both_laws(self):
        op = catalog_get("gauss_semicircle_T5")
        for name in ("gaussian", "semicircle"):
            reports = check_moment_recurrence(op, get_target(name), K=12)
            assert all(r.passed for r in reports), name

    def test_no_oracle_propagates(self):
        with pytest.raises(NoExactOracle):
            check_moment_recurrence(
                catalog_get("PRR:s=2"), get_target("PRR:s=2"), K=4)

    @pytest.mark.parametrize("op_spec, target_spec", [
        ("H4_T2m3", "H4"),
        ("PN:p=4", "PN:p=4"),
        ("gauss_semicircle_T5", "semicircle"),
        ("H5_T13m4", "H5"),
        ("H3_T4m3", "H4"),  # a wrong pair reads the same orders
    ])
    def test_oracle_is_asked_each_order_once(self, op_spec, target_spec):
        op, target = catalog_get(op_spec), get_target(target_spec)
        calls = []

        def moment(order):
            calls.append(order)
            return target.moment(order)

        K = 40
        reports = check_moment_recurrence(op, SimpleNamespace(moment=moment), K=K)
        read = {k + s for k in range(K + 1) for s in moment_row(op, k)}
        assert sorted(calls) == sorted(read)  # every order read, each once
        assert calls[0] == max(read)  # the highest first, so a budget refuses at once
        assert [r.residual for r in reports] == [
            sum(c * target.moment(k + s) for s, c in moment_row(op, k).items())
            for k in range(K + 1)]

    @pytest.mark.parametrize("K", [-1, -5])
    def test_negative_order_is_an_error(self, K):
        # K < 0 checks no row, which would pass even a wrong pair
        with pytest.raises(ValueError, match="K >= 0"):
            check_moment_recurrence(catalog_get("H3_T4m3"), get_target("H4"), K=K)

    @pytest.mark.parametrize("target", ["gaussian", "BG1:a=1,b=1,r=1"])
    def test_rows_that_read_no_moment_are_an_error(self, target):
        # D sends y^0 to 0, so its one row at K = 0 reads no moment and would
        # pass any law, even one with no exact moment oracle
        with pytest.raises(ValueError, match="reads a moment"):
            check_moment_recurrence(d(1), get_target(target), K=0)


def d(j):
    """The operator D^j, whose image of f is the j-th derivative of f."""
    return SteinOperator({(0, j): 1})


# The fixed test functions in report order: a wave's kind and frequency, or
# the degree d of exp(-y^2/2) y^d.
FAMILY = {
    "cos(1/2*y)": ("cos", F(1, 2)), "sin(1/2*y)": ("sin", F(1, 2)),
    "cos(1*y)": ("cos", 1), "sin(1*y)": ("sin", 1),
    "cos(2*y)": ("cos", 2), "sin(2*y)": ("sin", 2),
    "exp(-y^2/2)": ("weight", 0), "exp(-y^2/2)*y^1": ("weight", 1),
    "exp(-y^2/2)*y^2": ("weight", 2),
}


def images(op, y):
    """Every image of ``image_groups(op)`` at the samples y, by label."""
    out = {}
    for labels, evaluate in image_groups(op):
        outs = [np.empty_like(y) for _ in labels]
        evaluate(y, outs)
        out.update(zip(labels, outs))
    return out


# The per-order evaluation that exact images replaced, kept verbatim as the
# reference: derivative j of each test function and the sum over j of
# a_j(y) f^(j)(y) from float coefficient tables.
def reference_trig_derivative(kind, t, y, j):
    phase = t * y + j * (np.pi / 2)
    wave = np.cos(phase) if kind == "cos" else np.sin(phase)
    return t**j * wave


def reference_gaussian_polys(poly, T):
    polys = [poly]
    while len(polys) <= T:
        p = polys[-1]
        polys.append(p.derivative() - RationalPoly({1: 1}) * p)
    return [q.float_coefficients() for q in polys]


def reference_image(op, fn, y):
    """Per-order S f(y) and the summed magnitude of its terms."""
    coeff = {j: op.coefficient_poly(j).float_coefficients()
             for j in sorted({j for _, j in op.a})}
    kind, param = FAMILY[fn]
    if kind != "weight":
        t = float(param)
        derivs = {j: reference_trig_derivative(kind, t, y, j) for j in coeff}
        bounds = {j: np.full_like(y, t**j) for j in coeff}
    else:
        polys = reference_gaussian_polys(RationalPoly({param: 1}), op.T)
        w = np.exp(-0.5 * y * y)
        derivs = {j: np.polynomial.polynomial.polyval(y, polys[j]) * w for j in coeff}
        bounds = {j: np.polynomial.polynomial.polyval(np.abs(y), np.abs(polys[j])) * w
                  for j in coeff}
    vals, scale = np.zeros_like(y), np.zeros_like(y)
    for j, c in coeff.items():
        vals += np.polynomial.polynomial.polyval(y, c) * derivs[j]
        scale += np.polynomial.polynomial.polyval(np.abs(y), np.abs(c)) * bounds[j]
    return vals, scale


small_operator_st = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=6)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    min_size=1,
    max_size=10,
).filter(lambda a: any(a.values())).map(SteinOperator)


class TestTestFunctions:
    def test_trig_derivatives_closed_form(self):
        y = np.linspace(-3.0, 3.0, 11)
        assert np.allclose(images(d(0), y)["cos(2*y)"], np.cos(2 * y))
        assert np.allclose(images(d(1), y)["cos(2*y)"], -2 * np.sin(2 * y))
        assert np.allclose(images(d(2), y)["cos(2*y)"], -4 * np.cos(2 * y))
        assert np.allclose(images(d(1), y)["sin(1/2*y)"], 0.5 * np.cos(0.5 * y))

    def test_gaussian_poly_closed_class(self):
        y = np.linspace(-2.5, 2.5, 11)
        w = np.exp(-0.5 * y * y)
        assert np.allclose(images(d(0), y)["exp(-y^2/2)"], w)
        assert np.allclose(images(d(1), y)["exp(-y^2/2)"], -y * w)
        assert np.allclose(images(d(2), y)["exp(-y^2/2)"], (y * y - 1) * w)
        assert np.allclose(images(d(1), y)["exp(-y^2/2)*y^1"], (1 - y * y) * w)

    @settings(max_examples=150, deadline=None)
    @given(small_operator_st, st.sampled_from(list(FAMILY)))
    def test_image_matches_per_order_reference(self, op, fn):
        # T <= 6, m <= 3: the exact image agrees with the per-order float
        # sum to 1e-12 of the summed term magnitudes
        y = np.linspace(-3.0, 3.0, 41)
        expected, scale = reference_image(op, fn, y)
        assert np.all(np.abs(images(op, y)[fn] - expected) <= 1e-12 * scale)

    def test_default_family_labels(self):
        got = [label for labels, _ in image_groups(d(0)) for label in labels]
        assert got == list(FAMILY) == [
            "cos(1/2*y)", "sin(1/2*y)",
            "cos(1*y)", "sin(1*y)",
            "cos(2*y)", "sin(2*y)",
            "exp(-y^2/2)", "exp(-y^2/2)*y^1", "exp(-y^2/2)*y^2",
        ]


class TestMcTruePairs:
    PAIRS = [
        ("gauss_classical", "gaussian", 0),
        ("H3_T5m2", "H3", 0),
        ("PN:p=4,sigma2=1", "PN:p=4,sigma2=1", 1),
        ("G1X:r=2,lam=3,sigma2=2", "G1X:r=2,lam=3,sigma2=2", 2),
        ("G1G2:r=1,s=2,lam=2", "G1G2:r=1,s=2,lam=2", 3),
        ("H4_T2m3", "H4", 6),
    ]

    @pytest.mark.parametrize("op_spec,target_spec,seed", PAIRS)
    def test_operator_law_pair_passes(self, op_spec, target_spec, seed):
        reports = mc_stein_residual(
            catalog_get(op_spec), get_target(target_spec), n=N_MC, seed=seed)
        assert len(reports) == 9
        failing = [r.test_id for r in reports if not r.passed]
        assert failing == []
        for rep in reports:
            assert rep.mode == "mc"
            assert rep.n == N_MC
            assert rep.seed == seed
            assert rep.stderr > 0
            assert rep.threshold == pytest.approx(4.0 * rep.stderr)


class TestMcImpostors:
    def test_h3_operator_rejects_variance_matched_gaussian(self):
        reports = mc_stein_residual(
            catalog_get("H3_T5m2"), get_target("gaussian:sigma2=6"),
            n=N_MC, seed=0)
        failing = [r.test_id for r in reports if not r.passed]
        assert failing == ["sin(1/2*y)", "sin(1*y)", "exp(-y^2/2)*y^1"]

    def test_pn4_operator_rejects_standard_gaussian(self):
        reports = mc_stein_residual(
            catalog_get("PN:p=4,sigma2=1"), get_target("gaussian"),
            n=N_MC, seed=1)
        failing = [r.test_id for r in reports if not r.passed]
        assert failing == [
            "sin(1/2*y)", "sin(1*y)", "sin(2*y)", "exp(-y^2/2)*y^1"]

    def test_prr_operator_rejects_standard_gaussian(self):
        reports = mc_stein_residual(
            catalog_get("PRR:s=2"), get_target("gaussian"), n=N_MC, seed=5)
        failing = [r.test_id for r in reports if not r.passed]
        assert failing == [
            "sin(1/2*y)", "sin(1*y)", "sin(2*y)", "exp(-y^2/2)*y^1"]


class TestBetaGammaDriftCoefficient:
    """The catalogued beta-gamma operator does not annihilate the product law.

    For W = B * X with B ~ Beta(a, b) and X ~ Gamma(r, 1) independent, the
    exact moment relation is (k + a + b) m_{k+1} = (k + a)(k + r) m_k
    = (k^2 + (a + r) k + a r) m_k, since E[W^k] = (a)_k (r)_k / (a + b)_k,
    so the first-order coefficient of the annihilating operator
    must be a + r + 1, not the catalogued a + r - 1 (the two differ by the
    product rule term from y^2 D).  Monte Carlo separates the two cleanly.
    """

    A, B, R = F(1, 2), F(1), F(2)

    def _corrected(self):
        a, b, r = self.A, self.B, self.R
        return SteinOperator({
            (2, 2): 1,
            (1, 1): a + r + 1,
            (2, 1): -1,
            (0, 0): a * r,
            (1, 0): -(a + b),
        })

    def test_catalogued_operator_fails_every_test(self):
        law = get_target("BG1:a=1/2,b=1,r=2")
        reports = mc_stein_residual(
            catalog_get("BG1:a=1/2,b=1,r=2"), law, n=N_MC, seed=4)
        assert all(not r.passed for r in reports)

    def test_corrected_drift_passes_every_test(self):
        law = get_target("BG1:a=1/2,b=1,r=2")
        reports = mc_stein_residual(self._corrected(), law, n=N_MC, seed=4)
        assert all(r.passed for r in reports)

    def test_corrected_drift_matches_exact_moment_relations(self):
        # Exact product moments m_k = E[B^k] E[X^k]: the corrected drift
        # satisfies every moment relation, while the catalogued operator
        # already violates the k = 1 relation (E[S y] under the product
        # law) by exactly -2 a r / (a + b).
        a, b, r = self.A, self.B, self.R

        def m(k):
            out = F(1)
            for j in range(k):
                out *= (a + j) * (r + j) / (a + b + j)
            return out

        law = SimpleNamespace(moment=m)
        assert all(r.residual == 0
                   for r in check_moment_recurrence(self._corrected(), law, K=12))
        printed = check_moment_recurrence(catalog_get("BG1:a=1/2,b=1,r=2"), law, K=1)
        assert printed[1].residual == -2 * a * r / (a + b)


class TestMcMechanics:
    def test_zero_test_function_gives_exact_zero(self):
        # S = D + y maps exp(-y^2/2) to exp(-y^2/2) (-y + y), exactly zero
        op = SteinOperator({(0, 1): 1, (1, 0): 1})
        reports = mc_stein_residual(op, get_target("gaussian"), n=10**4, seed=0)
        (zero,) = [r for r in reports if r.test_id == "exp(-y^2/2)"]
        assert zero.residual == 0.0
        assert zero.stderr == 0.0
        assert zero.passed

    def test_same_seed_is_deterministic(self):
        op, g = catalog_get("gauss_classical"), get_target("gaussian")
        a = mc_stein_residual(op, g, n=2 * 10**4, seed=3)
        b = mc_stein_residual(op, g, n=2 * 10**4, seed=3)
        assert [r.residual for r in a] == [r.residual for r in b]
        assert [r.stderr for r in a] == [r.stderr for r in b]

    def test_different_seed_changes_estimates(self):
        op, g = catalog_get("gauss_classical"), get_target("gaussian")
        a = mc_stein_residual(op, g, n=2 * 10**4, seed=3)
        c = mc_stein_residual(op, g, n=2 * 10**4, seed=4)
        assert any(x.residual != y.residual for x, y in zip(a, c))

    def test_stderr_scales_as_inverse_sqrt_n(self):
        op, g = catalog_get("gauss_classical"), get_target("gaussian")
        small = mc_stein_residual(op, g, n=10**4, seed=0)
        large = mc_stein_residual(op, g, n=10**6, seed=0)
        for s, l in zip(small, large):
            assert 9.0 < s.stderr / l.stderr < 11.0

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # Chunk results are merged in submission order, so the estimate is
        # bitwise identical whatever STEIN_SCOPE_THREADS says.  A small
        # chunk size forces several chunks even at modest n.
        op, g = catalog_get("gauss_classical"), get_target("gaussian")
        monkeypatch.setattr(verification, "_CHUNK", 2**14)
        monkeypatch.delenv("STEIN_SCOPE_THREADS", raising=False)
        seq = mc_stein_residual(op, g, n=5 * 10**4, seed=11)
        monkeypatch.setenv("STEIN_SCOPE_THREADS", "4")
        par = mc_stein_residual(op, g, n=5 * 10**4, seed=11)
        assert [r.residual for r in seq] == [r.residual for r in par]
        assert [r.stderr for r in seq] == [r.stderr for r in par]

    @pytest.mark.parametrize("n", [0, -5, 1])
    def test_fewer_than_two_samples_is_an_error(self, n):
        # with n < 2 there is no standard error, and a zero threshold
        # would let an empty sample pass
        with pytest.raises(ValueError, match="n >= 2"):
            mc_stein_residual(catalog_get("gauss_classical"),
                              get_target("gaussian"), n=n)

    def test_more_samples_than_the_budget_is_an_error(self):
        # refused before any chunk is sized or sampled
        def sample(n, seed):
            raise AssertionError("sampled over the budget")

        with pytest.raises(ValueError, match="MAX_SAMPLES = 100000000"):
            mc_stein_residual(catalog_get("gauss_classical"),
                              SimpleNamespace(name="never", sample=sample),
                              n=MAX_SAMPLES + 1)

    def test_the_budget_counts_the_normal_draws_of_a_pn_sample(self, monkeypatch):
        # a PN:p sample multiplies p normal draws and an H_p sample
        # evaluates a degree-p polynomial, so n * p is held to the budget,
        # before any sampling; every other law counts one per sample
        law = get_target("PN:p=1000")
        assert law.draws == 1000
        assert get_target("G1X:r=1,lam=1").draws == 1
        assert get_target("H5").draws == 5

        def sample(self, n, seed):
            raise AssertionError("sampled over the budget")

        monkeypatch.setattr(TargetDistribution, "sample", sample)
        with pytest.raises(OverBudget, match=r"n\*1000 = 100001000 exceeds the budget "
                                             r"MAX_SAMPLES = 100000000"):
            mc_stein_residual(catalog_get("gauss_classical"), law,
                              n=MAX_SAMPLES // 1000 + 1)

    @pytest.mark.parametrize("op_spec,target_spec", [
        ("H3_T4m3", "H3"),
        # Re P = -y at every frequency: the waves still form three groups
        ("gauss_classical", "gaussian"),
        # product samplers: the later draws are multiplied into the first
        ("PN:p=4", "PN:p=4"),
        ("BG1:a=1/2,b=1,r=2", "BG1:a=1/2,b=1,r=2"),
    ])
    def test_workspace_does_not_grow_with_n(self, op_spec, target_spec, monkeypatch):
        # numpy reports its buffers to tracemalloc; one worker holds either
        # the sampler's draws, before the chunk's output arrays are made, or
        # the chunk's samples, one output array per image of the widest
        # group (2) and at most three block-long factors of a wave group
        monkeypatch.setenv("STEIN_SCOPE_THREADS", "1")
        op, target = catalog_get(op_spec), get_target(target_spec)
        assert max(len(labels) for labels, _ in image_groups(op)) == 2
        mc_stein_residual(op, target, n=10**3)  # imports and caches settle
        peaks = []
        for n in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                mc_stein_residual(op, target, n=n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_bytes, block_bytes = verification._CHUNK * 8, verification._BLOCK * 8
        assert max(peaks) < 3 * chunk_bytes + 3 * block_bytes + 2**16
        assert abs(peaks[1] - peaks[0]) < 2**14

    def test_thread_count_is_capped_at_cpu_count(self, monkeypatch):
        # the CPUs this process may run on, where the platform reports them
        monkeypatch.setenv("STEIN_SCOPE_THREADS", str(10**9))
        if hasattr(os, "sched_getaffinity"):
            assert _threads() == len(os.sched_getaffinity(0))
        else:
            assert _threads() == (os.cpu_count() or 1)
        monkeypatch.setenv("STEIN_SCOPE_THREADS", "0")
        assert _threads() == 1
        monkeypatch.setenv("STEIN_SCOPE_THREADS", "many")
        assert _threads() == 1

    def test_thread_count_is_capped_at_the_affinity_set(self, monkeypatch):
        # a process pinned to one CPU runs one worker, however many CPUs
        # the machine has
        monkeypatch.setenv("STEIN_SCOPE_THREADS", "4")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _threads() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _threads() == 4

    def test_threshold_is_four_standard_errors(self):
        reports = mc_stein_residual(
            catalog_get("gauss_classical"), get_target("gaussian"),
            n=10**4, seed=0)
        for rep in reports:
            assert rep.threshold == 4 * rep.stderr

    def test_non_finite_estimate_ends_the_run_at_its_chunk(self, monkeypatch):
        # squares of samples near 1e200 overflow, so chunk 0's totals are
        # not finite; the totals are checked as each chunk is merged, and no
        # later chunk is drawn
        monkeypatch.setenv("STEIN_SCOPE_THREADS", "1")
        seeds = []

        def sample(size, seed):
            seeds.append(seed)
            return 1e200 * np.random.default_rng(seed).standard_normal(size)

        law = SimpleNamespace(name="huge", sample=sample)
        with pytest.raises(ValueError, match="huge: the Monte-Carlo estimate for "
                                             r"cos\(1/2\*y\) is not finite"):
            mc_stein_residual(catalog_get("gauss_classical"), law,
                              n=10 * verification._CHUNK)
        assert seeds == [0]

    def test_two_threads_end_a_non_finite_run_with_the_one_thread_message(
            self, monkeypatch):
        # chunk 0 overflows; no later chunk's refusal or result may come
        # first, and every worker has stopped when the error arrives
        monkeypatch.setattr(verification, "_CHUNK", 2**10)
        law = SimpleNamespace(name="huge", sample=lambda size, seed: (
            1e200 * np.random.default_rng(seed).standard_normal(size)))
        messages = []
        for threads in ("1", "2"):
            monkeypatch.setenv("STEIN_SCOPE_THREADS", threads)
            before = threading.active_count()
            with pytest.raises(ValueError, match="not finite") as caught:
                mc_stein_residual(catalog_get("gauss_classical"), law,
                                  n=10 * verification._CHUNK)
            assert threading.active_count() == before
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

    def test_two_threads_pass_a_sampler_error_to_the_caller(self, monkeypatch):
        monkeypatch.setattr(verification, "_CHUNK", 2**10)
        monkeypatch.setenv("STEIN_SCOPE_THREADS", "2")

        def sample(size, seed):
            if seed == 3:
                raise RuntimeError("sampler failed on chunk 3")
            return np.random.default_rng(seed).standard_normal(size)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sampler failed on chunk 3"):
            mc_stein_residual(catalog_get("gauss_classical"),
                              SimpleNamespace(name="flaky", sample=sample),
                              n=10 * verification._CHUNK)
        assert threading.active_count() == before

    def test_the_budget_counts_the_horner_steps_of_the_images(self):
        # n times the summed degree of the image polynomials, before any draw
        def sample(n, seed):
            raise AssertionError("sampled over the budget")

        op = SteinOperator({**{(0, j): 1 for j in range(121)}, (1, 0): -1})
        assert sum(evaluate.degree for _, evaluate in image_groups(op)) == 366
        assert sum(evaluate.degree
                   for _, evaluate in image_groups(catalog_get("H5_T13m4"))) == 75
        with pytest.raises(OverBudget, match=r"Horner steps n\*366 = 36600000000 exceeds "
                                             r"the budget MAX_HORNER_STEPS = 10000000000"):
            mc_stein_residual(op, SimpleNamespace(name="never", sample=sample),
                              n=MAX_SAMPLES)


class TestOdeResidual:
    def test_default_grid_shape(self):
        grid = default_ode_grid()
        assert len(grid) == 64
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(10.0)

    def test_gaussian_ode_solved_by_gaussian_cf(self):
        ode = psi_transform(catalog_get("gauss_classical"))
        assert ode_residual(ode, GaussianCf(1)) < 1e-14

    def test_pn_odes_solved_by_closed_form_cfs(self):
        pn2 = psi_transform(catalog_get("PN:p=2,sigma2=1"))
        assert ode_residual(pn2, ReciprocalSqrtCf(1)) < 1e-12
        pn1 = psi_transform(catalog_get("PN:p=1,sigma2=1/3"))
        assert ode_residual(pn1, GaussianCf(F(1, 3))) < 1e-12

    def test_shared_fifth_order_ode_has_three_known_solutions(self):
        # The same fifth-order ODE is solved by the Gaussian cf and by both
        # Bessel-quotient cfs: the order-J quotient (semicircle cf) and the
        # order-Y quotient, which is singular at t = 0 but regular on the
        # default grid.
        ode = psi_transform(catalog_get("gauss_semicircle_T5"))
        for cf in (GaussianCf(1), BesselRatioCf("J"), BesselRatioCf("Y")):
            assert ode_residual(ode, cf) < 1e-12

    def test_mismatched_cf_is_flagged(self):
        ode = psi_transform(catalog_get("gauss_classical"))
        assert ode_residual(ode, BesselRatioCf("J")) > 1e-3

    def test_custom_grid(self):
        ode = psi_transform(catalog_get("gauss_classical"))
        r = ode_residual(ode, GaussianCf(1), grid=np.array([0.5, 1.0, 2.0]))
        assert r < 1e-14
