"""Second witness for the Monte-Carlo evaluation with shared chunk factors.

``_trig_image``, ``_gaussian_image`` and ``_reference_mc`` below are the
implementation the package used before the test images of one chunk shared
their factors (t*y, cos and sin per frequency, the Gaussian weight, each
image polynomial) and evaluated polynomials by an in-place Horner.
``_trig_image`` reads its wave polynomial off the raw characteristic-function
transform, which the package no longer exposes; ``_raw_psi_transform`` is
that transform as the package wrote it.  Each
image was evaluated on its own with numpy's ``polyval``.  They are kept
verbatim as a reference oracle: every residual and standard error of
``mc_stein_residual`` must equal the oracle's bit for bit, for one thread
and for two.
"""

from functools import reduce

import numpy as np
import pytest

from steinscope.algebra import QI, GaussianRationalPoly, RationalPoly, unit_ipow
from steinscope.distributions import get_target
from steinscope.operators import CfOde, catalog_get
from steinscope.verification import (
    _BLOCK,
    _CHUNK,
    _welford_merge,
    TrigTest,
    default_test_family,
    mc_stein_residual,
)

# --- reference oracle, verbatim -------------------------------------------------


def _raw_psi_transform(op):
    """The raw image a_ij y^i D^j -> a_ij i^(j-i) t^j phi^(i), with no unit applied."""
    rows: list[dict] = [{} for _ in range(op.m + 1)]
    for (i, j), v in op.a.items():
        rows[i][j] = unit_ipow(j - i) * v
    coeffs = [GaussianRationalPoly(r) for r in rows]
    return CfOde(coeffs, unit=QI(1))


def _trig_image(self, op):
    """S applied to this wave, as a function of a float array y."""
    # the raw transform's c_i(t) = sum_j a_ij i^(j-i) t^j, so P_i = i^i c_i(t)
    ode = _raw_psi_transform(op)
    p = [unit_ipow(i) * c(self.t) for i, c in enumerate(ode.coeffs)]
    re = RationalPoly({i: v.re for i, v in enumerate(p)}).float_coefficients()
    im = RationalPoly({i: v.im for i, v in enumerate(p)}).float_coefficients()
    t, polyval = float(self.t), np.polynomial.polynomial.polyval
    if self.kind == "cos":  # Re(e^{ity} P(y))
        return lambda y: np.cos(t * y) * polyval(y, re) - np.sin(t * y) * polyval(y, im)
    return lambda y: np.sin(t * y) * polyval(y, re) + np.cos(t * y) * polyval(y, im)


def _gaussian_image(self, op):
    """S f = exp(-y^2/2) q(y) with q = sum_j a_j p_j, as a function of y."""
    q, p_j = RationalPoly({}), self.poly
    for j in range(op.T + 1):
        q = q + op.coefficient_poly(j) * p_j
        p_j = p_j.derivative() - RationalPoly({1: 1}) * p_j
    coef = q.float_coefficients()
    return lambda y: np.polynomial.polynomial.polyval(y, coef) * np.exp(-0.5 * y * y)


def _reference_image(fn, op):
    return (_trig_image if isinstance(fn, TrigTest) else _gaussian_image)(fn, op)


def _reference_mc(op, dist, family, n, seed):
    """(residual, stderr) per family member, one chunk after another."""
    images = [_reference_image(fn, op) for fn in family]
    full, rest = divmod(n, _CHUNK)
    sizes = [_CHUNK] * full + ([rest] if rest else [])

    def run_chunk(i: int):
        y = dist.sample(sizes[i], seed=seed + i)
        stats = []
        with np.errstate(over="ignore", invalid="ignore"):
            for image in images:
                vals = image(y)
                m = float(vals.mean())
                stats.append((len(y), m, float(((vals - m) ** 2).sum())))
        return stats

    per_chunk = [run_chunk(i) for i in range(len(sizes))]
    out = []
    for idx in range(len(family)):
        cnt, mean, m2 = reduce(_welford_merge, (stats[idx] for stats in per_chunk))
        out.append((mean, (m2 / (cnt - 1)) ** 0.5 / cnt**0.5))
    return out


def _bits(pairs):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(a.hex(), b.hex()) for a, b in pairs]


# --- the comparison -----------------------------------------------------------------

# the seven (operator, target) pairs of the mc_verify benchmark workload
MC_PAIRS = (
    ("PN:p=4", "PN:p=4"),
    ("H3_T4m3", "H3"),
    ("H6_T6m3", "H6"),
    ("G1X:r=2,lam=3,sigma2=2", "G1X:r=2,lam=3,sigma2=2"),
    ("G1G2:r=1,s=2,lam=2", "G1G2:r=1,s=2,lam=2"),
    ("BG1:a=1/2,b=1,r=2", "BG1:a=1/2,b=1,r=2"),
    ("H3_T5m2", "gaussian:sigma2=6"),
)
N = 3 * 10**5
SEED = 7


class TestSharedFactorsOracle:
    @pytest.mark.parametrize("op_spec,target_spec", MC_PAIRS)
    def test_reports_match_the_oracle_bit_for_bit(self, op_spec, target_spec,
                                                  monkeypatch):
        op, dist = catalog_get(op_spec), get_target(target_spec)
        family = default_test_family()
        expected = _reference_mc(op, dist, family, N, SEED)
        for threads in ("1", "2"):
            monkeypatch.setenv("STEIN_SCOPE_THREADS", threads)
            reports = mc_stein_residual(op, dist, family, n=N, seed=SEED)
            got = [(r.residual, r.stderr) for r in reports]
            assert _bits(got) == _bits(expected), threads

    @pytest.mark.parametrize("fn", default_test_family(), ids=lambda fn: fn.label)
    def test_an_image_alone_matches_the_oracle_bit_for_bit(self, fn):
        op = catalog_get("H6_T6m3")
        y = get_target("H6").sample(10**4, seed=1)
        assert fn.image(op)(y).tobytes() == _reference_image(fn, op)(y).tobytes()

    @pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK + 1, _CHUNK + 1, N])
    @pytest.mark.parametrize("op_spec,target_spec", MC_PAIRS[:3])
    def test_block_edges_match_the_oracle_bit_for_bit(self, op_spec, target_spec, n,
                                                      monkeypatch):
        # a chunk is evaluated in blocks of _BLOCK samples; a last block of
        # one sample, a chunk shorter than a block and a last chunk of one
        # sample must give the oracle's bits too
        op, dist = catalog_get(op_spec), get_target(target_spec)
        family = default_test_family()
        expected = _reference_mc(op, dist, family, n, SEED)
        for threads in ("1", "2"):
            monkeypatch.setenv("STEIN_SCOPE_THREADS", threads)
            reports = mc_stein_residual(op, dist, family, n=n, seed=SEED)
            got = [(r.residual, r.stderr) for r in reports]
            assert _bits(got) == _bits(expected), threads
