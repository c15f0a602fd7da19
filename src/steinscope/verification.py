"""Exact and Monte-Carlo checks that an operator annihilates a target law.

Three modes, one report type:

* ``check_moment_recurrence``: for targets with an exact moment oracle, the
  relation E[S y^k] = 0 is evaluated as exact rational arithmetic for
  k = 0..K.  Pass means identically zero; there is no tolerance.
* ``mc_stein_residual``: for sampled targets, E[S f(W)] is estimated over a
  family of smooth test functions (trigonometric waves and Gaussian-weighted
  polynomials).  A test passes when |sample mean| <= 4 standard errors.
* ``ode_residual``: when the target has a closed-form characteristic
  function, the transformed ODE is evaluated directly on a t-grid and the
  worst normalised residual |sum c_i phi^(i)| / (sum |c_i||phi^(i)| + 1) is
  returned.

Both test classes are closed under d/dy, so each image S f is built exactly,
once, before any sample is drawn: S e^{ity} = e^{ity} P(y), with P read off
the raw characteristic-function transform, and S maps exp(-y^2/2) p(y) to
exp(-y^2/2) q(y) with q built from p -> p' - y p.

Monte-Carlo estimation is chunked; chunk i draws from a generator seeded
with seed + i, so results are reproducible and independent of the number of
worker threads (set by the STEIN_SCOPE_THREADS environment variable, at
most the CPU count).  Chunk statistics are merged by exact pairwise Welford
combination in chunk order.

numpy is imported inside the Monte-Carlo and ODE-grid code, and
concurrent.futures only where Monte-Carlo chunks run on threads, so exact
mode loads neither.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING

from .algebra import RationalPoly, unit_ipow
from .operators import CfOde, SteinOperator, moment_recurrence, psi_transform

if TYPE_CHECKING:
    import numpy as np

_DEFAULT_N = 10**6
# Samples per Monte-Carlo chunk, and the standard errors a residual may reach.
_CHUNK = 1 << 17
_SIGMA_MULT = 4.0


class ResidualReport:
    """One verification test: residual, threshold, and pass/fail.

    The invariant ``passed == (|residual| <= threshold)`` is enforced at
    construction.  Exact-mode reports carry a Fraction residual and zero
    threshold; Monte-Carlo reports carry float residual, standard error and
    threshold = _SIGMA_MULT * stderr.
    """

    __slots__ = ("test_id", "mode", "residual", "stderr", "threshold",
                 "passed", "n", "seed")

    def __init__(self, test_id, mode, residual, threshold, stderr=None,
                 n=None, seed=None):
        self.test_id = str(test_id)
        self.mode = str(mode)
        self.residual = residual
        self.stderr = stderr
        self.threshold = threshold
        self.passed = abs(residual) <= threshold
        self.n = n
        self.seed = seed

    def as_json(self) -> dict:
        out = {
            "test_id": self.test_id,
            "mode": self.mode,
            "residual": (
                str(self.residual)
                if isinstance(self.residual, Fraction)
                else float(self.residual)
            ),
            "threshold": (
                str(self.threshold)
                if isinstance(self.threshold, Fraction)
                else float(self.threshold)
            ),
            "passed": bool(self.passed),
        }
        if self.stderr is not None:
            out["stderr"] = float(self.stderr)
        if self.n is not None:
            out["n"] = int(self.n)
        if self.seed is not None:
            out["seed"] = int(self.seed)
        return out

    def __repr__(self):
        flag = "pass" if self.passed else "FAIL"
        return f"ResidualReport({self.test_id}: {self.residual} [{flag}])"


# --- exact mode -----------------------------------------------------------------

def check_moment_recurrence(op: SteinOperator, dist, K: int = 12) -> list[ResidualReport]:
    """Evaluate the operator's moment relation exactly for k = 0..K.

    ``dist`` must expose an exact ``moment(order) -> Fraction`` oracle
    (NoExactOracle propagates otherwise).  Each report's residual is the
    exact value of sum_s c_s(k) E[W^{k+s}]; pass means exactly zero.
    K < 0 checks nothing and raises ValueError rather than passing vacuously.
    """
    if K < 0:
        raise ValueError(f"moment orders K = {K}; need K >= 0")
    rec = moment_recurrence(op)
    out = []
    for k in range(K + 1):
        r = rec.residual(dist.moment, k)
        out.append(ResidualReport(f"moment-k={k}", "exact", r, Fraction(0)))
    return out


# --- Monte-Carlo mode -------------------------------------------------------------

class TrigTest:
    """cos(ty) or sin(ty), with t an exact rational.

    S e^{ity} = e^{ity} P(y) with P(y) = sum a_ij (it)^j y^i, so S cos(ty)
    is Re(e^{ity} P(y)) and S sin(ty) is Im(e^{ity} P(y)).
    """

    __slots__ = ("kind", "t", "label")

    def __init__(self, kind: str, t):
        if kind not in ("cos", "sin"):
            raise ValueError("kind must be 'cos' or 'sin'")
        self.kind = kind
        self.t = Fraction(t)
        self.label = f"{kind}({t}*y)"

    def image(self, op: SteinOperator):
        """S applied to this wave, as a function of a float array y."""
        import numpy as np

        # the raw transform's c_i(t) = sum_j a_ij i^(j-i) t^j, so P_i = i^i c_i(t)
        ode = psi_transform(op, normalise=False)
        p = [unit_ipow(i) * c(self.t) for i, c in enumerate(ode.coeffs)]
        re = RationalPoly({i: v.re for i, v in enumerate(p)}).float_coefficients()
        im = RationalPoly({i: v.im for i, v in enumerate(p)}).float_coefficients()
        t, polyval = float(self.t), np.polynomial.polynomial.polyval
        if self.kind == "cos":  # Re(e^{ity} P(y))
            return lambda y: np.cos(t * y) * polyval(y, re) - np.sin(t * y) * polyval(y, im)
        return lambda y: np.sin(t * y) * polyval(y, re) + np.cos(t * y) * polyval(y, im)


class GaussianPolyTest:
    """exp(-y^2/2) p(y): differentiation maps p to p' - y p, a closed class."""

    __slots__ = ("label", "poly")

    def __init__(self, poly: RationalPoly, label: str | None = None):
        self.poly = poly
        self.label = label if label is not None else f"exp(-y^2/2)*({poly})"

    def image(self, op: SteinOperator):
        """S f = exp(-y^2/2) q(y) with q = sum_j a_j p_j, as a function of y."""
        import numpy as np

        q, p_j = RationalPoly({}), self.poly
        for j in range(op.T + 1):
            q = q + op.coefficient_poly(j) * p_j
            p_j = p_j.derivative() - RationalPoly({1: 1}) * p_j
        coef = q.float_coefficients()
        return lambda y: np.polynomial.polynomial.polyval(y, coef) * np.exp(-0.5 * y * y)


# The frequencies of the default waves and the top degree of its weighted monomials.
_T_GRID = (Fraction(1, 2), 1, 2)
_MAX_POLY_DEGREE = 2


def default_test_family():
    """The standard family: cos/sin waves on a t-grid plus weighted monomials."""
    family = []
    for t in _T_GRID:
        family.append(TrigTest("cos", t))
        family.append(TrigTest("sin", t))
    for d in range(_MAX_POLY_DEGREE + 1):
        label = "exp(-y^2/2)" if d == 0 else f"exp(-y^2/2)*y^{d}"
        family.append(GaussianPolyTest(RationalPoly({d: 1}), label=label))
    return family


def _welford_merge(a, b):
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return (n, mean, m2)


def _threads() -> int:
    """Worker threads from STEIN_SCOPE_THREADS, between 1 and the CPU count."""
    raw = os.environ.get("STEIN_SCOPE_THREADS", "1")
    try:
        wanted = int(raw)
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))


def mc_stein_residual(op: SteinOperator, dist, family=None, n: int = _DEFAULT_N,
                      seed: int = 0) -> list[ResidualReport]:
    """Estimate E[S f(W)] over a test-function family by seeded Monte-Carlo.

    Each image S f is built once, before sampling.  Returns one report per
    family member with residual = sample mean, stderr, and threshold =
    _SIGMA_MULT * stderr.  Chunk i draws ``dist.sample(chunk_size, seed + i)``;
    estimates are identical for any thread count.  n < 2 (no standard error)
    and an empty family (no test) raise ValueError rather than pass
    vacuously, as does a mean or standard error that is not finite (the
    samples overflowed), since NaN or infinity is neither a pass nor a fail.
    """
    if n < 2:
        raise ValueError(f"Monte-Carlo sample size n = {n}; need n >= 2")
    family = default_test_family() if family is None else list(family)
    if not family:
        raise ValueError("the test-function family is empty; need at least one test")
    images = [fn.image(op) for fn in family]
    full, rest = divmod(n, _CHUNK)
    sizes = [_CHUNK] * full + ([rest] if rest else [])

    def run_chunk(i: int):
        y = dist.sample(sizes[i], seed=seed + i)
        stats = []
        for image in images:
            vals = image(y)
            m = float(vals.mean())
            stats.append((len(y), m, float(((vals - m) ** 2).sum())))
        return stats

    workers = min(_threads(), len(sizes))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(run_chunk, range(len(sizes))))
    else:
        per_chunk = [run_chunk(i) for i in range(len(sizes))]

    out = []
    for idx, fn in enumerate(family):
        cnt, mean, m2 = reduce(_welford_merge, (stats[idx] for stats in per_chunk))
        stderr = (m2 / (cnt - 1)) ** 0.5 / cnt**0.5
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            raise ValueError(
                f"{dist.name}: the Monte-Carlo estimate for {fn.label} is not "
                f"finite (mean {mean}, stderr {stderr})")
        out.append(ResidualReport(
            fn.label, "mc", mean, _SIGMA_MULT * stderr,
            stderr=stderr, n=cnt, seed=seed,
        ))
    return out


# --- ODE mode ----------------------------------------------------------------------

def default_ode_grid() -> np.ndarray:
    """64 log-spaced points in [0.1, 10]; avoids the singular point t = 0."""
    import numpy as np

    return np.geomspace(0.1, 10.0, 64)


def ode_residual(ode: CfOde, cf, grid=None) -> float:
    """Worst normalised residual of the ODE applied to a candidate solution.

    ``cf(t, j)`` must return the j-th derivative of the candidate at t.  The
    residual at t is |sum_i c_i(t) phi^(i)(t)| divided by
    sum_i |c_i(t)| |phi^(i)(t)| + 1, and the maximum over the grid is
    returned.
    """
    if grid is None:
        grid = default_ode_grid()
    worst = 0.0
    for t in grid:
        t = float(t)
        num = 0j
        den = 1.0
        for i, poly in enumerate(ode.coeffs):
            if poly.is_zero():
                continue
            c = poly.eval_complex(t)
            phi = complex(cf(t, i))
            num += c * phi
            den += abs(c) * abs(phi)
        worst = max(worst, abs(num) / den)
    return worst
