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
the coefficients as P_i = sum_j a_ij (it)^j, and S maps exp(-y^2/2) p(y) to
exp(-y^2/2) q(y) with q built from p -> p' - y p.  An image is a product of
shared factors (``Image``): cos(ty) and sin(ty) from one product ty per
frequency t, the weight exp(-y^2/2), and each image polynomial, evaluated by
``algebra.float_horner``.  Consecutive images that share a factor form a
group; the default family's groups are the cos/sin pair at each t and the
three weighted monomials.  A chunk walks each group in blocks of _BLOCK
samples, computes the group's factors once per block and writes every
image's values into its own chunk-length output array; only then is each
array reduced to its mean and sum of squared deviations.  The factors live
for one block, and each worker reuses one output array per image of the
widest group, so a worker's memory does not grow with n.  Every step is an
elementwise ufunc with the roundings of evaluating each image on its own
with numpy's ``polyval``, and the reductions see whole chunks, so residuals
and standard errors are bit-identical to that.

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

from .algebra import RationalPoly, _as_fraction, accumulate, float_horner, unit_ipow
from .budgets import check
from .operators import CfOde, SteinOperator, moment_recurrence

if TYPE_CHECKING:
    import numpy as np

_DEFAULT_N = 10**6
# Samples per Monte-Carlo chunk, and the standard errors a residual may reach.
_CHUNK = 1 << 17
# Samples per block of a chunk's image evaluation, 256 KiB per factor array.
# Measured on two cores: at one thread, blocks of 2^16 and 2^17 took fresh
# pages for every block (about 30 times the minor faults) and ran 35-45 %
# slower; at two threads, 2^13 ran slowest, its many small ufunc calls
# contending for the interpreter lock.
_BLOCK = 1 << 15
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
    exact value of sum_s c_s(k) E[W^{k+s}]; pass means exactly zero.  The
    highest order any row reads is asked for first, so a moment budget
    refuses before any other work; each other order is asked once and kept
    until no later row reads it.  K < 0, which would pass vacuously, raises
    ValueError, and K > MAX_CONSTRAINTS, the moment relation's row budget,
    OverBudget.
    """
    if K < 0:
        raise ValueError(f"moment orders K = {K}; need K >= 0")
    check("MAX_CONSTRAINTS", "moment orders K", K)
    rec = moment_recurrence(op)
    rows = [rec.coefficients(k) for k in range(K + 1)]
    top = max((k + s for k, row in enumerate(rows) for s in row), default=None)
    kept = {} if top is None else {top: _as_fraction(dist.moment(top))}

    def moment(order: int) -> Fraction:
        if order not in kept:
            kept[order] = _as_fraction(dist.moment(order))
        return kept[order]

    out = []
    for k, row in enumerate(rows):
        r = sum((c * moment(k + s) for s, c in row.items()), Fraction(0))
        kept.pop(k + rec.min_shift, None)
        out.append(ResidualReport(f"moment-k={k}", "exact", r, Fraction(0)))
    return out


# --- Monte-Carlo mode -------------------------------------------------------------

def _factor(y, key):
    """One shared factor of the test images at the samples y.

    ``("wave", t)`` is (cos(ty), sin(ty)) from one product ty,
    ``("weight",)`` is exp(-y^2/2), and ``("poly", coef)`` is the polynomial
    with float coefficients coef (constant first).
    """
    import numpy as np

    kind, *args = key
    if kind == "wave":
        ty = args[0] * y
        return np.cos(ty), np.sin(ty, out=ty)
    if kind == "weight":
        # the roundings of np.exp(-0.5 * y * y), in one array
        w = np.multiply(y, -0.5)
        w *= y
        return np.exp(w, out=w)
    return float_horner(y, args[0])


class Image:
    """S f as ``combine`` applied to the shared factors named by ``keys``.

    ``combine(out, *factors)`` writes the image's values into ``out``.
    Called on samples, an image computes its factors and writes into a new
    array; ``mc_stein_residual`` instead gives the images of a group the
    factors of each block once and writes into its reused output arrays.
    """

    __slots__ = ("keys", "combine")

    def __init__(self, keys: tuple, combine):
        self.keys = keys
        self.combine = combine

    def __call__(self, y):
        import numpy as np

        out = np.empty_like(y)
        self.combine(out, *(_factor(y, key) for key in self.keys))
        return out


def _cos_image(out, wave, re, im):
    """Re(e^{ity} P(y)) = cos(ty) re(y) - sin(ty) im(y), into out."""
    import numpy as np

    np.multiply(wave[0], re, out=out)
    out -= wave[1] * im


def _sin_image(out, wave, re, im):
    """Im(e^{ity} P(y)) = sin(ty) re(y) + cos(ty) im(y), into out."""
    import numpy as np

    np.multiply(wave[1], re, out=out)
    out += wave[0] * im


def _weighted_image(out, q, weight):
    """exp(-y^2/2) q(y), into out."""
    import numpy as np

    np.multiply(q, weight, out=out)


def _poly_key(poly: RationalPoly) -> tuple:
    return ("poly", tuple(poly.float_coefficients().tolist()))


class TrigTest:
    """cos(ty) or sin(ty), with t an exact rational.

    S e^{ity} = e^{ity} P(y) with P(y) = sum a_ij (it)^j y^i, so S cos(ty)
    is Re(e^{ity} P(y)) and S sin(ty) is Im(e^{ity} P(y)); the waves at one
    t share cos(ty), sin(ty) and both parts of P.
    """

    __slots__ = ("kind", "t", "label")

    def __init__(self, kind: str, t):
        if kind not in ("cos", "sin"):
            raise ValueError("kind must be 'cos' or 'sin'")
        self.kind = kind
        self.t = Fraction(t)
        self.label = f"{kind}({t}*y)"

    def image(self, op: SteinOperator) -> Image:
        """S applied to this wave, as a product of shared factors."""
        p = accumulate((i, unit_ipow(j) * (v * self.t**j)) for (i, j), v in op.a.items())
        re = _poly_key(RationalPoly({i: v.re for i, v in p.items()}))
        im = _poly_key(RationalPoly({i: v.im for i, v in p.items()}))
        keys = (("wave", float(self.t)), re, im)
        return Image(keys, _cos_image if self.kind == "cos" else _sin_image)


class GaussianPolyTest:
    """exp(-y^2/2) p(y): differentiation maps p to p' - y p, a closed class."""

    __slots__ = ("label", "poly")

    def __init__(self, poly: RationalPoly, label: str | None = None):
        self.poly = poly
        self.label = label if label is not None else f"exp(-y^2/2)*({poly})"

    def image(self, op: SteinOperator) -> Image:
        """S f = exp(-y^2/2) q(y) with q = sum_j a_j p_j, as shared factors."""
        q, p_j = RationalPoly({}), self.poly
        for j in range(op.T + 1):
            q = q + op.coefficient_poly(j) * p_j
            p_j = p_j.derivative() - RationalPoly({1: 1}) * p_j
        return Image((_poly_key(q), ("weight",)), _weighted_image)


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


def _share_groups(images) -> list[list[Image]]:
    """Split the images into runs of consecutive images that share a factor."""
    groups, keys = [], set()
    for image in images:
        if keys.isdisjoint(image.keys):
            groups.append([])
            keys = set()
        groups[-1].append(image)
        keys.update(image.keys)
    return groups


def mc_stein_residual(op: SteinOperator, dist, family=None, n: int = _DEFAULT_N,
                      seed: int = 0) -> list[ResidualReport]:
    """Estimate E[S f(W)] over a test-function family by seeded Monte-Carlo.

    Each image S f is built once, before sampling; each chunk evaluates the
    images block by block, computing the factors a group of consecutive
    images shares once per block.  Returns one report per family
    member with residual = sample mean, stderr, and threshold =
    _SIGMA_MULT * stderr.  Chunk i draws ``dist.sample(chunk_size, seed + i)``;
    estimates are identical for any thread count.  n < 2 (no standard error)
    and an empty family (no test) raise ValueError rather than pass
    vacuously, as do a negative seed and a mean or standard error that is
    not finite (the samples overflowed), since NaN or infinity is neither a
    pass nor a fail.  n times ``dist.draws`` (one if absent) above the
    budget MAX_SAMPLES raises OverBudget before any sampling.
    """
    if n < 2:
        raise ValueError(f"Monte-Carlo sample size n = {n}; need n >= 2")
    draws = getattr(dist, "draws", 1)
    check("MAX_SAMPLES", "Monte-Carlo sample size n" if draws == 1
          else f"Monte-Carlo draws n*{draws}", n * draws)
    if seed < 0:
        raise ValueError(f"Monte-Carlo seed = {seed}; need seed >= 0")
    family = default_test_family() if family is None else list(family)
    if not family:
        raise ValueError("the test-function family is empty; need at least one test")
    import threading

    import numpy as np

    groups = _share_groups(fn.image(op) for fn in family)
    width = max(map(len, groups))
    chunks = range(-(-n // _CHUNK))
    worker = threading.local()

    def run_chunk(i: int):
        y = dist.sample(min(_CHUNK, n - i * _CHUNK), seed=seed + i)
        if not hasattr(worker, "outs"):  # one output array per image of a group
            worker.outs = [np.empty(min(n, _CHUNK)) for _ in range(width)]
        stats = []
        # an image that overflows on finite samples is reported below, once,
        # as a non-finite estimate
        with np.errstate(over="ignore", invalid="ignore"):
            for group in groups:
                outs = [out[:len(y)] for out in worker.outs[:len(group)]]
                for lo in range(0, len(y), _BLOCK):
                    block, factors = slice(lo, lo + _BLOCK), {}
                    for image, out in zip(group, outs):
                        for key in image.keys:
                            if key not in factors:
                                factors[key] = _factor(y[block], key)
                        image.combine(out[block], *(factors[key] for key in image.keys))
                for vals in outs:
                    m = float(vals.mean())
                    vals -= m
                    stats.append((len(y), m, float(np.square(vals, out=vals).sum())))
        return stats

    def merge(per_chunk):
        # each chunk's statistics join the totals in chunk order as they arrive
        return reduce(lambda a, b: list(map(_welford_merge, a, b)), per_chunk)

    workers = min(_threads(), len(chunks))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            totals = merge(pool.map(run_chunk, chunks))
    else:
        totals = merge(map(run_chunk, chunks))

    out = []
    for fn, (cnt, mean, m2) in zip(family, totals):
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
