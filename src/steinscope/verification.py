"""Exact and Monte-Carlo checks that an operator annihilates a target law.

Two modes, one report type:

* ``check_moment_recurrence``: for targets with an exact moment oracle, the
  relation E[S y^k] = 0 is evaluated as exact rational arithmetic for
  k = 0..K.  Pass means identically zero; there is no tolerance.
* ``mc_stein_residual``: for sampled targets, E[S f(W)] is estimated over a
  fixed set of smooth test functions (trigonometric waves and
  Gaussian-weighted monomials).  A test passes when |sample mean| <= 4
  standard errors.

The test functions are fixed: cos(ty) and sin(ty) for t in 1/2, 1, 2, and
exp(-y^2/2) y^d for d <= 2.  Both classes are closed under d/dy, so each
image S f is built exactly, once, before any sample is drawn:
S e^{ity} = e^{ity} P(y), with P read off the coefficients as
P_i = sum_j a_ij (it)^j, and S maps exp(-y^2/2) p(y) to exp(-y^2/2) q(y)
with q built from p -> p' - y p.  The images fall into six fixed groups of
at most two (``image_groups``): the cos/sin pair at each t shares ty,
cos(ty), sin(ty) and both parts of P, and each weighted monomial has its
own weight.  A chunk walks each group in blocks of _BLOCK samples,
computing the group's factors once per block (at most three arrays) and
polynomials by ``algebra.float_horner``, into one chunk-length output array
per image, then reduces each array to its mean and sum of squared
deviations.  A chunk makes its two output arrays after its draw and drops
them when it is done, so a worker holds one chunk at a time and its memory
does not grow with n.  Every step is an elementwise ufunc with the
roundings of evaluating each image on its own with numpy's ``polyval``, and
the reductions see whole chunks, so residuals and standard errors are
bit-identical to that.

Monte-Carlo estimation is chunked; chunk i draws from a generator seeded
with seed + i, so results are reproducible and independent of the number of
worker threads (set by the STEIN_SCOPE_THREADS environment variable, at
most the CPUs the process may run on).  Chunk statistics are merged by exact
pairwise Welford combination in chunk order, each as it arrives.

numpy is imported inside the Monte-Carlo code, so exact mode does not load
it.  The workers are plain threads, each running every W-th chunk, so no
thread pool (concurrent.futures, and the logging it imports) is loaded.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

from .algebra import RationalPoly, _as_fraction, accumulate, float_horner
from .budgets import check
from .operators import SteinOperator, moment_row, moment_shifts, quarter_turn

# Samples per Monte-Carlo chunk, and the standard errors a residual may reach.
_CHUNK = 1 << 17
# Samples per block of a chunk's image evaluation, 256 KiB per factor array.
# Measured on two cores: at one thread, blocks of 2^16 and 2^17 took fresh
# pages for every block (about 30 times the minor faults) and ran 35-45 %
# slower; at two threads, 2^13 ran slowest, its many small ufunc calls
# contending for the interpreter lock.
_BLOCK = 1 << 15
_SIGMA_MULT = 4.0


class ResidualReport(NamedTuple):
    """One verification test: residual, threshold, and pass/fail.

    ``passed`` is |residual| <= threshold, read off the two.  Exact-mode
    reports carry a Fraction residual and zero threshold, and render them as
    exact strings; Monte-Carlo reports carry float residual, standard error
    and threshold = _SIGMA_MULT * stderr, and render them as floats followed
    by ``stderr``, ``n`` and ``seed``.
    """

    test_id: str
    mode: str
    residual: Fraction | float
    threshold: Fraction | float
    stderr: float | None = None
    n: int | None = None
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.threshold

    def as_json(self) -> dict:
        value = str if self.mode == "exact" else float
        out = {
            "test_id": self.test_id,
            "mode": self.mode,
            "residual": value(self.residual),
            "threshold": value(self.threshold),
            "passed": self.passed,
        }
        if self.mode == "mc":
            out.update(stderr=float(self.stderr), n=int(self.n), seed=int(self.seed))
        return out


# --- exact mode -----------------------------------------------------------------

def check_moment_recurrence(op: SteinOperator, dist, K: int) -> list[ResidualReport]:
    """Evaluate the operator's moment relation exactly for k = 0..K.

    ``dist`` must expose an exact ``moment(order) -> Fraction`` oracle
    (NoExactOracle propagates otherwise).  Each report's residual is the
    exact value of sum_s c_s(k) E[W^{k+s}]; pass means exactly zero.  The
    highest order any row reads is asked for first, so a moment budget
    refuses before any other work; each other order is asked once and kept
    until no later row reads it.  K < 0, or rows that read no moment, which
    would pass vacuously, raise ValueError, and K > MAX_CONSTRAINTS, the
    moment relation's row budget, OverBudget.
    """
    if K < 0:
        raise ValueError(f"moment orders K = {K}; need K >= 0")
    check("MAX_CONSTRAINTS", "moment orders K", K)
    rows = [moment_row(op, k) for k in range(K + 1)]
    top = max((k + s for k, row in enumerate(rows) for s in row), default=None)
    if top is None:
        raise ValueError(f"no moment relation row k = 0..{K} reads a moment")
    kept = {top: _as_fraction(dist.moment(top))}

    def moment(order: int) -> Fraction:
        if order not in kept:
            kept[order] = _as_fraction(dist.moment(order))
        return kept[order]

    smin = moment_shifts(op)[0]
    out = []
    for k, row in enumerate(rows):
        r = sum((c * moment(k + s) for s, c in row.items()), Fraction(0))
        kept.pop(k + smin, None)
        out.append(ResidualReport(f"moment-k={k}", "exact", r, Fraction(0)))
    return out


# --- Monte-Carlo mode -------------------------------------------------------------

# The frequencies of the waves and the top degree of the weighted monomials.
_T_GRID = (Fraction(1, 2), 1, 2)
_MAX_POLY_DEGREE = 2


def _wave_images(op: SteinOperator, t):
    """The images of cos(ty) and sin(ty), from one t*y per block.

    S e^{ity} = e^{ity} P(y) with P(y) = sum a_ij (it)^j y^i, so S cos(ty)
    is Re(e^{ity} P) = cos(ty) Re P - sin(ty) Im P and S sin(ty) is
    Im(e^{ity} P) = sin(ty) Re P + cos(ty) Im P.  P is read off the
    operator once, each i^j as its quarter turn.  Both parts become floats
    here, before any sample.
    Returns the two labels and ``evaluate(y, outs)``, which writes both
    images of the samples y into outs.
    """
    import numpy as np

    parts = ({}, {})  # Re P, Im P
    for (i, j), v in op.a.items():
        sign, imaginary = quarter_turn(j)
        accumulate([(i, sign * v * Fraction(t)**j)], parts[imaginary])
    re, im = (RationalPoly(part).float_coefficients() for part in parts)
    tf = float(t)

    def evaluate(y, outs):
        # three block arrays at a time: Re P is dropped before Im P is built
        cos_out, sin_out = outs
        ty = tf * y
        cos = np.cos(ty)
        sin = np.sin(ty, out=ty)
        p = float_horner(y, re)
        np.multiply(cos, p, out=cos_out)
        np.multiply(sin, p, out=sin_out)
        del p
        p = float_horner(y, im)
        cos_out -= np.multiply(sin, p, out=sin)
        sin_out += np.multiply(cos, p, out=cos)

    evaluate.degree = len(re) + len(im) - 2
    return (f"cos({t}*y)", f"sin({t}*y)"), evaluate


def _gaussian_image(op: SteinOperator, d: int):
    """The image of exp(-y^2/2) y^d, in a group of its own with its own weight.

    d/dy maps exp(-y^2/2) p(y) to exp(-y^2/2) (p' - y p), so S maps
    exp(-y^2/2) y^d to exp(-y^2/2) q(y) with q = sum_j a_j p_j, p_0 = y^d, in
    floats before any sample.  Returns the label and ``evaluate(y, outs)``.
    """
    import numpy as np

    q, p_j = RationalPoly({}), RationalPoly({d: 1})
    for j in range(op.T + 1):
        q = q + op.coefficient_poly(j) * p_j
        p_j = p_j.derivative() - RationalPoly({1: 1}) * p_j
    q = q.float_coefficients()

    def evaluate(y, outs):
        # the roundings of np.exp(-0.5 * y * y), in one array
        w = np.multiply(y, -0.5)
        w *= y
        np.exp(w, out=w)
        np.multiply(float_horner(y, q), w, out=outs[0])

    evaluate.degree = len(q) - 1
    return ("exp(-y^2/2)" if d == 0 else f"exp(-y^2/2)*y^{d}",), evaluate


def image_groups(op: SteinOperator) -> list:
    """The test functions' images under op, as (labels, evaluate) groups.

    One group per frequency of _T_GRID, then one per weighted monomial, so
    no group has more than two images; a wave group's images share t*y,
    cos, sin and both parts of P, which ``evaluate`` computes once per call.
    Each ``evaluate`` carries ``degree``, the Horner steps it takes per
    sample: the degrees of Re P and Im P, or of q.
    """
    return ([_wave_images(op, t) for t in _T_GRID]
            + [_gaussian_image(op, d) for d in range(_MAX_POLY_DEGREE + 1)])


def _welford_merge(a, b):
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return (n, mean, m2)


def _threads() -> int:
    """Worker threads from STEIN_SCOPE_THREADS, from 1 to the CPUs the process may use."""
    try:
        wanted = int(os.environ.get("STEIN_SCOPE_THREADS", "1"))
    except ValueError:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(wanted, cpus))


def mc_stein_residual(op: SteinOperator, dist, n: int, seed: int = 0) -> list[ResidualReport]:
    """Estimate E[S f(W)] over the fixed test functions by seeded Monte-Carlo.

    The images are built once, before sampling (``image_groups``); each
    chunk walks each group block by block.  Returns one report per test
    function, in group order, with residual = sample mean, stderr, and
    threshold = _SIGMA_MULT * stderr.  Chunk i draws
    ``dist.sample(chunk_size, seed + i)``; estimates are identical for any
    thread count.  n < 2 (no standard error) raises ValueError rather than
    pass vacuously, as do a negative seed and a mean or standard error that
    is not finite (the samples overflowed), since NaN or infinity is neither
    a pass nor a fail.  The totals are checked as each chunk is merged, in
    chunk order, and the first non-finite one raises the one-worker run's
    error; no worker starts a chunk once the merge has seen it, though at
    two or more workers later chunks may be drawn already, and every worker
    is joined before the call returns.  n times ``dist.draws`` (one if
    absent) above the budget MAX_SAMPLES, or n times the images' Horner
    steps per sample above MAX_HORNER_STEPS, raises OverBudget before any
    sampling.
    """
    if n < 2:
        raise ValueError(f"Monte-Carlo sample size n = {n}; need n >= 2")
    draws = getattr(dist, "draws", 1)
    check("MAX_SAMPLES", "Monte-Carlo sample size n" if draws == 1
          else f"Monte-Carlo draws n*{draws}", n * draws)
    if seed < 0:
        raise ValueError(f"Monte-Carlo seed = {seed}; need seed >= 0")
    import numpy as np

    groups = image_groups(op)
    steps = sum(evaluate.degree for _, evaluate in groups)
    check("MAX_HORNER_STEPS", f"Monte-Carlo Horner steps n*{steps}", n * steps)
    width = max(len(labels) for labels, _ in groups)
    chunks = -(-n // _CHUNK)

    def run_chunk(i: int):
        y = dist.sample(min(_CHUNK, n - i * _CHUNK), seed=seed + i)
        # one output array per image of a group, made after the draw and
        # dropped with the chunk, so none sits beside a sampler's second draw
        workspace = [np.empty(len(y)) for _ in range(width)]
        stats = []
        # an image that overflows on finite samples is reported as a
        # non-finite estimate when its chunk is merged
        with np.errstate(over="ignore", invalid="ignore"):
            for labels, evaluate in groups:
                outs = workspace[:len(labels)]
                for lo in range(0, len(y), _BLOCK):
                    block = slice(lo, lo + _BLOCK)
                    evaluate(y[block], [out[block] for out in outs])
                for vals in outs:
                    m = float(vals.mean())
                    vals -= m
                    stats.append((len(y), m, float(np.square(vals, out=vals).sum())))
        return stats

    labels = [label for group_labels, _ in groups for label in group_labels]

    def report(label, cnt, mean, m2):
        stderr = (m2 / (cnt - 1)) ** 0.5 / cnt**0.5
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            raise ValueError(
                f"{dist.name}: the Monte-Carlo estimate for {label} is not "
                f"finite (mean {mean}, stderr {stderr})")
        return ResidualReport(label, "mc", mean, _SIGMA_MULT * stderr,
                              stderr=stderr, n=cnt, seed=seed)

    def merge(per_chunk):
        # each chunk's statistics join the totals in chunk order as they
        # arrive, and the totals are reported at once: a total that is not
        # finite stays so after every later merge
        totals = None
        for stats in per_chunk:
            totals = stats if totals is None else list(map(_welford_merge, totals, stats))
            reports = [report(label, *total) for label, total in zip(labels, totals)]
        return reports

    workers = min(_threads(), chunks)
    if workers == 1:
        return merge(map(run_chunk, range(chunks)))
    import threading
    from queue import SimpleQueue

    # worker w runs chunks w, w + workers, ... in turn and hands each one's
    # statistics, or the exception that ended it, to its own queue, so the
    # merge reads chunk i from queue i mod workers
    done = [SimpleQueue() for _ in range(workers)]
    stop = threading.Event()

    def worker(w: int):
        try:
            for i in range(w, chunks, workers):
                if stop.is_set():
                    return
                done[w].put(run_chunk(i))
        except BaseException as exc:
            done[w].put(exc)

    def arrivals():
        for i in range(chunks):
            stats = done[i % workers].get()
            if isinstance(stats, BaseException):
                raise stats
            yield stats

    threads = []
    try:
        for w in range(workers):
            thread = threading.Thread(target=worker, args=(w,))
            thread.start()
            threads.append(thread)
        return merge(arrivals())
    finally:
        # after a refusal or an error no chunk is started, and the call
        # returns only when every started worker has finished its chunk in
        # hand
        stop.set()
        for thread in threads:
            thread.join()
