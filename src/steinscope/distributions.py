"""Target laws: exact moment oracles, seeded samplers, characteristic functions.

A TargetDistribution bundles up to three capabilities behind one name:

* an exact moment oracle ``moment(k)`` returning a Fraction.  The laws that
  carry one are the Hermite targets H_p(X) with X ~ N(0,1), the product
  normal laws PN(p, sigma2), the centred Gaussian, and the centred
  semicircle; their moments are rational and computed exactly.  The H_p
  moments come from ``algebra.gaussian_power_moments`` (integer powers of
  H_p in monomials), extended on demand and kept per p, up to the degree
  budget ``budgets.MAX_HERMITE_DEGREE`` on p*k.
* a seeded sampler ``sample(n, seed)`` drawing i.i.d. replicates with numpy.
  Samplers are stateless: concurrent use derives per-task seeds as
  ``seed + task_index``.
* a characteristic function ``cf(t, j)`` evaluating the j-th derivative of
  phi at t, for the three laws with a closed form: the Gaussian
  (exp(-sigma2 t^2/2)), the semicircle (2 J_1(t)/t), and PN(2, sigma2)
  ((1 + sigma2 t^2)^(-1/2)).

The Beta/Gamma product laws (G1X, BG1, G1G2) ship samplers and metadata but
no exact oracle; recurrence checks for them run in Monte-Carlo mode.  The
Kummer-type law annihilated by the PRR operator ships metadata only: the
sufficiency pipeline works from the operator alone, so it needs neither a
sampler nor an oracle.

The parameters of the operator families (PN, PRR, G1X, BG1, G1G2) are those
declared in ``operators.FAMILIES``, and ``get_target`` parses specs with the
same ``operators.parse_spec`` as the catalog, so a family's target is named
by the operator's canonical spec.  This module keeps only each family's law
(``TARGET_BUILDERS``) and the laws outside the families: H_p, the Gaussian
and the semicircle.

Characteristic-function derivatives are never computed by numerical
differencing.  Each closed form lives in a finite function basis that is
closed under d/dt (Gaussian weight times polynomials; Bessel functions over
powers of t; rational powers of 1 + sigma2 t^2 times monomials), so the j-th
derivative is obtained by exact recursion on basis coefficients followed by
a single floating-point evaluation.

numpy and scipy are imported inside the sampling and characteristic-function
code that computes with them, so the exact moment oracles load neither.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .algebra import (
    _as_fraction,
    _clip,
    accumulate,
    cumulants_from_moments,
    float_horner,
    gaussian_moment,
    gaussian_power_moments,
    hermite_to_monomial,
)
from .budgets import check
from .operators import FAMILIES, INDEX, POSITIVE, Param, parse_spec

if TYPE_CHECKING:
    import numpy as np


class NoExactOracle(ValueError):
    """An exact moment oracle was required but the target does not have one."""


class NoClosedForm(ValueError):
    """A closed-form characteristic function was required but none exists."""


class UnknownTarget(KeyError):
    """The requested name is not in the target registry."""


# --- exact moment helpers ----------------------------------------------------

# p -> (E[H_p^k] for k = 0, 1, ... so far, the engine that continues them)
_HERMITE_MOMENTS: dict = {}


def hermite_poly_moment(p: int, k: int) -> Fraction:
    """E[H_p(X)^k] for X ~ N(0,1), exactly.

    H_p has integer monomial coefficients; its moments come from
    ``gaussian_power_moments``, and each p keeps the list computed so far.
    A degree p*k above MAX_HERMITE_DEGREE raises OverBudget.
    """
    if p < 1:
        raise ValueError("Hermite index p must be >= 1")
    if k < 0:
        raise ValueError("moment order k must be >= 0")
    check("MAX_HERMITE_DEGREE", f"E[H{p}^{k}] expands a polynomial of degree {p * k}: p*k",
          p * k)
    if p not in _HERMITE_MOMENTS:
        _HERMITE_MOMENTS[p] = ([], gaussian_power_moments(hermite_to_monomial(p)))
    known, engine = _HERMITE_MOMENTS[p]
    while len(known) <= k:
        known.append(next(engine))
    return known[k]


def cumulant(dist: "TargetDistribution", r: int) -> Fraction:
    """kappa_r of the target, exact; requires an exact moment oracle."""
    return cumulants_from_moments(dist.moment, r)


def _catalan(r: int) -> int:
    return comb(2 * r, r) // (r + 1)


# --- characteristic-function engines -----------------------------------------

class GaussianCf:
    """phi(t) = exp(-sigma2 t^2 / 2) with exact-structure derivatives.

    The j-th derivative is (-s)^j H_j(s t) exp(-s^2 t^2/2) with s^2 = sigma2
    and H_j the monic Hermite polynomial, so evaluation needs no differencing.
    """

    __slots__ = ("sigma2",)

    def __init__(self, sigma2=1):
        self.sigma2 = _as_fraction(sigma2)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")

    def __call__(self, t: float, j: int = 0) -> float:
        import numpy as np

        s = float(self.sigma2) ** 0.5
        u = s * t
        value = 0.0
        for d, c in hermite_to_monomial(j).c.items():
            value += float(c) * u**d
        return (-s) ** j * value * np.exp(-0.5 * u * u)


class BesselRatioCf:
    """B_1(t)/t (scaled) for B in {J, Y}, with derivatives in the Bessel basis.

    Elements are stored as {(nu, k): c} meaning sum c * B_nu(t) / t^k.  The
    rule d/dt [B_nu t^-k] = B_{nu-1} t^-k - (nu+k) B_nu t^-(k+1) (valid for
    both kinds) keeps the basis closed under differentiation.  The "J" form
    is 2 J_1(t)/t, normalised so phi(0) = 1 with the removable singularity
    filled by its even power series; the "Y" form Y_1(t)/t is singular at 0.
    """

    __slots__ = ("kind", "_derivs")

    def __init__(self, kind: str = "J"):
        if kind not in ("J", "Y"):
            raise ValueError("kind must be 'J' or 'Y'")
        self.kind = kind
        scale = 2 if kind == "J" else 1
        self._derivs = [{(1, 1): Fraction(scale)}]

    def _rep(self, j: int) -> dict:
        while len(self._derivs) <= j:
            self._derivs.append(accumulate(
                pair
                for (nu, k), c in self._derivs[-1].items()
                for pair in (((nu - 1, k), c), ((nu, k + 1), -(nu + k) * c))
            ))
        return self._derivs[j]

    def __call__(self, t: float, j: int = 0) -> float:
        if self.kind == "J" and abs(t) <= 1.0:
            # The entire series 2 J_1(t)/t = sum_m a_m t^{2m} with
            # a_m = (-1)^m / (4^m m! (m+1)!) avoids the cancellation the
            # Bessel basis suffers between J_nu / t^k terms at small t.
            total = 0.0
            a_m = 1.0
            for m in range(0, 40 + j // 2):
                if 2 * m >= j:
                    term = a_m * t ** (2 * m - j)
                    for i in range(j):
                        term *= 2 * m - i
                    total += term
                    if m and abs(term) < 1e-18 * max(1.0, abs(total)):
                        break
                a_m /= -4.0 * (m + 1) * (m + 2)
            return total
        if t == 0:
            raise ValueError("Y_1(t)/t is singular at t = 0")
        from scipy import special

        bessel = special.jv if self.kind == "J" else special.yv
        return sum(
            float(c) * bessel(nu, t) / t**k for (nu, k), c in self._rep(j).items()
        )


class ReciprocalSqrtCf:
    """phi(t) = (1 + sigma2 t^2)^(-1/2) with derivatives by exact recursion.

    Elements are {(e, d): c} meaning sum c * t^d * (1 + sigma2 t^2)^e with
    rational c and e; d/dt maps (e, d) to d*(e, d-1) + 2*sigma2*e*(e-1, d+1).
    """

    __slots__ = ("sigma2", "_derivs")

    def __init__(self, sigma2=1):
        self.sigma2 = _as_fraction(sigma2)
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be > 0")
        self._derivs = [{(Fraction(-1, 2), 0): Fraction(1)}]

    def _rep(self, j: int) -> dict:
        while len(self._derivs) <= j:
            self._derivs.append(accumulate(
                pair
                for (e, d), c in self._derivs[-1].items()
                for pair in (((e, d - 1), d * c), ((e - 1, d + 1), 2 * self.sigma2 * e * c))
            ))
        return self._derivs[j]

    def __call__(self, t: float, j: int = 0) -> float:
        u = 1.0 + float(self.sigma2) * t * t
        return sum(
            float(c) * t**d * u ** float(e) for (e, d), c in self._rep(j).items()
        )


# --- the target type ----------------------------------------------------------

class TargetDistribution:
    """A named target law bundling whichever capabilities it supports.

    Capabilities are optional: ``moment`` raises NoExactOracle when the law
    has no exact oracle, ``cf`` raises NoClosedForm when no closed form
    exists, and ``sample`` raises NotImplementedError for analysis-only
    targets.  ``meta`` is the side-condition dictionary consumed by the
    sufficiency pipeline.  ``draws`` is what one sample counts against the
    Monte-Carlo budget: the p normal draws a PN:p sample multiplies, and one
    for every other law.
    """

    __slots__ = (
        "name",
        "params",
        "symmetric",
        "zero_mean",
        "draws",
        "_moment",
        "_sampler",
        "_cf",
    )

    def __init__(
        self,
        name: str,
        params: dict | None,
        *,
        symmetric: bool,
        zero_mean: bool,
        moment=None,
        sampler=None,
        cf=None,
        draws: int = 1,
    ):
        self.name = name
        self.params = {k: _as_fraction(v) for k, v in (params or {}).items()}
        self.symmetric = bool(symmetric)
        self.zero_mean = bool(zero_mean)
        self.draws = draws
        self._moment = moment
        self._sampler = sampler
        self._cf = cf

    @property
    def meta(self) -> dict:
        """Side conditions for the sufficiency pipeline."""
        return {"symmetric": self.symmetric, "zero_mean": self.zero_mean}

    @property
    def has_exact_moments(self) -> bool:
        return self._moment is not None

    @property
    def has_sampler(self) -> bool:
        return self._sampler is not None

    @property
    def has_cf(self) -> bool:
        return self._cf is not None

    def moment(self, k: int) -> Fraction:
        """E[Y^k], exact."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if self._moment is None:
            raise NoExactOracle(f"{self.name} has no exact moment oracle")
        return self._moment(int(k))

    def sample(self, n: int, seed=0) -> np.ndarray:
        """n i.i.d. draws; reproducible for a fixed integer seed.

        A parameter beyond float range, or a nonzero one that rounds to 0.0
        in a float, raises ValueError naming it.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if self._sampler is None:
            raise NotImplementedError(
                f"{self.name} has no sampler; it is an analysis-only target"
            )
        for key, value in self.params.items():
            try:
                as_float = float(value)
            except OverflowError:
                raise ValueError(f"{_clip(self.name)}: parameter {key} does not fit "
                                 f"in a float") from None
            if value and not as_float:
                raise ValueError(f"{_clip(self.name)}: parameter {key} is nonzero "
                                 f"but rounds to 0.0 in a float")
        import numpy as np

        return self._sampler(np.random.default_rng(seed), int(n))

    def cf(self, t: float, j: int = 0) -> float:
        """j-th derivative of the characteristic function at t."""
        if self._cf is None:
            raise NoClosedForm(f"{self.name} has no closed-form characteristic function")
        return self._cf(t, j)

    def __repr__(self):
        caps = [
            label
            for label, flag in (
                ("moments", self.has_exact_moments),
                ("sampler", self.has_sampler),
                ("cf", self.has_cf),
            )
            if flag
        ]
        return f"TargetDistribution({self.name!r}, capabilities={caps})"


# --- registry -----------------------------------------------------------------

def _semicircle_target() -> TargetDistribution:
    def moment(k: int) -> Fraction:
        if k % 2:
            return Fraction(0)
        r = k // 2
        return Fraction(_catalan(r), 4**r)

    return TargetDistribution(
        "semicircle",
        {},
        symmetric=True,
        zero_mean=True,
        moment=moment,
        sampler=lambda rng, n: 2.0 * rng.beta(1.5, 1.5, n) - 1.0,
        cf=BesselRatioCf("J"),
    )


def _hermite_target(p: int) -> TargetDistribution:
    def sampler(rng, n):
        import numpy as np

        try:
            coef = hermite_to_monomial(p).float_coefficients()
        except OverflowError as exc:
            raise ValueError(f"H{p}: {exc}") from None
        with np.errstate(over="ignore", invalid="ignore"):
            y = float_horner(rng.standard_normal(n), coef)
        if not np.isfinite(y).all():
            raise ValueError(f"H{p}: a sample overflows a float")
        return y

    return TargetDistribution(
        f"H{p}",
        {"p": p},
        symmetric=(p % 2 == 1),
        zero_mean=True,
        moment=lambda k: hermite_poly_moment(p, k),
        sampler=sampler,
        cf=GaussianCf(1) if p == 1 else None,
    )


# The laws of the operator families.  Each builder takes the values parsed
# against ``FAMILIES[family].params`` and returns the law's capabilities;
# ``get_target`` adds the canonical spec as name and the values.  Parameters
# become floats inside the samplers, so a law whose parameters are beyond
# float range still gives its metadata.


def _pn_law(p, sigma2) -> dict:
    p = int(p)
    cf = {1: GaussianCf, 2: ReciprocalSqrtCf}.get(p)

    def sampler(rng, n):
        # the stream and product order of standard_normal((p, n)).prod(axis=0),
        # with one row held at a time
        y = rng.standard_normal(n)
        for _ in range(p - 1):
            y *= rng.standard_normal(n)
        y *= float(sigma2) ** 0.5
        return y

    return dict(
        symmetric=True,
        zero_mean=True,
        moment=lambda k: gaussian_moment(k) ** p * sigma2 ** (k // 2),
        sampler=sampler,
        cf=None if cf is None else cf(sigma2),
        draws=p,
    )


def _prr_law(s) -> dict:
    return dict(symmetric=True, zero_mean=True)


def _g1x_law(r, lam, sigma2) -> dict:
    return dict(
        symmetric=True,
        zero_mean=True,
        sampler=lambda rng, n: (
            float(sigma2) ** 0.5 * rng.standard_normal(n)
            * rng.gamma(float(r), 1.0 / float(lam) ** 0.5, n)
        ),
    )


def _bg1_law(a, b, r) -> dict:
    return dict(
        symmetric=False,
        zero_mean=False,
        sampler=lambda rng, n: (
            rng.beta(float(a), float(b), n) * rng.gamma(float(r), 1.0, n)
        ),
    )


def _g1g2_law(r, s, lam) -> dict:
    def sampler(rng, n):
        scale = 1.0 / float(lam)
        return rng.gamma(float(r), scale, n) * rng.gamma(float(s), scale, n)

    return dict(symmetric=False, zero_mean=False, sampler=sampler)


TARGET_BUILDERS = {
    "PN": _pn_law,
    "PRR": _prr_law,
    "G1X": _g1x_law,
    "BG1": _bg1_law,
    "G1G2": _g1g2_law,
}

_GAUSSIAN_NAMES = ("gaussian", "N01")
_GAUSSIAN_PARAMS = (Param("sigma2", 1, POSITIVE),)

_HERMITE_NAME = re.compile(r"^H(\d+)$")
_HERMITE_INDEX = Param("p", None, INDEX)


def _target_params(name: str) -> tuple[Param, ...]:
    if name in FAMILIES:
        return FAMILIES[name].params
    if name in _GAUSSIAN_NAMES:
        return _GAUSSIAN_PARAMS
    if name == "semicircle" or _HERMITE_NAME.match(name):
        return ()
    raise UnknownTarget(name)


def target_names() -> list[str]:
    """Accepted target names; parameterised families by family name."""
    return sorted(
        [f"H{p}" for p in range(1, 9)] + ["gaussian", "semicircle", *FAMILIES]
    )


def get_target(spec: str) -> TargetDistribution:
    """Fetch a target law, e.g. get_target("PN:p=4,sigma2=1").

    Parameters follow the name after a colon.  Raises UnknownTarget for
    unknown names and BadParameter for invalid parameters.
    """
    family, values, name = parse_spec(spec, _target_params)
    if family in TARGET_BUILDERS:
        law = TARGET_BUILDERS[family](**values)
        return TargetDistribution(name, values, **law)
    if family in _GAUSSIAN_NAMES:  # N(0, sigma2) is PN at p = 1
        sigma2 = values["sigma2"]
        name = "gaussian" if sigma2 == 1 else f"gaussian:sigma2={sigma2}"
        return TargetDistribution(name, values, **_pn_law(1, sigma2))
    if family == "semicircle":
        return _semicircle_target()
    # H<p>, admitted by _target_params
    return _hermite_target(int(_HERMITE_INDEX.read("Hermite target", family[1:])))
