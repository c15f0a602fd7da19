"""Target laws: exact moment oracles and seeded samplers.

A TargetDistribution is an immutable named tuple bundling up to two
capabilities behind one name:

* an exact moment ``oracle``, read by ``moment(k)`` as a Fraction.  The laws
  that carry one are the Hermite targets H_p(X) with X ~ N(0,1), the product
  normal laws PN(p, sigma2), the centred Gaussian, and the centred
  semicircle; their moments are rational and computed exactly.  The H_p
  moments come from ``algebra.gaussian_power_moments`` (integer powers of
  H_p in monomials), extended on demand and kept per p, up to the degree
  budget ``budgets.MAX_HERMITE_DEGREE`` on p*k.
* a seeded ``sampler``, read by ``sample(n, seed)``, drawing i.i.d.
  replicates with numpy.  Samplers are stateless: concurrent use derives
  per-task seeds as ``seed + task_index``.

The Beta/Gamma product laws (G1X, BG1, G1G2) ship samplers and metadata but
no exact oracle; recurrence checks for them run in Monte-Carlo mode.  The
PRR target ships metadata only, symmetric and zero-mean, and names no law:
the operator's k = 0 moment row (1 - 2s) E[W] = 0 forces mean zero, and the
sufficiency pipeline works from the operator alone, so it needs neither a
sampler nor an oracle.

Every target name but H<p> is one (parameters, law builder) entry of one
table: the operator families (PN, PRR, G1X, BG1, G1G2) pair the parameters
of ``operators.FAMILIES`` with their laws in ``TARGET_BUILDERS``, and
``get_target`` parses specs with the same ``operators.parse_spec`` as the
catalog, so a family's target is named by the operator's canonical spec.
Each ``get_target`` call makes fresh closures, so two laws from one spec are not equal.

numpy is imported inside the sampling code that computes with it, so the
exact moment oracles do not load it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Callable, NamedTuple

from .algebra import (
    _clip,
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


# --- the target type ----------------------------------------------------------

class TargetDistribution(NamedTuple):
    """A named target law bundling whichever capabilities it supports.

    Capabilities are optional: ``moment`` raises NoExactOracle when the law
    has no exact ``oracle``, and ``sample`` raises NotImplementedError for
    analysis-only targets.  ``meta`` is the side-condition dictionary
    consumed by the sufficiency pipeline.  ``draws`` is what one sample
    counts against the Monte-Carlo budget: the p normal draws a PN:p sample
    multiplies, the degree p of the polynomial an H_p sample evaluates, and
    one for every other law.
    """

    name: str
    params: dict
    symmetric: bool
    zero_mean: bool
    oracle: Callable[[int], Fraction] | None = None
    sampler: Callable | None = None
    draws: int = 1

    @property
    def meta(self) -> dict:
        """Side conditions for the sufficiency pipeline."""
        return {"symmetric": self.symmetric, "zero_mean": self.zero_mean}

    def moment(self, k: int) -> Fraction:
        """E[Y^k], exact."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if self.oracle is None:
            raise NoExactOracle(f"{self.name} has no exact moment oracle")
        return self.oracle(int(k))

    def sample(self, n: int, seed=0) -> np.ndarray:
        """n i.i.d. draws; reproducible for a fixed integer seed.

        A parameter beyond float range, or a nonzero one that rounds to 0.0
        in a float, raises ValueError naming it.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.sampler is None:
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

        return self.sampler(np.random.default_rng(seed), int(n))


# --- registry -----------------------------------------------------------------

# The law builders.  Each takes the values parsed against its target's
# parameters and returns the law's capabilities; ``get_target`` adds the
# canonical spec as name and the values.  Parameters become floats inside the
# samplers, so a law whose parameters are beyond float range still gives its
# metadata.  The product samplers multiply each later draw into the first
# one's array, so a sample holds at most two arrays.


def _pn_law(p, sigma2) -> dict:
    p = int(p)

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
        oracle=lambda k: gaussian_moment(k) ** p * sigma2 ** (k // 2),
        sampler=sampler,
        draws=p,
    )


def _prr_law(s) -> dict:
    return dict(symmetric=True, zero_mean=True)


def _g1x_law(r, lam, sigma2) -> dict:
    def sampler(rng, n):
        y = rng.standard_normal(n)
        y *= float(sigma2) ** 0.5
        y *= rng.gamma(float(r), 1.0 / float(lam) ** 0.5, n)
        return y

    return dict(symmetric=True, zero_mean=True, sampler=sampler)


def _bg1_law(a, b, r) -> dict:
    def sampler(rng, n):
        y = rng.beta(float(a), float(b), n)
        y *= rng.gamma(float(r), 1.0, n)
        return y

    return dict(symmetric=False, zero_mean=False, sampler=sampler)


def _g1g2_law(r, s, lam) -> dict:
    def sampler(rng, n):
        scale = 1.0 / float(lam)
        y = rng.gamma(float(r), scale, n)
        y *= rng.gamma(float(s), scale, n)
        return y

    return dict(symmetric=False, zero_mean=False, sampler=sampler)


def _gaussian_law(sigma2) -> dict:
    """N(0, sigma2) is PN at p = 1; it is named "gaussian" at sigma2 = 1."""
    name = "gaussian" if sigma2 == 1 else f"gaussian:sigma2={sigma2}"
    return dict(_pn_law(1, sigma2), name=name)


def _semicircle_law() -> dict:
    def oracle(k: int) -> Fraction:  # C_r / 4^r at k = 2r, for the Catalan number C_r
        r = k // 2
        return Fraction(0 if k % 2 else comb(k, r) // (r + 1), 4**r)

    def sampler(rng, n):  # 2 B - 1, in B's own array
        y = rng.beta(1.5, 1.5, n)
        y *= 2.0
        y -= 1.0
        return y

    return dict(symmetric=True, zero_mean=True, oracle=oracle, sampler=sampler)


def _hermite_law(p: int) -> dict:
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

    return dict(
        symmetric=(p % 2 == 1),
        zero_mean=True,
        oracle=lambda k: hermite_poly_moment(p, k),
        sampler=sampler,
        draws=p,
    )


TARGET_BUILDERS = {
    "PN": _pn_law,
    "PRR": _prr_law,
    "G1X": _g1x_law,
    "BG1": _bg1_law,
    "G1G2": _g1g2_law,
}

# every target name but H<p>: (its ordered parameters, its law builder)
_TARGETS = {
    **{family: (FAMILIES[family].params, law) for family, law in TARGET_BUILDERS.items()},
    **dict.fromkeys(("gaussian", "N01"), ((Param("sigma2", 1, POSITIVE),), _gaussian_law)),
    "semicircle": ((), _semicircle_law),
}

_HERMITE_NAME = re.compile(r"^H(\d+)$")
_HERMITE_INDEX = Param("p", None, INDEX)


def _target_params(name: str) -> tuple[Param, ...]:
    if name in _TARGETS:
        return _TARGETS[name][0]
    if _HERMITE_NAME.match(name):
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
    if family in _TARGETS:  # a builder may rename its law
        law = {"name": name, "params": values} | _TARGETS[family][1](**values)
        return TargetDistribution(**law)
    # H<p>, admitted by _target_params
    p = _HERMITE_INDEX.read("Hermite target", family[1:])
    return TargetDistribution(f"H{p}", {"p": p}, **_hermite_law(int(p)))
