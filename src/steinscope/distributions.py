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

Every target name but H<p> is one row of one table, ``_TARGETS``: its
parameters, side conditions and capabilities.  The operator families (PN,
PRR, G1X, BG1, G1G2) take the parameters of ``operators.FAMILIES``, and
``get_target`` parses specs with the same ``operators.parse_spec`` as the
catalog, so a family's target is named by the operator's canonical spec.
The capabilities are module-level functions of the parameter values, so a
law is a value: two laws built from one spec are equal and hash alike.

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
    consumed by the sufficiency pipeline.  ``params`` holds the
    ``(key, value)`` pairs in parameter order, and the capabilities are
    called with the values after their own arguments, as ``oracle(k,
    *values)`` and ``sampler(rng, n, *values)``.  ``draws`` is what one sample
    counts against the Monte-Carlo budget: the p normal draws a PN:p sample
    multiplies, the degree p of the polynomial an H_p sample evaluates, and
    one for every other law.
    """

    name: str
    params: tuple[tuple[str, Fraction], ...]
    symmetric: bool
    zero_mean: bool
    oracle: Callable[..., Fraction] | None = None
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
        return self.oracle(int(k), *(value for _, value in self.params))

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
        for key, value in self.params:
            try:
                as_float = float(value)
            except OverflowError:
                raise ValueError(f"{_clip(self.name)}: parameter {key} does not fit "
                                 f"in a float") from None
            if value and not as_float:
                raise ValueError(f"{_clip(self.name)}: parameter {key} is nonzero "
                                 f"but rounds to 0.0 in a float")
        import numpy as np

        return self.sampler(np.random.default_rng(seed), int(n),
                            *(value for _, value in self.params))


# --- registry -----------------------------------------------------------------

# Parameters become floats inside the samplers, so a law whose parameters are
# beyond float range still gives its metadata.  The product samplers multiply
# each later draw into the first one's array, so a sample holds at most two
# arrays.


def _pn_oracle(k, p, sigma2):
    return gaussian_moment(k) ** int(p) * sigma2 ** (k // 2)


def _pn_sampler(rng, n, p, sigma2):
    # the stream and product order of standard_normal((p, n)).prod(axis=0),
    # with one row held at a time
    y = rng.standard_normal(n)
    for _ in range(int(p) - 1):
        y *= rng.standard_normal(n)
    y *= float(sigma2) ** 0.5
    return y


def _gaussian_oracle(k, sigma2):  # N(0, sigma2) is PN at p = 1
    return _pn_oracle(k, 1, sigma2)


def _gaussian_sampler(rng, n, sigma2):
    return _pn_sampler(rng, n, 1, sigma2)


def _g1x_sampler(rng, n, r, lam, sigma2):
    y = rng.standard_normal(n)
    y *= float(sigma2) ** 0.5
    y *= rng.gamma(float(r), 1.0 / float(lam) ** 0.5, n)
    return y


def _bg1_sampler(rng, n, a, b, r):
    y = rng.beta(float(a), float(b), n)
    y *= rng.gamma(float(r), 1.0, n)
    return y


def _g1g2_sampler(rng, n, r, s, lam):
    scale = 1.0 / float(lam)
    y = rng.gamma(float(r), scale, n)
    y *= rng.gamma(float(s), scale, n)
    return y


def _semicircle_oracle(k):  # C_r / 4^r at k = 2r, for the Catalan number C_r
    r = k // 2
    return Fraction(0 if k % 2 else comb(k, r) // (r + 1), 4**r)


def _semicircle_sampler(rng, n):  # 2 B - 1, in B's own array
    y = rng.beta(1.5, 1.5, n)
    y *= 2.0
    y -= 1.0
    return y


def _hermite_oracle(k, p):
    return hermite_poly_moment(int(p), k)


def _hermite_sampler(rng, n, p):
    import numpy as np

    p = int(p)
    try:
        coef = hermite_to_monomial(p).float_coefficients()
    except OverflowError as exc:
        raise ValueError(f"H{p}: {exc}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        y = float_horner(rng.standard_normal(n), coef)
    if not np.isfinite(y).all():
        raise ValueError(f"H{p}: a sample overflows a float")
    return y


# every target name but H<p>: its ordered parameters, symmetric, zero_mean,
# exact oracle and sampler; the operator families pair the parameters of
# ``operators.FAMILIES`` with their laws, and N01 is an alias of gaussian
_TARGETS = {
    "PN": (FAMILIES["PN"].params, True, True, _pn_oracle, _pn_sampler),
    "PRR": (FAMILIES["PRR"].params, True, True, None, None),
    "G1X": (FAMILIES["G1X"].params, True, True, None, _g1x_sampler),
    "BG1": (FAMILIES["BG1"].params, False, False, None, _bg1_sampler),
    "G1G2": (FAMILIES["G1G2"].params, False, False, None, _g1g2_sampler),
    **dict.fromkeys(("gaussian", "N01"), ((Param("sigma2", 1, POSITIVE),), True, True,
                                          _gaussian_oracle, _gaussian_sampler)),
    "semicircle": ((), True, True, _semicircle_oracle, _semicircle_sampler),
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
    return sorted([f"H{p}" for p in range(1, 9)]
                  + [name for name in _TARGETS if name != "N01"])


def get_target(spec: str) -> TargetDistribution:
    """Fetch a target law, e.g. get_target("PN:p=4,sigma2=1").

    Parameters follow the name after a colon.  Raises UnknownTarget for
    unknown names and BadParameter for invalid parameters.
    """
    family, values, name = parse_spec(spec, _target_params)
    if family in _TARGETS:
        symmetric, zero_mean, oracle, sampler = _TARGETS[family][1:]
    else:  # H<p>, admitted by _target_params
        p = _HERMITE_INDEX.read("Hermite target", family[1:])
        name, values = f"H{p}", {"p": p}
        symmetric, zero_mean, oracle, sampler = p % 2 == 1, True, _hermite_oracle, _hermite_sampler
    if family in ("gaussian", "N01"):  # N(0, sigma2) is named "gaussian" at sigma2 = 1
        sigma2 = values["sigma2"]
        name = "gaussian" if sigma2 == 1 else f"gaussian:sigma2={sigma2}"
    # a PN:p sample multiplies p normal draws, and an H<p> sample evaluates
    # a degree-p polynomial
    return TargetDistribution(name, tuple(values.items()), symmetric, zero_mean,
                              oracle, sampler, int(values.get("p", 1)))
