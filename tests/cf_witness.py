"""Closed-form characteristic functions: a float witness of the transform.

No steinscope command evaluates a characteristic function: the sufficiency
argument works on the transformed ODE alone.  The three closed forms here
are kept as an independent check that the ODE ``psi_transform`` builds is
solved by the characteristic functions of the laws it should annihilate:
the Gaussian (exp(-sigma2 t^2/2)), the semicircle (2 J_1(t)/t), and
PN(2, sigma2) ((1 + sigma2 t^2)^(-1/2)).

Characteristic-function derivatives are never computed by numerical
differencing.  Each closed form lives in a finite function basis that is
closed under d/dt (Gaussian weight times polynomials; Bessel functions over
powers of t; rational powers of 1 + sigma2 t^2 times monomials), so the j-th
derivative is obtained by exact recursion on basis coefficients followed by
a single floating-point evaluation.

``ode_residual`` evaluates an ODE over the Gaussian rationals
(``qi_witness.psi_transform``) on a t-grid against one candidate and
returns the worst normalised residual
|sum c_i phi^(i)| / (sum |c_i||phi^(i)| + 1).
"""

from fractions import Fraction

import numpy as np
from scipy import special

from steinscope.algebra import _as_fraction, accumulate, hermite_to_monomial

from qi_witness import GaussianRationalPoly


def eval_complex(poly: GaussianRationalPoly, t: float) -> complex:
    """Evaluate a polynomial over Q(i) at a float point as a complex number."""
    # plain (non-Horner) evaluation is fine for the modest degrees here
    acc = 0j
    for d, v in poly.c.items():
        acc += complex(float(v.re), float(v.im)) * t ** d
    return acc


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


def default_ode_grid() -> np.ndarray:
    """64 log-spaced points in [0.1, 10]; avoids the singular point t = 0."""
    return np.geomspace(0.1, 10.0, 64)


def ode_residual(ode, cf, grid=None) -> float:
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
            c = eval_complex(poly, t)
            phi = complex(cf(t, i))
            num += c * phi
            den += abs(c) * abs(phi)
        worst = max(worst, abs(num) / den)
    return worst
