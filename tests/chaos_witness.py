"""The Malliavin calculus of one Gaussian by its definitions: a test witness.

``steinscope gamma`` computes the iterated Gamma operators by a shortcut
(``malliavin.gamma_levels``): -D L^{-1} shifts c_q H_q to c_q H_{q-1}, so
Gamma_r(F) = DF * shift(Gamma_{r-1}(F)), one product per level.  This
module keeps the textbook calculus the shortcut replaced, as the reference
the tests compare it with.  Every operator acts on the Hermite
coefficients of F = sum_q c_q H_q(X):

  * the Malliavin derivative D sends c_q H_q to q c_q H_{q-1} (DF = f'(X));
  * the Ornstein-Uhlenbeck generator L sends c_q H_q to -q c_q H_q;
  * its pseudo-inverse L^{-1} sends c_q H_q to -(c_q / q) H_q for q >= 1
    and kills the constant;
  * the carre du champ is Gamma[F, G] = (L(FG) - F LG - G LF) / 2;
  * Gamma_0(F) = F and Gamma_r(F) = Gamma[F, -L^{-1} Gamma_{r-1}(F)]
    (Nourdin and Peccati, "Cumulants on the Wiener space", J. Funct. Anal.
    258, 2010): three products and the generator per level.

It also keeps what no command reads: E[F], the monomial form of F, the
moments E[F^k] from ``algebra.gaussian_power_moments``, cumulants from
moments by the standard recursion, and the cumulant identity
r! E[Gamma_r(F)] = kappa_{r+1}(F), whose right-hand side comes from the
moments, not from the Gamma recursion.
"""

from fractions import Fraction
from itertools import islice
from math import comb, factorial

from steinscope.algebra import (
    RationalPoly,
    _as_fraction,
    gaussian_power_moments,
    hermite_to_monomial,
)
from steinscope.malliavin import ChaosElement


def malliavin_D(F) -> ChaosElement:
    """Malliavin derivative: c_q H_q -> q c_q H_{q-1} (i.e. f -> f')."""
    return ChaosElement({q - 1: q * v for q, v in F.c.items() if q})


def ou_generator(F) -> ChaosElement:
    """Ornstein-Uhlenbeck generator L: c_q H_q -> -q c_q H_q."""
    return ChaosElement({q: -q * v for q, v in F.c.items()})


def L_inverse(F) -> ChaosElement:
    """Pseudo-inverse of L: c_q H_q -> -(c_q/q) H_q for q >= 1; H_0 -> 0.

    L L^{-1} F = F - E[F]: the constant chaos is outside the range of L,
    so it is projected away rather than inverted.
    """
    return ChaosElement({q: -v / q for q, v in F.c.items() if q})


def carre_du_champ(F, G) -> ChaosElement:
    """Gamma[F, G] = (L(FG) - F LG - G LF) / 2, exact."""
    out = ou_generator(F * G) - F * ou_generator(G) - G * ou_generator(F)
    return out * Fraction(1, 2)


def gamma_r(F, r: int) -> ChaosElement:
    """Gamma_r(F) by its definition, Gamma_r = Gamma[F, -L^{-1} Gamma_{r-1}].

    Gamma_1(F) is NOT Gamma[F, F]: on pure p-th chaos the two differ by a
    factor p.
    """
    if r < 0:
        raise ValueError("Gamma order must be >= 0")
    out = F
    for _ in range(r):
        out = carre_du_champ(F, -L_inverse(out))
    return out


def expectation(F) -> Fraction:
    """E[F]: the level-0 coefficient, by orthogonality."""
    return F.coeff(0)


def to_poly(F) -> RationalPoly:
    """F as a polynomial in X, in monomials."""
    return sum((v * hermite_to_monomial(q) for q, v in F.c.items()), RationalPoly())


def moment(F, k: int) -> Fraction:
    """E[F^k], exact, from the moment engine on the monomial form."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return next(islice(gaussian_power_moments(to_poly(F)), k, None))


def cumulants_from_moments(moment_oracle, r: int) -> Fraction:
    """kappa_r from a moment oracle, by the standard recursion.

    kappa_n = mu_n - sum_{m=1}^{n-1} C(n-1, m-1) kappa_m mu_{n-m}.
    """
    if r < 1:
        raise ValueError("cumulant order must be >= 1")
    mu = [Fraction(1)] + [_as_fraction(moment_oracle(n)) for n in range(1, r + 1)]
    kappa = [Fraction(0)]
    for n in range(1, r + 1):
        kappa.append(mu[n] - sum(
            comb(n - 1, m - 1) * kappa[m] * mu[n - m] for m in range(1, n)))
    return kappa[r]


def check_cumulant_formula(F, r: int) -> tuple[Fraction, Fraction]:
    """Return (r! E[Gamma_r(F)], kappa_{r+1}(F)), both exact.

    The right-hand side comes from the moments E[F^k] of one engine run,
    so equality checks the Gamma recursion rather than restating it.
    """
    lhs = factorial(r) * expectation(gamma_r(F, r))
    moments = list(islice(gaussian_power_moments(to_poly(F)), r + 2))
    return lhs, cumulants_from_moments(moments.__getitem__, r + 1)
