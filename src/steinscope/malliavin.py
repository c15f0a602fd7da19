"""Exact one-dimensional Malliavin Gamma calculus on Hermite chaos.

Random variables here are polynomial functionals F = f(X) of a single
standard Gaussian X, stored by their Hermite expansion f = sum_q c_q H_q
(probabilists' convention, exact rational coefficients).  The q-th Wiener
chaos is the span of H_q(X), so the Hermite coefficients ARE the chaos
decomposition, and every operator of the calculus acts coefficientwise:

  * the Malliavin derivative D sends c_q H_q to q c_q H_{q-1}
    (on functionals of one Gaussian, DF is just f'(X));
  * the Ornstein-Uhlenbeck generator L sends c_q H_q to -q c_q H_q;
  * its pseudo-inverse L^{-1} sends c_q H_q to -(c_q / q) H_q for q >= 1
    and kills the constant;
  * the carre du champ is Gamma[F, G] = (L(FG) - F LG - G LF) / 2, which
    for functionals of one Gaussian equals DF * DG pointwise;
  * the iterated Gamma operators are Gamma_0(F) = F and
    Gamma_r(F) = Gamma[F, -L^{-1} Gamma_{r-1}(F)], which in one dimension
    reduces to the ordinary product DF * (-D L^{-1} Gamma_{r-1}(F)).

This module owns the Hermite basis: ChaosElement is the one class that
holds Hermite coefficients, and ``hermite_product`` linearises H_a H_b.
Products are linearised back into the Hermite basis, so every quantity
(expectations, variances, moments, cumulants, residuals) is an exact
Fraction.  Higher moments E[F^k] come from ``algebra.gaussian_power_moments``
on F's monomial form.  The cumulant representation
r! E[Gamma_r(F)] = kappa_{r+1}(F) is checked literally against cumulants
computed from those moments.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, factorial

from .algebra import (
    RationalPoly,
    _SparseDict,
    accumulate,
    cumulants_from_moments,
    gaussian_power_moments,
    hermite_to_monomial,
)


class NotPureChaos(ValueError):
    """The argument must live in a single chaos level q >= 1."""


class ChaosElement(_SparseDict):
    """A polynomial functional sum_q c_q H_q(X) of one standard Gaussian.

    Exact rational coefficients, keyed by chaos level q >= 0.  Sums,
    differences and scalar multiples come from the shared sparse-dict ring;
    the product is linearised back into the Hermite basis.
    """

    __slots__ = ()

    def __init__(self, coeffs=None):
        super().__init__(coeffs)
        if any(q < 0 for q in self.c):
            raise ValueError("Hermite degree must be >= 0")

    def _product(self, other) -> dict:
        return accumulate(
            (q, ca * cb * v)
            for qa, ca in self.c.items()
            for qb, cb in other.c.items()
            for q, v in hermite_product(qa, qb).c.items()
        )

    def expectation(self) -> Fraction:
        """E[F]: the level-0 coefficient, by orthogonality."""
        return self.c.get(0, Fraction(0))

    def moment(self, k: int) -> Fraction:
        """E[F^k], exact, from the moment engine on the monomial form."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        return next(islice(gaussian_power_moments(self.to_poly()), k, None))

    def to_poly(self) -> RationalPoly:
        return sum((v * hermite_to_monomial(q) for q, v in self.c.items()), RationalPoly())

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"({v})*H{q}" for q, v in sorted(self.c.items()))


@lru_cache(maxsize=None)
def hermite_product(a: int, b: int) -> ChaosElement:
    """Linearisation H_a H_b = sum_r C(a,r) C(b,r) r! H_{a+b-2r}."""
    if a < 0 or b < 0:
        raise ValueError("Hermite degrees must be >= 0")
    return ChaosElement({
        a + b - 2 * r: comb(a, r) * comb(b, r) * factorial(r)
        for r in range(min(a, b) + 1)
    })


def _as_chaos(F) -> ChaosElement:
    if not isinstance(F, ChaosElement):
        raise TypeError(f"expected a ChaosElement, got {type(F).__name__}")
    return F


def malliavin_D(F) -> ChaosElement:
    """Malliavin derivative: c_q H_q -> q c_q H_{q-1} (i.e. f -> f')."""
    F = _as_chaos(F)
    return ChaosElement({q - 1: q * v for q, v in F.c.items() if q >= 1})


def ou_generator(F) -> ChaosElement:
    """Ornstein-Uhlenbeck generator L: c_q H_q -> -q c_q H_q."""
    F = _as_chaos(F)
    return ChaosElement({q: -q * v for q, v in F.c.items()})


def L_inverse(F) -> ChaosElement:
    """Pseudo-inverse of L: c_q H_q -> -(c_q/q) H_q for q >= 1; H_0 -> 0.

    L L^{-1} F = F - E[F] exactly; the constant chaos is outside the range
    of L, so it is projected away rather than inverted.
    """
    F = _as_chaos(F)
    return ChaosElement({q: -v / q for q, v in F.c.items() if q >= 1})


def carre_du_champ(F, G) -> ChaosElement:
    """Gamma[F, G] = (L(FG) - F LG - G LF) / 2, exact.

    For functionals of a single Gaussian this equals DF * DG; the identity
    is exercised as a property test rather than assumed here.
    """
    F, G = _as_chaos(F), _as_chaos(G)
    prod = F * G
    out = ou_generator(prod) - F * ou_generator(G) - G * ou_generator(F)
    return out * Fraction(1, 2)


def gamma_levels(F):
    """Gamma_0(F), Gamma_1(F), ... without end, each level from the one before.

    Gamma_0(F) = F and Gamma_r(F) = Gamma[F, -L^{-1} Gamma_{r-1}(F)] with
    Gamma[.,.] the carre du champ.  In one dimension this equals
    DF * (-D L^{-1} Gamma_{r-1}(F)), which is exercised as a property test
    rather than assumed.
    """
    out = F = _as_chaos(F)
    while True:
        yield out
        out = carre_du_champ(F, -L_inverse(out))


def gamma_r(F, r: int) -> ChaosElement:
    """Iterated Gamma operator Gamma_r(F), exact: level r of ``gamma_levels``.

    Note Gamma_1(F) is NOT Gamma[F, F]: on pure p-th chaos the two differ
    by a factor p.
    """
    if r < 0:
        raise ValueError("Gamma order must be >= 0")
    return next(islice(gamma_levels(F), r, None))


def check_cumulant_formula(F, r: int) -> tuple[Fraction, Fraction]:
    """Return (r! E[Gamma_r(F)], kappa_{r+1}(F)), both exact.

    The two sides agree for every polynomial functional; the right-hand
    side is computed independently from the exact moments E[F^k] via the
    standard moment-to-cumulant recursion, so equality is a genuine check
    of the Gamma recursion, not a restatement of it.
    """
    F = _as_chaos(F)
    lhs = factorial(r) * gamma_r(F, r).expectation()
    moments = list(islice(gaussian_power_moments(F.to_poly()), r + 2))
    rhs = cumulants_from_moments(moments.__getitem__, r + 1)
    return lhs, rhs


def check_linverse_square(F) -> ChaosElement:
    """Residual of the pure-chaos square identity; zero iff it holds.

    For F in a single chaos level p >= 1,

        L^{-1}(F^2) = L^{-1} Gamma_1(F) - (1/2p) (F^2 - E[F^2]),

    with Gamma_1(F) = Gamma[F, -L^{-1}F] computed through the carre du
    champ.  Returns the exact difference of the two sides; raises
    NotPureChaos when F straddles several levels (the identity genuinely
    fails there) or is constant.
    """
    F = _as_chaos(F)
    levels = [q for q in F.c]
    if len(levels) != 1 or levels[0] < 1:
        raise NotPureChaos(
            "the square identity needs a single chaos level p >= 1, "
            f"got levels {sorted(levels)}")
    p = levels[0]
    F2 = F * F
    lhs = L_inverse(F2)
    centred = F2 - ChaosElement({0: F2.expectation()})
    rhs = L_inverse(gamma_r(F, 1)) - centred * Fraction(1, 2 * p)
    return lhs - rhs


# The paper's characterisations of H3(X) and H4(X) by iterated Gammas, with
# G_r = Gamma_r(Y), as printed:
#   4.1  Y = H3:  G_5 - 153 G_3 - 27 Y G_2 + 324 G_1 - 486 (4 - Y^2)
#   4.2  Y = H3:  G_4 + 3 Y G_3 - 540 G_2 - 351 Y G_1 + 81 Y (4 - Y^2)
#   4.3  Y = H4:  G_3 - 60 G_2 + 16 (9 - Y) G_1 - 192 (6 + Y)(3 - Y)
# Each entry maps a label (an opaque token fixed by the report tooling's
# --check flag) to (p, {(r, j): c}), standing for sum c Y^j Gamma_r(Y) with
# Y = H_p(X); the key (0, j) stands for Y^j alone.
_IDENTITIES = {
    "4.1": (3, {(5, 0): 1, (3, 0): -153, (2, 1): -27, (1, 0): 324, (0, 0): -1944, (0, 2): 486}),
    "4.2": (3, {(4, 0): 1, (3, 1): 3, (2, 0): -540, (1, 1): -351, (0, 1): 324, (0, 3): -81}),
    "4.3": (4, {(3, 0): 1, (2, 0): -60, (1, 0): 144, (1, 1): -16,
                (0, 0): -3456, (0, 1): 576, (0, 2): 192}),
}


def identity_catalog() -> dict[str, str]:
    """Map of identity label -> name of the chaos element it constrains."""
    return {key: f"H{p}" for key, (p, _) in _IDENTITIES.items()}


def check_gamma_characterisation(check_id: str) -> ChaosElement:
    """Exact residual of a catalogued Gamma-polynomial combination.

    Each catalogued combination is a polynomial in Y and its iterated
    Gammas that is claimed to vanish identically for the stated target
    (Y = H3(X) for "4.1" and "4.2", Y = H4(X) for "4.3").  The residual is
    computed exactly, from Gamma_1(Y) .. Gamma_R(Y) and Y^0 .. Y^J each
    computed once, and returned verbatim -- a nonzero residual is a
    finding about the catalogued combination, not an error.
    """
    try:
        p, terms = _IDENTITIES[check_id]
    except KeyError:
        raise KeyError(
            f"unknown identity {check_id!r}; known: "
            + ", ".join(sorted(_IDENTITIES))) from None
    Y = ChaosElement({p: 1})
    gammas = list(islice(gamma_levels(Y), max(r for r, _ in terms) + 1))
    powers = [ChaosElement({0: 1})]
    for _ in range(max(j for _, j in terms)):
        powers.append(powers[-1] * Y)
    return sum((c * (powers[j] * gammas[r] if r else powers[j])
                for (r, j), c in terms.items()), ChaosElement())
