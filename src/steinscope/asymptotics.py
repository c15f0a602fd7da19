"""Asymptotic analysis of characteristic-function ODEs at t = 0.

Every tool here works on a ``CfOde`` (sum_i c_i(t) phi^{(i)}(t) = 0 with
Gaussian-rational polynomial coefficients) and asks one question: which
solution directions near t = 0 are compatible with phi being a
characteristic function?  A characteristic function satisfies phi(0) = 1,
|phi| <= 1, is k-times differentiable at 0 when the k-th absolute moment is
finite, and is real-valued for symmetric laws.  Solution directions that
violate one of these properties are excluded; if at most one admissible
direction remains (or the moment recurrence pins every moment), the operator
characterises its target.

The analysis is exact throughout:

* ``classify_singularity`` applies the valuation test to the c_i.
* ``indicial_roots`` computes the Frobenius indicial polynomial at a regular
  singular point, extracts its rational roots with multiplicity
  (``algebra.rational_roots``), and decides the log cases:
  repeated roots, and integer-gap roots, where a log term enters iff the
  forcing at the gap index is nonzero.  With one level above the indicial
  one that is read off the rational roots of the two level polynomials;
  with more, the exact series recurrence is walked within
  ``budgets.LOG_WALK_TERMS`` terms, and a longer gap leaves the verdict
  inconclusive.
* ``dominant_balance`` substitutes the ansatz phi = e^{S(t)},
  S'(t) = A t^{-1-gamma}, and reads the balances off the lower Newton
  polygon of the points (derivative order k, valuation of c_k).  Edges of
  slope sigma > 1 give exponential branches S ~ A_S t^{-gamma} with
  gamma = sigma - 1, A_S = -A/gamma and A^d = rho = -l_{k1}/l_{k2}
  (endpoint coefficients, with d = k2 - k1 directions), and each keeps rho
  and its edge (k1, k2); slope-1 edges give power branches phi ~ t^alpha
  with alpha a root of the edge polynomial; edges of slope < 1 contribute
  bounded directions.  Magnitudes are stored as exact pairs
  (rational, root index) with |A_S| = pair[0]^(1/pair[1]), and phases as
  exact rational multiples of pi, using the principal root
  (-1)^(1/d) = e^{i pi/d}.
* ``power_correction`` refines an exponential branch with the two-term
  ansatz S = A_S t^{-gamma} + a log t.  By the closed form
  phi^{(k)}/phi = A^k t^{-k(1+gamma)}
  + A^{k-1} (k a - (1+gamma) k(k-1)/2) t^{-k(1+gamma)+gamma} + ...,
  each ODE monomial feeds at most the balance level and the level gamma
  above it; the first must cancel in Q(i)[A]/(A^d - rho) and the second,
  linear in a, fixes a.  Anything below the balance, between the two
  levels, inconsistent, or unconstrained raises ``CorrectionNotLinear``.
* ``classify_branch`` turns a branch into an exclusion: real-part signs of
  A_S t^{-gamma} on each side of 0 (principal continuation on t < 0, so the
  left-side phase is theta - gamma) detect blow-up; oscillatory branches
  refined to phi ~ t^a e^{S} violate the k-th derivative at
  k* = min{k >= 0 : a - k(gamma + 1) <= 0}; decaying complex branches are
  excluded for symmetric targets, except when a surviving conjugate pair
  (theta, 2 - theta) admits a real linear combination, which no symmetry
  argument can exclude.
* ``verdict_for_ode`` runs the pipeline on the ODE and the side conditions
  alone, and ``characterisation_verdict`` runs it on an operator's
  transform: first-order ODEs characterise outright; regular singular
  points are handled through the indicial roots; ordinary and irregular
  ones through dominant balance plus corrections; if several admissible
  directions remain, the exact moment recurrence of the operator
  ``psi_inverse`` recovers from the ODE is solved symbolically to see
  whether the target's moments are pinned, optionally consuming the side
  conditions zero_mean and/or symmetry.  Verdicts report exactly the
  conditions consumed.

The module also ships the leading-order ODE coefficients for the degree-7
and degree-8 Hermite targets (``H7_LEADING_ODE``, ``H8_LEADING_ODE``); their
full minimal operators are too large to bundle, but the leading coefficients
determine the branch structure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (QI, GaussianRationalPoly, RationalPoly, accumulate, falling_poly,
                      fraction_nth_root, rational_roots)
from .budgets import LOG_WALK_TERMS
from .operators import (CfOde, NotInImage, SteinOperator, moment_recurrence, psi_inverse,
                        psi_transform)


class NotRegularSingular(ValueError):
    """Indicial analysis requested away from a regular singular point."""


class NoBalance(ValueError):
    """The Newton polygon does not yield exact balances of the supported form."""


class CorrectionNotLinear(ValueError):
    """The refinement S = A_S t^-gamma + a log t has no consistent linear solution."""


# --- exact trigonometric sign and branch magnitude ---------------------------


def _cos_pi_sign(q: Fraction) -> int:
    """Sign of cos(pi * q) for rational q: +1, 0, or -1, exactly."""
    q = Fraction(q) % 2
    if q == Fraction(1, 2) or q == Fraction(3, 2):
        return 0
    return 1 if (q < Fraction(1, 2) or q > Fraction(3, 2)) else -1


def _frac_str(x) -> str | None:
    return None if x is None else str(Fraction(x))


def _canonical_magnitude(mag_pow: Fraction, root: int) -> tuple[Fraction, int]:
    """Reduce (mag_pow, root) so that the root index is minimal.

    The represented magnitude is mag_pow^(1/root); e.g. (27/4096, 3)
    reduces to (3/16, 1) and (16, 4) to (2, 1), while (1/54, 2) is already
    minimal.
    """
    for e in range(1, root + 1):
        if root % e:
            continue
        r = fraction_nth_root(mag_pow, root // e)
        if r is not None:
            return (r, e)
    return (mag_pow, root)


# --- singularity classification ---------------------------------------------


class SingularityClass:
    """Classification of t = 0 plus the per-coefficient valuations.

    kind is "ordinary" when val(c_i) >= val(c_n) for all i, "regular_singular"
    when val(c_i) >= val(c_n) - (n - i) for all i (but not ordinary), and
    "irregular_singular" otherwise.  Zero coefficients have valuation None
    (infinite) and never violate either test.
    """

    __slots__ = ("kind", "pole_orders")

    def __init__(self, kind: str, pole_orders):
        self.kind = kind
        self.pole_orders = tuple(pole_orders)

    def __eq__(self, other):
        if isinstance(other, SingularityClass):
            return (self.kind, self.pole_orders) == (other.kind, other.pole_orders)
        return NotImplemented

    def as_json(self) -> dict:
        return {"kind": self.kind, "valuations": list(self.pole_orders)}

    def __repr__(self):
        return f"SingularityClass({self.kind}, valuations={self.pole_orders})"


def classify_singularity(ode: CfOde) -> SingularityClass:
    """Classify the point t = 0 of the ODE by the standard valuation test."""
    n = ode.order
    vals = [c.valuation() for c in ode.coeffs]
    w = vals[n]
    if all(v is None or v >= w for v in vals):
        kind = "ordinary"
    elif all(v is None or v >= w - (n - i) for i, v in enumerate(vals)):
        kind = "regular_singular"
    else:
        kind = "irregular_singular"
    return SingularityClass(kind, vals)


# --- Frobenius indicial analysis ---------------------------------------------

class IndicialRoot:
    """One indicial root: exponent, multiplicity, and log obstruction.

    ``log_exponent`` is the t-exponent at which a log t factor enters the
    root's primary series solution (None when the series is log-free).  For
    a repeated root the primary solution is log-free and the extra
    solutions carry log factors at the root itself.
    """

    __slots__ = ("alpha", "multiplicity", "log_exponent")

    def __init__(self, alpha: Fraction, multiplicity: int, log_exponent=None):
        self.alpha = Fraction(alpha)
        self.multiplicity = int(multiplicity)
        self.log_exponent = None if log_exponent is None else Fraction(log_exponent)

    def as_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "multiplicity": self.multiplicity,
            "log_exponent": _frac_str(self.log_exponent),
        }

    def __repr__(self):
        tail = "" if self.log_exponent is None else f", log@t^{self.log_exponent}"
        return f"IndicialRoot({self.alpha}, mult={self.multiplicity}{tail})"


class IndicialRoots:
    """Indicial roots of a regular singular point.

    ``residual`` is the part of the indicial polynomial that has no rational
    roots (a nonzero constant when everything factored); it is surfaced so a
    partial factorisation is never silently treated as complete.
    ``undecided`` names each root whose log test ran past LOG_WALK_TERMS.
    """

    __slots__ = ("roots", "polynomial", "residual", "undecided")

    def __init__(self, roots, polynomial: RationalPoly, residual: RationalPoly, undecided=()):
        self.roots = tuple(roots)
        self.polynomial = polynomial
        self.residual = residual
        self.undecided = tuple(undecided)

    def fully_factored(self) -> bool:
        return self.residual.degree() <= 0

    def as_json(self) -> dict:
        return {
            "roots": [r.as_json() for r in self.roots],
            "polynomial": str(self.polynomial),
            "residual": None if self.fully_factored() else str(self.residual),
        }

    def __repr__(self):
        return f"IndicialRoots({list(self.roots)})"


def _level_polynomials(ode: CfOde) -> dict[int, GaussianRationalPoly]:
    """P_r(beta) = sum over monomials c_{k,d} t^d D^k at level r of c_{k,d} (beta)_k.

    Level r counts t-powers above the indicial level: a monomial sits at
    r = (d - k) - (w - n) where w = val(c_n).  P_0 is the indicial
    polynomial; the Frobenius series recurrence is
    P_0(alpha + m) u_m = -sum_{r>=1} P_r(alpha + m - r) u_{m-r}.
    """
    n = ode.order
    w = ode.coeffs[n].valuation()
    return accumulate(
        ((d - k) - (w - n), falling_poly(k).to_gaussian() * v)
        for k, c in enumerate(ode.coeffs)
        for d, v in c.c.items()
    )


def _qi_rational_roots(poly: GaussianRationalPoly) -> list[Fraction]:
    """Distinct rational roots of a nonzero polynomial over Q(i).

    A rational beta is a root exactly when both the real and the imaginary
    part vanish there.
    """
    re = RationalPoly({d: v.re for d, v in poly.c.items()})
    im = RationalPoly({d: v.im for d, v in poly.c.items()})
    first, other = (re, im) if not re.is_zero() else (im, re)
    return [beta for beta in rational_roots(first)[0] if not other(beta)]


def _chain_log(alpha: Fraction, alphas: list, step: int, p_step) -> Fraction | None:
    """Log exponent of the simple root alpha when P_step is the only level above P_0.

    The recurrence P_0(alpha + m) u_m = -P_step(alpha + m - step) u_{m-step}
    leaves u_m nonzero only on the chain m = step, 2 step, ... .  The chain
    dies at the first exponent alpha + m = beta + step with beta a root of
    P_step (the forcing there is zero, so no log enters at it), and a log
    enters at the first other indicial root the live chain reaches.
    """

    def on_chain(e: Fraction) -> bool:
        m = e - alpha
        return m > 0 and m.denominator == 1 and m % step == 0

    ends = [beta + step for beta in _qi_rational_roots(p_step)]
    dies = min(filter(on_chain, ends), default=None)
    return min((e for e in alphas if on_chain(e) and (dies is None or e < dies)), default=None)


def _walk_log(alpha: Fraction, gap: int, p0, higher: list) -> Fraction | None:
    """Log exponent of the simple root alpha from the series terms u_1 .. u_gap."""
    u = [QI(1)]
    for m in range(1, gap + 1):
        forcing = QI(0)
        for r, pr in higher:
            if r > m:
                break
            forcing = forcing + pr(alpha + m - r) * u[m - r]
        head = p0(alpha + m)
        if head:
            u.append(-forcing / head)
        elif forcing:
            return alpha + m
        else:
            u.append(QI(0))  # free coefficient; fix the log-free choice
    return None


def indicial_roots(ode: CfOde) -> IndicialRoots:
    """Frobenius indicial roots at t = 0, with multiplicities and log flags.

    A simple root alpha with a larger root at an integer gap may carry a log
    term.  With no level above P_0 it never does; with one level it is read
    off the root sets by ``_chain_log``; with more, the series is walked term
    by term, up to LOG_WALK_TERMS terms.  A root whose gap exceeds that
    budget is listed in ``undecided``.
    """
    sing = classify_singularity(ode)
    if sing.kind != "regular_singular":
        raise NotRegularSingular(
            f"indicial analysis needs a regular singular point, got {sing.kind}"
        )
    levels = _level_polynomials(ode)
    p0 = levels[0]
    poly = p0.real_form()
    if poly is None:
        # mixed real/imaginary indicial coefficients: no rational roots; the
        # whole polynomial is surfaced as the unfactored residual
        return IndicialRoots((), RationalPoly(), p0)
    roots, residual = rational_roots(poly)
    higher = sorted((r, p) for r, p in levels.items() if r > 0)

    entries, undecided = [], []
    alphas = sorted(roots)
    for alpha in alphas:
        gaps = [int(e - alpha) for e in alphas if e > alpha and (e - alpha).denominator == 1]
        gap = max(gaps, default=0)
        log_exp = None
        if roots[alpha] == 1 and gap and higher:
            if len(higher) == 1:
                log_exp = _chain_log(alpha, alphas, *higher[0])
            elif gap <= LOG_WALK_TERMS:
                log_exp = _walk_log(alpha, gap, p0, higher)
            else:
                undecided.append(
                    f"log test for root {alpha} undecided: its integer gap {gap} "
                    f"exceeds the series budget LOG_WALK_TERMS = {LOG_WALK_TERMS}"
                )
        entries.append(IndicialRoot(alpha, roots[alpha], log_exp))
    return IndicialRoots(entries, poly, residual, undecided)


# --- Newton polygon and dominant balance -------------------------------------


class AsymptoticBranch:
    """One leading solution behaviour near t = 0.

    kind "bounded": S' = O(1); ``multiplicity`` such directions.
    kind "exponential": S ~ A_S t^{-gamma} with |A_S| = mag_pow^(1/mag_root)
    and arg(A_S) = phase * pi; A_S = -A/gamma with A^d = ``rho`` and
    d = k2 - k1 for the Newton-polygon ``edge`` (k1, k2).
    ``power_exponent`` is the refinement exponent a in phi ~ t^a e^{S} once
    ``power_correction`` has run.
    kind "logarithmic": S ~ alpha log t, i.e. phi ~ t^alpha, with
    alpha = ``power_exponent`` (reported again as ``log_coeff``);
    ``log_exponent`` marks a t^e log t term when the series carries one
    (regular singular roots).
    """

    __slots__ = (
        "kind",
        "multiplicity",
        "gamma",
        "mag_pow",
        "mag_root",
        "phase",
        "power_exponent",
        "log_exponent",
        "rho",
        "edge",
    )

    def __init__(
        self,
        kind: str,
        multiplicity: int = 1,
        gamma=None,
        mag_pow=None,
        mag_root=None,
        phase=None,
        power_exponent=None,
        log_exponent=None,
        rho=None,
        edge=None,
    ):
        if kind not in ("bounded", "exponential", "logarithmic"):
            raise ValueError(f"unknown branch kind {kind!r}")
        self.kind = kind
        self.multiplicity = int(multiplicity)
        self.gamma = None if gamma is None else Fraction(gamma)
        self.mag_pow = None if mag_pow is None else Fraction(mag_pow)
        self.mag_root = None if mag_root is None else int(mag_root)
        self.phase = None if phase is None else Fraction(phase) % 2
        self.power_exponent = (
            None if power_exponent is None else Fraction(power_exponent)
        )
        self.log_exponent = None if log_exponent is None else Fraction(log_exponent)
        self.rho = rho
        self.edge = edge

    @property
    def magnitude_pair(self) -> tuple[Fraction, int] | None:
        if self.mag_pow is None:
            return None
        return (self.mag_pow, self.mag_root)

    def describe(self) -> str:
        if self.kind == "bounded":
            return f"bounded x{self.multiplicity}"
        if self.kind == "logarithmic":
            s = f"phi ~ t^{self.power_exponent}"
            if self.log_exponent is not None:
                s += f" with t^{self.log_exponent} log t term"
            return s
        mag = f"{self.mag_pow}" if self.mag_root == 1 else f"({self.mag_pow})^(1/{self.mag_root})"
        s = f"S ~ {mag} e^(i pi {self.phase}) t^(-{self.gamma})"
        if self.power_exponent is not None:
            s += f", phi ~ t^{self.power_exponent} e^S"
        return s

    def as_json(self) -> dict:
        return {
            "kind": self.kind,
            "multiplicity": self.multiplicity,
            "gamma": _frac_str(self.gamma),
            "magnitude": None
            if self.mag_pow is None
            else {"power": str(self.mag_pow), "root": self.mag_root},
            "phase_over_pi": _frac_str(self.phase),
            "power_exponent": _frac_str(self.power_exponent),
            "log_coeff": _frac_str(self.power_exponent)
            if self.kind == "logarithmic"
            else None,
            "log_exponent": _frac_str(self.log_exponent),
        }

    def __repr__(self):
        return f"AsymptoticBranch({self.describe()})"


def _newton_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower convex hull of (k, val) points, k strictly increasing."""
    hull: list[tuple[int, int]] = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def dominant_balance(ode: CfOde) -> list[AsymptoticBranch]:
    """Leading solution behaviours at t = 0 from the Newton polygon.

    Returns one bounded branch (with multiplicity) when bounded directions
    exist, one logarithmic branch per rational root of each slope-1 edge
    polynomial, and d exponential branches per slope-sigma edge (sigma > 1)
    with binomial balance l_{k1} + l_{k2} A^d = 0.  The branch multiplicities
    sum to the ODE order whenever c_0 != 0.
    """
    n = ode.order
    points = [(k, c.valuation()) for k, c in enumerate(ode.coeffs) if not c.is_zero()]
    if len(points) < 1:
        raise NoBalance("empty ODE")
    hull = _newton_hull(points)
    vals = {k: v for k, v in points}
    branches: list[AsymptoticBranch] = []
    bounded = points[0][0]  # orders below the first nonzero coefficient
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        slope = Fraction(v2 - v1, k2 - k1)
        on_edge = [
            k
            for k in range(k1, k2 + 1)
            if k in vals and Fraction(vals[k] - v1) == slope * (k - k1)
        ]
        if slope < 1:
            bounded += k2 - k1
            continue
        if slope == 1:
            # power balance: phi ~ t^alpha with sum l_k (alpha)_k = 0; the
            # factor (alpha)_{k1} common to every term is an artifact of
            # lower-order terms, so the edge polynomial starts at k1
            lead = sum(
                (falling_poly(k, k1).to_gaussian() * ode.coeffs[k].coeff(v1 + (k - k1))
                 for k in on_edge),
                GaussianRationalPoly(),
            )
            poly = lead.real_form()
            if poly is None:
                raise NoBalance("slope-1 edge with mixed-unit coefficients")
            roots, residual = rational_roots(poly)
            if residual.degree() > 0:
                raise NoBalance(
                    f"slope-1 edge exponents are not rational (residual {residual})"
                )
            branches += [
                AsymptoticBranch("logarithmic", gamma=Fraction(0), power_exponent=alpha)
                for alpha in sorted(roots)
                for _ in range(roots[alpha])
            ]
            continue
        # exponential balance
        if len(on_edge) > 2:
            raise NoBalance("multi-term exponential balance is not binomial")
        d = k2 - k1
        l1 = ode.coeffs[k1].coeff(v1)
        l2 = ode.coeffs[k2].coeff(v2)
        rho = -l1 / l2
        gamma = slope - 1
        if rho.re and rho.im:
            raise NoBalance(
                "exponential balance coefficient lies off the real/imaginary axes"
            )
        if rho.re:
            theta_rho = Fraction(0) if rho.re > 0 else Fraction(1)
            mag_rho = abs(rho.re)
        else:
            theta_rho = Fraction(1, 2) if rho.im > 0 else Fraction(3, 2)
            mag_rho = abs(rho.im)
        mag_pow, mag_root = _canonical_magnitude(mag_rho / gamma**d, d)
        # A = rho^(1/d) e^{2 pi i j/d} and A_S = -A/gamma, so arg A_S = arg A + pi
        branches += [
            AsymptoticBranch(
                "exponential",
                gamma=gamma,
                mag_pow=mag_pow,
                mag_root=mag_root,
                phase=(Fraction(theta_rho + 2 * j, d) + 1) % 2,
                rho=rho,
                edge=(k1, k2),
            )
            for j in range(d)
        ]
    out = []
    if bounded:
        out.append(AsymptoticBranch("bounded", multiplicity=bounded))
    return out + branches


# --- power/log correction -----------------------------------------------------


def power_correction(ode: CfOde, branch: AsymptoticBranch) -> Fraction:
    """Log-correction coefficient a in S = A_S t^{-gamma} + a log t.

    With S' = A t^{-1-gamma} + a/t (A = -gamma A_S), the recursion
    B_{k+1} = B_k' + S' B_k for phi^{(k)}/phi = B_k gives

        B_k = A^k t^{-k(1+gamma)}
              + A^{k-1} (k a - (1+gamma) k(k-1)/2) t^{-k(1+gamma)+gamma}
              + O(t^{-k(1+gamma)+2 gamma}),

    so a monomial c t^d D^k of the ODE, with lead e = d - k(1+gamma), feeds
    the levels e and e + gamma of the residual and nothing below e + 2 gamma.
    Powers of A are reduced in Q(i)[A]/(A^d - rho) with d = k2 - k1 from
    the branch's edge.  The balance level e_bal must cancel identically
    (that is the dominant balance), no level may lie below it or strictly
    between it and e_bal + gamma, and the level e_bal + gamma, linear in a,
    must fix a consistently across all ring components.  The refined
    solution is phi ~ t^a e^{A_S t^{-gamma}}.
    """
    if branch.kind != "exponential" or branch.rho is None:
        raise ValueError("power_correction needs an exponential branch")
    gamma, rho = branch.gamma, branch.rho
    mu = 1 + gamma
    k1, k2 = branch.edge
    if ode.coeffs[k1].is_zero():
        raise CorrectionNotLinear(
            f"the ODE has no edge term in D^{k1}: the branch is not one of its balances"
        )
    e_bal = Fraction(ode.coeffs[k1].valuation()) - k1 * mu
    top = e_bal + gamma

    def reduced(k: int, coeff) -> tuple[int, QI]:
        """(u, c) with c A^u = coeff A^k modulo A^d = rho."""
        q, u = divmod(k, k2 - k1)
        for _ in range(q):
            coeff = coeff * rho
        return u, coeff

    terms: dict[Fraction, list] = {}  # level -> [(A-power, coefficient)]
    alpha_terms = []  # the coefficient of a at level top
    for k, c in enumerate(ode.coeffs):
        for d, v in c.c.items():
            lead = d - k * mu
            if lead < e_bal:
                raise CorrectionNotLinear(f"terms below the balance level at t^{lead}")
            if lead <= top:
                terms.setdefault(lead, []).append(reduced(k, v))
            if lead == e_bal and k:
                alpha_terms.append(reduced(k - 1, v * k))
                terms.setdefault(top, []).append(reduced(k - 1, v * (-mu * k * (k - 1) / 2)))
    const = {e: accumulate(pairs) for e, pairs in terms.items()}
    alpha_vec = accumulate(alpha_terms)

    if const.get(e_bal):
        raise CorrectionNotLinear("dominant balance level failed to cancel")
    for e in const:
        if e_bal < e < top and const[e]:
            raise CorrectionNotLinear(
                f"nonzero terms at intermediate level t^{e} "
                f"between balance t^{e_bal} and correction t^{top}"
            )
    beta_vec = const.get(top, {})
    pivot = next(iter(alpha_vec), None)
    if pivot is None:
        raise CorrectionNotLinear(
            "correction balance places no constraint on the log coefficient"
        )
    a = -beta_vec.get(pivot, QI(0)) / alpha_vec[pivot]
    if a.im:
        raise CorrectionNotLinear(f"log coefficient is not real ({a})")
    for u in set(alpha_vec) | set(beta_vec):
        if alpha_vec.get(u, QI(0)) * a + beta_vec.get(u, QI(0)):
            raise CorrectionNotLinear(
                "correction balance is inconsistent across ring components"
            )
    return a.re


# --- branch classification ----------------------------------------------------


def classify_branch(
    branch: AsymptoticBranch, moment_order: int, symmetric: bool = False
) -> str:
    """Exclusion verdict for one branch against characteristic-function laws.

    Returns one of "candidate" (an admissible direction), "unbounded(side)",
    "derivative_blowup(k)" (k = 0 means the direction is not even continuous
    at 0), "excluded_by_symmetry", or "not_excluded".  Sides use the
    principal continuation onto t < 0: the left-side phase of t^{-gamma} is
    (theta - gamma) pi.
    """
    if branch.kind == "bounded":
        return "candidate"
    if branch.kind == "logarithmic":
        alpha = branch.power_exponent
        if alpha < 0:
            return "unbounded(both)"
        if branch.log_exponent is not None and branch.log_exponent <= 0:
            return "unbounded(both)"
        kstars = []
        if branch.log_exponent is not None:
            kstars.append(math.ceil(branch.log_exponent))
        if alpha.denominator != 1:
            kstars.append(math.floor(alpha) + 1)
        if not kstars:
            return "candidate"
        kstar = min(kstars)
        if kstar <= moment_order:
            return f"derivative_blowup({kstar})"
        return "not_excluded"
    # exponential
    right = _cos_pi_sign(branch.phase)
    left = _cos_pi_sign(branch.phase - branch.gamma)
    if right > 0 and left > 0:
        return "unbounded(both)"
    if right > 0:
        return "unbounded(right)"
    if left > 0:
        return "unbounded(left)"
    real_phase = branch.phase in (Fraction(0), Fraction(1))
    if right == 0 or left == 0:
        # oscillatory approach on some side: needs the refined power t^a
        if branch.power_exponent is None:
            return "not_excluded"
        a = branch.power_exponent
        kstar = 0 if a <= 0 else math.ceil(a / (branch.gamma + 1))
        if kstar <= moment_order:
            return f"derivative_blowup({kstar})"
        if symmetric and not real_phase:
            return "excluded_by_symmetry"
        return "not_excluded"
    # strict decay on both sides
    if real_phase:
        return "not_excluded"
    if symmetric:
        return "excluded_by_symmetry"
    return "not_excluded"


# --- symbolic moment forcing --------------------------------------------------


def _moment_forcing(op: SteinOperator, zero_mean: bool, symmetry: bool):
    """Do the recurrence rows E[S y^k] = 0 pin every moment of the target?

    Processes rows until past every degenerate row (vanishing top coefficient)
    plus a safety margin; returns (pinned: bool, free moment orders, rows).
    Each moment is an exact linear expression {unknown: coefficient} (None is
    the constant 1) in free unknowns created on first use; a row that cannot
    solve for its top moment eliminates its newest unknown.
    """
    rec = moment_recurrence(op)
    smax, smin = rec.max_shift, rec.min_shift
    top_roots, _ = rational_roots(rec.leading_coefficient_poly())
    deg_rows = [int(r) for r in top_roots if r.denominator == 1 and r >= 0]
    rows = (max(deg_rows) + 1 if deg_rows else 0) + (smax - smin) + abs(smax) + 8
    moments: dict[int, dict] = {0: {None: Fraction(1)}}
    order: list[int] = []  # unknown u stands for E[W^order[u]]

    def vanishes(nth: int) -> bool:
        return (symmetry and nth % 2 == 1) or (zero_mean and nth == 1)

    def moment(nth: int) -> dict:
        if nth not in moments:
            moments[nth] = {}
            if not vanishes(nth):
                moments[nth][len(order)] = Fraction(1)
                order.append(nth)
        return moments[nth]

    for k in range(rows + 1):
        cs = rec.coefficients(k)
        if not cs:
            continue
        top = k + smax
        solve = smax in cs and top not in moments and not vanishes(top)
        expr = accumulate(
            (u, v * w)
            for sft, v in cs.items()
            if not (solve and sft == smax)
            for u, w in moment(k + sft).items()
        )
        if solve:
            moments[top] = {u: -w / cs[smax] for u, w in expr.items()}
            continue
        unknowns = [u for u in expr if u is not None]
        if not unknowns:
            if expr:
                return False, [], rows  # inconsistent: no law satisfies the system
            continue
        u = max(unknowns)
        sub = [(x, -w / expr[u]) for x, w in expr.items() if x != u]
        for m_expr in moments.values():
            if u in m_expr:
                scale = m_expr.pop(u)
                accumulate(((x, scale * w) for x, w in sub), m_expr)
    free = sorted({order[u] for m_expr in moments.values() for u in m_expr if u is not None})
    return not free, free, rows


# --- verdict pipeline ---------------------------------------------------------


class Verdict:
    """Outcome of the sufficiency analysis for one operator/ODE.

    status is "characterising", "characterising_with_conditions" (conditions
    then list exactly the consumed assumptions, a subset of {"symmetry",
    "zero_mean"}), or "inconclusive".  branch_table pairs every analysed
    branch with its exclusion reason; diagnostics carries free moments,
    correction failures, and survivor notes.
    """

    __slots__ = (
        "status",
        "conditions",
        "branch_table",
        "singularity",
        "indicial",
        "diagnostics",
    )

    def __init__(
        self,
        status: str,
        conditions=(),
        branch_table=(),
        singularity: SingularityClass | None = None,
        indicial: IndicialRoots | None = None,
        diagnostics: dict | None = None,
    ):
        if status not in (
            "characterising",
            "characterising_with_conditions",
            "inconclusive",
        ):
            raise ValueError(f"unknown verdict status {status!r}")
        self.status = status
        self.conditions = frozenset(conditions)
        if bool(self.conditions) != (status == "characterising_with_conditions"):
            raise ValueError("conditions must be nonempty exactly for with-conditions")
        self.branch_table = tuple(branch_table)
        self.singularity = singularity
        self.indicial = indicial
        self.diagnostics = diagnostics or {}

    def as_json(self) -> dict:
        return {
            "status": self.status,
            "conditions": sorted(self.conditions),
            "singularity": None if self.singularity is None else self.singularity.as_json(),
            "indicial_roots": None if self.indicial is None else self.indicial.as_json(),
            "branch_table": [
                {**b.as_json(), "exclusion": reason} for b, reason in self.branch_table
            ],
            "diagnostics": {
                k: v for k, v in sorted(self.diagnostics.items())
            },
        }

    def __repr__(self):
        cond = f" {set(self.conditions)}" if self.conditions else ""
        return f"Verdict({self.status}{cond})"


def _branches_for_regular(ind: IndicialRoots) -> list[AsymptoticBranch]:
    """One power branch per root and multiplicity; the repeats carry log t at the root."""
    return [
        AsymptoticBranch(
            "logarithmic",
            gamma=Fraction(0),
            power_exponent=root.alpha,
            log_exponent=root.alpha if j else root.log_exponent,
        )
        for root in ind.roots
        for j in range(root.multiplicity)
    ]


def _apply_conjugate_trap(table: list) -> list[int]:
    """Flip surviving symmetry-excluded conjugate pairs to not_excluded.

    A pair of decaying branches with phases theta and 2 - theta admits a
    real-valued linear combination at leading order, which the symmetry
    argument cannot exclude.  A symmetry-excluded branch has no real phase,
    so it is never its own conjugate.  Returns the flipped indices.
    """
    sym = [
        (i, b)
        for i, (b, reason) in enumerate(table)
        if reason == "excluded_by_symmetry" and b.kind == "exponential"
    ]
    keys = {(b.gamma, b.magnitude_pair, b.phase) for _, b in sym}
    flipped = [i for i, b in sym if (b.gamma, b.magnitude_pair, -b.phase % 2) in keys]
    for i in flipped:
        table[i] = (table[i][0], "not_excluded")
    return flipped


def verdict_for_ode(
    ode: CfOde,
    moment_order: int,
    symmetric: bool = False,
    zero_mean: bool = False,
) -> Verdict:
    """Run the full sufficiency analysis on a characteristic-function ODE.

    ``moment_order`` is the number of finite moments the argument may
    assume; ``symmetric``/``zero_mean`` say which side conditions are
    available (they are consumed only if needed and reported when consumed).
    When several admissible directions remain, moment forcing reads the
    operator ``psi_inverse(ode)``; an ODE outside the transform's image is
    then inconclusive.  A negative ``moment_order`` raises ValueError.
    """
    if moment_order < 0:
        raise ValueError(f"moment order {moment_order}; need moment_order >= 0")
    diagnostics: dict = {}
    sing = classify_singularity(ode)

    if ode.order == 1:
        table = ((AsymptoticBranch("bounded"), "candidate"),)
        diagnostics["notes"] = [
            "first-order ODE: the solution space is one-dimensional, so the "
            "characteristic function is the unique solution with phi(0) = 1"
        ]
        return Verdict("characterising", (), table, sing, None, diagnostics)

    indicial = None
    if sing.kind == "regular_singular":
        indicial = indicial_roots(ode)
        if not indicial.fully_factored():
            diagnostics["notes"] = [
                f"indicial polynomial has non-rational factor {indicial.residual}"
            ]
            return Verdict("inconclusive", (), (), sing, indicial, diagnostics)
        if indicial.undecided:
            diagnostics["notes"] = list(indicial.undecided)
            return Verdict("inconclusive", (), (), sing, indicial, diagnostics)
        branches = _branches_for_regular(indicial)
    else:
        # at an ordinary point every Newton-polygon edge has slope < 1, so
        # this is one bounded branch of multiplicity ode.order
        try:
            branches = dominant_balance(ode)
        except NoBalance as exc:
            diagnostics["notes"] = [f"dominant balance failed: {exc}"]
            return Verdict("inconclusive", (), (), sing, None, diagnostics)
    table = []
    correction_notes = []
    for b in branches:
        reason = classify_branch(b, moment_order, symmetric)
        if (
            reason == "not_excluded"
            and b.kind == "exponential"
            and b.power_exponent is None
            and 0 in (_cos_pi_sign(b.phase), _cos_pi_sign(b.phase - b.gamma))
        ):
            try:
                b.power_exponent = power_correction(ode, b)
                reason = classify_branch(b, moment_order, symmetric)
            except CorrectionNotLinear as exc:
                correction_notes.append(f"{b.describe()}: {exc}")
        table.append((b, reason))
    if correction_notes:
        diagnostics["correction_failures"] = correction_notes

    flipped = _apply_conjugate_trap(table)
    if flipped:
        diagnostics["conjugate_trap"] = [
            table[i][0].describe() for i in flipped
        ] + ["a real linear combination of these decaying branches survives"]

    surviving = [b.describe() for b, r in table if r == "not_excluded"]
    if surviving:
        diagnostics["surviving_branches"] = surviving
        return Verdict("inconclusive", (), table, sing, indicial, diagnostics)

    conditions = set()
    if any(r == "excluded_by_symmetry" for _, r in table):
        conditions.add("symmetry")

    candidates = sum(b.multiplicity for b, r in table if r == "candidate")
    if candidates == 0:
        diagnostics["notes"] = [
            "no admissible direction found; the target's characteristic "
            "function should occupy one — check the operator/target pairing"
        ]
        return Verdict("inconclusive", (), table, sing, indicial, diagnostics)
    if candidates > 1:
        try:
            op = psi_inverse(ode)
        except NotInImage as exc:
            diagnostics["notes"] = [
                f"{candidates} admissible directions remain and moment forcing "
                f"has no operator: {exc}"
            ]
            return Verdict("inconclusive", (), table, sing, indicial, diagnostics)
        options = [set()]
        if zero_mean:
            options.append({"zero_mean"})
        if symmetric:
            options.append({"symmetry"})
        if zero_mean and symmetric:
            options.append({"zero_mean", "symmetry"})
        pinned = False
        free: list[int] = []
        for opt in options:
            ok, free, rows = _moment_forcing(
                op, "zero_mean" in opt, "symmetry" in opt
            )
            if ok:
                conditions |= opt
                diagnostics["moment_forcing"] = (
                    f"all moments pinned by rows k=0..{rows}"
                    + (f" using {sorted(opt)}" if opt else "")
                )
                pinned = True
                break
        if not pinned:
            diagnostics["free_moments"] = free
            diagnostics["notes"] = [
                f"{candidates} admissible directions and the recurrence "
                f"leaves E[W^n] free for n in {free}"
            ]
            return Verdict("inconclusive", (), table, sing, indicial, diagnostics)

    status = "characterising_with_conditions" if conditions else "characterising"
    return Verdict(status, conditions, table, sing, indicial, diagnostics)


def characterisation_verdict(op: SteinOperator, target_meta=None) -> Verdict:
    """Verdict for a Stein operator against its target's metadata, the
    keyword arguments of ``verdict_for_ode``; moment_order defaults to the
    operator's y-degree m, the order of the transformed ODE."""
    meta = {"moment_order": op.m, **(target_meta or {})}
    return verdict_for_ode(psi_transform(op), **meta)


# --- leading-order fixtures for the degree-7/8 Hermite targets -----------------

# Characteristic-function ODE leading coefficients for the H7(X) and H8(X)
# targets (orders 6 and 4).  The full minimal operators are too large to
# bundle; these leading terms determine the singularity type and the full
# branch structure at t = 0.
H7_LEADING_ODE = CfOde(
    [
        {1: 5040},                 # c0 = 5040 t
        {0: 1},                    # c1 = 1
        {3: 306955845},            # c2 = 306955845 t^3
        {4: 306156312},            # c3 = 306156312 t^4
        {5: 116825457},            # c4 = 116825457 t^5
        {6: 17294403},             # c5 = 17294403 t^6
        {7: 823543},               # c6 = 823543 t^7 = 7^7 t^7
    ]
)

H8_LEADING_ODE = CfOde(
    [
        {1: QI(0, 40320)},         # c0 = 40320 i t
        {0: QI(0, 1)},             # c1 = i
        {2: 65920},                # c2 = 65920 t^2
        {3: 32768},                # c3 = 32768 t^3
        {4: 4096},                 # c4 = 4096 t^4
    ]
)
