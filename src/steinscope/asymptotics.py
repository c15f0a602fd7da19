"""Asymptotic analysis of characteristic-function ODEs at t = 0.

Every tool here works on a ``CfOde`` (sum_k c_k(t) phi^{(k)}(t) = 0, kept as
the operator's rational coefficients and the quarter turn i^(turns + d - k)
of each t^d phi^{(k)} term) and asks one question: which
solution directions near t = 0 are compatible with phi being a
characteristic function?  A characteristic function satisfies phi(0) = 1,
|phi| <= 1, is k-times differentiable at 0 when the k-th absolute moment is
finite, and is real-valued for symmetric laws.  Solution directions that
violate one of these properties are excluded; if at most one admissible
direction remains (or the moment recurrence pins every moment), the operator
characterises its target.

The analysis is exact throughout.  It reads the ODE through one table,
``_weights(ode, slope)``: the monomials a t^d D^k grouped by their weight
d - slope k, lowest first, the lowest group lying on the Newton polygon's
supporting line of that slope.

* ``classify_singularity`` reads the kind of t = 0 off the lowest groups at
  slopes 0 and 1.
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
  polygon of the points (derivative order k, valuation of c_k), an edge's
  terms being the lowest group at its slope sigma.  Edges of slope
  sigma > 1 give exponential branches S ~ A_S t^{-gamma} with
  gamma = sigma - 1, A_S = -A/gamma and A^d = rho = -l_{k1}/l_{k2}
  (endpoint coefficients, with d = k2 - k1 directions); rho is a rational
  times the quarter turn i^(-gamma d), which goes into the phase.  Each
  branch keeps that rational and its edge (k1, k2); slope-1 edges give
  power branches phi ~ t^alpha with alpha a root of the edge polynomial;
  edges of slope < 1 contribute bounded directions.  Magnitudes are stored
  as exact pairs (rational, root index) with |A_S| = pair[0]^(1/pair[1]),
  and phases as exact rational multiples of pi, using the principal root
  (-1)^(1/d) = e^{i pi/d}.
* ``power_correction`` refines an exponential branch with the two-term
  ansatz S = A_S t^{-gamma} + a log t.  By the closed form
  phi^{(k)}/phi = A^k t^{-k(1+gamma)}
  + A^{k-1} (k a - (1+gamma) k(k-1)/2) t^{-k(1+gamma)+gamma} + ...,
  each ODE monomial feeds at most the balance level and the level gamma
  above it, weight groups at slope 1 + gamma.  With B = i^gamma A every
  term of one level carries one unit, so both are read in
  Q[B]/(B^d - rho') with rho' rational: the first must cancel and the
  second, linear in a, fixes a.  Anything below the balance, between the
  two levels, inconsistent, or unconstrained raises ``CorrectionNotLinear``.
* ``classify_branch`` turns a branch into its branch-table row
  (branch, exclusion): real-part signs of A_S t^{-gamma} on each side of 0
  (principal continuation on t < 0, so the left-side phase is
  theta - gamma) detect blow-up; oscillatory branches refined to
  phi ~ t^a e^{S} violate the k-th derivative at
  k* = min{k >= 0 : a - k(gamma + 1) <= 0}, and their row holds the refined
  copy; decaying complex branches are excluded for symmetric targets,
  except when a surviving conjugate pair (theta, 2 - theta) admits a real
  linear combination, which no symmetry argument can exclude.
* ``characterisation_verdict`` runs the pipeline on an operator's
  transform: first-order ODEs characterise outright; regular singular
  points are handled through the indicial roots; ordinary and irregular
  ones through dominant balance plus corrections; if several admissible
  directions remain, the exact moment recurrence of the operator is
  solved to see whether the target's moments are pinned, walking its rows,
  built once, under no condition, then zero_mean, then symmetry (which
  gives E[W] = 0), up to the first walk that pins; a walk pivots on the
  highest order first, so its free moments are the lowest orders the rows
  leave undetermined, and if no walk pins they are the unconditioned
  walk's.  A recurrence that needs more than ``budgets.MAX_CONSTRAINTS``
  rows leaves the verdict inconclusive.  Every verdict is built in one
  place, which derives its status from whether it is decided and which
  conditions it consumed, and keeps the ODE it analysed, from which its
  report reads the kind and the valuations of the singularity.

The records passed between these steps (``AsymptoticBranch``,
``IndicialRoot``, ``IndicialRoots``, ``Verdict``, and ``operators.CfOde``)
are immutable named tuples: a refinement is a copy, never a write.  They
compare and hash by value; a ``Verdict`` holds its diagnostics as sorted pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    RationalPoly, accumulate, echelon_insert, falling_poly, fraction_nth_root, rational_roots,
)
from .budgets import LOG_WALK_TERMS, MAX_CONSTRAINTS
from .operators import (CfOde, SteinOperator, moment_row, moment_shifts, psi_transform,
                        quarter_turn, top_moment_poly)


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


def _canonical_magnitude(power: Fraction, root: int) -> tuple[Fraction, int]:
    """Reduce (power, root) so that the root index is minimal.

    The represented magnitude is power^(1/root); e.g. (27/4096, 3)
    reduces to (3/16, 1) and (16, 4) to (2, 1), while (1/54, 2) is already
    minimal.
    """
    for e in range(1, root + 1):
        if root % e:
            continue
        r = fraction_nth_root(power, root // e)
        if r is not None:
            return (r, e)
    return (power, root)


# --- Newton-polygon weights and singularity classification -------------------


def _weights(ode: CfOde, slope: Fraction | int) -> dict[int, dict[int, object]]:
    """The ODE's monomials a t^d D^k as {weight: {k: a}}, lowest weight first.

    The weight of t^d D^k at the rational slope p/q is the integer d q - p k,
    q times d - slope k.  One weight and one k fix d.
    """
    p, q = slope.numerator, slope.denominator
    groups: dict[int, dict[int, object]] = {}
    for k, c in enumerate(ode.coeffs):
        for d, a in c.c.items():
            groups.setdefault(d * q - p * k, {})[k] = a
    return dict(sorted(groups.items()))


def classify_singularity(ode: CfOde) -> str:
    """The kind of the point t = 0 of the ODE, by the standard valuation test.

    "ordinary" when c_n holds a term of the lowest weight at slope 0, that
    is val(c_i) >= val(c_n) for all i; else "regular_singular" when it holds
    one at slope 1, val(c_i) >= val(c_n) - (n - i); else "irregular_singular".
    """
    for slope, kind in ((0, "ordinary"), (1, "regular_singular")):
        if ode.order in next(iter(_weights(ode, slope).values())):
            return kind
    return "irregular_singular"


# --- Frobenius indicial analysis ---------------------------------------------

class IndicialRoot(NamedTuple):
    """One indicial root: exponent, multiplicity, and log obstruction.

    ``log_exponent`` is the t-exponent at which a log t factor enters the
    root's primary series solution (None when the series is log-free).  For
    a repeated root the primary solution is log-free and the extra
    solutions carry log factors at the root itself.
    """

    alpha: Fraction
    multiplicity: int
    log_exponent: Fraction | None = None

    def as_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "multiplicity": self.multiplicity,
            "log_exponent": _frac_str(self.log_exponent),
        }


class IndicialRoots(NamedTuple):
    """Indicial roots of a regular singular point.

    ``residual`` is the part of the indicial polynomial that has no rational
    roots (a nonzero constant when everything factored); it is surfaced so a
    partial factorisation is never silently treated as complete.
    ``undecided`` names each root whose log test ran past LOG_WALK_TERMS.
    """

    roots: tuple[IndicialRoot, ...]
    polynomial: RationalPoly
    residual: RationalPoly
    undecided: tuple[str, ...] = ()

    def fully_factored(self) -> bool:
        return self.residual.degree() <= 0

    def as_json(self) -> dict:
        return {
            "roots": [r.as_json() for r in self.roots],
            "polynomial": str(self.polynomial),
            "residual": None if self.fully_factored() else str(self.residual),
        }


def _level_polynomials(ode: CfOde) -> dict[int, RationalPoly]:
    """Q_r(beta) = sum over monomials a_{k,d} t^d D^k at level r of a_{k,d} (beta)_k.

    The monomials at level r are the slope-1 weight group r above the lowest
    one, w = val(c_n) - n at a regular singular point, so the level
    polynomial of the ODE is P_r = i^(turns + r + w) Q_r.  P_0 is the
    indicial polynomial; the Frobenius recurrence
    P_0(alpha + m) u_m = -sum_{r>=1} P_r(alpha + m - r) u_{m-r} becomes,
    with u_m = i^m v_m, the rational recurrence
    Q_0(alpha + m) v_m = -sum_{r>=1} Q_r(alpha + m - r) v_{m-r}.
    """
    table = _weights(ode, 1)
    low = next(iter(table))
    return {w - low: sum((falling_poly(k) * a for k, a in group.items()), RationalPoly())
            for w, group in table.items()}


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

    ends = [beta + step for beta in rational_roots(p_step)[0]]
    dies = min(filter(on_chain, ends), default=None)
    return min((e for e in alphas if on_chain(e) and (dies is None or e < dies)), default=None)


def _walk_log(alpha: Fraction, gap: int, p0, higher: list) -> Fraction | None:
    """Log exponent of the simple root alpha from the rational series terms v_1 .. v_gap."""
    v = [Fraction(1)]
    for m in range(1, gap + 1):
        forcing = Fraction(0)
        for r, pr in higher:
            if r > m:
                break
            forcing = forcing + pr(alpha + m - r) * v[m - r]
        head = p0(alpha + m)
        if head:
            v.append(-forcing / head)
        elif forcing:
            return alpha + m
        else:
            v.append(Fraction(0))  # free coefficient; fix the log-free choice
    return None


def indicial_roots(ode: CfOde) -> IndicialRoots:
    """Frobenius indicial roots at t = 0, with multiplicities and log flags.

    A simple root alpha with a larger root at an integer gap may carry a log
    term.  With no level above P_0 it never does; with one level it is read
    off the root sets by ``_chain_log``; with more, the series is walked term
    by term, up to LOG_WALK_TERMS terms.  A root whose gap exceeds that
    budget is listed in ``undecided``.
    """
    kind = classify_singularity(ode)
    if kind != "regular_singular":
        raise NotRegularSingular(f"indicial analysis needs a regular singular point, got {kind}")
    levels = _level_polynomials(ode)
    p0 = levels[0]
    # the rational form a report prints for P_0 = i^turns Q_0: real parts of
    # a real P_0, imaginary parts of an imaginary one
    poly = quarter_turn(ode.turns + ode.coeffs[-1].valuation() - ode.order)[0] * p0
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
    return IndicialRoots(tuple(entries), poly, residual, tuple(undecided))


# --- Newton polygon and dominant balance -------------------------------------


def branch_text(row: dict) -> str:
    """One branch's text, read off its report row (``AsymptoticBranch.as_json``);
    the diagnostics and ``analyze --pretty`` name each branch by it."""
    if row["kind"] == "bounded":
        return f"bounded x{row['multiplicity']}"
    if row["kind"] == "logarithmic":
        s = f"phi ~ t^{row['power_exponent']}"
        if row["log_exponent"] is not None:
            s += f" with t^{row['log_exponent']} log t term"
        return s
    power, root = row["magnitude"]["power"], row["magnitude"]["root"]
    mag = power if root == 1 else f"({power})^(1/{root})"
    s = f"S ~ {mag} e^(i pi {row['phase_over_pi']}) t^(-{row['gamma']})"
    if row["power_exponent"] is not None:
        s += f", phi ~ t^{row['power_exponent']} e^S"
    return s


class AsymptoticBranch(NamedTuple):
    """One leading solution behaviour near t = 0.

    kind "bounded": S' = O(1); ``multiplicity`` such directions.
    kind "exponential": S ~ A_S t^{-gamma} with |A_S| = power^(1/root) for
    the exact pair ``magnitude`` = (power, root), root minimal, and
    arg(A_S) = phase * pi, 0 <= phase < 2; A_S = -A/gamma with
    d = k2 - k1 for the Newton-polygon ``edge`` (k1, k2), and ``rho`` is the
    rational (i^gamma A)^d.
    ``power_exponent`` is the refinement exponent a in phi ~ t^a e^{S} on
    the copy ``classify_branch`` returns once ``power_correction`` has run.
    kind "logarithmic": S ~ alpha log t, i.e. phi ~ t^alpha, with
    alpha = ``power_exponent`` (reported again as ``log_coeff``);
    ``log_exponent`` marks a t^e log t term when the series carries one
    (regular singular roots).
    """

    kind: str
    multiplicity: int = 1
    gamma: Fraction | None = None
    magnitude: tuple[Fraction, int] | None = None
    phase: Fraction | None = None
    power_exponent: Fraction | None = None
    log_exponent: Fraction | None = None
    rho: Fraction | None = None
    edge: tuple[int, int] | None = None

    def describe(self) -> str:
        return branch_text(self.as_json())

    def as_json(self) -> dict:
        return {
            "kind": self.kind,
            "multiplicity": self.multiplicity,
            "gamma": _frac_str(self.gamma),
            "magnitude": None
            if self.magnitude is None
            else {"power": str(self.magnitude[0]), "root": self.magnitude[1]},
            "phase_over_pi": _frac_str(self.phase),
            "power_exponent": _frac_str(self.power_exponent),
            "log_coeff": _frac_str(self.power_exponent)
            if self.kind == "logarithmic"
            else None,
            "log_exponent": _frac_str(self.log_exponent),
        }


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
    points = [(k, c.valuation()) for k, c in enumerate(ode.coeffs) if not c.is_zero()]
    if len(points) < 1:
        raise NoBalance("empty ODE")
    hull = _newton_hull(points)
    branches: list[AsymptoticBranch] = []
    bounded = points[0][0]  # orders below the first nonzero coefficient
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        slope = Fraction(v2 - v1, k2 - k1)
        if slope < 1:
            bounded += k2 - k1
            continue
        weight, edge = next(iter(_weights(ode, slope).items()))
        if slope == 1:
            # power balance: phi ~ t^alpha with sum l_k (alpha)_k = 0; the
            # factor (alpha)_{k1} common to every term is an artifact of
            # lower-order terms, so the edge polynomial starts at k1.  Every
            # edge term has the Euler weight v1 - k1, so one quarter turn.
            lead = sum((falling_poly(k, k1) * a for k, a in edge.items()), RationalPoly())
            roots, residual = rational_roots(quarter_turn(ode.turns + weight)[0] * lead)
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
        if len(edge) > 2:
            raise NoBalance("multi-term exponential balance is not binomial")
        d = k2 - k1
        gamma = slope - 1
        # rho = -l1/l2 = rho' i^(-gamma d): the endpoint terms differ in
        # Euler weight by gamma d, an integer, and rho' = -a1/a2 is rational
        rho = -edge[k1] / edge[k2]
        theta_rho = (Fraction(-(v2 - v1 - d) % 4, 2) + (1 if rho < 0 else 0)) % 2
        magnitude = _canonical_magnitude(abs(rho) / gamma**d, d)
        # A = rho^(1/d) e^{2 pi i j/d} and A_S = -A/gamma, so arg A_S = arg A + pi
        branches += [
            AsymptoticBranch(
                "exponential",
                gamma=gamma,
                magnitude=magnitude,
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
    Y_{k+1} = Y_k' + S' Y_k for phi^{(k)}/phi = Y_k gives

        Y_k = A^k t^{-k(1+gamma)}
              + A^{k-1} (k a - (1+gamma) k(k-1)/2) t^{-k(1+gamma)+gamma}
              + O(t^{-k(1+gamma)+2 gamma}),

    so a monomial c t^d D^k of the ODE, with lead e = d - k(1+gamma), feeds
    the levels e and e + gamma of the residual and nothing below e + 2 gamma.
    With c = i^(turns + d - k) r for the rational r the ODE stores and
    B = i^gamma A, c A^k = i^(turns + e) r B^k and
    c A^(k-1) = i^(turns + e + gamma) r B^(k-1): every term of one level
    carries one unit, which is dropped.  Powers of B are reduced in
    Q[B]/(B^d - rho) with d = k2 - k1 from the branch's edge and the
    branch's rational rho = B^d.  The balance level e_bal must cancel
    identically (that is the dominant balance), no level may lie below it
    or strictly between it and e_bal + gamma, and the level e_bal + gamma,
    linear in a, must fix a consistently across all ring components.  The
    refined solution is phi ~ t^a e^{A_S t^{-gamma}}.
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
    table = _weights(ode, mu)  # the monomials of lead e at weight q e
    q = mu.denominator
    bal = ode.coeffs[k1].valuation() * q - mu.numerator * k1
    top = bal + mu.numerator - q

    def level(ws) -> Fraction:
        """The lead of the first of the weights ws to hold a monomial, by (k, d)."""
        return Fraction(min(ws, key=lambda w: (min(table[w]), w)), q)

    def reduced(k: int, coeff: Fraction) -> tuple[int, Fraction]:
        """(u, c) with c B^u = coeff B^k modulo B^d = rho."""
        n, u = divmod(k, k2 - k1)
        return u, coeff * rho**n

    below = [w for w in table if w < bal]
    if below:
        raise CorrectionNotLinear(f"terms below the balance level at t^{level(below)}")
    const = {w: accumulate(reduced(k, a) for k, a in group.items())
             for w, group in table.items() if w <= top}
    balance = table.get(bal, {})
    alpha_vec = accumulate(reduced(k - 1, a * k) for k, a in balance.items() if k)
    beta_vec = accumulate((reduced(k - 1, a * (-mu * k * (k - 1) / 2))
                           for k, a in balance.items() if k), const.get(top, {}))

    if const.get(bal):
        raise CorrectionNotLinear("dominant balance level failed to cancel")
    between = [w for w, c in const.items() if bal < w < top and c]
    if between:
        raise CorrectionNotLinear(
            f"nonzero terms at intermediate level t^{level(between)} "
            f"between balance t^{Fraction(bal, q)} and correction t^{Fraction(top, q)}"
        )
    pivot = next(iter(alpha_vec), None)
    if pivot is None:
        raise CorrectionNotLinear(
            "correction balance places no constraint on the log coefficient"
        )
    a = -beta_vec.get(pivot, 0) / alpha_vec[pivot]
    for u in set(alpha_vec) | set(beta_vec):
        if alpha_vec.get(u, 0) * a + beta_vec.get(u, 0):
            raise CorrectionNotLinear(
                "correction balance is inconsistent across ring components"
            )
    return a


# --- branch classification ----------------------------------------------------


def classify_branch(
    branch: AsymptoticBranch, moment_order: int, symmetric: bool = False, ode: CfOde | None = None
) -> tuple[AsymptoticBranch, str]:
    """Exclusion verdict for one branch against characteristic-function laws.

    Returns the branch-table row (branch, reason), the reason one of
    "candidate" (an admissible direction), "unbounded(side)",
    "derivative_blowup(k)" (k = 0 means the direction is not even continuous
    at 0), "excluded_by_symmetry", or "not_excluded".  Sides use the
    principal continuation onto t < 0: the left-side phase of t^{-gamma} is
    (theta - gamma) pi.  A branch oscillatory on some side is judged by its
    power t^a; if that is missing and ``ode`` is given, the row holds the
    copy refined by ``power_correction(ode, branch)``, whose
    ``CorrectionNotLinear`` propagates.
    """
    if branch.kind == "bounded":
        return branch, "candidate"
    if branch.kind == "logarithmic":
        alpha = branch.power_exponent
        if alpha < 0:
            return branch, "unbounded(both)"
        if branch.log_exponent is not None and branch.log_exponent <= 0:
            return branch, "unbounded(both)"
        kstars = []
        if branch.log_exponent is not None:
            kstars.append(math.ceil(branch.log_exponent))
        if alpha.denominator != 1:
            kstars.append(math.floor(alpha) + 1)
        if not kstars:
            return branch, "candidate"
        kstar = min(kstars)
        if kstar <= moment_order:
            return branch, f"derivative_blowup({kstar})"
        return branch, "not_excluded"
    # exponential
    right = _cos_pi_sign(branch.phase)
    left = _cos_pi_sign(branch.phase - branch.gamma)
    if right > 0 and left > 0:
        return branch, "unbounded(both)"
    if right > 0:
        return branch, "unbounded(right)"
    if left > 0:
        return branch, "unbounded(left)"
    if right == 0 or left == 0:
        # oscillatory approach on some side: needs the refined power t^a
        if branch.power_exponent is None and ode is not None:
            branch = branch._replace(power_exponent=power_correction(ode, branch))
        if branch.power_exponent is None:
            return branch, "not_excluded"
        a = branch.power_exponent
        kstar = 0 if a <= 0 else math.ceil(a / (branch.gamma + 1))
        if kstar <= moment_order:
            return branch, f"derivative_blowup({kstar})"
    # bounded on both sides: only a non-real phase is left to exclude
    if symmetric and branch.phase not in (Fraction(0), Fraction(1)):
        return branch, "excluded_by_symmetry"
    return branch, "not_excluded"


# --- moment forcing -----------------------------------------------------------


def _moment_forcing(op: SteinOperator):
    """The recurrence rows E[S y^k] = 0, k = 0..K, of ``op`` and a walk over them.

    K runs past every degenerate row (vanishing top coefficient) plus a
    safety margin.  Returns (K, walk), walk None and no row read when K
    exceeds MAX_CONSTRAINTS.  walk(zero_mean, symmetry) inserts each row
    {k + s: c_s(k)}, over the orders the conditions leave (0 is the
    constant E[W^0] = 1), into one reduced echelon form, highest order
    pivoted first.  It returns (False, [], k) at the first row k to pivot at
    order 0, which no law satisfies; else (pinned: bool, free moment orders,
    K), the free moments being the lowest orders the rows leave undetermined.
    """
    smin, smax = moment_shifts(op)
    top_roots, _ = rational_roots(top_moment_poly(op))
    deg_rows = [int(r) for r in top_roots if r.denominator == 1 and r >= 0]
    rows = (max(deg_rows) + 1 if deg_rows else 0) + (smax - smin) + abs(smax) + 8
    if rows > MAX_CONSTRAINTS:
        return rows, None
    coefficient_rows = [(k, moment_row(op, k)) for k in range(rows + 1)]

    def walk(zero_mean: bool, symmetry: bool):
        def vanishes(nth: int) -> bool:
            return (symmetry and nth % 2 == 1) or (zero_mean and nth == 1)

        pivots, read = {}, set()
        for k, cs in coefficient_rows:
            row = {k + s: v for s, v in cs.items() if not vanishes(k + s)}
            read.update(row)
            if echelon_insert(pivots, row, max) == 0:
                return False, [], k  # inconsistent: no law satisfies the system
        free = sorted(read - pivots.keys() - {0})
        return not free, free, rows

    return rows, walk


# --- verdict pipeline ---------------------------------------------------------


class Verdict(NamedTuple):
    """Outcome of the sufficiency analysis for one operator.

    ode is the operator's transform, the ODE the analysis read, from which
    the report reads the kind of its point t = 0 and the valuations of its
    coefficients.  status is
    "characterising", "characterising_with_conditions" (conditions then
    list exactly the consumed assumptions, a subset of {"symmetry",
    "zero_mean"}), or "inconclusive".  branch_table pairs every analysed
    branch with its exclusion reason; diagnostics holds free moments,
    correction failures and survivor notes as sorted (key, value) pairs.
    """

    status: str
    ode: CfOde
    conditions: frozenset[str]
    branch_table: tuple[tuple[AsymptoticBranch, str], ...]
    indicial: IndicialRoots | None
    diagnostics: tuple[tuple[str, object], ...]

    def as_json(self) -> dict:
        return {
            "status": self.status,
            "conditions": sorted(self.conditions),
            "singularity": {"kind": classify_singularity(self.ode),
                            "valuations": [c.valuation() for c in self.ode.coeffs]},
            "indicial_roots": None if self.indicial is None else self.indicial.as_json(),
            "branch_table": [
                {**b.as_json(), "exclusion": reason} for b, reason in self.branch_table
            ],
            "diagnostics": {k: list(v) if type(v) is tuple else v for k, v in self.diagnostics},
        }


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


def _conjugate_trap(table) -> list[int]:
    """Indices of the symmetry-excluded branches that pair with a conjugate.

    A pair of decaying branches with phases theta and 2 - theta admits a
    real-valued linear combination at leading order, which the symmetry
    argument cannot exclude, so the verdict reads them as not_excluded.  A
    symmetry-excluded branch has no real phase, so it is never its own
    conjugate.
    """
    sym = [
        (i, b)
        for i, (b, reason) in enumerate(table)
        if reason == "excluded_by_symmetry" and b.kind == "exponential"
    ]
    keys = {(b.gamma, b.magnitude, b.phase) for _, b in sym}
    return [i for i, b in sym if (b.gamma, b.magnitude, -b.phase % 2) in keys]


def characterisation_verdict(
    op: SteinOperator,
    moment_order: int | None = None,
    symmetric: bool = False,
    zero_mean: bool = False,
) -> Verdict:
    """Run the full sufficiency analysis on the transform of a Stein operator.

    ``moment_order`` is the number of finite moments the argument may
    assume, by default the operator's y-degree m (the order of its ODE); a
    negative one raises ValueError.  ``symmetric``/``zero_mean`` say which
    side conditions are available (they are consumed only if needed and
    reported when consumed).  When several admissible directions remain,
    moment forcing reads the recurrence of ``op``.
    """
    if moment_order is None:
        moment_order = op.m
    if moment_order < 0:
        raise ValueError(f"moment order {moment_order}; need moment_order >= 0")
    ode = psi_transform(op)
    indicial, table, diagnostics = None, (), {}

    def verdict(decided: bool, conditions=(), notes=None) -> Verdict:
        """The verdict with the ODE, indicial roots and branch table so far; an
        undecided one is inconclusive and consumed no condition."""
        if notes:
            diagnostics["notes"] = notes
        conditions = frozenset(conditions if decided else ())
        status = "inconclusive" if not decided else (
            "characterising_with_conditions" if conditions else "characterising")
        return Verdict(status, ode, conditions, table, indicial, tuple(sorted(
            (k, tuple(v) if type(v) is list else v) for k, v in diagnostics.items())))

    if ode.order == 1:
        table = ((AsymptoticBranch("bounded"), "candidate"),)
        return verdict(True, notes=[
            "first-order ODE: the solution space is one-dimensional, so the "
            "characteristic function is the unique solution with phi(0) = 1"
        ])

    if classify_singularity(ode) == "regular_singular":
        indicial = indicial_roots(ode)
        if not indicial.fully_factored():
            return verdict(False, notes=[
                f"indicial polynomial has non-rational factor {indicial.residual}"
            ])
        if indicial.undecided:
            return verdict(False, notes=list(indicial.undecided))
        branches = _branches_for_regular(indicial)
    else:
        # at an ordinary point every Newton-polygon edge has slope < 1, so
        # this is one bounded branch of multiplicity ode.order
        try:
            branches = dominant_balance(ode)
        except NoBalance as exc:
            return verdict(False, notes=[f"dominant balance failed: {exc}"])
    table, correction_notes = [], []
    for b in branches:
        try:
            table.append(classify_branch(b, moment_order, symmetric, ode))
        except CorrectionNotLinear as exc:
            table.append((b, "not_excluded"))
            correction_notes.append(f"{b.describe()}: {exc}")
    if correction_notes:
        diagnostics["correction_failures"] = correction_notes

    flipped = _conjugate_trap(table)
    table = tuple((b, "not_excluded" if i in flipped else r) for i, (b, r) in enumerate(table))
    if flipped:
        diagnostics["conjugate_trap"] = [
            table[i][0].describe() for i in flipped
        ] + ["a real linear combination of these decaying branches survives"]

    surviving = [b.describe() for b, r in table if r == "not_excluded"]
    if surviving:
        diagnostics["surviving_branches"] = surviving
        return verdict(False)

    conditions = set()
    if any(r == "excluded_by_symmetry" for _, r in table):
        conditions.add("symmetry")

    candidates = sum(b.multiplicity for b, r in table if r == "candidate")
    if candidates == 0:
        return verdict(False, notes=[
            "no admissible direction found; the target's characteristic "
            "function should occupy one — check the operator/target pairing"
        ])
    if candidates > 1:
        rows, walk = _moment_forcing(op)
        if walk is None:
            return verdict(False, notes=[
                f"{candidates} admissible directions and moment forcing undecided: "
                f"its last row k = {rows} exceeds the row budget "
                f"MAX_CONSTRAINTS = {MAX_CONSTRAINTS}"
            ])
        # symmetry gives E[W] = 0, so it walks alike with or without zero_mean
        options = [()] + [("zero_mean",)] * zero_mean + [("symmetry",)] * symmetric
        inconsistent = []
        for opt in options:
            pinned, free, k = walk("zero_mean" in opt, "symmetry" in opt)
            using = f" using {list(opt)}" if opt else ""
            if pinned:
                conditions.update(opt)
                diagnostics["moment_forcing"] = f"all moments pinned by rows k=0..{k}{using}"
                break
            if not opt:  # a condition only shrinks the solutions
                unconditioned = free
            if not free:
                inconsistent.append(f"no law satisfies rows k=0..{k}{using}")
        else:
            if inconsistent:
                diagnostics["inconsistent_forcing"] = inconsistent
            if unconditioned:
                diagnostics["free_moments"] = unconditioned
                outcome = f"the recurrence leaves E[W^n] free for n in {unconditioned}"
            else:
                outcome = "no law with finite moments satisfies the operator's moment recurrence"
            notes = [f"{candidates} admissible directions and {outcome}"]
            return verdict(False, notes=notes)

    return verdict(True, conditions)

