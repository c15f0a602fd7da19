"""The Newton-polygon readers of the t = 0 analysis as they were written
before the weight table, kept as a witness.

``classify_singularity`` applied the valuation test to the c_i,
``_level_polynomials`` placed each monomial at its Euler-weight level,
``dominant_balance`` collected each hull edge's terms by a Fraction test on
the valuations and re-read their coefficients, and ``power_correction``
walked the monomials one by one to place each at its lead d - k mu.  The
package now reads all four off one table, ``asymptotics._weights``;
``test_newton_witness.py`` holds it to these readers.
"""

from fractions import Fraction

from steinscope.algebra import RationalPoly, accumulate, falling_poly, rational_roots
from steinscope.asymptotics import (
    AsymptoticBranch, CorrectionNotLinear, NoBalance, _canonical_magnitude, _newton_hull,
)
from steinscope.operators import CfOde, quarter_turn


def classify_singularity(ode: CfOde) -> str:
    """The kind of the point t = 0 of the ODE, by the standard valuation test.

    "ordinary" when val(c_i) >= val(c_n) for all i, "regular_singular" when
    val(c_i) >= val(c_n) - (n - i) for all i (but not ordinary), and
    "irregular_singular" otherwise.  Zero coefficients have valuation None
    (infinite) and never violate either test.
    """
    n = ode.order
    vals = [c.valuation() for c in ode.coeffs]
    w = vals[n]
    if all(v is None or v >= w for v in vals):
        return "ordinary"
    if all(v is None or v >= w - (n - i) for i, v in enumerate(vals)):
        return "regular_singular"
    return "irregular_singular"


def _level_polynomials(ode: CfOde) -> dict[int, RationalPoly]:
    """Q_r(beta) = sum over monomials a_{k,d} t^d D^k at level r of a_{k,d} (beta)_k.

    Level r counts t-powers above the indicial level: a monomial sits at
    r = (d - k) - (w - n) where w = val(c_n), so its quarter turn is
    i^(turns + r + w - n) and the level polynomial of the ODE is
    P_r = i^(turns + r + w - n) Q_r.  P_0 is the indicial polynomial; the
    Frobenius recurrence P_0(alpha + m) u_m = -sum_{r>=1} P_r(alpha + m - r)
    u_{m-r} becomes, with u_m = i^m v_m, the rational recurrence
    Q_0(alpha + m) v_m = -sum_{r>=1} Q_r(alpha + m - r) v_{m-r}.
    """
    n = ode.order
    w = ode.coeffs[n].valuation()
    return accumulate(
        ((d - k) - (w - n), falling_poly(k) * v)
        for k, c in enumerate(ode.coeffs)
        for d, v in c.c.items()
    )


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
            # lower-order terms, so the edge polynomial starts at k1.  Every
            # edge term has the Euler weight v1 - k1, so one quarter turn.
            lead = sum(
                (falling_poly(k, k1) * ode.coeffs[k].coeff(v1 + (k - k1)) for k in on_edge),
                RationalPoly(),
            )
            roots, residual = rational_roots(quarter_turn(ode.turns + v1 - k1)[0] * lead)
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
        gamma = slope - 1
        # rho = -l1/l2 = rho' i^(-gamma d): the endpoint terms differ in
        # Euler weight by gamma d, an integer, and rho' = -a1/a2 is rational
        rho = -ode.coeffs[k1].coeff(v1) / ode.coeffs[k2].coeff(v2)
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
    e_bal = Fraction(ode.coeffs[k1].valuation()) - k1 * mu
    top = e_bal + gamma

    def reduced(k: int, coeff: Fraction) -> tuple[int, Fraction]:
        """(u, c) with c B^u = coeff B^k modulo B^d = rho."""
        q, u = divmod(k, k2 - k1)
        return u, coeff * rho**q

    terms: dict[Fraction, list] = {}  # level -> [(B-power, coefficient)]
    alpha_terms = []  # the coefficient of a at level top
    for k, c in enumerate(ode.coeffs):
        for d, v in sorted(c.c.items()):  # by degree: one first level for any order
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
    a = -beta_vec.get(pivot, 0) / alpha_vec[pivot]
    for u in set(alpha_vec) | set(beta_vec):
        if alpha_vec.get(u, 0) * a + beta_vec.get(u, 0):
            raise CorrectionNotLinear(
                "correction balance is inconsistent across ring components"
            )
    return a
