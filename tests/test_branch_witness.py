"""Float witness for the branch values pinned by acceptance criteria 03/04.

Each case takes a branch claim straight from the asserted value -- the
exponent gamma, the magnitude |A_S|, the phase arg(A_S)/pi and the power
correction a of the refined ansatz phi ~ t^a e^{A_S t^-gamma} -- and
evaluates the normalised ODE residual

    R(t) = sum_k c_k(t) phi^(k)(t) / phi(t) = sum_k c_k(t) Y_k(S', ..., S^(k))

in complex128, with S = A_S t^-gamma + a log t and Y_k the complete Bell
polynomials built by their float recursion.  The c_k come from the
Gaussian-rational ``qi_witness.psi_transform`` (checked exactly against the
package by criterion 01) of a catalog operator
or of the H8 operator file ``tests/data/H8_T10m4.json``.  Nothing from the
exact branch machinery in ``steinscope.asymptotics`` is used.

The fitted order of R along t > 0 decides each claim.  A value that fails to
cancel the level it is responsible for leaves R at that level; the correct
value lifts R to the next level up:

* a wrong phase or log-branch power leaves R at the balance level;
* a wrong correction a leaves R at the balance level + gamma, where the
  a-dependent terms sit.

Every case asserts both orders: the one the corrected value reaches and the
lower one the formerly pinned value leaves.  Each t-window lies close
enough to 0 that the next level's terms do not bend the fit, and not so
close that float cancellation of the balance terms reaches the residual;
the second condition is checked at every point.
"""

from fractions import Fraction as F
from math import comb, factorial, prod

import numpy as np

from steinscope.operators import catalog_get

from ladder import H8_T10m4
from qi_witness import psi_transform

H8_ODE = psi_transform(H8_T10m4)

# fitted orders must land this close to the expected level; levels in every
# case are at least 1/3 apart
ORDER_TOL = 0.05
# |R| must exceed float rounding of the largest term by this factor
CANCELLATION_MARGIN = 1e3


def ode_of(spec: str):
    return psi_transform(catalog_get(spec))


def residual_terms(ode, t, gamma, a_s, a):
    """The terms c_k(t) Y_k(t) of R(t), one row per derivative order k."""
    t = np.asarray(t, dtype=float)
    g = float(gamma)
    n = len(ode.coeffs) - 1
    # S^(j) for S = a_s t^-g + a log t
    s = {
        j: a_s * prod(-g - i for i in range(j)) * t ** (-g - j)
        + a * (-1) ** (j - 1) * factorial(j - 1) * t ** (-j)
        for j in range(1, n + 1)
    }
    bell = [np.ones_like(t, dtype=complex)]
    for m in range(n):
        bell.append(sum(comb(m, l) * bell[m - l] * s[l + 1] for l in range(m + 1)))
    rows = []
    for k, c in enumerate(ode.coeffs):
        c_k = sum(complex(float(q.re), float(q.im)) * t**d for d, q in c.c.items())
        rows.append(c_k * bell[k])
    return np.array(rows)


def residual_order(ode, window, gamma=0, magnitude=0, phase=0, a=0):
    """Least-squares order of R(t) over t = 10^window[0] ... 10^window[1].

    magnitude = 0 (the default) gives the power branch phi ~ t^a.
    """
    t = np.logspace(*window, 9)
    a_s = float(magnitude) * np.exp(1j * np.pi * float(phase))
    terms = residual_terms(ode, t, gamma, a_s, float(a))
    r = np.abs(terms.sum(axis=0))
    rounding = np.finfo(float).eps * np.abs(terms).max(axis=0)
    assert np.all(r > CANCELLATION_MARGIN * rounding), (
        f"window {window}: float cancellation reaches the residual"
    )
    return np.polyfit(np.log(t), np.log(r), 1)[0]


def assert_order(got, expected, label):
    assert abs(got - float(expected)) < ORDER_TOL, (
        f"{label}: residual order {got:.4f}, expected {expected}"
    )


def test_h3_log_branch_power():
    """H3_T4m3 slope-1 edge 3t phi'' - 5 phi' = 0: phi ~ t^(8/3), not t^(5/3).

    R has terms at t^-1 (the edge) and t^1, so the right power lifts R
    from -1 to 1.
    """
    ode, window = ode_of("H3_T4m3"), (-3, -5)
    assert_order(residual_order(ode, window, a=F(8, 3)), 1, "corrected 8/3")
    assert_order(residual_order(ode, window, a=F(5, 3)), -1, "published 5/3")


def test_pn4_phase_set():
    """PN(4): A t^-2 + A^3 t^-2 = 0 gives A^2 = -1, S ~ +-i/t, phases {1/2, 3/2}.

    Balance level t^-2, gamma = 1; with a = 0 the a-level t^-1 cancels too,
    so the right phases lift R to t^0.
    """
    ode, window = ode_of("PN:p=4"), (-3, -5)
    for phase in (F(1, 2), F(3, 2)):
        got = residual_order(ode, window, 1, 1, phase)
        assert_order(got, 0, f"corrected phase {phase}")
    for phase in (F(0), F(1)):
        got = residual_order(ode, window, 1, 1, phase)
        assert_order(got, -2, f"published phase {phase}")


def test_h8_phase_set():
    """H8_T10m4: edge (1,0)-(4,4), A^3 = -i/4096, |A_S| = 3/16: three phases.

    Balance level t^-4/3, gamma = 1/3; with a = 0 the right phases lift R
    to t^-2/3.  The three phases the published six-phase set adds leave R
    at the balance level.
    """
    corrected = {F(1, 6), F(5, 6), F(3, 2)}
    published = {F(1, 2), F(3, 2), F(1, 6), F(11, 6), F(5, 6), F(7, 6)}
    window = (-10, -12)
    for phase in sorted(corrected):
        got = residual_order(H8_ODE, window, F(1, 3), F(3, 16), phase)
        assert_order(got, F(-2, 3), f"corrected phase {phase}")
    for phase in sorted(published - corrected):
        got = residual_order(H8_ODE, window, F(1, 3), F(3, 16), phase)
        assert_order(got, F(-4, 3), f"published phase {phase}")


def test_h4_power_correction():
    """H4_T2m3 on S = i/(16t) + a log t: the t^-3 coefficient is -a/16, so a = 0.

    Balance t^-4, gamma = 1: a = 0 lifts R from t^-3 to t^-2.  Closer to 0
    than 10^-6 float cancellation spoils the a = 0 fit.
    """
    ode, window = ode_of("H4_T2m3"), (-4, -6)
    branch = (1, F(1, 16), F(1, 2))
    assert_order(residual_order(ode, window, *branch, a=0), -2, "corrected a = 0")
    assert_order(residual_order(ode, window, *branch, a=4), -3, "published a = 4")


def test_h8_power_correction():
    """H8_T10m4, S' = B t^-4/3 + a/t: at t^-1, R has
    ia + 4096(4aB^3 - 8B^3) + 32768B^3 = -3ia (B^3 = -i/4096), so a = 0.

    Balance t^-4/3, gamma = 1/3: a = 0 lifts R from t^-1 to t^-2/3 on every
    branch of the edge.
    """
    window = (-10, -12)
    for phase in (F(1, 6), F(5, 6), F(3, 2)):
        branch = (F(1, 3), F(3, 16), phase)
        got = residual_order(H8_ODE, window, *branch, a=0)
        assert_order(got, F(-2, 3), f"phase {phase}, corrected a = 0")
        got = residual_order(H8_ODE, window, *branch, a=F(8, 3))
        assert_order(got, -1, f"phase {phase}, published a = 8/3")


def test_pn8_power_correction():
    """PN(8): with phi = Phi', WKB gives Phi ~ t^(p/(p-2)) e^S, so phi ~ t^0 e^S.

    A^6 = -1, |A_S| = 3, gamma = 1/3, balance t^-4/3: a = 0 lifts R from
    t^-1 to t^-2/3 on all six branches.
    """
    ode, window = ode_of("PN:p=8"), (-10, -12)
    for j in range(6):
        branch = (F(1, 3), 3, F(2 * j + 1, 6))
        got = residual_order(ode, window, *branch, a=0)
        assert_order(got, F(-2, 3), f"branch {j}, corrected a = 0")
        got = residual_order(ode, window, *branch, a=F(-33, 2))
        assert_order(got, -1, f"branch {j}, published a = -33/2")
