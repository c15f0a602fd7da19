"""Second witnesses for the Frobenius root finder and log test.

The trial-division ``_rational_roots`` and the dense series walk in
``indicial_roots`` below are the implementations the package used before it
read rational roots off Sturm isolation and log terms off root sets, and
``_factor_common_unit`` is the dense unit factoring they used before
``GaussianRationalPoly.real_form``.  They are kept verbatim as reference
oracles: hypothesis checks that the package (``algebra.rational_roots``,
``GaussianRationalPoly.real_form`` and ``asymptotics.indicial_roots``) agrees
with them on random polynomials and random regular singular ODEs.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from steinscope import algebra, asymptotics
from steinscope.algebra import QI, GaussianRationalPoly, RationalPoly
from steinscope.asymptotics import (
    IndicialRoot,
    IndicialRoots,
    NotRegularSingular,
    _level_polynomials,
    classify_singularity,
)
from steinscope.operators import CfOde

# --- reference oracles, verbatim ----------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _factor_common_unit(values: list[QI]) -> tuple[QI, list[Fraction]] | None:
    """Factor a unit u in {1, -i} so that u*values are all real; None if mixed."""
    nonzero = [v for v in values if v]
    if all(v.im == 0 for v in nonzero):
        return QI(1), [v.re for v in values]
    if all(v.re == 0 for v in nonzero):
        return QI(0, -1), [v.im for v in values]
    return None


def _rational_roots(poly: RationalPoly) -> tuple[dict[Fraction, int], RationalPoly]:
    """All rational roots (with multiplicity) and the unfactored residual.

    The residual is the polynomial left after deflating every rational root;
    it is a (nonzero) constant exactly when the polynomial splits over Q.
    """
    if poly.is_zero():
        raise ValueError("cannot extract roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    v = poly.valuation()
    if v:
        roots[Fraction(0)] = v
        poly = RationalPoly({d - v: c for d, c in poly.c.items()})
    dense = [poly.coeff(d) for d in range(poly.degree() + 1)]
    while len(dense) > 1:
        lcm = 1
        for c in dense:
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        ints = [int(c * lcm) for c in dense]
        g = 0
        for c in ints:
            g = math.gcd(g, c)
        ints = [c // g for c in ints]
        found = None
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for c in reversed(ints):
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        # synthetic division by (x - found)
        out = []
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * found + c
            out.append(acc)
        dense = [Fraction(c) for c in reversed(out[:-1])]
    residual = RationalPoly({d: c for d, c in enumerate(dense)})
    return roots, residual


def indicial_roots(ode: CfOde) -> IndicialRoots:
    """Frobenius indicial roots at t = 0, with multiplicities and log flags."""
    sing = classify_singularity(ode)
    if sing.kind != "regular_singular":
        raise NotRegularSingular(
            f"indicial analysis needs a regular singular point, got {sing.kind}"
        )
    levels = _level_polynomials(ode)
    p0 = levels[0]
    factored = _factor_common_unit([p0.coeff(d) for d in range(p0.degree() + 1)])
    if factored is None:
        # mixed real/imaginary indicial coefficients: no rational roots; the
        # whole polynomial is surfaced as the unfactored residual
        return IndicialRoots((), RationalPoly(), p0)
    _, reals = factored
    poly = RationalPoly(dict(enumerate(reals)))
    roots, residual = _rational_roots(poly)

    def p0_at(x: Fraction) -> QI:
        return p0(x)

    entries = []
    alphas = sorted(roots)
    for alpha in alphas:
        mult = roots[alpha]
        log_exp = None
        if mult == 1:
            gaps = sorted(
                int(other - alpha)
                for other in alphas
                if other > alpha and (other - alpha).denominator == 1
            )
            if gaps:
                u = {0: QI(1)}
                for m in range(1, gaps[-1] + 1):
                    forcing = QI(0)
                    for r in range(1, m + 1):
                        pr = levels.get(r)
                        if pr is not None:
                            forcing = forcing + pr(alpha + m - r) * u[m - r]
                    head = p0_at(alpha + m)
                    if head:
                        u[m] = -forcing / head
                    elif forcing:
                        log_exp = alpha + m
                        break
                    else:
                        u[m] = QI(0)  # free coefficient; fix the log-free choice
        entries.append(IndicialRoot(alpha, mult, log_exp))
    return IndicialRoots(entries, poly, residual)


# --- constructions --------------------------------------------------------------


def product(roots) -> list:
    """Dense coefficients (constant first) of prod (x - r)."""
    out = [Fraction(1)]
    for r in roots:
        out = [a - r * b for a, b in zip([0] + out, out + [0])]
    return out


def falling(k: int) -> list:
    """Dense coefficients of (x)_k = x (x - 1) ... (x - k + 1)."""
    out = [1]
    for l in range(k):
        out = [a - l * b for a, b in zip([0] + out, out + [0])]
    return out


def falling_basis(coeffs) -> dict:
    """{k: b_k} with sum_k b_k (x)_k equal to the dense polynomial ``coeffs``."""
    rest = list(coeffs)
    out = {}
    for k in reversed(range(len(rest))):
        if rest[k]:
            out[k] = b = rest[k]
            for i, c in enumerate(falling(k)):
                rest[i] -= b * c
    return out


def ode_from_levels(levels: dict) -> CfOde:
    """ODE whose level-r Frobenius polynomial is ``levels[r]`` (dense in beta).

    Level r is carried by the monomials t^(k+r) D^k, so the ODE order is the
    degree of levels[0], which is monic; no other level may exceed it.
    """
    n = len(levels[0]) - 1
    coeffs = [{} for _ in range(n + 1)]
    for r, poly in levels.items():
        for k, b in falling_basis(poly).items():
            coeffs[k][k + r] = b
    return CfOde(coeffs)


def log_table(ind) -> list:
    return [(r.alpha, r.multiplicity, r.log_exponent) for r in ind.roots]


small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3))
nonzero = small.filter(bool)


# --- rational roots -------------------------------------------------------------


@st.composite
def split_times_quadratic(draw):
    """c * prod (q x - p) (repeats allowed), times an irreducible quadratic or not."""
    linear = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), max_size=4))
    linear += draw(st.lists(st.sampled_from(linear), max_size=2)) if linear else []
    coeffs = [draw(nonzero)]
    for p, q in linear:
        coeffs = [a * q - p * b for a, b in zip([0] + coeffs, coeffs + [0])]
    if draw(st.booleans()):
        # x^2 + b x + c: no real roots for b in {0, 1} and c >= 1; x^2 - c
        # with c not a square has irrational ones
        quad = draw(
            st.tuples(st.integers(1, 20), st.sampled_from([0, 1]))
            | st.tuples(st.sampled_from([-2, -3, -5, -6, -7, -8, -10, -11]), st.just(0))
        )
        c, b = quad
        shifted = zip(coeffs + [0, 0], [0] + coeffs + [0], [0, 0] + coeffs)
        coeffs = [x * c + y * b + z for x, y, z in shifted]
    return RationalPoly(dict(enumerate(coeffs)))


class TestRationalRootsAgainstTrialDivision:
    @settings(max_examples=200, deadline=None)
    @given(split_times_quadratic())
    @example(RationalPoly({0: 1, 2: 1}))
    @example(RationalPoly({3: Fraction(2, 3)}))
    @example(RationalPoly({0: -1, 1: 2, 2: -1, 3: 2}))  # (2x - 1)(x^2 + 1)
    @example(RationalPoly({0: 12, 1: -16, 2: 7, 3: -1}))  # -(x - 2)^2 (x - 3)
    def test_same_roots_multiplicities_and_residual(self, poly):
        want_roots, want_residual = _rational_roots(poly)
        got_roots, got_residual = algebra.rational_roots(poly)
        assert got_roots == want_roots
        assert str(got_residual) == str(want_residual)


# --- log test -------------------------------------------------------------------


@st.composite
def level_poly(draw, n: int, roots=small):
    """A real or Gaussian polynomial of degree <= n with roots drawn from ``roots``."""
    re = [draw(nonzero) * c for c in product(draw(st.lists(roots, max_size=n)))]
    if draw(st.booleans()):
        return re
    im = [draw(nonzero) * c for c in product(draw(st.lists(small, max_size=n)))]
    unit = draw(st.sampled_from([QI(0, 1), QI(1, 1)]))
    if draw(st.booleans()):  # proportional parts share every root
        return [unit * c for c in re]
    return [QI(a, b) for a, b in zip(re + [0] * len(im), im + [0] * len(re))]


@st.composite
def indicial_with_gaps(draw, step: int = 1):
    """Indicial roots alpha + small integer offsets, maybe one off by 1/2."""
    alpha = draw(small)
    offsets = st.integers(0, 6).map(lambda j: j * step) | st.integers(0, 12)
    roots = [alpha] + [alpha + o for o in draw(st.lists(offsets, min_size=1, max_size=2))]
    if draw(st.booleans()):
        roots.append(alpha + Fraction(1, 2))
    return alpha, roots


@st.composite
def two_level_odes(draw):
    step = draw(st.integers(1, 3))
    alpha, roots = draw(indicial_with_gaps(step))
    if draw(st.booleans()):
        # a root beta = alpha + m - step of P_step kills the chain of alpha at m
        on_chain = st.integers(0, 4).map(lambda j: alpha + j * step)
        kills = draw(st.lists(on_chain, min_size=1, max_size=min(2, len(roots))))
        p_step = [draw(nonzero) * c for c in product(kills)]
    else:
        p_step = draw(level_poly(len(roots)))
    return ode_from_levels({0: product(roots), step: p_step})


@st.composite
def three_level_odes(draw):
    alpha, roots = draw(indicial_with_gaps())
    r1, r2 = sorted(draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True)))
    n = len(roots)
    # roots at alpha + integers can zero the forcing at a gap; a root at
    # alpha in every level keeps the whole series at u_0
    near = st.just(alpha) | st.integers(-2, 10).map(lambda j: alpha + j) | small
    return ode_from_levels(
        {0: product(roots), r1: draw(level_poly(n, near)), r2: draw(level_poly(n, near))}
    )


KILLED = ode_from_levels({0: product([-4, 0]), 2: product([-4])})
KILLED_AT_GAP = ode_from_levels({0: product([-4, 0]), 2: product([-2])})  # PRR's shape
INTERMEDIATE = ode_from_levels({0: product([-4, -2, 0]), 2: [1]})
FAR = ode_from_levels({0: product([-4, 0]), 2: product([-10])})
SILENT = ode_from_levels({0: product([-4, -2, 0]), 1: product([-4]), 2: product([-4])})


class TestLogTestAgainstDenseWalk:
    def test_chain_events(self):
        # P_2(beta) = beta + 4 vanishes at alpha + m - 2 for m = 2: the chain of
        # alpha = -4 dies before it reaches the root 0, so no log enters
        assert log_table(asymptotics.indicial_roots(KILLED))[0] == (-4, 1, None)
        # P_2(beta) = beta + 2 zeroes the forcing at the gap m = 4 itself
        assert log_table(asymptotics.indicial_roots(KILLED_AT_GAP))[0] == (-4, 1, None)
        # the live chain of -4 reaches the intermediate root -2 first
        assert log_table(asymptotics.indicial_roots(INTERMEDIATE))[0] == (-4, 1, -2)
        assert log_table(asymptotics.indicial_roots(FAR))[0] == (-4, 1, 0)
        # P_1 and P_2 both vanish at -4, so the forcing is zero at every m:
        # the free coefficient at -2 is set to 0 and no log enters at 0 either
        assert log_table(asymptotics.indicial_roots(SILENT))[0] == (-4, 1, None)

    @settings(max_examples=150, deadline=None)
    @given(two_level_odes())
    @example(KILLED)
    @example(KILLED_AT_GAP)
    @example(INTERMEDIATE)
    @example(FAR)
    def test_two_levels(self, ode):
        try:
            want = indicial_roots(ode)
        except NotRegularSingular:
            return
        assert log_table(asymptotics.indicial_roots(ode)) == log_table(want)

    @settings(max_examples=100, deadline=None)
    @given(three_level_odes())
    @example(SILENT)
    def test_three_levels(self, ode):
        try:
            want = indicial_roots(ode)
        except NotRegularSingular:
            return
        assert len(_level_polynomials(ode)) == 3
        assert log_table(asymptotics.indicial_roots(ode)) == log_table(want)


# --- unit factoring -------------------------------------------------------------


class TestRealFormAgainstUnitFactoring:
    @settings(max_examples=200, deadline=None)
    @given(level_poly(4))
    @example([QI(0, 2), 0, QI(0, -3)])
    @example([Fraction(1), QI(0, 1)])
    @example([])
    def test_same_real_coefficients_or_none(self, coeffs):
        values = [QI() + c for c in coeffs]
        want = _factor_common_unit(values)
        got = GaussianRationalPoly(dict(enumerate(values))).real_form()
        if want is None:
            assert got is None
        else:
            assert got == RationalPoly(dict(enumerate(want[1])))
