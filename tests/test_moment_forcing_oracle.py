"""Second witness for the symbolic moment forcing.

``_LinearMoments`` and ``_moment_forcing`` below are the implementation the
package used before the moment expressions became local state of
``asymptotics._moment_forcing`` built on ``algebra.accumulate``.  They are
kept verbatim as a reference oracle, except that an inconsistent row k now
gives (False, [], k) rather than (False, [], rows): hypothesis checks that the
package's walk over the rows it builds once returns the same (pinned, free
moments, rows) on random small operators under every combination of the side
conditions zero_mean and symmetry.  On the reference it also checks the two
facts that let a verdict walk at most three options: zero_mean adds nothing to
symmetry, and rows no law satisfies stay so under every side condition.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from steinscope import asymptotics
from steinscope.algebra import rational_roots
from steinscope.operators import MomentRecurrence, SteinOperator, catalog_get

# --- reference oracle -----------------------------------------------------------


class _LinearMoments:
    """Moments as exact linear expressions in lazily created free unknowns."""

    def __init__(self, zero_mean: bool, symmetry: bool):
        self.zero_mean = zero_mean
        self.symmetry = symmetry
        self.moments: dict[int, dict] = {0: {None: Fraction(1)}}
        self.sym_moment: dict[int, int] = {}
        self.counter = 0

    def get(self, nth: int) -> dict:
        if nth not in self.moments:
            if (self.symmetry and nth % 2) or (self.zero_mean and nth == 1):
                self.moments[nth] = {}
            else:
                sym = self.counter
                self.counter += 1
                self.sym_moment[sym] = nth
                self.moments[nth] = {sym: Fraction(1)}
        return self.moments[nth]

    def known(self, nth: int) -> bool:
        return nth in self.moments or (self.symmetry and nth % 2) or (
            self.zero_mean and nth == 1
        )

    @staticmethod
    def _add_scaled(acc: dict, expr: dict, scale: Fraction):
        for k, v in expr.items():
            tot = acc.get(k, Fraction(0)) + scale * v
            if tot:
                acc[k] = tot
            else:
                acc.pop(k, None)

    def set_from_row(self, nth: int, rest: dict, coeff: Fraction):
        expr: dict = {}
        self._add_scaled(expr, rest, Fraction(-1) / coeff)
        self.moments[nth] = expr

    def pin_symbol(self, expr: dict) -> bool:
        """Use expr = 0 to eliminate one free symbol; False if inconsistent."""
        syms = [k for k in expr if k is not None]
        if not syms:
            return not expr  # pure nonzero constant -> inconsistent
        sym = max(syms)
        coeff = expr[sym]
        sub = {k: -v / coeff for k, v in expr.items() if k != sym}
        for m_expr in self.moments.values():
            if sym in m_expr:
                scale = m_expr.pop(sym)
                self._add_scaled(m_expr, sub, scale)
        return True

    def free_moment_indices(self) -> list[int]:
        live = set()
        for expr in self.moments.values():
            live.update(k for k in expr if k is not None)
        return sorted(self.sym_moment[s] for s in live)


def _moment_forcing(op: SteinOperator, zero_mean: bool, symmetry: bool):
    """Do the recurrence rows E[S y^k] = 0 pin every moment of the target?

    Processes rows until past every degenerate row (vanishing top coefficient)
    plus a safety margin; returns (pinned: bool, free moment orders, rows).
    """
    rec = MomentRecurrence(op)
    smax, smin = rec.max_shift, rec.min_shift
    top_roots, _ = rational_roots(rec.leading_coefficient_poly())
    deg_rows = [int(r) for r in top_roots if r.denominator == 1 and r >= 0]
    rows = (max(deg_rows) + 1 if deg_rows else 0) + (smax - smin) + abs(smax) + 8
    state = _LinearMoments(zero_mean, symmetry)
    for k in range(rows + 1):
        cs = rec.coefficients(k)
        if not cs:
            continue
        top = k + smax
        if smax in cs and not state.known(top):
            rest: dict = {}
            for sft, v in cs.items():
                if sft != smax:
                    state._add_scaled(rest, state.get(k + sft), v)
            state.set_from_row(top, rest, cs[smax])
            continue
        expr: dict = {}
        for sft, v in cs.items():
            state._add_scaled(expr, state.get(k + sft), v)
        if expr and not state.pin_symbol(expr):
            return False, [], k  # inconsistent: no law satisfies the system
    free = state.free_moment_indices()
    return not free, free, rows


# --- the comparison -----------------------------------------------------------------

CONDITIONS = [(False, False), (True, False), (False, True), (True, True)]

coefficient = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)
)
operators = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficient, min_size=1, max_size=6
).map(SteinOperator)


def check_agrees(op: SteinOperator) -> None:
    _, walk = asymptotics._moment_forcing(op)
    for zero_mean, symmetry in CONDITIONS:
        assert walk(zero_mean, symmetry) == _moment_forcing(
            op, zero_mean, symmetry
        ), (op, zero_mean, symmetry)


class TestMomentForcingOracle:
    @settings(max_examples=300, deadline=None)
    @given(operators)
    # the classical Gaussian operator pins every moment with no condition
    @example(SteinOperator({(0, 1): 1, (1, 0): -1}))
    # D + y^2: E[W] is free, pinned by zero_mean, inconsistent with symmetry
    @example(SteinOperator({(0, 1): 1, (2, 0): 1}))
    # y + y^3 D: E[W^2] is free unless symmetry is assumed
    @example(SteinOperator({(1, 0): 1, (3, 1): 1}))
    # the constant operator 1: the row k = 0 reads 1 = 0
    @example(SteinOperator({(0, 0): 1}))
    def test_random_operators_agree(self, op):
        check_agrees(op)

    def test_catalog_operators_agree(self):
        for spec in ("H3_T4m3", "H4_T2m3", "H6_T6m3", "gauss_semicircle_T5",
                     "PN:p=4", "PRR:s=3/2", "BG1:a=1/2,b=1,r=2", "G1G2:r=1,s=2,lam=1"):
            check_agrees(catalog_get(spec))


class TestForcingOptions:
    """What the verdict relies on to walk at most three options."""

    @settings(max_examples=300, deadline=None)
    @given(operators)
    @example(SteinOperator({(0, 1): 1, (2, 0): 1}))
    def test_zero_mean_adds_nothing_to_symmetry(self, op):
        # symmetry already gives E[W] = 0
        assert _moment_forcing(op, True, True) == _moment_forcing(op, False, True)

    @settings(max_examples=300, deadline=None)
    @given(operators)
    @example(SteinOperator({(0, 0): 1}))
    def test_inconsistent_rows_stay_inconsistent_under_every_option(self, op):
        # a side condition only shrinks the solution set
        pinned, free, _ = _moment_forcing(op, False, False)
        if not pinned and not free:
            for zero_mean, symmetry in CONDITIONS:
                pinned, free, _ = _moment_forcing(op, zero_mean, symmetry)
                assert (pinned, free) == (False, []), (op, zero_mean, symmetry)
