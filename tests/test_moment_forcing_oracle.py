"""Witnesses for the moment forcing.

``asymptotics._moment_forcing`` inserts each recurrence row into one reduced
echelon form (``algebra.echelon_insert``), the highest moment order pivoted
first.  Hypothesis checks it on random operators with i, j <= 5 and up to
eight terms, under every combination of the side conditions zero_mean and
symmetry, against two witnesses:

* ``_LinearMoments`` and ``_moment_forcing`` below are the walk the package
  used before: each moment an exact linear expression in unknowns created on
  first use, and a row that cannot solve for its top moment eliminating its
  newest unknown.  They are kept verbatim, except that an inconsistent row k
  gives (False, [], k) rather than (False, [], rows).  They witness whether
  every moment is pinned, the first inconsistent row and the number of free
  moments.  Which moments they leave free follows the order in which an
  operator's coefficient dict yields its shifts, so their free set is not
  compared.
* ``dense_free_orders`` witnesses the free set: an order n >= 1 that the rows
  read is free iff its column of the rows, as a dense Fraction matrix, lies
  in the span of the columns of the higher orders.

On the reference it also checks the two facts that let a verdict walk at
most three options: zero_mean adds nothing to symmetry, and rows no law
satisfies stay so under every side condition.  Last, a verdict and each walk
are the same for an operator's coefficients in file order and in reverse, down
to the intermediate level a failed power correction names.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from steinscope import asymptotics
from steinscope.algebra import rational_roots
from steinscope.asymptotics import characterisation_verdict
from steinscope.operators import (
    SteinOperator, catalog_get, moment_row, moment_shifts, top_moment_poly,
)

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
    smin, smax = moment_shifts(op)
    top_roots, _ = rational_roots(top_moment_poly(op))
    deg_rows = [int(r) for r in top_roots if r.denominator == 1 and r >= 0]
    rows = (max(deg_rows) + 1 if deg_rows else 0) + (smax - smin) + abs(smax) + 8
    state = _LinearMoments(zero_mean, symmetry)
    for k in range(rows + 1):
        cs = moment_row(op, k)
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


# --- dense witness for the free set ---------------------------------------------------


def dense_free_orders(op: SteinOperator, zero_mean: bool, symmetry: bool, K: int) -> list[int]:
    """Orders n >= 1 read by rows 0..K whose column lies in the span of the higher ones.

    The columns, one per moment order the rows read, are taken from the
    highest order down; each is reduced against the columns kept so far and
    kept if anything is left, so it is in their span iff it reduces to zero.
    """
    def vanishes(n):
        return (symmetry and n % 2 == 1) or (zero_mean and n == 1)

    rows = [
        {k + s: c for s, c in moment_row(op, k).items() if not vanishes(k + s)}
        for k in range(K + 1)
    ]
    kept = []  # (pivot index, reduced column)
    free = []
    for n in sorted({n for row in rows for n in row if n}, reverse=True):
        col = [Fraction(row.get(n, 0)) for row in rows]
        for p, vec in kept:
            if col[p]:
                f = col[p] / vec[p]
                col = [a - f * b for a, b in zip(col, vec)]
        pivot = next((i for i, x in enumerate(col) if x), None)
        if pivot is None:
            free.append(n)
        else:
            kept.append((pivot, col))
    return sorted(free)


# --- the comparison -----------------------------------------------------------------

CONDITIONS = [(False, False), (True, False), (False, True), (True, True)]

coefficient = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)
)
operators = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), coefficient, min_size=1, max_size=8
).map(SteinOperator)

# an operator file whose free moments the old walk named by coefficient order:
# [1, 4] read in file order, [3, 4] in reverse
ORDER_SENSITIVE = SteinOperator.from_json_dict({"T": 4, "m": 5, "coeff": [
    ["0", "0", "-2/3", "0", "0"], ["0", "-1/2", "0", "0", "0"],
    ["5/4", "0", "0", "-1/4", "0"], ["0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "2/3"], ["0", "0", "-3/2", "0", "0"],
]})

# an operator file whose free moments the old walk named [2, 5] in file order;
# E[W] is free once E[W^2] is pinned, so the rule gives [1, 5]
FILE_ORDER_CHANGED = SteinOperator.from_json_dict({"T": 4, "m": 5, "coeff": [
    ["0", "0", "0", "0", "0"], ["0", "0", "0", "4/3", "0"], ["0", "0", "-1/2", "0", "0"],
    ["0", "1", "2", "0", "-3"], ["0", "0", "0", "0", "0"], ["0", "0", "0", "-1/2", "0"],
]})
# two intermediate levels of a power correction: the failure named t^-3 in
# file order and t^-2 in reverse before the levels were read by degree
TWO_INTERMEDIATE_LEVELS = SteinOperator.from_json_dict({"T": 5, "m": 2, "coeff": [
    ["0", "0", "0", "0", "4/3", "-1"], ["-1", "1/2", "2", "0", "0", "0"],
    ["0", "0", "0", "0", "-1/2", "0"],
]})


def reversed_coefficients(op: SteinOperator) -> SteinOperator:
    """The same operator with its coefficients inserted in reverse order."""
    return SteinOperator(dict(reversed(op.a.items())))


def check_agrees(op: SteinOperator) -> None:
    _, walk = asymptotics._moment_forcing(op)
    if walk is None:
        return
    for zero_mean, symmetry in CONDITIONS:
        got = walk(zero_mean, symmetry)
        pinned, free, k = _moment_forcing(op, zero_mean, symmetry)
        assert (got[0], len(got[1]), got[2]) == (pinned, len(free), k), (op, zero_mean, symmetry)
        if pinned or free:  # the rows are consistent and k is their last
            assert got[1] == dense_free_orders(op, zero_mean, symmetry, k), (
                op, zero_mean, symmetry)


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
    @example(ORDER_SENSITIVE)
    @example(FILE_ORDER_CHANGED)
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


class TestCoefficientOrder:
    """A report is a function of the operator, not of its coefficients' order."""

    @settings(max_examples=150, deadline=None)
    @given(operators)
    @example(ORDER_SENSITIVE)
    @example(TWO_INTERMEDIATE_LEVELS)
    def test_verdicts_and_walks_ignore_coefficient_order(self, op):
        back = reversed_coefficients(op)
        for zero_mean, symmetric in CONDITIONS:
            assert characterisation_verdict(
                op, symmetric=symmetric, zero_mean=zero_mean
            ).as_json() == characterisation_verdict(
                back, symmetric=symmetric, zero_mean=zero_mean
            ).as_json(), (op, zero_mean, symmetric)
        _, walk = asymptotics._moment_forcing(op)
        _, walk_back = asymptotics._moment_forcing(back)
        if walk is not None:
            for zero_mean, symmetry in CONDITIONS:
                assert walk(zero_mean, symmetry) == walk_back(zero_mean, symmetry)

    @pytest.mark.parametrize("op, free", [(ORDER_SENSITIVE, (1, 4)), (FILE_ORDER_CHANGED, (1, 5))],
                             ids=["order_sensitive", "file_order_changed"])
    def test_the_highest_orders_are_pivoted_first(self, op, free):
        for each in (op, reversed_coefficients(op)):
            assert dict(characterisation_verdict(each).diagnostics)["free_moments"] == free

    def test_the_first_intermediate_level_is_the_lowest_degree(self):
        for op in (TWO_INTERMEDIATE_LEVELS, reversed_coefficients(TWO_INTERMEDIATE_LEVELS)):
            failure, = dict(characterisation_verdict(op).diagnostics)["correction_failures"]
            assert "intermediate level t^-3 " in failure
