"""Second witness for the moment relation E[S y^k] = 0.

``_ReferenceRecurrence`` below is the implementation the package used
before ``operators.moment_row`` read its coefficients from the integer
falling factorials of ``algebra.falling_factorials``: it stored one
polynomial in k per moment shift, built from ``algebra.falling_poly``, and
evaluated it by Horner at Fraction(k).  It is kept verbatim as a reference
oracle: for random operators, every coefficient row for k <= 12, the shift
range (``moment_shifts``) and the leading polynomial (``top_moment_poly``)
must equal the oracle's, and so must every residual
``verification.check_moment_recurrence`` computes from those rows.
"""

from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings

from steinscope.algebra import _as_fraction, accumulate, falling_poly, gaussian_moment
from steinscope.operators import (
    SteinOperator, catalog_get, moment_row, moment_shifts, top_moment_poly,
)
from steinscope.verification import check_moment_recurrence

from test_operators import operator_st

# --- reference oracle, verbatim -------------------------------------------------


class _ReferenceRecurrence:
    """The exact relation sum_s c_s(k) E[W^{k+s}] = 0 implied by an operator.

    Substituting f(y) = y^k into E[Sf(W)] = 0 gives
    sum_{i,j} a_{i,j} (k)_j E[W^{k+i-j}] = 0 where (k)_j is the falling
    factorial.  Terms are grouped by the moment shift s = i - j; each
    coefficient c_s is a polynomial in k with rational coefficients.  For
    integer k >= 0 every term that would reference a negative-order moment
    has a vanishing falling factorial, so ``coefficients(k)`` only ever
    references E[W^n] with n >= 0.
    """

    __slots__ = ("terms", "operator")

    def __init__(self, op: SteinOperator):
        self.terms = accumulate((i - j, v * falling_poly(j)) for (i, j), v in op.a.items())
        self.operator = op

    @property
    def max_shift(self) -> int:
        return max(self.terms)

    @property
    def min_shift(self) -> int:
        return min(self.terms)

    def coefficients(self, k: int) -> dict[int, Fraction]:
        """Nonzero coefficients {shift: c_s(k)} of the order-k relation."""
        if k < 0:
            raise ValueError("k must be >= 0")
        out = {}
        for s, p in self.terms.items():
            v = p(Fraction(k))
            if v:
                if k + s < 0:
                    raise AssertionError(
                        "negative moment index with nonzero coefficient"
                    )
                out[s] = v
        return out

    def residual(self, moment_oracle, k: int) -> Fraction:
        """sum_s c_s(k) E[W^{k+s}] with moments from ``moment_oracle(order)``."""
        return sum(
            (v * _as_fraction(moment_oracle(k + s))
             for s, v in self.coefficients(k).items()),
            Fraction(0),
        )

    def leading_coefficient_poly(self):
        """c_{s_max}(k): the polynomial multiplying the highest moment."""
        return self.terms[self.max_shift]


# --- the comparison ---------------------------------------------------------------

_ORDERS = range(13)


def _assert_same_relation(op: SteinOperator):
    ref = _ReferenceRecurrence(op)
    assert moment_shifts(op) == (ref.min_shift, ref.max_shift)
    assert top_moment_poly(op) == ref.leading_coefficient_poly()
    for k in _ORDERS:
        row = moment_row(op, k)
        assert row == ref.coefficients(k)
        assert all(type(v) is Fraction and v for v in row.values())
    reports = check_moment_recurrence(op, SimpleNamespace(moment=gaussian_moment),
                                      K=max(_ORDERS))
    assert [r.residual for r in reports] == [ref.residual(gaussian_moment, k) for k in _ORDERS]


class TestMomentRelationOracle:
    @settings(max_examples=150, deadline=None)
    @given(operator_st)
    def test_random_operators_match_the_oracle(self, op):
        _assert_same_relation(op)

    def test_catalog_operators_match_the_oracle(self):
        for spec in ("gauss_classical", "H3_T4m3", "H4_T2m3", "H5_T13m4", "H6_T6m3",
                     "gauss_semicircle_T5", "PN:p=9", "PRR:s=3/2", "BG1:a=1/2,b=1,r=2"):
            _assert_same_relation(catalog_get(spec))
