"""The Gaussian rationals, and the characteristic-function ODE over them.

The package analyses the transform of an operator as rational coefficients
with quarter turns (``operators.CfOde``).  This module keeps, as a test-side
reference, the Gaussian-rational arithmetic it used before: ``QI``,
``GaussianRationalPoly`` and the ODE ``psi_transform`` built over them, as
they were (less ``real_form`` and ``QI.conjugate``, which no test needs),
with its own copy of the sparse-dict ring, since the package's is over Q
alone.
Tests compare the package with it, and the float witnesses (``cf_witness``,
``test_branch_witness``) evaluate its complex coefficients.  ``gaussian``
gives the ODE over Q(i) that a package ODE stands for, and ``rendered`` the
``ode`` block the reports printed from this form.  ``test_qi_witness``
checks the arithmetic itself.
"""

from __future__ import annotations

from fractions import Fraction

from steinscope.algebra import RationalPoly, _as_fraction, accumulate
from steinscope.operators import SteinOperator


class QI:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    @staticmethod
    def _coerce(other):
        if isinstance(other, QI):
            return other
        if isinstance(other, (int, Fraction)):
            return QI(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QI._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * other.re + self.im * other.im) / n,
                  (self.im * other.re - self.re * other.im) / n)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


#: i**k as an exact QI, for any integer k (negative included).
def unit_ipow(k: int) -> QI:
    return (QI(1), QI(0, 1), QI(-1), QI(0, -1))[k % 4]


class _SparseDict:
    """Sparse ``{degree: coefficient}`` arithmetic over any coefficient domain.

    The package's ``algebra._SparseDict`` as it was before its domain
    became Q alone.  Subclasses fix the coefficient domain (``_zero``,
    ``_coerce``) and the product of two elements (``_product``); this class
    supplies the rest of the ring: pruning construction, equality, +, -,
    and scalar *.
    """

    __slots__ = ("c",)

    # subclasses set these
    _zero = None
    _coerce = None

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for d, v in coeffs.items():
                v = self._coerce(v)
                if v:
                    c[int(d)] = v
        self.c = c

    def _new(self, c: dict):
        """An element of this type with the already-pruned coefficients ``c``."""
        r = type(self).__new__(type(self))
        r.c = c
        return r

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def degree(self) -> int:
        """Degree, with the zero element given degree -1."""
        return max(self.c) if self.c else -1

    def coeff(self, d: int):
        return self.c.get(d, self._zero)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._new(accumulate(other.c.items(), dict(self.c)))

    def __neg__(self):
        return self._new({d: -v for d, v in self.c.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._new(self._product(other))
        try:
            scalar = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._new({d: v * scalar for d, v in self.c.items()} if scalar else {})

    __rmul__ = __mul__


class _SparsePoly(_SparseDict):
    """Sparse polynomials in the monomial basis; subclasses fix the domain."""

    __slots__ = ()

    def valuation(self) -> int | None:
        """Order of vanishing at 0; None for the zero polynomial."""
        return min(self.c) if self.c else None

    def leading(self):
        if not self.c:
            return self._zero
        return self.c[max(self.c)]

    def _product(self, other) -> dict:
        return accumulate(
            (d1 + d2, v1 * v2) for d1, v1 in self.c.items() for d2, v2 in other.c.items()
        )

    def derivative(self):
        return self._new({d - 1: d * v for d, v in self.c.items() if d >= 1})

    def __call__(self, x):
        """Evaluate by Horner; exact when x is exact, float/complex otherwise."""
        acc = None
        for d in sorted(self.c, reverse=True):
            v = self.c[d]
            if acc is None:
                acc = v, d
                continue
            val, deg = acc
            val = val * (x ** (deg - d)) + v
            acc = val, d
        if acc is None:
            return 0 * x if not isinstance(x, (int, float, complex)) else 0
        val, deg = acc
        return val * x ** deg if deg else val

    def __repr__(self):
        if not self.c:
            return "0"
        parts = [f"({v})*x^{d}" if d else f"({v})" for d, v in sorted(self.c.items())]
        return " + ".join(parts)


def _as_qi(x) -> QI:
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction, str)):
        return QI(_as_fraction(x))
    raise TypeError(f"expected a Gaussian rational, got {type(x).__name__}")


class GaussianRationalPoly(_SparsePoly):
    """Sparse polynomial over Q(i)."""

    _zero = QI()
    _coerce = staticmethod(_as_qi)


def to_gaussian(poly: RationalPoly) -> GaussianRationalPoly:
    return GaussianRationalPoly({d: QI(v) for d, v in poly.c.items()})


class CfOde:
    """Linear ODE sum_i c_i(t) phi^{(i)}(t) = 0 with Gaussian-rational c_i.

    ODEs produced by ``psi_transform`` are normalised by the unit
    u in {1, i, -1, -i} that makes the top-degree coefficient of the leading
    polynomial c_n real and positive (coefficients off both axes are left
    untouched); the applied unit is recorded in ``unit``, which reports
    print.  Directly constructed ODEs carry ``unit=None``.
    """

    __slots__ = ("coeffs", "unit")

    def __init__(self, coeffs, unit: QI | None = None):
        cs = []
        for c in coeffs:
            if isinstance(c, GaussianRationalPoly):
                cs.append(c)
            elif isinstance(c, RationalPoly):
                cs.append(to_gaussian(c))
            elif isinstance(c, dict):
                cs.append(GaussianRationalPoly(c))
            else:
                raise TypeError(f"cannot build ODE coefficient from {type(c)}")
        if not cs or cs[-1].is_zero():
            raise ValueError("the leading ODE coefficient must be nonzero")
        self.coeffs = tuple(cs)
        self.unit = unit

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, CfOde):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        terms = []
        for i in range(self.order, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            head = "phi" if i == 0 else f"phi^({i})"
            terms.append(f"({c})*{head}")
        return f"CfOde({' + '.join(terms)} = 0)"


def _normalising_unit(lead: GaussianRationalPoly) -> QI:
    d = lead.leading()
    if d.im == 0:
        return QI(1) if d.re > 0 else QI(-1)
    if d.re == 0:
        return QI(0, -1) if d.im > 0 else QI(0, 1)
    return QI(1)


def psi_transform(op: SteinOperator) -> CfOde:
    """The ODE satisfied by characteristic functions of laws annihilated by op.

    Maps a_{i,j} y^i D^j to a_{i,j} i^{j-i} t^j phi^{(i)}, with the
    coefficients scaled by the normalising unit.
    """
    rows: list[dict] = [{} for _ in range(op.m + 1)]
    for (i, j), v in op.a.items():
        rows[i][j] = unit_ipow(j - i) * v
    coeffs = [GaussianRationalPoly(r) for r in rows]
    u = _normalising_unit(coeffs[-1])
    return CfOde([u * c for c in coeffs], unit=u)


def gaussian(ode) -> CfOde:
    """The ODE over Q(i) that a package ``operators.CfOde`` stands for.

    Its t^d phi^(k) coefficient is i^(turns + d - k) a_{k,d}.
    """
    return CfOde(
        [
            GaussianRationalPoly({d: unit_ipow(ode.turns + d - k) * v for d, v in c.c.items()})
            for k, c in enumerate(ode.coeffs)
        ],
        unit=unit_ipow(ode.turns),
    )


def rendered(ode: CfOde) -> dict:
    """The ``ode`` block of a report, printed from the ODE over Q(i)."""
    return {
        "order": ode.order,
        "unit": None if ode.unit is None else str(ode.unit),
        "coefficients": [str(c) for c in ode.coeffs],
        "display": repr(ode),
    }
