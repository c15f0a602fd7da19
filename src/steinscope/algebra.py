"""Exact univariate polynomial arithmetic over the rationals and the
Gaussian rationals, plus Hermite-basis utilities.

Coefficients are :class:`fractions.Fraction` throughout; nothing in this
module touches floating point.  Polynomials are stored sparsely as
``{degree: coefficient}`` dictionaries with zero coefficients pruned, so the
zero polynomial is the empty dict.  Three coefficient domains appear:

* :class:`RationalPoly` -- polynomials over Q,
* :class:`GaussianRationalPoly` -- polynomials over Q(i), with each
  coefficient a :class:`QI` pair (real, imaginary),
* :class:`HermiteExpansion` -- finite expansions sum_q c_q H_q(x) in the
  probabilists' (monic) Hermite basis, H_{q+1} = x H_q - q H_{q-1}.

The Hermite convention is the probabilists' one: H_0 = 1, H_1 = x,
H_3 = x^3 - 3x, and E[H_a(X) H_b(X)] = a! delta_{ab} for X ~ N(0,1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


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

    def conjugate(self):
        return QI(self.re, -self.im)

    def is_real(self) -> bool:
        return not self.im

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

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
    """Sparse ``{degree: coefficient}`` arithmetic shared by every basis here.

    Subclasses fix the coefficient domain (``_zero``, ``_coerce``) and the
    product of two elements (``_product``); this class supplies the rest of
    the ring: pruning construction, equality, +, -, and scalar *.
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

    def _same_ring(self, other) -> bool:
        return isinstance(other, type(self))

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        """Degree, with the zero element given degree -1."""
        return max(self.c) if self.c else -1

    def coeff(self, d: int):
        return self.c.get(d, self._zero)

    def __eq__(self, other):
        if self._same_ring(other):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        out = dict(self.c)
        for d, v in other.c.items():
            s = out.get(d, self._zero) + v
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return self._new(out)

    def __neg__(self):
        return self._new({d: -v for d, v in self.c.items()})

    def __sub__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if self._same_ring(other):
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

    @classmethod
    def from_list(cls, seq):
        """Build from ``[c0, c1, c2, ...]`` indexed by degree."""
        return cls({d: v for d, v in enumerate(seq)})

    def valuation(self) -> int | None:
        """Order of vanishing at 0; None for the zero polynomial."""
        return min(self.c) if self.c else None

    def leading(self):
        if not self.c:
            return self._zero
        return self.c[max(self.c)]

    def trailing(self):
        """Coefficient of the lowest-degree term (zero for the zero poly)."""
        if not self.c:
            return self._zero
        return self.c[min(self.c)]

    def _product(self, other) -> dict:
        out = {}
        for d1, v1 in self.c.items():
            for d2, v2 in other.c.items():
                d = d1 + d2
                s = out.get(d, self._zero) + v1 * v2
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return out

    def derivative(self):
        return self._new({d - 1: d * v for d, v in self.c.items() if d >= 1})

    def shift(self, k: int):
        """Multiply by x**k (k may be negative if no term drops below 0)."""
        if any(d + k < 0 for d in self.c):
            raise ValueError("shift would create negative degrees")
        return self._new({d + k: v for d, v in self.c.items()})

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


class RationalPoly(_SparsePoly):
    """Sparse polynomial over Q."""

    _zero = Fraction(0)
    _coerce = staticmethod(_as_fraction)

    @classmethod
    def monomial(cls, d: int, coeff=1):
        return cls({d: coeff})

    def to_gaussian(self) -> "GaussianRationalPoly":
        return GaussianRationalPoly({d: QI(v) for d, v in self.c.items()})


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

    @classmethod
    def monomial(cls, d: int, coeff=1):
        return cls({d: coeff})

    def conjugate(self):
        return self._new({d: v.conjugate() for d, v in self.c.items()})

    def real_part(self) -> RationalPoly:
        return RationalPoly({d: v.re for d, v in self.c.items()})

    def imag_part(self) -> RationalPoly:
        return RationalPoly({d: v.im for d, v in self.c.items()})

    def is_real(self) -> bool:
        return all(v.is_real() for v in self.c.values())

    def eval_complex(self, t: float) -> complex:
        """Evaluate at a float point as a complex number."""
        # plain (non-Horner) evaluation is fine for the modest degrees here
        acc = 0j
        for d, v in self.c.items():
            acc += complex(v) * t ** d
        return acc


class HermiteExpansion(_SparseDict):
    """Finite expansion sum_q c_q H_q(x) with exact rational c_q.

    Probabilists' (monic) convention; see the module docstring.  Sums,
    differences and scalar multiples come from the shared sparse-dict ring;
    the product is linearised back into the Hermite basis.
    """

    __slots__ = ()

    _zero = Fraction(0)
    _coerce = staticmethod(_as_fraction)

    def __init__(self, coeffs=None):
        super().__init__(coeffs)
        if any(q < 0 for q in self.c):
            raise ValueError("Hermite degree must be >= 0")

    def _same_ring(self, other) -> bool:
        # a ChaosElement and a plain expansion combine; the result keeps
        # the type of the left operand
        return isinstance(other, HermiteExpansion)

    @classmethod
    def basis(cls, q: int, coeff=1):
        return cls({q: coeff})

    def expectation(self) -> Fraction:
        """E[F(X)] for X ~ N(0,1): the H_0 coefficient, by orthogonality."""
        return self.c.get(0, Fraction(0))

    def second_moment(self) -> Fraction:
        """E[F(X)^2] = sum_q c_q^2 q!, by orthogonality."""
        return sum((v * v * factorial(q) for q, v in self.c.items()), Fraction(0))

    def _product(self, other) -> dict:
        out = {}
        for qa, ca in self.c.items():
            for qb, cb in other.c.items():
                scale = ca * cb
                for q, v in hermite_product(qa, qb).c.items():
                    s = out.get(q, Fraction(0)) + scale * v
                    if s:
                        out[q] = s
                    else:
                        out.pop(q, None)
        return out

    def to_poly(self) -> RationalPoly:
        out = RationalPoly()
        for q, v in self.c.items():
            out = out + v * hermite_to_monomial(q)
        return out

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(f"({v})*H{q}" for q, v in sorted(self.c.items()))


@lru_cache(maxsize=None)
def hermite_to_monomial(q: int) -> RationalPoly:
    """The degree-q monic Hermite polynomial H_q as a RationalPoly.

    H_0 = 1, H_1 = x, and H_{q+1} = x H_q - q H_{q-1}.
    """
    if q < 0:
        raise ValueError("Hermite degree must be >= 0")
    if q == 0:
        return RationalPoly({0: 1})
    if q == 1:
        return RationalPoly({1: 1})
    return hermite_to_monomial(q - 1).shift(1) - (q - 1) * hermite_to_monomial(q - 2)


def monomial_to_hermite(p: RationalPoly) -> HermiteExpansion:
    """Rewrite a polynomial in the Hermite basis (exact, by top-down elimination)."""
    rem = p
    out = {}
    while not rem.is_zero():
        d = rem.degree()
        lead = rem.leading()
        out[d] = lead
        rem = rem - lead * hermite_to_monomial(d)
        if not rem.is_zero() and rem.degree() >= d:
            raise AssertionError("degree failed to drop in Hermite conversion")
    return HermiteExpansion(out)


@lru_cache(maxsize=None)
def hermite_product(a: int, b: int) -> HermiteExpansion:
    """Linearisation H_a H_b = sum_r C(a,r) C(b,r) r! H_{a+b-2r}."""
    if a < 0 or b < 0:
        raise ValueError("Hermite degrees must be >= 0")
    return HermiteExpansion({
        a + b - 2 * r: comb(a, r) * comb(b, r) * factorial(r)
        for r in range(min(a, b) + 1)
    })


def gaussian_moment(n: int) -> Fraction:
    """E[X^n] for X ~ N(0,1): zero for odd n, (n-1)!! for even n."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if n % 2:
        return Fraction(0)
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return Fraction(out)


def poly_gaussian_expectation(p: RationalPoly) -> Fraction:
    """E[p(X)] for X ~ N(0,1), exactly."""
    return sum((v * gaussian_moment(d) for d, v in p.c.items()), Fraction(0))


def falling_factorial(x, j: int):
    """x (x-1) ... (x-j+1); exact for Fraction input, with (x)_0 = 1."""
    out = x * 0 + 1 if not isinstance(x, int) else 1
    for k in range(j):
        out = out * (x - k)
    return out
