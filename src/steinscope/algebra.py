"""Exact univariate polynomial arithmetic over the rationals and the
Gaussian rationals, plus the monomial form of the Hermite polynomials and
the Gaussian moments of polynomials.

Coefficients are :class:`fractions.Fraction` throughout.  Polynomials are
stored sparsely as ``{degree: coefficient}`` dictionaries with zero
coefficients pruned, so the zero polynomial is the empty dict.  Two
coefficient domains appear:

* :class:`RationalPoly` -- polynomials over Q,
* :class:`GaussianRationalPoly` -- polynomials over Q(i), with each
  coefficient a :class:`QI` pair (real, imaginary).

``accumulate`` is the package's one add-and-prune loop for sparse dicts.
The sparse-dict ring (``_SparseDict``) also carries the Hermite chaos
expansions of ``malliavin.ChaosElement``.  ``hermite_to_monomial`` gives the
probabilists' (monic) Hermite polynomial H_q in monomials: H_0 = 1,
H_1 = x, H_3 = x^3 - 3x, and E[H_a(X) H_b(X)] = a! delta_{ab} for
X ~ N(0,1).  ``gaussian_power_moments`` is the one engine for E[f(X)^k].
``RationalPoly.float_coefficients`` is the one numpy entry; it loads numpy
when called, so exact code never imports it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, lcm
from operator import mul


def accumulate(pairs, out=None) -> dict:
    """Add each (key, value) of ``pairs`` into ``out`` (a new dict if None).

    A key whose sum is zero is dropped, so the result holds only nonzero
    values; values may be Fractions, QI or sparse polynomials.  Returns
    ``out``.
    """
    out = {} if out is None else out
    for key, value in pairs:
        if key in out:
            value = out[key] + value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


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
    """Sparse ``{degree: coefficient}`` arithmetic shared by every basis.

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


class RationalPoly(_SparsePoly):
    """Sparse polynomial over Q."""

    _zero = Fraction(0)
    _coerce = staticmethod(_as_fraction)

    def to_gaussian(self) -> "GaussianRationalPoly":
        return GaussianRationalPoly({d: QI(v) for d, v in self.c.items()})

    def float_coefficients(self):
        """Dense numpy float array of the coefficients, constant first.

        The zero polynomial gives [0.].  A coefficient too large for a float
        raises OverflowError naming its degree.
        """
        import numpy as np

        dense = np.zeros(max(self.degree() + 1, 1))
        for d, v in self.c.items():
            try:
                dense[d] = float(v)
            except OverflowError:
                raise OverflowError(
                    f"the x^{d} coefficient does not fit in a float"
                ) from None
        return dense


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

    def eval_complex(self, t: float) -> complex:
        """Evaluate at a float point as a complex number."""
        # plain (non-Horner) evaluation is fine for the modest degrees here
        acc = 0j
        for d, v in self.c.items():
            acc += complex(v) * t ** d
        return acc


@lru_cache(maxsize=None)
def hermite_to_monomial(q: int) -> RationalPoly:
    """The degree-q monic Hermite polynomial H_q as a RationalPoly.

    Built bottom-up on integer lists from H_0 = 1 by
    H_{n+1} = x H_n - n H_{n-1}, so any q works without deep recursion.
    """
    if q < 0:
        raise ValueError("Hermite degree must be >= 0")
    prev, cur = [], [1]
    for n in range(q):
        nxt = [0] + cur
        for d, v in enumerate(prev):
            nxt[d] -= n * v
        prev, cur = cur, nxt
    return RationalPoly(dict(enumerate(cur)))


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


def gaussian_power_moments(f: RationalPoly):
    """Yield E[f(X)^k] for X ~ N(0,1) and k = 0, 1, 2, ..., exactly.

    f is cleared to integers once (f = g / L); the generator keeps only the
    current power g^k as a dense integer list and sums it against
    E[X^d] = (d-1)!! for even d, so E[f^k] = sum_d g^k_d (d-1)!! / L^k.
    """
    scale = lcm(*(v.denominator for v in f.c.values()))
    g = [(i, int(v * scale)) for i, v in f.c.items()]
    power, double_factorials = [1], [1]  # g^k; (2j-1)!! for j = 0, 1, ...
    for k in count():
        while 2 * len(double_factorials) < len(power):
            j = len(double_factorials)
            double_factorials.append(double_factorials[-1] * (2 * j - 1))
        yield Fraction(sum(map(mul, power[::2], double_factorials)), scale**k)
        nxt = [0] * (len(power) + f.degree())
        for i, gi in g:
            for d, pd in enumerate(power, i):
                nxt[d] += gi * pd
        power = nxt


def cumulants_from_moments(moment_oracle, r: int) -> Fraction:
    """kappa_r from a moment oracle, by the standard recursion.

    kappa_n = mu_n - sum_{m=1}^{n-1} C(n-1, m-1) kappa_m mu_{n-m}.
    """
    if r < 1:
        raise ValueError("cumulant order must be >= 1")
    mu = [Fraction(1)] + [_as_fraction(moment_oracle(n)) for n in range(1, r + 1)]
    kappa = [Fraction(0)]
    for n in range(1, r + 1):
        k_n = mu[n] - sum(
            comb(n - 1, m - 1) * kappa[m] * mu[n - m] for m in range(1, n)
        )
        kappa.append(k_n)
    return kappa[r]


@lru_cache(maxsize=None)
def falling_poly(k: int, start: int = 0) -> RationalPoly:
    """(x)_k / (x)_start = (x - start) (x - start - 1) ... (x - k + 1) in x.

    Cached; callers must not modify the result.
    """
    out = RationalPoly({0: 1})
    for l in range(start, k):
        out = out * RationalPoly({1: 1, 0: -l})
    return out


def falling_factorial(x, j: int):
    """x (x-1) ... (x-j+1); exact for Fraction input, with (x)_0 = 1."""
    out = x * 0 + 1 if not isinstance(x, int) else 1
    for k in range(j):
        out = out * (x - k)
    return out
