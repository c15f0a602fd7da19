"""Exact univariate polynomial arithmetic over the rationals, plus the
monomial form of the Hermite polynomials and the Gaussian moments of
polynomials.

Coefficients are :class:`fractions.Fraction` throughout.  Polynomials
(:class:`RationalPoly`) are stored sparsely as ``{degree: coefficient}``
dictionaries with zero coefficients pruned, so the zero polynomial is the
empty dict.  No coefficient is complex: the characteristic-function ODE
keeps its powers of i as quarter turns beside rational coefficients
(``operators.CfOde``).

``_as_fraction`` is the one reader for exact numbers given as text: operator
files, catalog and target specs and Hermite indices all go through it.
``accumulate`` is the package's one add-and-prune loop for sparse dicts.
``echelon_insert``, built on it, is the one elimination over Q: a reduced
echelon form grown a sparse row at a time, pivoting on the highest column
or the lowest (discovery's nullspace is eliminated modulo primes).
The sparse-dict ring (``_SparseDict``) also carries the Hermite chaos
expansions of ``malliavin.ChaosElement``.  ``hermite_to_monomial`` gives the
probabilists' (monic) Hermite polynomial H_q in monomials: H_0 = 1,
H_1 = x, H_3 = x^3 - 3x, and E[H_a(X) H_b(X)] = a! delta_{ab} for
X ~ N(0,1).  ``gaussian_power_moments`` is the one engine for E[f(X)^k];
cumulants from those moments belong to the test witness
``tests/chaos_witness.py``, as no command reads them.
``RationalPoly.float_coefficients`` is the one numpy entry; it loads numpy
when called, so exact code never imports it.  ``float_horner`` evaluates
such coefficients on a sample array with numpy polyval's exact roundings.

``rational_roots`` is the one exact root finder over Q (Sturm isolation on
integers), ``primitive`` the one primitive part, and ``_horner`` the one
exact Horner, which also evaluates a ``RationalPoly`` at an exact point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from operator import mul


def accumulate(pairs, out=None) -> dict:
    """Add each (key, value) of ``pairs`` into ``out`` (a new dict if None).

    A key whose sum is zero is dropped, so the result holds only nonzero
    values; values may be Fractions or sparse polynomials.  Returns
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


def echelon_insert(pivots: dict, row: dict, lead):
    """Add the sparse row ``{column: Fraction}`` to the reduced echelon form ``pivots``.

    ``pivots`` maps each pivot column to its row, scaled to 1 there and zero
    at the other pivots.  The reduced row pivots on ``lead`` (``min`` or
    ``max``) of its columns, which is cleared from the other rows and
    returned; a row in the span returns None and changes nothing.  A span
    has one such form for each ``lead``, whatever the order of its rows.
    """
    row = dict(row)
    # pivot rows are zero at each other's pivots, so one pass reduces the row
    for p in [p for p in row if p in pivots]:
        factor = -row[p]
        accumulate(((c, factor * v) for c, v in pivots[p].items()), row)
    if not row:
        return None
    col = lead(row)
    row = {c: v / row[col] for c, v in row.items()}
    # a row's pivot is its lead, so only a row pivoted before col can hold it
    if pivots and lead(lead(pivots), col) != col:
        for other in pivots.values():
            if factor := other.get(col):
                accumulate(((c, -factor * v) for c, v in row.items()), other)
    pivots[col] = row
    return col


# an optionally signed integer, or p/q with a nonzero denominator q
_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d*[1-9]\d*))?", re.ASCII)


def _clip(text: str, width: int = 40) -> str:
    """``text`` cut to ``width`` characters, for an error message."""
    return text if len(text) <= width else text[:width] + "..."


def _as_fraction(x) -> Fraction:
    """A Fraction from a Fraction, an int, or text in the ``_RATIONAL`` grammar
    (surrounding whitespace ignored; other text raises ValueError).  A value
    has no more digits than its text, and ``int()``'s digit limit rejects an
    over-long literal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        match = _RATIONAL.fullmatch(x.strip())
        if match is None:
            raise ValueError(f"malformed rational {_clip(x)!r}")
        return Fraction(int(match[1]), int(match[2] or 1))
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class _SparseDict:
    """Sparse ``{degree: coefficient}`` arithmetic over Q shared by every basis.

    Coefficients are Fractions, read by ``_as_fraction``.  Subclasses fix
    the product of two elements (``_product``); this class supplies the
    rest of the ring: pruning construction, equality, +, -, and scalar *.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for d, v in coeffs.items():
                v = _as_fraction(v)
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

    def coeff(self, d: int) -> Fraction:
        return self.c.get(d, Fraction(0))

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
            scalar = _as_fraction(other)
        except TypeError:
            return NotImplemented
        return self._new({d: v * scalar for d, v in self.c.items()} if scalar else {})

    __rmul__ = __mul__


class RationalPoly(_SparseDict):
    """Sparse polynomial over Q in the monomial basis."""

    __slots__ = ()

    def valuation(self) -> int | None:
        """Order of vanishing at 0; None for the zero polynomial."""
        return min(self.c) if self.c else None

    def _product(self, other) -> dict:
        return accumulate(
            (d1 + d2, v1 * v2) for d1, v1 in self.c.items() for d2, v2 in other.c.items()
        )

    def derivative(self):
        return self._new({d - 1: d * v for d, v in self.c.items() if d >= 1})

    def __call__(self, x):
        """Exact value at an exact x (an int or a Fraction), by Horner."""
        return _horner([self.coeff(d) for d in range(self.degree() + 1)], x)

    def __repr__(self):
        if not self.c:
            return "0"
        parts = [f"({v})*x^{d}" if d else f"({v})" for d, v in sorted(self.c.items())]
        return " + ".join(parts)

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


def float_horner(x, coef):
    """Evaluate dense float coefficients (constant first) on a float array x.

    The roundings are exactly those of numpy's ``polyval``: the start
    coef[-1] + x*0, then acc*x + coef[i] for each lower degree, so the
    result is the same bit for bit.  Every step writes into one array, where
    ``polyval`` allocates two per degree.
    """
    acc = x * 0.0
    acc += coef[-1]
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


# --- integer and rational roots ------------------------------------------------


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None if n is not a perfect k-th power."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n in (0, 1) or k == 1:
        return n
    lo, hi = 0, 1
    while hi**k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def fraction_nth_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a rational x >= 0, or None if it is not rational."""
    p, q = _int_nth_root(x.numerator, k), _int_nth_root(x.denominator, k)
    return None if p is None or q is None else Fraction(p, q)


def primitive(coeffs) -> list[int]:
    """Rational coefficients scaled by a positive number to coprime integers.

    The scale is positive, so every sign is kept; a zero row stays zero.
    """
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints] if g else ints


def _divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder over Q of dense coefficient lists, constant first."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for shift in reversed(range(len(quot))):
        q = quot[shift] = num[shift + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            num[shift + i] -= q * c
    rem = num[: len(den) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _horner(coeffs: list, y):
    """Exact value at y of exact coefficients (ints or Fractions), constant first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _integer_roots(g: list[int]) -> list[int]:
    """Integer roots of a monic square-free integer polynomial, constant first.

    Every root lies in (-M-1, M] with M the largest |g_i| below the leading
    term (Cauchy's bound).  With V(y) the sign changes of the Sturm chain at
    y, the interval (a, b] holds V(a) - V(b) distinct roots; an interval
    that holds a root is halved until a single integer b is left, which is
    tested.
    """
    chain = [g, primitive([i * c for i, c in enumerate(g)][1:])]
    while len(chain[-1]) > 1:
        chain.append([-c for c in primitive(_divmod(chain[-2], chain[-1])[1])])

    def changes(y: int) -> int:
        signs = [v > 0 for v in (_horner(p, y) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = max(abs(c) for c in g[:-1])
    stack = [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    roots = []
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if not _horner(g, hi):
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return roots


def rational_roots(poly: RationalPoly) -> tuple[dict[Fraction, int], RationalPoly]:
    """All rational roots (with multiplicity) and the unfactored residual.

    The residual is the polynomial left after deflating every rational root;
    it is a (nonzero) constant exactly when the polynomial splits over Q.
    With f the primitive integer form of the polynomial (zero roots
    removed), the roots are those of its square-free part f / gcd(f, f'):
    made monic by y = a_n x, its rational roots are the integer roots y, which
    ``_integer_roots`` isolates without factoring any coefficient.  Each root
    p/q is then divided out of f as often as q x - p divides it.  The
    residual keeps the scaling of one-root-at-a-time deflation: the
    polynomial itself when no nonzero root exists, otherwise the integer
    quotient times the denominator q of the last root in the order
    (|p|, q, p < 0).
    """
    if poly.is_zero():
        raise ValueError("cannot extract roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    v = poly.valuation()
    if v:
        roots[Fraction(0)] = v
        poly = RationalPoly({d - v: c for d, c in poly.c.items()})
    f = primitive([poly.coeff(d) for d in range(poly.degree() + 1)])
    if len(f) == 1:
        return roots, poly
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:  # Euclid: a ends as gcd(f, f')
        rem = _divmod(a, b)[1]
        a, b = b, primitive(rem)
    square_free = primitive(_divmod(f, a)[0])
    lead, n = square_free[-1], len(square_free) - 1
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(square_free[:-1])] + [1]
    found = [Fraction(y, lead) for y in _integer_roots(monic)]
    if not found:
        return roots, poly
    for x in found:
        linear = [-x.numerator, x.denominator]
        while not (division := _divmod(f, linear))[1]:
            f = division[0]
            roots[x] = roots.get(x, 0) + 1
    last = max(found, key=lambda x: (abs(x.numerator), x.denominator, x < 0))
    return roots, RationalPoly({d: last.denominator * c for d, c in enumerate(f)})


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


@lru_cache(maxsize=None)
def falling_poly(k: int, start: int = 0) -> RationalPoly:
    """(x)_k / (x)_start = (x - start) (x - start - 1) ... (x - k + 1) in x.

    Cached; callers must not modify the result.
    """
    out = RationalPoly({0: 1})
    for l in range(start, k):
        out = out * RationalPoly({1: 1, 0: -l})
    return out


def falling_factorials(k: int, top: int) -> list[int]:
    """[(k)_0, (k)_1, ..., (k)_top] for an integer k >= 0, so (k)_j = 0 for j > k."""
    out = [1]
    for j in range(top):
        out.append(out[-1] * (k - j))
    return out
