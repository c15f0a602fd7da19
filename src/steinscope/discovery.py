"""Exhaustive search for polynomial Stein operators by exact linear algebra.

A candidate operator S = sum a_{i,j} y^i D^j with coefficient degree <= m
and derivative order <= T annihilates a target in the moment sense iff
E[S y^k] = 0 for every k >= 0.  Each k is one homogeneous linear
constraint on the (m+1)(T+1) unknown coefficients:

    sum_{i,j} a_{i,j} ff(k, j) mu(k + i - j) = 0,

with ff the falling factorial (zero for j > k, so no negative order is
read) and mu the exact moment oracle, read once per solve, highest order
first, so a moment budget refuses before any moment is computed.
Truncating to k < K gives a K x (m+1)(T+1) rational matrix whose
nullspace holds every operator of this shape that annihilates the law;
stabilisation tests the basis against eight extra rows and raises K
until it satisfies them.  The (K, dimension) trail is kept on the
problem, so any K-sensitivity is surfaced.

The nullspace is computed multi-modularly.  Each row is cleared to
coprime integers.  Moment matrices for high-order Hermite targets have
entries of hundreds of digits (about 1260 bits for H5 at K = 94), while
their nullspace vectors are far smaller: two primes recover the H5 basis.
Modulo a deterministic sequence of primes just below 2^62, the reduced
row echelon form gives a rank, pivot columns and, at each free column,
the entries of one basis vector; these are combined by the Chinese
remainder theorem and recovered as rationals by Wang's rational
reconstruction.  The candidate basis is then certified exactly: A v = 0
over the integers on every row.  That check alone makes the answer exact.
The vectors are independent (each is nonzero at its own free column and
zero at the other free columns), and each shows its free column to be a
combination of earlier columns over Q, so the free columns mod p are free
over Q and the rank mod p is the rank over Q.  A prime whose rank or
pivot list disagrees with Q divides a nonzero minor, so there are
finitely many of them; the Hadamard bound of the matrix caps the number
of primes ever needed.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .algebra import _as_fraction, falling_factorials, primitive
from .budgets import check
from .operators import SteinOperator

__all__ = [
    "DiscoveryProblem",
    "OracleTooShort",
    "canonicalise",
    "find_stein_operators",
]


class OracleTooShort(ValueError):
    """The moment oracle cannot supply a required order."""


class DiscoveryProblem:
    """Search space for operators annihilating a target's moments.

    ``oracle`` is an object with an exact ``moment`` method, such as a
    target, or a finite sequence [mu_0, mu_1, ...] (which raises
    OracleTooShort when the search needs more than it holds).
    ``T`` bounds the derivative order, ``m`` the coefficient degree in y,
    and ``K`` the number of moment constraints; the default gives 16 rows
    of slack over the (T+1)(m+1) unknowns.  More unknowns than
    ``budgets.MAX_UNKNOWNS`` or constraints than ``budgets.MAX_CONSTRAINTS``
    raises OverBudget.  Stabilisation adds eight rows per round; each
    re-solve drops the dimension, so there are at most (T+1)(m+1) of them.

    After ``find_stein_operators`` runs, ``effective_K`` holds the
    constraint count at which the nullspace stabilised and
    ``dimension_trail`` the (K, dimension) pairs visited along the way.
    """

    __slots__ = ("T", "m", "K", "effective_K", "dimension_trail", "_oracle")

    def __init__(self, oracle, T: int, m: int, K: int | None = None):
        self.T = int(T)
        self.m = int(m)
        if self.T < 0 or self.m < 0:
            raise ValueError("derivative order and degree must be >= 0")
        unknowns = (self.T + 1) * (self.m + 1)
        check("MAX_UNKNOWNS", "unknowns (T+1)(m+1)", unknowns)
        self.K = unknowns + 16 if K is None else int(K)
        if self.K < unknowns:
            raise ValueError(
                f"K = {self.K} constraints cannot pin {unknowns} unknowns")
        check("MAX_CONSTRAINTS", "constraints K", self.K)
        self.effective_K = None
        self.dimension_trail = []
        self._oracle = (oracle if hasattr(oracle, "moment")
                        else [_as_fraction(v) for v in oracle])

    def moments(self, n: int) -> list[Fraction]:
        """[mu_0, ..., mu_n], asking for mu_n first and for each order once."""
        if isinstance(self._oracle, list):
            if n >= len(self._oracle):
                raise OracleTooShort(f"moment of order {n} required, but the oracle "
                                     f"ends at order {len(self._oracle) - 1}")
            return self._oracle[:n + 1]
        top = _as_fraction(self._oracle.moment(n))
        return [_as_fraction(self._oracle.moment(k)) for k in range(n)] + [top]

    def columns(self) -> list[tuple[int, int]]:
        """Unknown coefficient slots (i, j), i.e. y^i D^j, in (i, j)-lex order."""
        return [(i, j) for i in range(self.m + 1) for j in range(self.T + 1)]


def _constraint_rows(prob, mus, start: int, stop: int) -> list[list[int]]:
    """Rows k = start .. stop - 1 read from ``mus``, scaled to coprime integers."""
    cols = prob.columns()
    rows = []
    for k in range(start, stop):
        ff = falling_factorials(k, prob.T)
        rows.append(primitive([ff[j] * mus[k + i - j] if ff[j] else Fraction(0)
                               for i, j in cols]))
    return rows


# --- multi-modular nullspace --------------------------------------------------

_PRIMES: list[int] = []  # primes below 2^62, largest first; extended by _prime
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact for n < 3.3e24."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(index: int) -> int:
    """The index-th prime below 2^62, counting down from the largest."""
    while len(_PRIMES) <= index:
        p = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
        while not _is_prime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[index]


def _prime_cap(rows: list[list[int]], ncols: int) -> int:
    """Primes enough to certify any nullspace of ``rows``.

    Every minor is at most H, the product of the largest min(K, ncols) row
    norms (Hadamard).  A prime with the wrong rank profile divides a
    nonzero minor, so at most log H / 61 primes (each above 2^61) are
    unlucky; the reconstructed entries are ratios of minors, recovered once
    the lucky primes multiply to more than 2 H^2.
    """
    norms = sorted((sum(v * v for v in row).bit_length() for row in rows),
                   reverse=True)
    h_bits = sum(norms[:ncols]) // 2 + 1
    return h_bits // 61 + (2 * h_bits + 1) // 61 + 2


def _rref_mod(rows: list[list[int]], ncols: int, p: int):
    """Pivot columns and reduced row echelon form of ``rows`` modulo ``p``."""
    rows = [row for row in ([v % p for v in row] for row in rows) if any(row)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((q for q in range(r, len(rows)) if rows[q][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # the pivot row is zero left of c, so only columns c.. change
        inv = pow(rows[r][c], -1, p)
        rows[r][c:] = pivot = [v * inv % p for v in rows[r][c:]]
        for q, row in enumerate(rows):
            f = row[c]
            if f and q != r:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], pivot)]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


def _rational(u: int, modulus: int, bound: int) -> Fraction | None:
    """The a/b = u (mod modulus) with |a|, |b| <= bound, if any (Wang 1981)."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _annihilates(rows: list[list[int]], vector: list[int]) -> bool:
    return all(sum(a * v for a, v in zip(row, vector) if v) == 0 for row in rows)


def _reconstruct(residues, modulus, pivots, free, ncols):
    """Integer basis vectors from their residues, or None if one fails."""
    bound = isqrt((modulus - 1) // 2)
    rank = len(pivots)
    basis = []
    for n, f in enumerate(free):
        entries = []
        for u in residues[n * rank:(n + 1) * rank]:
            q = _rational(u, modulus, bound)
            if q is None:
                return None
            entries.append(q)
        scale = lcm(*(q.denominator for q in entries))
        v = [0] * ncols
        v[f] = scale
        for c, q in zip(pivots, entries):
            v[c] = q.numerator * (scale // q.denominator)
        basis.append(v)
    return basis


def _nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Certified basis of the rational nullspace of an integer matrix.

    One integer vector per free column f of the row echelon form over Q:
    the back-substitution vector with v[f] = 1 and 0 at the other free
    columns, scaled by the common denominator of its entries.  A prime is
    discarded when another has a higher rank, or the same rank and a
    lexicographically earlier pivot list; the survivors' images of the
    vectors are combined until the reconstruction passes A v = 0 exactly.
    """
    best = None
    for index in range(_prime_cap(rows, ncols)):
        p = _prime(index)
        pivots, echelon = _rref_mod(rows, ncols, p)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        image = [(-row[f]) % p for f in free for row in echelon]
        if key != best:
            best, modulus, residues = key, p, image
        else:
            inv = pow(modulus, -1, p)
            residues = [x + modulus * ((y - x) * inv % p)
                        for x, y in zip(residues, image)]
            modulus *= p
        basis = _reconstruct(residues, modulus, pivots, free, ncols)
        if basis is not None and all(_annihilates(rows, v) for v in basis):
            return basis
    raise ArithmeticError(
        "multi-modular nullspace not certified within the Hadamard bound")


def canonicalise(basis: list[SteinOperator]) -> list[SteinOperator]:
    """Deterministic representatives of the span of ``basis``.

    Coefficient vectors (columns in (i, j)-lex order over all slots the
    basis touches) are put in reduced row echelon form, dependent members
    are dropped, and each survivor is rescaled to coprime integers with a
    positive leading coefficient.  Two bases of the same span therefore
    canonicalise to the same list, which is how the tests decide span
    membership and equality.
    """
    if not basis:
        return []
    keys = sorted({key for op in basis for key in op.a})
    rows = [[Fraction(op.a.get(key, 0)) for key in keys] for op in basis]
    ncols = len(keys)
    # Plain Fraction RREF: these matrices are tiny (one row per operator).
    r = 0
    pivots = []
    for c in range(ncols):
        pivot_row = next((p for p in range(r, len(rows)) if rows[p][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for q in range(len(rows)):
            if q != r and rows[q][c]:
                f = rows[q][c]
                rows[q] = [a - f * b for a, b in zip(rows[q], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    # each row's pivot is 1, so the positive rescaling keeps it positive
    return [SteinOperator({key: v for key, v in zip(keys, primitive(row)) if v})
            for row in rows[:r]]


def find_stein_operators(prob: DiscoveryProblem) -> list[SteinOperator]:
    """All operators of shape (T, m) annihilating the target's moments.

    Solves the K-row constraint system exactly, then builds the eight
    next rows and tests the basis against them.  Constraints only
    accumulate, so the nullspace can only shrink: if every basis vector
    satisfies the new rows, the K + 8 nullspace equals the K one and the
    search stops.  Otherwise the K + 8 system is solved anew, K is raised
    and the check repeats.  Returns the canonicalised basis (possibly
    empty); the visited (K, dimension) pairs are recorded on
    ``prob.dimension_trail`` and the stabilised K on ``prob.effective_K``.
    """
    ncols = (prob.T + 1) * (prob.m + 1)
    K = prob.K
    prob.dimension_trail = []
    # rows k < K + 8 read orders up to K + 7 + m
    mus = prob.moments(K + 7 + prob.m)
    rows = _constraint_rows(prob, mus, 0, K)
    vectors = _nullspace(rows, ncols)
    prob.dimension_trail.append((K, len(vectors)))
    while True:
        new_rows = _constraint_rows(prob, mus, K, K + 8)
        rows += new_rows
        if all(_annihilates(new_rows, v) for v in vectors):
            prob.dimension_trail.append((K + 8, len(vectors)))
            break
        vectors = _nullspace(rows, ncols)
        prob.dimension_trail.append((K + 8, len(vectors)))
        K += 8
        mus = prob.moments(K + 7 + prob.m)
    prob.effective_K = K
    cols = prob.columns()
    ops = [
        SteinOperator({cols[idx]: v for idx, v in enumerate(vec) if v})
        for vec in vectors
    ]
    return canonicalise(ops)
