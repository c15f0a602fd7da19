"""The family operators as they were written before the theta-form, kept as a witness.

PN was built from a row of Stirling numbers of the second kind, and PRR,
G1X, BG1 and G1G2 were coefficient dicts expanded by hand.  The tests hold
``operators.theta_operator`` to these builders, and read Stirling numbers
from ``stirling2`` where a test writes PN's operator or ODE out in full.
"""

from fractions import Fraction
from functools import lru_cache


def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind {p, k}, for 1 <= k <= p."""
    if not (1 <= k <= p):
        raise ValueError(f"stirling2 requires 1 <= k <= p, got ({p}, {k})")
    return _stirling_row(p)[k]


@lru_cache(maxsize=None)
def _stirling_row(p: int) -> tuple[int, ...]:
    """({p, 0}, ..., {p, p}), built row by row: {q, k} = k{q-1, k} + {q-1, k-1}."""
    row = [1]
    for q in range(1, p + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, q)] + [1]
    return tuple(row)


def _pn_operator(p, sigma2) -> dict:
    p = int(p)
    coeffs = {(k - 1, k): sigma2 * stirling2(p, k) for k in range(1, p + 1)}
    coeffs[(1, 0)] = coeffs.get((1, 0), Fraction(0)) - 1
    return coeffs


#: family -> builder of the coefficients {(i, j): a_ij} from the parsed values
BUILDERS = {
    "PN": _pn_operator,
    "PRR": lambda s: {(1, 2): s, (0, 1): 2 * s, (2, 1): -1, (1, 0): 1 - 2 * s},
    "G1X": lambda r, lam, sigma2: {(2, 3): 1, (1, 2): 2 * (r + 1), (0, 1): r * (r + 1),
                                   (1, 0): -lam / sigma2},
    "BG1": lambda a, b, r: {(2, 2): 1, (1, 1): a + r - 1, (2, 1): -1, (0, 0): a * r,
                            (1, 0): -(a + b)},
    "G1G2": lambda r, s, lam: {(2, 2): 1, (1, 1): 1 + r + s, (0, 0): r * s,
                               (1, 0): -lam * lam},
}
