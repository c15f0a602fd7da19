"""The work budgets: every cap on the work one CLI input may ask for.

steinscope's answers are exact, so the work behind an input grows with it
and nothing else stops it: PN's p, a Hermite index, a discovery shape, a
row count or a sample size can each ask for hours.  Each budget below caps
one such input.  Its comment names the input and the walls of the worst
inputs it admits, searched over the grid it names and timed as whole
``steinscope`` processes on a 2-core VM (Python 3.11.7, one run each).

A budget refuses an input over it before the work it bounds starts.
``check`` does so with one message,

    <what> = <value> exceeds the budget <NAME> = <limit>

raised as OverBudget, a ValueError that the CLI reports on one stderr line
with exit code 2.  Three budgets speak differently: MAX_INDEX is part of
the domain rule of a family index ("integer 1 <= p <= MAX_INDEX = 1000"),
read where the spec is parsed, and LOG_WALK_TERMS and MAX_CONSTRAINTS
refuse no analysis: a log test past the first, or a moment forcing whose
rows run past the second, is reported as undecided and leaves the verdict
inconclusive.
"""

# PN's p and the p of a target H<p>: PN's operator needs the theta^p
# expansion, O(p^2) integers.  At p = 1000: analyze PN:p=1000 0.83-1.39 s
# over 8 runs (peak RSS 122.0 MB), transform 0.77-1.14 s (118.6 MB); at
# sigma2 = 3/7 analyze 1.08-1.90 s (137.4 MB), transform 0.75-1.22 s; the
# exact verify of PN:p=1000 at --orders 256 4.6 s and of H1000 at --orders 1 3.9 s.
# discover --target PN:p=1000 --order 15 --degree 7 took 205 s: no
# discovery budget counts the size of PN's moments.
MAX_INDEX = 1000

# Rows of the moment relation: an exact check reads rows k = 0..K
# (verify --orders) and discovery builds K constraint rows
# (discover --constraints), each needing moments up to order k + m.
# Worst admitted exact check: PN:p=1000 at --orders 256, 4.6 s.  Moment
# forcing in analyze reads rows k = 0..K with K past the largest
# nonnegative integer root of the top recurrence coefficient; y^2 D - 246 y
# reads 256 rows in an analyze of 0.15 s.
MAX_CONSTRAINTS = 256

# The unknowns (T+1)(m+1) of a discovery shape (discover --order --degree).
# Searched with MAX_CONSTRAINTS and MAX_HERMITE_DEGREE, which bound discover
# with it: H6..H14 at the shapes (15, 7), (7, 15), (31, 3) and (63, 1), each
# at the largest K the three admit, and gaussian, semicircle and PN:p=2, 10
# and 100 at (15, 7) with K = 256.  Worst: H12 (7, 15) at K = 148, 17.8 s;
# H12 (15, 7) at K = 156 17.4 s, and 17.2 s at the default K; H10 (15, 7)
# at K = 190 15.1 s; H8 (15, 7) at K = 242 10.7 s; odd p at most 1.7 s
# (H9 (7, 15) at K = 205); PN:p=100 9.7 s.
MAX_UNKNOWNS = 128

# The degree p*k of the expansion behind E[H_p^k], about (p k)^2 / 4
# products whatever p is.  An exact check and each discovery solve ask for
# the highest order they read first, so nothing is expanded over it.  The
# exact verify of H1000, H682, H512 and H256 at the largest --orders
# admitted took 3.9, 2.6, 2.6 and 1.5 s.
MAX_HERMITE_DEGREE = 2048

# Monte-Carlo draws: verify --n times the draws per sample, p for PN:p and
# for H<p>, whose sampler evaluates a polynomial of degree p, and one for
# every other law.  At 10^8 draws, one thread: H5_T13m4 on BG1 45.3 s and
# on gaussian 31.8 s, BG1 on BG1 38.0 s, H5_T13m4 on H5 (n = 2*10^7)
# 7.1 s, gauss_classical on H2 (n = 5*10^7) 11.9 s and on H149
# (n = 671140) 1.0 s (exit 2: its images overflow), and on PN:p=1000
# (n = 10^5) 2.1 s.
MAX_SAMPLES = 10**8

# Monte-Carlo Horner steps: verify --n times the summed degree of the
# image polynomials each sample is run through (Re P and Im P at each
# frequency, q for each weighted monomial), 75 for H5_T13m4 and 366 for
# the T = 120, m = 1 operator file a_0j = 1, a_10 = -1.  One thread:
# PN:p=9 (99 steps) on BG1 at n = 10^8 29.0 s, and H5_T13m4 there 28.3 s
# on the same VM; the T = 120 file at n = 27322404 on BG1 12.5 s.
MAX_HORNER_STEPS = 10**10

# The integer gap the term-by-term Frobenius log test walks, used only when
# two or more series levels lie above the indicial one.  An Euler-type
# operator of shape (3, 3) with three levels and the gap 1000: 0.35 s
# (3 runs; the walk over the Gaussian rationals took 0.47 s on that VM).
LOG_WALK_TERMS = 1000

#: Every budget above by name; ``check`` reads its limit here.
BUDGETS = {name: limit for name, limit in globals().items() if name.isupper()}


class OverBudget(ValueError):
    """An input asks for more work than its budget admits."""


def check(name: str, what: str, value: int) -> None:
    """Raise OverBudget if ``value``, the size of ``what``, exceeds budget ``name``."""
    if value > BUDGETS[name]:
        raise OverBudget(f"{what} = {value} exceeds the budget {name} = {BUDGETS[name]}")
