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
with exit code 2.  Two budgets speak differently: MAX_INDEX is part of the
domain rule of a family index ("integer 1 <= p <= MAX_INDEX = 1000"), read
where the spec is parsed, and LOG_WALK_TERMS refuses nothing: a log test
past it is reported as undecided and leaves the verdict inconclusive.
"""

# PN's p and the p of a target H<p>: PN's operator needs the O(p^2)
# Stirling row.  At p = 1000: analyze PN:p=1000 2.7 s (peak RSS 184 MB),
# transform 2.6 s, the exact verify of PN:p=1000 at --orders 256 4.6 s and
# of H1000 at --orders 1 3.9 s.  discover --target PN:p=1000 --order 15
# --degree 7 took 220 s: no discovery budget counts the size of PN's moments.
MAX_INDEX = 1000

# Rows of the moment relation: an exact check reads rows k = 0..K
# (verify --orders) and discovery builds K constraint rows
# (discover --constraints), each needing moments up to order k + m.
# Worst admitted exact check: PN:p=1000 at --orders 256, 4.6 s.
MAX_CONSTRAINTS = 256

# The unknowns (T+1)(m+1) of a discovery shape (discover --order --degree).
# Searched with MAX_CONSTRAINTS and MAX_HERMITE_DEGREE, which bound discover
# with it: H6..H14 at the shapes (15, 7), (7, 15), (31, 3) and (63, 1), each
# at the largest K the three admit, and gaussian, semicircle and PN:p=2, 10
# and 100 at (15, 7) with K = 256.  Worst: H12 (7, 15) at K = 148, 23.3 s;
# H12 (15, 7) at K = 156 22.4 s, and 19.1 s at the default K; H10 (15, 7)
# at K = 190 18.4 s; H8 (15, 7) at K = 242 15.2 s; odd p at most 2.2 s;
# PN:p=100 11.3 s.
MAX_UNKNOWNS = 128

# The degree p*k of the expansion behind E[H_p^k], about (p k)^2 / 4
# products whatever p is.  An exact check and each discovery solve ask for
# the highest order they read first, so nothing is expanded over it.  The
# exact verify of H1000, H682, H512 and H256 at the largest --orders
# admitted took 3.9, 2.6, 2.6 and 1.5 s.
MAX_HERMITE_DEGREE = 2048

# Monte-Carlo draws: verify --n times the draws per sample, p for PN:p and
# one for every other law.  At n = 10^8, one thread: H5_T13m4 on H5 35.4 s,
# BG1 37.7 s, and H149, whose sampler evaluates a polynomial of degree 149
# per sample, 85 s (exit 2: its images overflow); PN:p=1000 at n = 10^5,
# 2.5 s.
MAX_SAMPLES = 10**8

# The integer gap the term-by-term Frobenius log test walks, used only when
# two or more series levels lie above the indicial one.  An Euler-type
# operator of shape (3, 3) with three levels and the gap 1000: 1.2 s.
LOG_WALK_TERMS = 1000

#: Every budget above by name; ``check`` reads its limit here.
BUDGETS = {name: limit for name, limit in globals().items() if name.isupper()}


class OverBudget(ValueError):
    """An input asks for more work than its budget admits."""


def check(name: str, what: str, value: int) -> None:
    """Raise OverBudget if ``value``, the size of ``what``, exceeds budget ``name``."""
    if value > BUDGETS[name]:
        raise OverBudget(f"{what} = {value} exceeds the budget {name} = {BUDGETS[name]}")
