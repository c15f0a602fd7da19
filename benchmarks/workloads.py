"""The four workloads of the steinscope benchmark, as lists of CLI commands.

Each command is one ``steinscope`` invocation that the benchmark runs in a
fresh process, together with the rule the oracle uses to judge its report:

* ``golden``    -- the ``analyze`` report must equal ``tests/golden/<file>``;
* ``reference`` -- the report must equal ``benchmarks/reference/<slug>.json``,
  recorded from the program by ``record_reference.py``;
* ``euler``     -- a generated operator file: the verdict is ``inconclusive``
  and the indicial roots are exactly the rationals the generator chose;
* ``mc``        -- a Monte-Carlo verification whose overall pass/fail is
  known in advance, and whose residuals repeat bit for bit under one seed.

Only ``analysis_sweep`` (generated operator files) and ``mc_verify`` (the
``--seed`` given to the program) depend on the benchmark seed; the seed also
shuffles the order of commands within each pass.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

# catalog specs with a golden analyze report in tests/golden/
GOLDEN_SPECS = (
    "gauss_classical",
    "H3_T4m3",
    "H3_T5m2",
    "H4_T2m3",
    "H4_T3m2",
    "H5_T13m4",
    "H6_T6m3",
    "gauss_semicircle_T5",
    "PN:p=4,sigma2=1",
    "PN:p=6,sigma2=1",
    "PN:p=9,sigma2=1",
    "PRR:s=2",
    "G1X:r=2,lam=3,sigma2=2",
    "BG1:a=1/2,b=1,r=2",
    "G1G2:r=1,s=2,lam=2",
)

# (operator, target, extra arguments) for exact moment-recurrence checks
EXACT_VERIFIES = (
    ("H3_T4m3", "H3", ()),
    ("H3_T5m2", "H3", ()),
    ("H4_T2m3", "H4", ()),
    ("H4_T3m2", "H4", ()),
    ("H5_T13m4", "H5", ("--orders", "40")),
    ("H6_T6m3", "H6", ()),
)

# Gamma identities with the chaos element each is stated for
GAMMA_CHECKS = (("H3", "4.1"), ("H3", "4.2"), ("H4", "4.3"))

# (target, T, m) discovery problems
DISCOVERIES = (
    ("H3", 5, 2),
    ("H4", 2, 3),
    ("H4", 3, 2),
    ("H6", 6, 3),
    ("PN:p=4", 4, 3),
    ("H5", 13, 4),
)

# (operator, target, expected overall pass) at n = 10^6.  BG1 fails: the
# catalogued drift coefficient is off (a documented finding).  H3_T5m2
# against a Gaussian of the same variance must fail (discrimination).
MC_PAIRS = (
    ("PN:p=4", "PN:p=4", True),
    ("H3_T4m3", "H3", True),
    ("H6_T6m3", "H6", True),
    ("G1X:r=2,lam=3,sigma2=2", "G1X:r=2,lam=3,sigma2=2", True),
    ("G1G2:r=1,s=2,lam=2", "G1G2:r=1,s=2,lam=2", True),
    ("BG1:a=1/2,b=1,r=2", "BG1:a=1/2,b=1,r=2", False),
    ("H3_T5m2", "gaussian:sigma2=6", False),
)
MC_SAMPLES = 1_000_000

# Monte-Carlo seeds 0..MC_SEED_COUNT-1 all give every pair above its expected
# verdict (``vet_mc_seeds.py``).  A true operator fails a 4-sigma test by
# chance with probability ~6e-5 per test; with 45 such tests per pass an
# unvetted seed would fail a correct program in roughly one run in 350.  The
# failing pairs miss by 50x (H3_T5m2) and 170x (BG1) their thresholds on
# every seed.
MC_SEED_COUNT = 64

EULER_FILES = 3
EULER_DENOMINATORS = (3, 7, 11)
EULER_PRIME_RANGE = (9_000, 11_000)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how its report is judged."""

    argv: tuple[str, ...]
    check: str
    expect: object = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def euler_roots(seed: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(a, b, c) for each generated operator: primes ~10^4 over 3, 7 and 11."""
    rng = random.Random(f"euler-{seed}")
    primes = [n for n in range(*EULER_PRIME_RANGE) if all(n % d for d in range(2, isqrt(n) + 1))]
    out = []
    for _ in range(EULER_FILES):
        nums = rng.sample(primes, len(EULER_DENOMINATORS))
        out.append(tuple(Fraction(p, q) for p, q in zip(nums, EULER_DENOMINATORS)))
    return out


def euler_operator(name: str, a: Fraction, b: Fraction, c: Fraction) -> dict:
    """y^3 D^3 + c2 y^2 D^2 + c1 y D + c0 + y D^2 as an operator JSON dict.

    y^j D^j maps to t^j phi^(j), so the indicial polynomial is
    x(x-1)(x-2) + c2 x(x-1) + c1 x + c0, chosen to equal (x+a)(x+b)(x+c).
    y D^2 adds a second Frobenius level, so the operator is not purely
    Euler.  The roots differ by non-integers, so no log walk runs; the cost
    is trial division of the ~10^12 constant term in ``_rational_roots``.
    """
    c2 = a + b + c + 3
    c1 = a * b + b * c + c * a + a + b + c + 1
    c0 = a * b * c
    entries = {(0, 0): c0, (1, 1): c1, (2, 2): c2, (3, 3): Fraction(1), (1, 2): Fraction(1)}
    coeff = [[str(entries.get((i, j), Fraction(0))) for j in range(4)] for i in range(4)]
    return {"name": name, "T": 3, "m": 3, "coeff": coeff}


def reference_slug(argv) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", "_".join(argv))


def golden_slug(spec: str) -> str:
    """File stem of a golden analyze report (as tests/test_cli.py names them)."""
    return spec.replace(":", "_").replace(",", "_").replace("=", "").replace("/", "-")


def _reference(*argv: str) -> Command:
    return Command(tuple(argv), "reference", reference_slug(argv))


def cli_session(seed: int, workdir: Path) -> list[Command]:
    cmds = [_reference("catalog")]
    cmds += [
        Command(("analyze", "--op", spec), "golden", f"analyze_{golden_slug(spec)}.json")
        for spec in GOLDEN_SPECS
    ]
    cmds += [_reference("transform", "--op", op) for op in ("gauss_classical", "PN:p=4", "H5_T13m4")]
    cmds += [
        _reference("verify", "--op", op, "--target", target, "--mode", "exact", *extra)
        for op, target, extra in EXACT_VERIFIES
    ]
    cmds += [_reference("gamma", "--target", target, "--check", check) for target, check in GAMMA_CHECKS]
    cmds.append(_reference("discover", "--target", "H4", "--order", "2", "--degree", "3"))
    return cmds


def _sweep_catalog() -> list[Command]:
    # PN: irregular singular (dominant balance, then power correction).
    # PRR: regular singular; the Frobenius log walk crosses the gap 2s-2.
    cmds = [_reference("analyze", "--op", f"PN:p={p}") for p in (12, 16, 20, 24)]
    cmds += [_reference("analyze", "--op", f"PRR:s={s}") for s in (501, 1001, 2001, 3001)]
    return cmds


def analysis_sweep(seed: int, workdir: Path) -> list[Command]:
    cmds = _sweep_catalog()
    for i, roots in enumerate(euler_roots(seed)):
        path = workdir / f"euler_{i}.json"
        path.write_text(json.dumps(euler_operator(f"euler_{i}", *roots), indent=2) + "\n")
        cmds.append(Command(("analyze", "--op", str(path)), "euler", roots))
    return cmds


def discovery(seed: int, workdir: Path) -> list[Command]:
    return [
        _reference("discover", "--target", target, "--order", str(T), "--degree", str(m))
        for target, T, m in DISCOVERIES
    ]


def mc_verify(seed: int, workdir: Path) -> list[Command]:
    mc_seed = str(seed % MC_SEED_COUNT)
    return [
        Command(
            ("verify", "--op", op, "--target", target, "--mode", "mc",
             "--n", str(MC_SAMPLES), "--seed", mc_seed),
            "mc",
            passes,
        )
        for op, target, passes in MC_PAIRS
    ]


WORKLOADS = {
    "cli_session": cli_session,
    "analysis_sweep": analysis_sweep,
    "discovery": discovery,
    "mc_verify": mc_verify,
}

# per-command timeout in seconds; a killed command counts as failed
TIMEOUTS = {"cli_session": 20, "analysis_sweep": 30, "discovery": 90, "mc_verify": 30}


def reference_commands() -> list[Command]:
    """Every seed-independent command judged against a recorded reference."""
    cmds = cli_session(0, None) + _sweep_catalog() + discovery(0, None)
    return list({c.argv: c for c in cmds if c.check == "reference"}.values())
