"""Recorded reports of a corpus of operator files, compared byte for byte.

Each ``tests/data/verdicts/<name>.json`` is an operator file, and
``reports/<name>.<command>.json`` holds the report the Gaussian-rational
implementation of the analysis gave for it, recorded before the analysis
moved to rational coefficients with quarter turns.  The commands are
``analyze`` and ``analyze --symmetric --zero-mean``; each report carries the
operator's transform in its ``ode`` block.  The
operators came from a seeded random search over small shapes, kept as the
first that reached each path, plus a few written by hand; the file names
say which path:

* regular singular points: the multi-level series walk with and without a
  log term (``walk_*``), the chain log (``chain_*``), an integer gap over
  LOG_WALK_TERMS (``undecided_gap``), a double root, an irrational factor
  and no admissible direction;
* the Newton polygon: exponential edges whose balance coefficient rho lies
  at each quarter turn (``rho_turn0`` .. ``rho_turn3``), a slope-1 edge
  with rational and with irrational exponents, and a multi-term edge;
* power corrections: found (``correction``, ``template_correction``), and
  the two ``CorrectionNotLinear`` exits a verdict can reach, a term between
  the two levels and inconsistent ring components;
* moment forcing that pins every moment, leaves one or two free, finds the
  rows inconsistent, walks 256 rows (``moment_row_N246``), and would need
  rows past MAX_CONSTRAINTS (``forcing_budget``, y^2 D - 10^12 y, whose
  rows run to k = 10^12 + 10), together with the symmetry exclusion and the
  conjugate-pair trap;
* a first-order ODE, an ordinary point, and the order-0 ODE of D
  (``order_zero``).

The ``ode`` blocks cover all four normalising units.  Every report has
its ``versions`` dropped and ``inputs.op`` set to the file name, so it
depends on nothing but the program.  Six reports were recorded again when
moment forcing learned to name the side conditions under which no law
satisfies the recurrence rows (``inconsistent_forcing``): both reports of
``forcing_inconsistent`` and ``rho_turn1``, and the ``analyze-sym`` reports
of ``forcing_two_free`` and ``ordinary``; only their diagnostics changed.
Four ``analyze-sym`` reports were recorded again, in their diagnostics only,
when moment forcing stopped walking symmetry together with zero_mean (which
walks as symmetry alone) and took the free moments from the walk without side
conditions: ``forcing_two_free`` and ``ordinary`` (free moments [2] became
[1, 2]), ``forcing_inconsistent`` and ``rho_turn1`` (one repeated
``inconsistent_forcing`` line gone).  The two ``forcing_budget`` reports
were added later, the only ones to reach the row-budget exit, and recorded
before the verdict's exits came to share one constructor.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import perm
from pathlib import Path

import pytest

from steinscope.cli import load_operator_file, main, report_json

CORPUS = Path(__file__).parent / "data" / "verdicts"
COMMANDS = {
    "analyze": ("analyze",),
    "analyze-sym": ("analyze", "--symmetric", "--zero-mean"),
}
CASES = [
    (path, label)
    for path in sorted(CORPUS.glob("*.json"))
    for label in COMMANDS
]


@pytest.mark.parametrize("path, label", CASES, ids=[f"{p.stem}-{l}" for p, l in CASES])
def test_report_is_the_recorded_one(path, label):
    command, *flags = COMMANDS[label]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--op", str(path), *flags])
    assert err.getvalue() == ""
    report = json.loads(out.getvalue())
    del report["versions"]
    report["inputs"]["op"] = path.name
    recorded = (CORPUS / "reports" / f"{path.stem}.{label}.json").read_text(encoding="utf-8")
    assert report_json(report) == recorded
    inconclusive = report["result"].get("verdict", {}).get("status") == "inconclusive"
    assert code == (1 if inconclusive else 0)


def test_every_report_has_its_operator():
    stems = {p.stem for p in CORPUS.glob("*.json")}
    assert len(stems) >= 30
    recorded = {p.name for p in (CORPUS / "reports").glob("*.json")}
    assert recorded == {f"{s}.{label}.json" for s in stems for label in COMMANDS}


def test_recorded_statuses_list_conditions_exactly_when_conditional():
    # every recorded verdict, golden or corpus: one of the three statuses,
    # and conditions listed exactly for characterising_with_conditions
    golden = sorted((Path(__file__).parent / "golden").glob("analyze_*.json"))
    paths = golden + sorted((CORPUS / "reports").glob("*.json"))
    seen = set()
    for path in paths:
        verdict = json.loads(path.read_text(encoding="utf-8"))["result"]["verdict"]
        status = verdict["status"]
        assert status in ("characterising", "characterising_with_conditions", "inconclusive")
        assert bool(verdict["conditions"]) == (status == "characterising_with_conditions"), path
        seen.add(status)
    assert len(golden) == 15 and len(paths) == 81
    assert len(seen) == 3


def _inconsistent_cases():
    """(operator stem, diagnostic) for each inconsistent forcing a report names."""
    cases = set()
    for path in (CORPUS / "reports").glob("*.json"):
        verdict = json.loads(path.read_text(encoding="utf-8"))["result"]["verdict"]
        for entry in verdict["diagnostics"].get("inconsistent_forcing", ()):
            cases.add((path.name.split(".")[0], entry))
    return sorted(cases)


def _moment_rows(op, k_max, vanishes):
    """The rows E[S y^k] = sum a_ij (k)_j E[W^(k+i-j)] = 0 for k <= k_max.

    Each row is ({n: coefficient of E[W^n]}, right-hand side), with E[W^0] = 1
    moved to the right and the moments that ``vanishes`` names dropped.
    """
    rows = []
    for k in range(k_max + 1):
        row, rhs = {}, Fraction(0)
        for (i, j), a in op.a.items():
            n, c = k + i - j, a * perm(k, j)
            if not c or vanishes(n):
                continue
            if n == 0:
                rhs -= c
            else:
                row[n] = row.get(n, 0) + c
        rows.append((row, rhs))
    return rows


def _solvable(rows) -> bool:
    """Whether some moments satisfy every row, by Gaussian elimination."""
    pivots = {}  # column -> (row scaled to 1 there, right-hand side)
    for row, rhs in rows:
        row = dict(row)
        for col, (prow, prhs) in pivots.items():
            factor = row.get(col, 0)
            if factor:
                for n, v in prow.items():
                    row[n] = row.get(n, 0) - factor * v
                rhs -= factor * prhs
        row = {n: v for n, v in row.items() if v}
        if not row:
            if rhs:
                return False
            continue
        col = min(row)
        pivots[col] = ({n: v / row[col] for n, v in row.items()}, rhs / row[col])
    return True


@pytest.mark.parametrize("stem, entry", _inconsistent_cases())
def test_inconsistent_forcing_rows_have_no_solution(stem, entry):
    # "no law satisfies rows k=0..K [using [...]]": the rows 0..K under the
    # named side conditions, solved in Fractions, have no solution, and
    # the rows before K have one
    k = int(entry.split("k=0..")[1].split()[0])
    symmetry, zero_mean = "symmetry" in entry, "zero_mean" in entry

    def vanishes(n):
        return (symmetry and n % 2 == 1) or (zero_mean and n == 1)

    op = load_operator_file(CORPUS / f"{stem}.json")
    assert not _solvable(_moment_rows(op, k, vanishes))
    assert _solvable(_moment_rows(op, k - 1, vanishes))


def test_inconsistent_forcing_is_reported():
    assert {stem for stem, _ in _inconsistent_cases()} == {
        "forcing_inconsistent", "rho_turn1", "forcing_two_free", "ordinary"}
