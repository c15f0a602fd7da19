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
  rows inconsistent, and walks 256 rows (``moment_row_N246``), together
  with the symmetry exclusion and the conjugate-pair trap;
* a first-order ODE, an ordinary point, and the order-0 ODE of D
  (``order_zero``).

The ``ode`` blocks cover all four normalising units.  Every report has
its ``versions`` dropped and ``inputs.op`` set to the file name, so it
depends on nothing but the program.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from steinscope.cli import main, report_json

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
