"""Correctness oracle: judge each CLI report the benchmark collects.

``judge`` returns None for a correct report and a one-line reason otherwise.
Reports are compared in the CLI's canonical rendering (two-space indent,
insertion order, trailing newline) with ``versions`` dropped, so a golden or
reference match is a byte-for-byte match.  The exit code a report implies is
re-derived from the report itself (inconclusive verdict, failed verification
or nonzero identity residual -> 1) and must equal the process's exit code.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import Command, euler_operator

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR.parent / "tests" / "golden"
REFERENCE_DIR = BENCH_DIR / "reference"


def canonical(report: dict) -> str:
    """The CLI's rendering of ``report`` without its ``versions`` block."""
    body = {k: v for k, v in report.items() if k != "versions"}
    return json.dumps(body, indent=2, ensure_ascii=False) + "\n"


def expected_exit(report: dict) -> int:
    result = report["result"]
    failed = {
        "analyze": lambda: result["verdict"]["status"] == "inconclusive",
        "verify": lambda: not result["pass"],
        "gamma": lambda: not result["is_zero"],
    }.get(report["command"], lambda: False)
    return 1 if failed() else 0


class Oracle:
    """Judges reports; remembers Monte-Carlo results to check repeats."""

    def __init__(self):
        self.mc_runs: dict[tuple, tuple[dict, int]] = {}

    def judge(self, cmd: Command, exit_code: int, stdout: str) -> str | None:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"exit {exit_code}, no JSON report ({exc.msg})"
        try:
            if exit_code != expected_exit(report):
                return f"exit {exit_code}, report implies {expected_exit(report)}"
            return getattr(self, f"_check_{cmd.check}")(cmd, report)
        except (KeyError, TypeError) as exc:
            return f"malformed report: missing {exc}"

    def _against_file(self, report: dict, path: Path) -> str | None:
        if canonical(report) != path.read_text(encoding="utf-8"):
            return f"report differs from {path.name}"
        return None

    def _check_golden(self, cmd: Command, report: dict) -> str | None:
        return self._against_file(report, GOLDEN_DIR / cmd.expect)

    def _check_reference(self, cmd: Command, report: dict) -> str | None:
        return self._against_file(report, REFERENCE_DIR / f"{cmd.expect}.json")

    def _check_euler(self, cmd: Command, report: dict) -> str | None:
        verdict = report["result"]["verdict"]
        roots = verdict["indicial_roots"]["roots"]
        got = sorted((Fraction(r["alpha"]), r["multiplicity"]) for r in roots)
        want = sorted((-x, 1) for x in cmd.expect)
        if got != want:
            return f"indicial roots {got} != {want}"
        if verdict["status"] != "inconclusive":
            return f"verdict {verdict['status']}, expected inconclusive"
        op = report["result"]["operator"]
        if op != euler_operator(op["name"], *cmd.expect):
            return "operator echoed differently from the generated file"
        return None

    def _check_mc(self, cmd: Command, report: dict) -> str | None:
        result = report["result"]
        if result["pass"] is not cmd.expect:
            return f"pass={result['pass']}, expected {cmd.expect}"
        n, seed = int(cmd.argv[cmd.argv.index("--n") + 1]), int(cmd.argv[cmd.argv.index("--seed") + 1])
        if result["n"] != n or result["seed"] != seed or any(t["n"] != n for t in result["tests"]):
            return "sample size or seed not as requested"
        first, count = self.mc_runs.get(cmd.argv, (result, 0))
        self.mc_runs[cmd.argv] = (first, count + 1)
        if first != result:
            return "residuals differ from an earlier run with the same seed"
        return None

    def unrepeated(self, cmds) -> list[Command]:
        """Monte-Carlo commands judged once, so not yet checked for repeats."""
        return [c for c in cmds if c.check == "mc" and self.mc_runs.get(c.argv, (None, 0))[1] < 2]
