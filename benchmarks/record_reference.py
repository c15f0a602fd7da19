"""Record the reference reports that ``oracle.py`` compares against.

Usage (from the root of a checkout)::

    python3 benchmarks/record_reference.py

runs every seed-independent command of the workloads that has no golden
file once and writes its report, without ``versions``, to
``benchmarks/reference/<slug>.json``.  Rerun it only when a change is meant
to alter these outputs, and say so in that change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from oracle import REFERENCE_DIR, canonical, expected_exit
from workloads import reference_commands

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH="src", STEIN_SCOPE_THREADS="1")
    REFERENCE_DIR.mkdir(exist_ok=True)
    for cmd in reference_commands():
        proc = subprocess.run(
            [sys.executable, "-m", "steinscope.cli", *cmd.argv],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        report = json.loads(proc.stdout)
        if proc.returncode != expected_exit(report):
            raise SystemExit(f"{cmd.label}: exit {proc.returncode} contradicts its report")
        (REFERENCE_DIR / f"{cmd.expect}.json").write_text(canonical(report), encoding="utf-8")
        print(f"recorded {cmd.expect}.json (exit {proc.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
