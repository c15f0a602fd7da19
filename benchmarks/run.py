"""steinscope benchmark: closed-loop CLI workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's commands one after another, each in a fresh
``python -m steinscope.cli`` process (closed loop: the next command starts
when the previous one exits), with STEIN_SCOPE_THREADS pinned.  A pass is
the workload's command list in a seed-shuffled order; whole passes run
while the next one is predicted to end within S seconds, and at least one
always runs.  The set-up samples (fresh ``import steinscope.cli``
processes) are spread between the commands of the first pass, so their
median covers the whole pass rather than its first seconds.  Every report
is judged by ``oracle.py``; a wrong exit code, a mismatched report or a
timeout counts as a failed command.

``--trace 0`` prints the end-to-end metrics; with ``--trace 1`` each command
of a pass runs untraced and then, right after, through ``tracer.py``, and
the run prints the per-layer metrics of ``layers.py`` with the tracing
overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it describe the environment and each command.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from oracle import Oracle
from workloads import TIMEOUTS, WORKLOADS, Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_BUDGET_S = 150.0  # a run must exit within 180 s; commands past this fail
SETUP_SAMPLES = 10  # fresh imports of steinscope.cli per run
THREADS = min(2, len(os.sched_getaffinity(0)))
IMPORT_CLI = "import steinscope.cli"


@dataclass
class Sample:
    label: str
    wall: float
    rss_kb: int
    failure: str | None
    layers: dict | None = None


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    samples: list = field(default_factory=list)


def spawn(argv, env, timeout, stdout_path):
    """Run argv to completion; return (start, end, exit code, max RSS in KB, timed out).

    Output goes to files, so a child never blocks on a full pipe; a child
    still running after ``timeout`` seconds is killed through its pidfd.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss, not ready


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(f"order-{seed}")
        self.commands = WORKLOADS[workload](seed, workdir)
        self.workdir = workdir
        self.oracle = Oracle()
        self.env = dict(os.environ, STEIN_SCOPE_THREADS=str(THREADS))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH", "")) if p
        )
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.start_walls: list[float] = []
        self.import_walls: list[float] = []

    def python(self, *args) -> float:
        """Wall time of ``python args``; raises if the program cannot even start."""
        start, end, code, _, _ = spawn(
            [sys.executable, *args], self.env, 60, self.workdir / "setup.out"
        )
        if code != 0:
            raise SystemExit(f"benchmark: `python {' '.join(args)}` exited {code}")
        return end - start

    def sample_setup(self, count: int) -> None:
        """Time ``count`` fresh ``python -c pass`` (the floor) and ``import steinscope.cli``."""
        for _ in range(count):
            self.start_walls.append(self.python("-c", "pass"))
            self.import_walls.append(self.python("-c", IMPORT_CLI))

    def run(self, cmd: Command, traced: bool) -> Sample:
        self.attempted += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return self._failed(Sample(cmd.label, 0.0, 0, "run budget exhausted"))
        spans_path = self.workdir / "spans.json"
        prefix = (
            [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path)]
            if traced
            else [sys.executable, "-m", "steinscope.cli"]
        )
        out_path = self.workdir / "stdout.json"
        start, end, code, rss_kb, timed_out = spawn(
            prefix + list(cmd.argv), self.env, min(TIMEOUTS[self.workload], remaining), out_path
        )
        if timed_out:
            failure = f"killed after {end - start:.1f} s"
        else:
            failure = self.oracle.judge(cmd, code, out_path.read_text(encoding="utf-8"))
        sample = Sample(cmd.label, end - start, rss_kb, failure)
        if traced and failure is None:
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            sample.layers = layers.command_layers(trace, end)
        return self._failed(sample) if failure else sample

    def _failed(self, sample: Sample) -> Sample:
        self.failures.append(f"{sample.label}: {sample.failure}")
        print(f"FAILED {sample.label}: {sample.failure}", file=sys.stderr)
        return sample

    def run_pass(self, traced: bool, setup_samples: int) -> list[Pass]:
        """One pass in a seed-shuffled order: the untraced pass and, if ``traced``,
        the traced one, each command traced right after its untraced run.

        ``setup_samples`` set-up samples are spread evenly between the
        commands; a pass's wall is the sum of its commands' walls, so they
        are not part of it.
        """
        order = list(self.commands)
        self.rng.shuffle(order)
        plain, with_trace = Pass(False), Pass(True)
        n = len(order)
        for i, cmd in enumerate(order):
            self.sample_setup((i + 1) * setup_samples // n - i * setup_samples // n)
            plain.samples.append(self.run(cmd, False))
            if traced:
                with_trace.samples.append(self.run(cmd, True))
        for p in (plain, with_trace):
            p.wall = sum(s.wall for s in p.samples)
        return [plain, with_trace] if traced else [plain]

    def measure(self, seconds: float, traced: bool) -> list[Pass]:
        """Whole passes while the next is predicted to fit in ``seconds`` of
        command time; a workload with Monte-Carlo commands runs until each
        has been repeated."""
        self.python("-c", IMPORT_CLI)  # compile bytecode, warm the file cache
        passes = []
        while True:
            group = self.run_pass(traced, 0 if passes else SETUP_SAMPLES)
            passes += group
            fits = sum(p.wall for p in passes + group) <= seconds
            done = not fits and not self.oracle.unrepeated(self.commands)
            if done or time.monotonic() > self.deadline:
                return passes

    def check_repeats(self) -> None:
        """Run once more each Monte-Carlo command not yet seen twice (when the
        run budget cut the passes short)."""
        for cmd in self.oracle.unrepeated(self.commands):
            self.run(cmd, False)


def tail(walls: list[float]) -> dict | None:
    """The highest percentile of ``walls`` with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return None
    return {"value": sorted(walls)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    samples = [s for p in passes for s in p.samples]
    return {
        "pass_wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cmd_p50_s": (statistics.median(s.wall for s in samples), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(max(s.rss_kb for s in p.samples) for p in passes) / 1024, "MB"),
    }


def per_layer(passes: list[Pass], python_start_s: float) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    per_pass = [
        layers.pass_layers([s.layers for s in p.samples], python_start_s, p.wall)
        for p in traced
        if all(s.layers for s in p.samples)
    ]
    if not per_pass:
        return {}
    out = {key: statistics.median(d[key] for d in per_pass) for key in per_pass[0]}
    # each traced command ran right after its untraced twin
    overheads: dict[str, list[float]] = {}
    for p, t in zip(plain, traced):
        for a, b in zip(p.samples, t.samples):
            overheads.setdefault(a.label, []).append(b.wall - a.wall)
    out["trace.overhead_s"] = sum(statistics.median(d) for d in overheads.values())
    partition = statistics.median(sum(d[k] for k in layers.PARTITION) for d in per_pass)
    print(f"layer times sum to {partition:.6f} s of cli.main {out['cli.main_s']:.6f} s per pass")
    return {key: (value, _layer_unit(key)) for key, value in out.items()}


def _layer_unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    return "s" if key.endswith("_s") else "count"


def environment(python_start_s: float) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None  # a checkout exported without its git directory
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "stein_scope_threads": THREADS,
        "python_start_s": python_start_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.chdir(ROOT)
    missing = [p for p in ("src/steinscope/cli.py", "tests/golden") if not Path(p).exists()]
    if missing:
        print(f"benchmark: not a steinscope checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root)).relative_to(ROOT)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        passes = bench.measure(args.seconds, bool(args.trace))
        bench.check_repeats()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(bench.import_walls)
    python_start_s = statistics.median(bench.start_walls)
    env = environment(python_start_s)
    print("env " + json.dumps(env))
    untraced = [p for p in passes if not p.traced]
    walls: dict[str, list[float]] = {}
    for p in untraced:
        for s in p.samples:
            walls.setdefault(s.label, []).append(s.wall)
    for label, values in walls.items():
        print(f"cmd {statistics.median(values):9.4f} s  x{len(values)}  {label}")
    for s in (passes[-1].samples if args.trace else []):
        nonzero = {k: v for k, v in (s.layers or {}).items() if v}
        print("layers " + json.dumps({"label": s.label, "layers": nonzero}))
    all_walls = [s.wall for p in untraced for s in p.samples]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(untraced),
        "failed_fraction": len(bench.failures) / bench.attempted,
        "cmd_tail_s": tail(all_walls),
    }
    print("detail " + json.dumps(detail))
    metrics = (
        per_layer(passes, python_start_s) if args.trace else end_to_end(untraced, setup_s)
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:16.6f} {unit}")
    failed = len(bench.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
