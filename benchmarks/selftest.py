"""Self-tests of the benchmark's own code.

Usage (from the root of a checkout)::

    python3 benchmarks/selftest.py

The file name keeps pytest from collecting it into the program's suite.
"""

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
from oracle import GOLDEN_DIR, Oracle  # noqa: E402
from run import tail  # noqa: E402
from workloads import Command, analysis_sweep, euler_operator, euler_roots  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_files(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            first = analysis_sweep(7, Path(a))
            second = analysis_sweep(7, Path(b))
            self.assertEqual([c.expect for c in first], [c.expect for c in second])
            for name in sorted(p.name for p in Path(a).iterdir()):
                self.assertEqual((Path(a) / name).read_bytes(), (Path(b) / name).read_bytes())
        self.assertNotEqual(euler_roots(7), euler_roots(8))

    def test_indicial_roots_are_the_chosen_rationals(self):
        from steinscope.asymptotics import indicial_roots
        from steinscope.operators import SteinOperator, psi_transform

        for seed in (0, 1, 2):
            for i, roots in enumerate(euler_roots(seed)):
                self.assertEqual([r.denominator for r in roots], [3, 7, 11])
                op = SteinOperator.from_json_dict(euler_operator(f"euler_{i}", *roots))
                found = indicial_roots(psi_transform(op))
                self.assertEqual(
                    sorted((r.alpha, r.multiplicity) for r in found.roots),
                    sorted((-x, 1) for x in roots),
                )
                self.assertTrue(found.fully_factored())


class TracerTest(unittest.TestCase):
    def test_restore_puts_every_original_back(self):
        import steinscope.cli as cli
        from steinscope import asymptotics, distributions

        before = {
            "cli.verdict": cli.characterisation_verdict,
            "cli.mc": cli.mc_stein_residual,
            "asym.indicial": asymptotics.indicial_roots,
            "asym.psi": asymptotics.psi_transform,
            "moment": distributions.TargetDistribution.moment,
            "sample": distributions.TargetDistribution.sample,
        }
        op = cli.catalog_get("PN:p=4")
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(cli.characterisation_verdict, before["cli.verdict"])
            self.assertIsNot(asymptotics.psi_transform, before["asym.psi"])
            self.assertIsNot(distributions.TargetDistribution.moment, before["moment"])
            cli.characterisation_verdict(op)
        finally:
            t.restore()
        after = {
            "cli.verdict": cli.characterisation_verdict,
            "cli.mc": cli.mc_stein_residual,
            "asym.indicial": asymptotics.indicial_roots,
            "asym.psi": asymptotics.psi_transform,
            "moment": distributions.TargetDistribution.moment,
            "sample": distributions.TargetDistribution.sample,
        }
        self.assertTrue(all(after[k] is before[k] for k in before))
        names = [span[0] for span in t.spans]
        self.assertEqual(names[0], "asymptotics.verdict")
        self.assertIn("operators.psi_transform", names)
        self.assertTrue(all(span[3] == 0 for span in t.spans[1:]))

    def test_worker_thread_spans_hang_under_the_main_thread_span(self):
        from concurrent.futures import ThreadPoolExecutor

        t = tracer.Tracer()

        def outer():
            with ThreadPoolExecutor(2) as pool:
                list(pool.map(lambda i: t.call("leaf", abs, i), range(4)))

        t.call("outer", outer)
        self.assertEqual([s[3] for s in t.spans], [None, 0, 0, 0, 0])


class LayersTest(unittest.TestCase):
    def test_union_and_self_time(self):
        self.assertAlmostEqual(layers.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        trace = {
            "import_s": 0.5,
            "end": 10.0,
            "spans": [
                ["cli.main", 0.0, 10.0, None, None],
                ["verification.mc", 1.0, 9.0, 0, {"evals": 90}],
                ["distributions.sample", 2.0, 5.0, 1, {"n": 5}],
                ["distributions.sample", 4.0, 6.0, 1, {"n": 5}],
            ],
        }
        out = layers.command_layers(trace, 10.5)
        self.assertAlmostEqual(out["distributions.sample_s"], 4.0)
        self.assertAlmostEqual(out["verification.mc_self_s"], 4.0)
        self.assertAlmostEqual(out["cli.main_self_s"], 2.0)
        self.assertAlmostEqual(out["cli.exit_s"], 0.5)
        self.assertAlmostEqual(sum(out[k] for k in layers.PARTITION), out["cli.main_s"])
        total = layers.pass_layers([out], python_start_s=0.25, wall=11.5)
        self.assertAlmostEqual(total["verification.mc_evals_per_s"], 90 / 4.0)
        self.assertAlmostEqual(total["trace.accounted_s"], 0.25 + 0.5 + 10.0 + 0.5)
        self.assertAlmostEqual(total["trace.unaccounted_s"], 11.5 - 11.25)

    def test_benchmark_json_names_every_metric_printed(self):
        from run import end_to_end, per_layer, Pass, Sample

        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        trace = {"import_s": 0.5, "end": 2.0, "spans": [["cli.main", 1.0, 2.0, None, None]]}
        plain = Pass(False, 3.0, [Sample("x", 3.0, 1024, None)])
        traced = Pass(True, 3.5, [Sample("x", 3.5, 1024, None, layers.command_layers(trace, 3.0))])
        self.assertEqual(set(end_to_end([plain], 0.5)), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(set(per_layer([plain, traced], 0.05)), {m["name"] for m in spec["per_layer"]})

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertIsNone(tail([1.0] * 10))
        got = tail([float(i) for i in range(100)])
        self.assertEqual((got["value"], got["percentile"], got["samples"]), (89.0, 90.0, 100))


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.cmd = Command(("analyze", "--op", "PN:p=4,sigma2=1"), "golden",
                           "analyze_PN_p4_sigma21.json")
        report = json.loads((GOLDEN_DIR / self.cmd.expect).read_text())
        report["versions"] = {"steinscope": "0.1.0"}
        self.report = report

    def judge(self, report, code=0, cmd=None):
        return Oracle().judge(cmd or self.cmd, code, json.dumps(report))

    def test_golden_report_passes(self):
        self.assertIsNone(self.judge(self.report))

    def test_tampered_report_is_rejected(self):
        self.report["result"]["verdict"]["branch_table"][0]["phase_over_pi"] = "1/3"
        self.assertIn("differs", self.judge(self.report))

    def test_wrong_exit_code_and_garbage_are_rejected(self):
        self.assertIn("exit 1", self.judge(self.report, code=1))
        self.assertIn("no JSON", Oracle().judge(self.cmd, 0, "Traceback ..."))

    def test_euler_roots_are_checked(self):
        roots = (Fraction(10007, 3), Fraction(10009, 7), Fraction(10037, 11))
        cmd = Command(("analyze", "--op", "x.json"), "euler", roots)
        root_rows = [{"alpha": str(-x), "multiplicity": 1, "log_exponent": None} for x in roots]
        report = {"command": "analyze", "result": {
            "operator": euler_operator("euler_0", *roots),
            "verdict": {"status": "inconclusive", "indicial_roots": {"roots": root_rows}},
        }}
        self.assertIsNone(self.judge(report, code=1, cmd=cmd))
        root_rows[0]["alpha"] = "-10007/7"
        self.assertIn("indicial roots", self.judge(report, code=1, cmd=cmd))

    def test_mc_repeat_must_be_identical(self):
        cmd = Command(("verify", "--op", "PN:p=4", "--target", "PN:p=4", "--mode", "mc",
                       "--n", "10", "--seed", "3"), "mc", True)
        result = {"pass": True, "n": 10, "seed": 3,
                  "tests": [{"n": 10, "residual": 0.125, "passed": True}]}
        oracle = Oracle()
        self.assertEqual(oracle.unrepeated([cmd]), [cmd])
        report = {"command": "verify", "result": result}
        self.assertIsNone(oracle.judge(cmd, 0, json.dumps(report)))
        self.assertIsNone(oracle.judge(cmd, 0, json.dumps(report)))
        self.assertEqual(oracle.unrepeated([cmd]), [])
        result["tests"][0]["residual"] = 0.12500000000000003
        self.assertIn("differ", oracle.judge(cmd, 0, json.dumps(report)))
        result["pass"] = False
        self.assertIn("expected True", oracle.judge(cmd, 1, json.dumps(report)))


if __name__ == "__main__":
    unittest.main()
