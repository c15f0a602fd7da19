"""CLI behaviour: report envelopes, exit codes, operator files, golden runs."""

import io
import json
import os
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import steinscope
from steinscope import distributions
from steinscope.asymptotics import _level_polynomials
from steinscope.budgets import BUDGETS, LOG_WALK_TERMS
from steinscope.cli import (
    UsageError,
    _installed_version,
    _versions,
    load_operator_file,
    main,
    report_json,
    save_report,
)
from steinscope.operators import BadParameter, SteinOperator, catalog_get, psi_transform

GOLDEN_DIR = Path(__file__).parent / "golden"

_SCHEMA = json.loads(
    resources.files("steinscope").joinpath("report_schema.json").read_text()
)
_VALIDATOR = jsonschema.Draft202012Validator(_SCHEMA)

# specs with golden analyze reports under tests/golden/
GOLDEN_SPECS = [
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
]


def golden_slug(spec: str) -> str:
    return spec.replace(":", "_").replace(",", "_").replace("=", "").replace("/", "-")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_report(*argv):
    """Run the CLI, parse the JSON report, and validate it against the schema."""
    code, out, err = run_cli(*argv)
    assert err == ""
    report = json.loads(out)
    _VALIDATOR.validate(report)
    return code, report


class TestEnvelope:
    def test_envelope_fields(self):
        code, report = run_report("catalog")
        assert code == 0
        assert report["command"] == "catalog"
        assert report["seed"] == 0
        assert set(report["versions"]) == {"steinscope", "python", "numpy", "scipy"}

    def test_seed_is_echoed(self):
        _, report = run_report("transform", "--op", "gauss_classical", "--seed", "7")
        assert report["seed"] == 7

    def test_inputs_echo_parsed_arguments(self):
        _, report = run_report(
            "verify", "--op", "H4_T2m3", "--target", "H4", "--mode", "exact"
        )
        assert report["inputs"] == {
            "mode": "exact",
            "n": 100000,
            "op": "H4_T2m3",
            "orders": 12,
            "target": "H4",
        }

    def test_reports_are_deterministic(self):
        _, out1, _ = run_cli("analyze", "--op", "H4_T2m3")
        _, out2, _ = run_cli("analyze", "--op", "H4_T2m3")
        assert out1 == out2

    def test_output_flag_saves_the_same_report(self, tmp_path):
        path = tmp_path / "report.json"
        _, out, _ = run_cli("catalog", "--output", str(path))
        assert path.read_text(encoding="utf-8") == out

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestCatalog:
    def test_static_entries(self):
        _, report = run_report("catalog")
        rows = {r["name"]: r for r in report["result"]["operators"]}
        assert rows["gauss_classical"] == {
            "name": "gauss_classical", "T": 1, "m": 1, "target_hint": "N01",
        }
        assert rows["H4_T2m3"]["T"] == 2
        assert rows["H4_T2m3"]["m"] == 3
        assert rows["H5_T13m4"]["target_hint"] == "H5"
        assert len(rows) == 8

    def test_families_and_targets(self):
        _, report = run_report("catalog")
        families = {r["family"] for r in report["result"]["families"]}
        assert families == {"PN", "PRR", "G1X", "BG1", "G1G2"}
        targets = report["result"]["targets"]
        assert "H3" in targets and "semicircle" in targets


class TestTransform:
    def test_classical_gaussian_ode(self):
        # D - y maps to phi' + t*phi = 0
        code, report = run_report("transform", "--op", "gauss_classical")
        assert code == 0
        ode = report["result"]["ode"]
        assert ode["order"] == 1
        assert ode["coefficients"] == ["(1)*x^1", "(1)"]
        assert report["result"]["operator"] == catalog_get("gauss_classical").to_json_dict()

    def test_operator_from_file(self, tmp_path):
        path = tmp_path / "op.json"
        save_report(path, catalog_get("PRR:s=2").to_json_dict())
        code, report = run_report("transform", "--op", str(path))
        assert code == 0
        _, catalog_report = run_report("transform", "--op", "PRR:s=2")
        assert report["result"]["ode"] == catalog_report["result"]["ode"]


class TestOperatorFiles:
    def test_save_load_round_trip(self, tmp_path):
        op = catalog_get("H4_T2m3")
        path = tmp_path / "h4.json"
        save_report(path, op.to_json_dict())
        loaded = load_operator_file(path)
        assert loaded == op
        assert loaded.name == "H4_T2m3"

    def test_resave_is_byte_identical(self, tmp_path):
        op = catalog_get("H4_T2m3")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_report(first, op.to_json_dict())
        save_report(second, load_operator_file(first).to_json_dict())
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "T": 1,\n  "m": }')
        with pytest.raises(UsageError, match="line 2"):
            load_operator_file(path)

    def test_zero_denominator_is_rejected_with_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "T": 1, "m": 0, "coeff": [["1", "1/0"]]}')
        with pytest.raises(UsageError, match="row 0, column 1"):
            load_operator_file(path)

    def test_bad_file_exits_2_with_stderr_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        code, out, err = run_cli("analyze", "--op", str(path))
        assert code == 2
        assert out == ""
        assert "invalid JSON" in err

    def test_unknown_operator_exits_2(self):
        code, out, err = run_cli("analyze", "--op", "nonsense")
        assert code == 2
        assert out == ""
        assert "unknown operator" in err and "gauss_classical" in err

    @pytest.mark.parametrize("spec", ["PN:p=4,p=5", "G1X:r=1,lam=2,lambda=3"])
    def test_repeated_parameter_exits_2(self, spec):
        for argv in (("transform", "--op", spec),
                     ("verify", "--op", "gauss_classical", "--target", spec)):
            code, out, err = run_cli(*argv)
            assert code == 2
            assert out == ""
            assert "more than once" in err

    def test_transform_large_product_normal(self):
        # the PN(p) operator carries {p, k} at (y^(k-1), D^k); read the rows
        # for p = 599 and 600 from the reports and check the Stirling
        # recurrence {p+1, k} = k {p, k} + {p, k-1} between them
        rows = {}
        for p in (599, 600):
            code, out, err = run_cli("transform", "--op", f"PN:p={p}")
            assert code == 0 and err == ""
            coeff = json.loads(out)["result"]["operator"]["coeff"]
            rows[p] = [0] + [int(coeff[k - 1][k]) for k in range(1, p + 1)] + [0]
        for k in range(1, 601):
            assert rows[600][k] == k * rows[599][k] + rows[599][k - 1]

    def test_report_json_round_trips(self):
        op = catalog_get("G1G2:r=1,s=2,lam=2")
        text = report_json(op.to_json_dict())
        assert SteinOperator.from_json_dict(json.loads(text)) == op


def _operator_file(text):
    """argv maker: write ``text`` as an operator file, pass it as --op."""
    def argv(tmp_path):
        path = tmp_path / "op.json"
        path.write_text(text)
        return ("analyze", "--op", str(path))
    return argv


_GAUSS_ROWS = '"coeff": [["0", "1"], ["-1", "0"]]'


class TestOutsideNumbers:
    """Every exact number from outside is read by one grammar, an optionally
    signed integer or p/q; anything else is a prompt usage error."""

    @pytest.mark.parametrize("make_argvs,message", [
        pytest.param(  # a 10-million-digit integer used to be built first
            [lambda _: ("transform", "--op", "PN:p=3,sigma2=1e10000000")],
            "bad value for 'sigma2': malformed rational '1e10000000'", id="exponent"),
        pytest.param(
            [lambda _: ("analyze", "--op", "PRR:s=1e1000000")],
            "bad value for 's': malformed rational '1e1000000'", id="exponent-prr"),
        pytest.param(
            [lambda _: ("verify", "--op", "gauss_classical", "--target",
                        "H" + "9" * 5000, "--mode", "exact")],
            "bad value for 'p'", id="hermite-index-over-digit-limit"),
        pytest.param(
            [_operator_file('{"T": 1e400, "m": 1, ' + _GAUSS_ROWS + "}")],
            "T and m must be JSON integers, got inf, 1", id="T-float-overflow"),
        pytest.param(  # used to be read as (1, 1)
            [_operator_file('{"T": 1.0, "m": true, ' + _GAUSS_ROWS + "}")],
            "T and m must be JSON integers, got 1.0, True", id="T-float-m-bool"),
        pytest.param(  # used to be read as sigma2=10
            [lambda _: ("analyze", "--op", "PN:p=3,sigma2=1_0")],
            "bad value for 'sigma2': malformed rational '1_0'", id="underscore"),
        pytest.param(  # a file entry and a spec value now read alike
            [_operator_file('{"T": 1, "m": 1, "coeff": [["0", "1e3"], ["-1", "0"]]}'),
             lambda _: ("analyze", "--op", "PN:p=3,sigma2=1e3")],
            "malformed rational '1e3'", id="exponent-file-and-spec"),
        pytest.param(
            [_operator_file("[1, 2]")],
            "malformed operator JSON", id="file-not-an-object"),
        pytest.param(
            [_operator_file('{"T": 1' + "0" * 5000 + ', "m": 1, ' + _GAUSS_ROWS + "}")],
            "limit", id="json-integer-over-digit-limit"),
    ])
    def test_exits_2_promptly_with_one_line(self, tmp_path, make_argvs, message):
        for make_argv in make_argvs:
            start = time.monotonic()
            code, out, err = run_cli(*make_argv(tmp_path))
            assert time.monotonic() - start < 1.0
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and len(err) < 400
            assert message in err

    def test_parameter_beyond_float_range_analyzes(self):
        # the law's metadata needs no float; the parameter used to be
        # converted while building the target (an OverflowError traceback)
        code, report = run_report("analyze", "--op", f"G1G2:r=1,s=2,lam={'9' * 400}")
        assert code == 0
        assert report["result"]["target_meta"]["symmetric"] is False

    @pytest.mark.parametrize("op", ["G1G2:r=1,s=2,lam=2", f"G1G2:r=1,s=2,lam={'9' * 400}"])
    def test_mc_with_parameter_beyond_float_range_exits_2(self, op):
        spec = f"G1G2:r=1,s=2,lam={'9' * 400}"
        code, out, err = run_cli("verify", "--op", op, "--target", spec,
                                 "--mode", "mc", "--n", "1000")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "does not fit in a float" in err

    @pytest.mark.parametrize("op,target,param", [
        ("G1G2:r=1,s=2,lam=2", f"G1G2:r=1/{'9' * 400},s=2,lam=2", "r"),
        ("G1X:r=2,lam=3,sigma2=2", f"G1X:r=2,lam=3,sigma2=1/{'9' * 400}", "sigma2"),
        ("BG1:a=1/2,b=1,r=2", f"BG1:a=1/{'9' * 400},b=1,r=1", "a"),
    ])
    def test_mc_with_parameter_rounding_to_zero_exits_2(self, op, target, param):
        # sampling with the 0.0 would draw from a degenerate law, or numpy
        # would refuse it without naming the parameter ("a <= 0")
        code, out, err = run_cli("verify", "--op", op, "--target", target,
                                 "--mode", "mc", "--n", "1000")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"parameter {param} is nonzero but rounds to 0.0 in a float" in err

    def test_mc_with_negative_seed_exits_2(self):
        code, out, err = run_cli("verify", "--op", "gauss_classical", "--target", "gaussian",
                                 "--mode", "mc", "--n", "100", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "steinscope: error: Monte-Carlo seed = -1; need seed >= 0\n"

    @pytest.mark.parametrize("command", ["transform", "analyze"])
    def test_result_number_over_digit_limit_exits_2(self, command):
        # lam has 2500 digits, so the operator's coefficient -lam^2 has 5000,
        # more than Python converts to a string by default
        code, out, err = run_cli(command, "--op", f"G1G2:r=1,s=2,lam={'9' * 2500}")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_spec_values_share_the_grammar(self):
        op = catalog_get("PN:p=+3,sigma2= 3/6 ")
        assert op.name == "PN:p=3,sigma2=1/2"
        for bad in ("1.5", "3/0"):
            with pytest.raises(BadParameter, match="bad value for 'sigma2'"):
                catalog_get(f"PN:p=3,sigma2={bad}")


class TestAnalyze:
    def test_characterising_case_exits_0(self):
        code, report = run_report("analyze", "--op", "PN:p=4", "--moments", "3")
        assert code == 0
        assert report["result"]["verdict"]["status"] == "characterising"

    def test_inconclusive_case_exits_1(self):
        code, report = run_report("analyze", "--op", "PN:p=9")
        assert code == 1
        assert report["result"]["verdict"]["status"] == "inconclusive"

    def test_side_conditions_are_reported(self):
        code, report = run_report("analyze", "--op", "H4_T2m3")
        assert code == 0
        verdict = report["result"]["verdict"]
        assert verdict["status"] == "characterising_with_conditions"
        assert verdict["conditions"] == ["zero_mean"]

    def test_free_moments_surface_in_diagnostics(self):
        code, report = run_report("analyze", "--op", "gauss_semicircle_T5")
        assert code == 1
        assert report["result"]["verdict"]["diagnostics"]["free_moments"] == [2]

    @pytest.mark.parametrize("moments", ["-1", "-5"])
    def test_negative_moments_exits_2(self, moments):
        # it used to report "characterising" with "moment_order": -5
        code, out, err = run_cli("analyze", "--moments", moments, "--op", "gauss_classical")
        assert code == 2
        assert out == ""
        assert "moment_order >= 0" in err

    def test_target_meta_defaults_to_hint(self):
        _, report = run_report("analyze", "--op", "H5_T13m4")
        assert report["result"]["target_meta"] == {
            "moment_order": 4, "symmetric": True, "zero_mean": True,
        }

    def test_file_operator_has_no_hint_so_flags_supply_conditions(self, tmp_path):
        path = tmp_path / "h5.json"
        save_report(path, catalog_get("H5_T13m4").to_json_dict())
        code_plain, report_plain = run_report("analyze", "--op", str(path))
        assert code_plain == 1
        assert report_plain["result"]["verdict"]["status"] == "inconclusive"
        code_sym, report_sym = run_report("analyze", "--op", str(path), "--symmetric")
        assert code_sym == 0
        assert report_sym["result"]["verdict"]["conditions"] == ["symmetry"]


# The analyze result for y^2 - 1 (T = 0: a law on {-1, 1}) with --zero-mean,
# as recorded before ordinary points went through the Newton polygon.
_RADEMACHER_RESULT = (
    '{"operator":{"name":"rademacher","T":0,"m":2,"coeff":[["-1"],["0"],["1"]]},'
    '"ode":{"order":2,"unit":"-1","coefficients":["(1)","0","(1)"],'
    '"display":"CfOde(((1))*phi^(2) + ((1))*phi = 0)"},'
    '"target_meta":{"moment_order":2,"symmetric":false,"zero_mean":true},'
    '"verdict":{"status":"characterising_with_conditions","conditions":["zero_mean"],'
    '"singularity":{"kind":"ordinary","valuations":[0,null,0]},"indicial_roots":null,'
    '"branch_table":[{"kind":"bounded","multiplicity":2,"gamma":null,"magnitude":null,'
    '"phase_over_pi":null,"power_exponent":null,"log_coeff":null,"log_exponent":null,'
    '"exclusion":"candidate"}],'
    '"diagnostics":{"moment_forcing":"all moments pinned by rows k=0..12 using [\'zero_mean\']"}}}'
)


class TestOrdinaryPoint:
    """An operator with T = 0 transforms to an ODE with an ordinary point at 0."""

    @staticmethod
    def rademacher(tmp_path):
        path = tmp_path / "rademacher.json"
        save_report(path, {"name": "rademacher", "T": 0, "m": 2,
                           "coeff": [["-1"], ["0"], ["1"]]})
        return path

    def test_report_bytes_are_unchanged(self, tmp_path):
        path = self.rademacher(tmp_path)
        code, out, err = run_cli("analyze", "--op", path, "--zero-mean")
        assert (code, err) == (0, "")
        assert out == report_json({
            "command": "analyze",
            "inputs": {"op": str(path), "symmetric": False, "zero_mean": True},
            "seed": 0,
            "versions": _versions(),
            "result": json.loads(_RADEMACHER_RESULT),
        })

    def test_without_a_side_condition_the_first_moment_is_free(self, tmp_path):
        code, report = run_report("analyze", "--op", self.rademacher(tmp_path))
        verdict = report["result"]["verdict"]
        assert code == 1
        assert verdict["branch_table"] == json.loads(_RADEMACHER_RESULT)["verdict"][
            "branch_table"]
        assert verdict["diagnostics"] == {
            "free_moments": [1],
            "notes": ["2 admissible directions and the recurrence leaves E[W^n] "
                      "free for n in [1]"],
        }


class TestAnalyzeBoundedWork:
    """Regular singular inputs whose work used to grow with their numbers."""

    @staticmethod
    def euler_file(path, a, b, c, extra=()):
        """y^3 D^3 + c2 y^2 D^2 + c1 y D + c0 + y D^2 with indicial roots -a, -b, -c.

        ``extra`` adds (i, j) entries y^i D^j of coefficient 1; y D^2 and
        D^2 put Frobenius levels 1 and 2 above the indicial one.
        """
        entries = {
            (0, 0): a * b * c,
            (1, 1): a * b + b * c + c * a + a + b + c + 1,
            (2, 2): a + b + c + 3,
            (3, 3): 1,
            (1, 2): 1,
        }
        entries.update({key: 1 for key in extra})
        coeff = [[str(Fraction(entries.get((i, j), 0))) for j in range(4)] for i in range(4)]
        path.write_text(json.dumps({"name": path.stem, "T": 3, "m": 3, "coeff": coeff}))
        return path

    def test_sixteen_digit_indicial_constant(self, tmp_path):
        roots = (Fraction(1000003, 3), Fraction(1000033, 7), Fraction(1000037, 11))
        path = self.euler_file(tmp_path / "euler.json", *roots)
        start = time.perf_counter()
        code, report = run_report("analyze", "--op", path)
        elapsed = time.perf_counter() - start
        indicial = report["result"]["verdict"]["indicial_roots"]
        assert roots[0] * roots[1] * roots[2] > 10**15  # the constant term c0
        assert {Fraction(r["alpha"]) for r in indicial["roots"]} == {-r for r in roots}
        assert indicial["residual"] is None
        assert code == 1
        assert elapsed < 1.0

    def test_log_walk_over_budget_is_inconclusive(self, tmp_path):
        # indicial roots 0, -1/2 and -100000: the gap 100000 from -100000 to 0,
        # with two levels above the indicial one, exceeds the walk budget
        path = self.euler_file(
            tmp_path / "gap.json", Fraction(0), Fraction(100000), Fraction(1, 2), extra=[(0, 2)]
        )
        ode = psi_transform(load_operator_file(path))
        assert sorted(_level_polynomials(ode)) == [0, 1, 2]
        start = time.perf_counter()
        code, report = run_report("analyze", "--op", path)
        elapsed = time.perf_counter() - start
        verdict = report["result"]["verdict"]
        assert code == 1
        assert verdict["status"] == "inconclusive"
        assert verdict["diagnostics"]["notes"] == [
            "log test for root -100000 undecided: its integer gap 100000 exceeds "
            f"the series budget LOG_WALK_TERMS = {LOG_WALK_TERMS}"
        ]
        assert elapsed < 1.0


class TestVerify:
    def test_exact_mode_true_pair(self):
        code, report = run_report(
            "verify", "--op", "H4_T2m3", "--target", "H4",
            "--mode", "exact", "--orders", "10",
        )
        assert code == 0
        result = report["result"]
        assert result["pass"] is True
        assert result["n"] is None and result["seed"] is None
        assert len(result["tests"]) == 11
        assert all(t["residual"] == "0" for t in result["tests"])

    def test_exact_mode_impostor_fails(self):
        code, report = run_report(
            "verify", "--op", "H4_T2m3", "--target", "gaussian:sigma2=24",
            "--mode", "exact",
        )
        assert code == 1
        by_id = {t["test_id"]: t for t in report["result"]["tests"]}
        assert by_id["moment-k=0"]["passed"] is True
        assert by_id["moment-k=1"]["passed"] is False

    def test_exact_mode_negative_orders_exits_2(self):
        # a wrong pair: with no row checked it used to report "pass": true
        code, out, err = run_cli(
            "verify", "--op", "H3_T4m3", "--target", "H4",
            "--mode", "exact", "--orders", "-1",
        )
        assert code == 2
        assert out == ""
        assert "K >= 0" in err

    def test_exact_mode_orders_at_budget_runs(self):
        code, report = run_report(
            "verify", "--op", "gauss_classical", "--target", "gaussian",
            "--mode", "exact", "--orders", "256",
        )
        assert code == 0
        assert len(report["result"]["tests"]) == 257

    @pytest.mark.parametrize("argv", [
        ("verify", "--op", "gauss_classical", "--target", "H60", "--mode", "exact",
         "--orders", "256"),
        ("discover", "--target", "H1000", "--order", "0", "--degree", "0"),
    ])
    def test_hermite_budget_refuses_before_any_expansion(self, argv, monkeypatch):
        # the highest order is asked for first, so the budget refuses it
        # before the moment engine starts on any power of H_p
        started = []
        engine = distributions.gaussian_power_moments

        def recording(f):
            started.append(f)
            return engine(f)

        monkeypatch.setattr(distributions, "_HERMITE_MOMENTS", {})
        monkeypatch.setattr(distributions, "gaussian_power_moments", recording)
        code, out, err = run_cli(*argv)
        assert code == 2
        assert "MAX_HERMITE_DEGREE = 2048" in err
        assert started == []

    def test_exact_mode_on_a_large_family_index_is_prompt(self):
        # the moment relation reads integer falling factorials, so PN:p=600
        # costs no polynomial in k of degree 600
        start = time.monotonic()
        code, report = run_report(
            "verify", "--op", "PN:p=600", "--target", "PN:p=600",
            "--mode", "exact", "--orders", "12",
        )
        assert time.monotonic() - start < 5.0
        assert code == 0
        assert len(report["result"]["tests"]) == 13

    def test_exact_mode_without_oracle_exits_2(self):
        code, out, err = run_cli(
            "verify", "--op", "PRR:s=2", "--target", "PRR:s=2", "--mode", "exact"
        )
        assert code == 2
        assert "no exact moment oracle" in err

    def test_mc_mode_true_pair(self):
        code, report = run_report(
            "verify", "--op", "gauss_classical", "--target", "gaussian",
            "--n", "20000", "--seed", "0",
        )
        assert code == 0
        result = report["result"]
        assert result["pass"] is True
        assert result["n"] == 20000 and result["seed"] == 0
        assert all(t["n"] == 20000 and t["seed"] == 0 for t in result["tests"])

    def test_mc_mode_impostor_fails_on_frozen_tests(self):
        code, report = run_report(
            "verify", "--op", "H3_T5m2", "--target", "gaussian:sigma2=6",
            "--n", "100000", "--seed", "0",
        )
        assert code == 1
        failing = [t["test_id"] for t in report["result"]["tests"] if not t["passed"]]
        assert failing == ["sin(1/2*y)", "sin(1*y)", "exp(-y^2/2)*y^1"]

    @pytest.mark.parametrize("n", ["0", "-5", "1"])
    def test_mc_mode_fewer_than_two_samples_exits_2(self, n):
        code, out, err = run_cli(
            "verify", "--op", "H3_T4m3", "--target", "H3", "--mode", "mc",
            "--n", n,
        )
        assert code == 2
        assert out == ""
        assert "n >= 2" in err

    @pytest.mark.parametrize("target", ["H150", "H296", "H700"])
    def test_mc_mode_overflowing_hermite_target_exits_2(self, target):
        # the test-function images overflow on the (finite) H150 samples,
        # H296 samples overflow a float, and the coefficients of H700 do not
        # fit in one
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                "verify", "--op", "gauss_classical", "--target", target,
                "--mode", "mc", "--n", "100",
            )
        assert code == 2
        assert out == ""
        assert target in err
        assert [str(w.message) for w in caught] == []

    def test_mc_mode_coefficient_beyond_float_exits_2(self, tmp_path):
        path = tmp_path / "big.json"
        big = "-1" + "0" * 399  # 400 digits
        save_report(path, {"name": "big", "T": 1, "m": 1,
                           "coeff": [["0", "1"], [big, "0"]]})
        code, out, err = run_cli(
            "verify", "--op", str(path), "--target", "gaussian",
            "--mode", "mc", "--n", "1000",
        )
        assert code == 2
        assert out == ""
        assert "the x^1 coefficient does not fit in a float" in err

    def test_mc_mode_without_sampler_exits_2(self):
        code, out, err = run_cli(
            "verify", "--op", "PRR:s=2", "--target", "PRR:s=2", "--n", "1000"
        )
        assert code == 2
        assert "no sampler" in err

    def test_unknown_target_exits_2(self):
        code, out, err = run_cli(
            "verify", "--op", "gauss_classical", "--target", "cauchy"
        )
        assert code == 2
        assert "unknown target" in err


class TestDiscover:
    def test_classical_gaussian_operator(self):
        code, report = run_report(
            "discover", "--target", "gaussian", "--order", "1", "--degree", "1"
        )
        assert code == 0
        result = report["result"]
        assert result["dimension"] == 1
        assert result["effective_constraints"] == 20
        assert result["dimension_trail"] == [[20, 1], [28, 1]]
        found = SteinOperator.from_json_dict(result["operators"][0])
        assert found == SteinOperator({(0, 1): 1, (1, 0): -1})

    def test_h4_shape_recovers_catalog_operator(self):
        code, report = run_report(
            "discover", "--target", "H4", "--order", "2", "--degree", "3"
        )
        assert code == 0
        result = report["result"]
        assert result["dimension"] == 1
        found = SteinOperator.from_json_dict(result["operators"][0])
        assert found == catalog_get("H4_T2m3")

    def test_empty_nullspace_is_success(self):
        code, report = run_report(
            "discover", "--target", "gaussian", "--order", "0", "--degree", "1"
        )
        assert code == 0
        assert report["result"]["dimension"] == 0
        assert report["result"]["operators"] == []

    def test_bad_shape_exits_2(self):
        code, out, err = run_cli(
            "discover", "--target", "gaussian", "--order", "-1", "--degree", "1"
        )
        assert code == 2

    def test_target_without_oracle_exits_2(self):
        code, out, err = run_cli(
            "discover", "--target", "PRR:s=2", "--order", "2", "--degree", "2"
        )
        assert code == 2
        assert "no exact moment oracle" in err


# Inputs over each budget of the table, as CLI argv.  LOG_WALK_TERMS refuses
# nothing; its diagnostic is TestAnalyze.test_log_walk_over_budget_is_inconclusive.
_EXACT = ("--mode", "exact", "--orders")
OVER_BUDGET = {
    "MAX_INDEX": [
        ("analyze", "--op", "PN:p=99999999"),
        ("verify", "--op", "gauss_classical", "--target", "H3000", *_EXACT, "3"),
    ],
    "MAX_CONSTRAINTS": [
        # rows k = 0..orders of an exact check, and discover's constraints
        ("verify", "--op", "gauss_classical", "--target", "gaussian", *_EXACT, "257"),
        ("verify", "--op", "gauss_classical", "--target", "gaussian", *_EXACT, "100000"),
        ("discover", "--target", "gaussian", "--order", "1", "--degree", "1",
         "--constraints", "20000"),
    ],
    "MAX_UNKNOWNS": [
        ("discover", "--target", "gaussian", "--order", "1000", "--degree", "1000"),
    ],
    "MAX_HERMITE_DEGREE": [
        ("verify", "--op", "gauss_classical", "--target", "H60", *_EXACT, "256"),
        ("discover", "--target", "H1000", "--order", "0", "--degree", "0"),
    ],
    "MAX_SAMPLES": [
        ("verify", "--op", "H3_T4m3", "--target", "H3", "--mode", "mc",
         "--n", "1000000000000000"),
        # 10^6 PN:p=1000 samples multiply 10^9 normal draws
        ("verify", "--op", "gauss_classical", "--target", "PN:p=1000", "--mode", "mc",
         "--n", "1000000"),
    ],
    "LOG_WALK_TERMS": [],
}


# a budget added to the table without an entry above fails the collection
@pytest.mark.parametrize("name,argv", [
    (name, argv) for name in BUDGETS for argv in OVER_BUDGET[name]])
def test_over_budget_exits_2_promptly(name, argv):
    start = time.monotonic()
    code, out, err = run_cli(*argv)
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"{name} = {BUDGETS[name]}" in err and len(err.splitlines()) == 1


class TestGamma:
    def test_holding_identities_exit_0(self):
        for target, check in (("H3", "4.1"), ("H4", "4.3")):
            code, report = run_report("gamma", "--target", target, "--check", check)
            assert code == 0
            assert report["result"]["is_zero"] is True
            assert report["result"]["residual"] == []

    def test_nonzero_residual_exits_1_and_is_reported_verbatim(self):
        code, report = run_report("gamma", "--target", "H3", "--check", "4.2")
        assert code == 1
        assert report["result"]["is_zero"] is False
        assert report["result"]["residual"] == [
            [1, "-58320"], [3, "-47142"], [5, "-6804"], [7, "-243"],
        ]

    def test_target_identity_mismatch_exits_2(self):
        code, out, err = run_cli("gamma", "--target", "H4", "--check", "4.2")
        assert code == 2
        assert "stated for target H3" in err

    def test_unknown_identity_exits_2(self):
        code, out, err = run_cli("gamma", "--target", "H3", "--check", "9.9")
        assert code == 2
        assert "unknown identity" in err


class TestGoldenReports:
    @pytest.mark.parametrize("spec", GOLDEN_SPECS)
    def test_analyze_matches_golden_file(self, spec):
        _, report = run_report("analyze", "--op", spec)
        del report["versions"]
        golden = json.loads(
            (GOLDEN_DIR / f"analyze_{golden_slug(spec)}.json").read_text()
        )
        assert report == golden

    def test_golden_directory_is_exactly_the_spec_list(self):
        expected = {f"analyze_{golden_slug(s)}.json" for s in GOLDEN_SPECS}
        assert {p.name for p in GOLDEN_DIR.glob("*.json")} == expected


class TestPretty:
    def test_pretty_analyze_is_text(self):
        code, out, err = run_cli("analyze", "--op", "H4_T2m3", "--pretty")
        assert code == 0
        assert out.startswith("steinscope analyze")
        assert "verdict" in out and "zero_mean" in out

    def test_pretty_catalog_lists_operators(self):
        _, out, _ = run_cli("catalog", "--pretty")
        assert "gauss_classical" in out and "targets:" in out

    def test_pretty_verify_reports_overall(self):
        _, out, _ = run_cli(
            "verify", "--op", "H4_T2m3", "--target", "H4",
            "--mode", "exact", "--orders", "2", "--pretty",
        )
        assert "overall  : pass" in out

    def test_pretty_gamma_shows_residual_terms(self):
        code, out, _ = run_cli("gamma", "--target", "H3", "--check", "4.2", "--pretty")
        assert code == 1
        assert "(-243)*H7" in out


# Runs main() in a fresh interpreter and prints the exit code and which
# parts of the numeric stack, of the thread pool and of the package
# metadata reader (importlib.metadata and its email parser) the command
# loaded.
_IMPORT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from steinscope.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "scipy": "scipy" in sys.modules,
                  "scipy.special": "scipy.special" in sys.modules,
                  "concurrent.futures": "concurrent.futures" in sys.modules,
                  "importlib.metadata": "importlib.metadata" in sys.modules,
                  "email": "email" in sys.modules}))
"""


def probe_imports(*argv):
    src = str(Path(steinscope.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


class TestNumericStackImports:
    @pytest.mark.parametrize("argv", [
        ("catalog",),
        ("analyze", "--op", "PN:p=4"),
        ("transform", "--op", "H5_T13m4"),
        ("verify", "--op", "H4_T2m3", "--target", "H4", "--mode", "exact"),
        ("gamma", "--target", "H3", "--check", "4.1"),
        ("discover", "--target", "gaussian", "--order", "1", "--degree", "1"),
    ], ids=lambda argv: argv[0])
    def test_exact_commands_load_neither_numpy_nor_scipy(self, argv):
        assert probe_imports(*argv) == {
            "code": 0, "numpy": False, "scipy": False, "scipy.special": False,
            "concurrent.futures": False, "importlib.metadata": False, "email": False,
        }

    def test_monte_carlo_loads_numpy_but_not_scipy_special(self):
        loaded = probe_imports(
            "verify", "--op", "gauss_classical", "--target", "gaussian",
            "--mode", "mc", "--n", "1000",
        )
        assert loaded["code"] == 0
        assert loaded["numpy"] is True
        assert loaded["scipy.special"] is False

    def test_versions_match_the_imported_packages(self):
        import numpy
        import scipy

        versions = _versions()
        assert versions["numpy"] == numpy.__version__
        assert versions["scipy"] == scipy.__version__

    @pytest.mark.parametrize("name", ["numpy", "scipy"])
    def test_versions_match_importlib_metadata(self, name):
        from importlib.metadata import version

        assert _installed_version(name) == version(name)

    def test_version_of_a_package_not_installed_reads_unknown(self):
        assert _installed_version("no_such_package") == "unknown"
