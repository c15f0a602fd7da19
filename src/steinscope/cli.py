"""Command-line interface emitting JSON run reports.

Every invocation writes a single report object to stdout::

    {"command": ..., "inputs": ..., "seed": ..., "versions": ..., "result": ...}

``inputs`` echoes the parsed arguments, ``versions`` records the package and
numeric-stack versions, and ``result`` is the command-specific payload.  The
report validates against the shipped ``report_schema.json``.  Exit codes keep
the three outcomes a caller must distinguish apart: 0 for success (an
analysis that characterises, possibly under side conditions; a verification
that passes; a completed discovery run), 1 for an analytic failure (an
inconclusive verdict, a failed residual test, a nonzero identity residual),
and 2 for usage errors (unknown names, bad parameters, malformed operator
files), which are reported on stderr.

All randomness flows from ``--seed`` (default 0, echoed in the report), so a
report is a pure function of its inputs.  ``--pretty`` renders the same data
as aligned text instead of JSON.  The environment variable
STEIN_SCOPE_THREADS caps Monte-Carlo worker threads; estimates are
chunk-ordered, so the thread count never changes a reported value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from . import __version__
# benchmarks/selftest.py traces characterisation_verdict through this module
from .asymptotics import characterisation_verdict, verdict_for_ode
from .budgets import MAX_CONSTRAINTS, MAX_SAMPLES, MAX_UNKNOWNS
from .discovery import DiscoveryProblem, find_stein_operators
from .distributions import (
    TargetDistribution,
    UnknownTarget,
    get_target,
    target_names,
)
from .operators import (
    FAMILIES,
    BadParameter,
    CfOde,
    SteinOperator,
    UnknownOperator,
    catalog_get,
    catalog_names,
    psi_transform,
)
from .malliavin import check_gamma_characterisation, identity_catalog
from .verification import check_moment_recurrence, mc_stein_residual

__all__ = [
    "UsageError",
    "build_parser",
    "load_operator_file",
    "main",
    "report_json",
    "save_report",
]


class UsageError(ValueError):
    """A problem with the invocation itself; maps to exit code 2."""


# --- operator and report files ------------------------------------------------


def load_operator_file(path) -> SteinOperator:
    """Parse an operator JSON file, reporting the position of any defect."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return SteinOperator.from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (KeyError, TypeError, ValueError) as exc:  # also json's int digit limit
        raise UsageError(f"{path}: {exc}") from exc


def report_json(report: dict) -> str:
    """Canonical JSON rendering: two-space indent, keys in insertion order."""
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def save_report(path, report: dict) -> None:
    """Write ``report`` to ``path`` in the canonical rendering.

    The rendering is deterministic, so saving, loading, and saving again
    reproduces the file byte for byte.
    """
    Path(path).write_text(report_json(report), encoding="utf-8")


# --- shared resolution helpers -------------------------------------------------


def _resolve_operator(spec: str) -> SteinOperator:
    """A catalog spec like "PN:p=4", or a path to an operator JSON file."""
    if os.path.exists(spec) or spec.endswith(".json"):
        return load_operator_file(spec)
    try:
        return catalog_get(spec)
    except UnknownOperator:
        raise UsageError(
            f"unknown operator {spec!r}; catalog entries: "
            + ", ".join(catalog_names())
            + " (or pass a path to an operator JSON file)"
        ) from None


def _resolve_target(spec: str) -> TargetDistribution:
    try:
        return get_target(spec)
    except UnknownTarget:
        raise UsageError(
            f"unknown target {spec!r}; known targets: " + ", ".join(target_names())
        ) from None


def _ode_json(ode: CfOde) -> dict:
    return {
        "order": ode.order,
        "unit": None if ode.unit is None else str(ode.unit),
        "coefficients": [str(c) for c in ode.coeffs],
        "display": repr(ode),
    }


def _installed_version(name: str) -> str:
    """The Version: header of the first ``<name>-*.dist-info`` on sys.path."""
    for entry in sys.path:
        for info in sorted(Path(entry or ".").glob(f"{name}-*.dist-info")):
            try:
                with open(info / "METADATA", encoding="utf-8") as metadata:
                    for line in metadata:
                        if line.startswith("Version:"):
                            return line[len("Version:"):].strip()
            except OSError:
                continue
    return "unknown"


def _versions() -> dict:
    # Read from the installed metadata files so that exact commands import
    # neither the numeric stack nor importlib.metadata (with its email parser).
    return {
        "steinscope": __version__,
        "python": platform.python_version(),
        "numpy": _installed_version("numpy"),
        "scipy": _installed_version("scipy"),
    }


# --- subcommands ---------------------------------------------------------------

def _cmd_catalog(args) -> tuple[dict, int]:
    operators = []
    for name in catalog_names():
        if name not in FAMILIES:
            op = catalog_get(name)
            operators.append(
                {"name": name, "T": op.T, "m": op.m, "target_hint": op.target_hint}
            )
    families = [
        {
            "family": name,
            "parameters": [
                p.name if p.default is None else f"{p.name}={p.default}"
                for p in family.params
            ],
        }
        for name, family in FAMILIES.items()
    ]
    return {
        "operators": operators,
        "families": families,
        "targets": target_names(),
    }, 0


def _cmd_transform(args) -> tuple[dict, int]:
    op = _resolve_operator(args.op)
    ode = psi_transform(op)
    return {"operator": op.to_json_dict(), "ode": _ode_json(ode)}, 0


def _cmd_analyze(args) -> tuple[dict, int]:
    op = _resolve_operator(args.op)
    meta = {"moment_order": op.m, "symmetric": False, "zero_mean": False}
    if op.target_hint is not None:
        meta.update(get_target(op.target_hint).meta)
    if args.symmetric:
        meta["symmetric"] = True
    if args.zero_mean:
        meta["zero_mean"] = True
    if args.moments is not None:
        meta["moment_order"] = args.moments
    ode = psi_transform(op)
    try:
        verdict = verdict_for_ode(ode, **meta)
    except ValueError as exc:  # --moments < 0
        raise UsageError(str(exc)) from None
    result = {
        "operator": op.to_json_dict(),
        "ode": _ode_json(ode),
        "target_meta": meta,
        "verdict": verdict.as_json(),
    }
    return result, (1 if verdict.status == "inconclusive" else 0)


def _cmd_verify(args) -> tuple[dict, int]:
    op = _resolve_operator(args.op)
    target = _resolve_target(args.target)
    try:
        if args.mode == "exact":
            reports = check_moment_recurrence(op, target, K=args.orders)
        else:
            reports = mc_stein_residual(op, target, n=args.n, seed=args.seed)
    except (NotImplementedError, ValueError, OverflowError) as exc:
        # no oracle or sampler, --orders or --n out of range, beyond float range
        raise UsageError(str(exc)) from None
    passed = all(r.passed for r in reports)
    result = {
        "operator": op.name or "operator-file",
        "target": target.name,
        "mode": args.mode,
        "n": args.n if args.mode == "mc" else None,
        "seed": args.seed if args.mode == "mc" else None,
        "tests": [r.as_json() for r in reports],
        "pass": passed,
    }
    return result, (0 if passed else 1)


def _cmd_discover(args) -> tuple[dict, int]:
    target = _resolve_target(args.target)
    try:
        prob = DiscoveryProblem(target, args.order, args.degree, K=args.constraints)
        ops = find_stein_operators(prob)
    except ValueError as exc:  # NoExactOracle, OracleTooShort, bad shape or budget
        raise UsageError(str(exc)) from None
    result = {
        "target": target.name,
        "order": args.order,
        "degree": args.degree,
        "operators": [op.to_json_dict() for op in ops],
        "dimension": len(ops),
        "effective_constraints": prob.effective_K,
        "dimension_trail": [[k, d] for k, d in prob.dimension_trail],
    }
    return result, 0


def _cmd_gamma(args) -> tuple[dict, int]:
    catalog = identity_catalog()
    if args.check not in catalog:
        raise UsageError(
            f"unknown identity {args.check!r}; known: " + ", ".join(sorted(catalog))
        )
    stated = catalog[args.check]
    if args.target != stated:
        raise UsageError(
            f"identity {args.check} is stated for target {stated}, not {args.target}"
        )
    residual = check_gamma_characterisation(args.check)
    result = {
        "check": args.check,
        "target": args.target,
        "residual": [[q, str(c)] for q, c in sorted(residual.c.items())],
        "is_zero": residual.is_zero(),
    }
    return result, (0 if residual.is_zero() else 1)


_HANDLERS = {
    "catalog": _cmd_catalog,
    "transform": _cmd_transform,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "discover": _cmd_discover,
    "gamma": _cmd_gamma,
}


# --- pretty rendering ----------------------------------------------------------


def _pretty_lines(report: dict) -> list[str]:
    command = report["command"]
    result = report["result"]
    lines = [f"steinscope {command} (seed {report['seed']})"]
    if command == "catalog":
        for row in result["operators"]:
            lines.append(
                f"  {row['name']:<22} T={row['T']:<3} m={row['m']:<3} "
                f"target={row['target_hint']}"
            )
        for row in result["families"]:
            lines.append(
                f"  {row['family']:<22} parameters: " + ", ".join(row["parameters"])
            )
        lines.append("  targets: " + ", ".join(result["targets"]))
    elif command == "transform":
        lines.append(f"  operator : {result['operator']['name'] or '(file)'}")
        lines.append(f"  ode      : {result['ode']['display']}")
    elif command == "analyze":
        verdict = result["verdict"]
        lines.append(f"  operator    : {result['operator']['name'] or '(file)'}")
        lines.append(f"  ode         : {result['ode']['display']}")
        lines.append(f"  singularity : {verdict['singularity']['kind']}")
        if verdict["indicial_roots"] is not None:
            roots = ", ".join(
                f"{r['alpha']} (x{r['multiplicity']})"
                for r in verdict["indicial_roots"]["roots"]
            )
            lines.append(f"  indicial    : {roots}")
        for row in verdict["branch_table"]:
            mag = row["magnitude"]
            parts = [row["kind"]]
            if row["multiplicity"] > 1:
                parts.append(f"x{row['multiplicity']}")
            if row["gamma"] not in (None, "0"):
                parts.append(f"gamma={row['gamma']}")
            if mag is not None:
                root = "" if mag["root"] == 1 else f"^(1/{mag['root']})"
                parts.append(f"magnitude={mag['power']}{root}")
            if row["phase_over_pi"] is not None:
                parts.append(f"phase={row['phase_over_pi']}*pi")
            if row["power_exponent"] is not None:
                parts.append(f"power={row['power_exponent']}")
            if row["log_exponent"] is not None:
                parts.append(f"log@t^{row['log_exponent']}")
            desc = " ".join(parts)
            lines.append(f"  branch      : {desc:<48} -> {row['exclusion']}")
        status = verdict["status"]
        if verdict["conditions"]:
            status += " under {" + ", ".join(verdict["conditions"]) + "}"
        lines.append(f"  verdict     : {status}")
        for key, value in verdict["diagnostics"].items():
            lines.append(f"  {key} : {value}")
    elif command == "verify":
        lines.append(f"  operator : {result['operator']}")
        lines.append(f"  target   : {result['target']} ({result['mode']})")
        for t in result["tests"]:
            flag = "pass" if t["passed"] else "FAIL"
            lines.append(
                f"  {t['test_id']:<22} residual {t['residual']!s:<24} "
                f"threshold {t['threshold']!s:<24} {flag}"
            )
        lines.append(f"  overall  : {'pass' if result['pass'] else 'FAIL'}")
    elif command == "discover":
        lines.append(f"  target     : {result['target']}")
        lines.append(f"  shape      : T={result['order']}, m={result['degree']}")
        lines.append(f"  dimension  : {result['dimension']}")
        lines.append(
            "  trail      : "
            + " -> ".join(f"K={k}: dim {d}" for k, d in result["dimension_trail"])
        )
        for op_dict in result["operators"]:
            lines.append(f"  operator   : {SteinOperator.from_json_dict(op_dict)!r}")
    elif command == "gamma":
        lines.append(f"  identity : {result['check']} for {result['target']}")
        if result["is_zero"]:
            lines.append("  residual : 0 (identity holds exactly)")
        else:
            terms = " + ".join(f"({c})*H{q}" for q, c in result["residual"])
            lines.append(f"  residual : {terms}")
    return lines


# --- argument parsing and entry point -------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinscope",
        description="Symbolic-numeric toolkit for polynomial Stein operators.",
        epilog="Set STEIN_SCOPE_THREADS to cap Monte-Carlo worker threads.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="seed for all randomness (default 0)"
    )
    common.add_argument(
        "--pretty", action="store_true", help="aligned text output instead of JSON"
    )
    common.add_argument(
        "--output", metavar="FILE", help="also save the JSON report to FILE"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser(
        "catalog", parents=[common], help="list built-in operators and targets"
    )

    p = sub.add_parser(
        "transform",
        parents=[common],
        help="map an operator to its characteristic-function ODE",
    )
    p.add_argument(
        "--op", required=True, help="catalog spec or path to an operator JSON file"
    )

    p = sub.add_parser(
        "analyze", parents=[common], help="run the sufficiency analysis on an operator"
    )
    p.add_argument(
        "--op", required=True, help="catalog spec or path to an operator JSON file"
    )
    p.add_argument(
        "--moments",
        type=int,
        default=None,
        help="moment growth order (default: the operator's polynomial degree)",
    )
    p.add_argument(
        "--symmetric",
        action="store_true",
        help="allow the symmetry side condition",
    )
    p.add_argument(
        "--zero-mean",
        action="store_true",
        help="allow the zero-mean side condition",
    )

    p = sub.add_parser(
        "verify", parents=[common], help="check an operator against a target law"
    )
    p.add_argument(
        "--op", required=True, help="catalog spec or path to an operator JSON file"
    )
    p.add_argument("--target", required=True, help="target law spec, e.g. H3")
    p.add_argument(
        "--mode",
        choices=("exact", "mc"),
        default="mc",
        help="exact moment recurrences or Monte-Carlo residuals (default mc)",
    )
    p.add_argument(
        "--n", type=int, default=100_000,
        help=f"Monte-Carlo sample size (2 to {MAX_SAMPLES}; PN:p samples count p each)",
    )
    p.add_argument(
        "--orders",
        type=int,
        default=12,
        help=f"exact mode: check recurrence rows k=0..orders (0 to {MAX_CONSTRAINTS})",
    )

    p = sub.add_parser(
        "discover",
        parents=[common],
        help="find all operators of a given shape annihilating a target",
    )
    p.add_argument("--target", required=True, help="target law spec, e.g. H4")
    p.add_argument(
        "--order",
        type=int,
        required=True,
        help=f"max derivative order T; (T+1)(m+1) <= {MAX_UNKNOWNS}",
    )
    p.add_argument("--degree", type=int, required=True, help="max polynomial degree m")
    p.add_argument(
        "--constraints",
        type=int,
        default=None,
        help="initial number of moment constraints "
        f"(default: matrix width + 16; at most {MAX_CONSTRAINTS})",
    )

    p = sub.add_parser(
        "gamma", parents=[common], help="evaluate a Gamma-calculus identity exactly"
    )
    p.add_argument("--target", required=True, help="chaos target, e.g. H3")
    p.add_argument("--check", required=True, help="identity label, e.g. 4.1")
    return parser


def _inputs(args: argparse.Namespace) -> dict:
    skip = {"command", "seed", "pretty", "output"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result, code = _HANDLERS[args.command](args)
    except (UsageError, BadParameter) as exc:
        print(f"steinscope: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a result number too long to print
        if "integer string conversion" not in str(exc):
            raise
        print("steinscope: error: the result has a number of more than "
              f"{sys.get_int_max_str_digits()} digits, the limit of Python's "
              "integer string conversion", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": _inputs(args),
        "seed": args.seed,
        "versions": _versions(),
        "result": result,
    }
    if args.output:
        save_report(args.output, report)
    if args.pretty:
        print("\n".join(_pretty_lines(report)))
    else:
        sys.stdout.write(report_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
