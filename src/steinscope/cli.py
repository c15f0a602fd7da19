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
and 2 for refused input: every refusal the engine raises leaves through
``main`` as exit 2 with one stderr line, ``steinscope: error: <message>``.

All randomness flows from ``--seed`` (default 0, echoed in the report), so a
report is a pure function of its inputs.  ``--pretty`` renders the same data
as aligned text instead of JSON, in the engine's own texts: each branch of
``analyze`` as the verdict's diagnostics name it
(``asymptotics.branch_text``), and the ``gamma`` residual as its
``ChaosElement``.  The environment variable
STEIN_SCOPE_THREADS caps Monte-Carlo worker threads; estimates are
chunk-ordered, so the thread count never changes a reported value.

Each command imports only the modules it runs, inside its handler, so
``import steinscope.cli`` loads no engine module: ``discover`` never loads
the asymptotic analysis, nor ``gamma`` the operator catalog.  This holds
under ``--pretty`` too, which imports only what each command's text needs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .budgets import MAX_CONSTRAINTS, MAX_SAMPLES, MAX_UNKNOWNS

if TYPE_CHECKING:
    from .distributions import TargetDistribution
    from .operators import SteinOperator

# Engine entry points readable as attributes of this module, as the
# benchmark tracer's self-test reads them; each defining module is imported
# on first access.
_ENTRY_POINTS = {
    "catalog_get": "operators",
    "characterisation_verdict": "asymptotics",
    "mc_stein_residual": "verification",
}


def __getattr__(name: str):
    if name not in _ENTRY_POINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_ENTRY_POINTS[name]}", __package__)
    return getattr(module, name)


class UsageError(ValueError):
    """A problem with the invocation itself; maps to exit code 2."""


# --- operator and report files ------------------------------------------------


def load_operator_file(path) -> SteinOperator:
    """Parse an operator JSON file, reporting the position of any defect."""
    from .operators import SteinOperator

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
    from .operators import UnknownOperator, catalog_get, catalog_names

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
    from .distributions import UnknownTarget, get_target, target_names

    try:
        return get_target(spec)
    except UnknownTarget:
        raise UsageError(
            f"unknown target {spec!r}; known targets: " + ", ".join(target_names())
        ) from None


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
        "python": sys.version.split()[0],  # what platform.python_version() parses
        "numpy": _installed_version("numpy"),
    }


# --- subcommands ---------------------------------------------------------------

def _cmd_catalog(args) -> tuple[dict, int]:
    from .distributions import target_names
    from .operators import FAMILIES, catalog_get, catalog_names

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
    from .operators import psi_transform

    op = _resolve_operator(args.op)
    return {"operator": op.to_json_dict(), "ode": psi_transform(op).as_json()}, 0


def _cmd_analyze(args) -> tuple[dict, int]:
    from .asymptotics import characterisation_verdict

    op = _resolve_operator(args.op)
    meta = {"moment_order": op.m, "symmetric": False, "zero_mean": False}
    if op.target_hint is not None:
        meta.update(_resolve_target(op.target_hint).meta)
    if args.symmetric:
        meta["symmetric"] = True
    if args.zero_mean:
        meta["zero_mean"] = True
    if args.moments is not None:
        meta["moment_order"] = args.moments
    verdict = characterisation_verdict(op, **meta)
    result = {
        "operator": op.to_json_dict(),
        "ode": verdict.ode.as_json(),
        "target_meta": meta,
        "verdict": verdict.as_json(),
    }
    return result, (1 if verdict.status == "inconclusive" else 0)


def _cmd_verify(args) -> tuple[dict, int]:
    from .verification import check_moment_recurrence, mc_stein_residual

    op = _resolve_operator(args.op)
    target = _resolve_target(args.target)
    if args.mode == "exact":
        reports = check_moment_recurrence(op, target, K=args.orders)
    else:
        reports = mc_stein_residual(op, target, n=args.n, seed=args.seed)
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
    from .discovery import DiscoveryProblem, find_stein_operators

    target = _resolve_target(args.target)
    prob = DiscoveryProblem(target, args.order, args.degree, K=args.constraints)
    ops = find_stein_operators(prob)
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
    from .malliavin import check_gamma_characterisation, identity_catalog

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
        from .asymptotics import branch_text

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
            lines.append(f"  branch      : {branch_text(row):<48} -> {row['exclusion']}")
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
        from .operators import SteinOperator

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
        from .malliavin import ChaosElement

        residual = ChaosElement(dict(result["residual"]))
        lines.append(f"  identity : {result['check']} for {result['target']}")
        lines.append(f"  residual : {residual or '0 (identity holds exactly)'}")
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
    operator = argparse.ArgumentParser(add_help=False)
    operator.add_argument(
        "--op", required=True, help="catalog spec or path to an operator JSON file"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser(
        "catalog", parents=[common], help="list built-in operators and targets"
    )

    sub.add_parser("transform", parents=[common, operator],
                   help="map an operator to its characteristic-function ODE")

    p = sub.add_parser("analyze", parents=[common, operator],
                       help="run the sufficiency analysis on an operator")
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

    p = sub.add_parser("verify", parents=[common, operator],
                       help="check an operator against a target law")
    p.add_argument("--target", required=True, help="target law spec, e.g. H3")
    p.add_argument(
        "--mode",
        choices=("exact", "mc"),
        default="mc",
        help="exact moment recurrences or Monte-Carlo residuals (default mc)",
    )
    p.add_argument(
        "--n", type=int, default=100_000,
        help=f"Monte-Carlo sample size (2 to {MAX_SAMPLES}; "
             "PN:p and H<p> samples count p each)",
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
    except (ValueError, NotImplementedError, OverflowError) as exc:  # a refusal
        message = str(exc)
        # a bare one is a result too long to print; an input literal is a BadParameter
        if type(exc) is ValueError and "integer string conversion" in message:
            message = ("the result has a number of more than "
                       f"{sys.get_int_max_str_digits()} digits, the limit of "
                       "Python's integer string conversion")
        print(f"steinscope: error: {message}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "inputs": _inputs(args),
        "seed": args.seed,
        "versions": _versions(),
        "result": result,
    }
    if args.output:
        try:
            save_report(args.output, report)
        except OSError as exc:  # a directory, or a missing parent directory
            print(f"steinscope: error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    if args.pretty:
        print("\n".join(_pretty_lines(report)))
    else:
        sys.stdout.write(report_json(report))
    return code


def run() -> None:
    """The process entry, for ``python -m steinscope.cli`` and the ``steinscope`` script.

    No code here calls BLAS, so numpy starts one OpenBLAS thread rather than
    a pool that spins beside the Monte-Carlo workers; an explicit
    ``OPENBLAS_NUM_THREADS`` still wins.  Freezing the collector before exit
    spares finalisation a walk over every object the imports made; atexit
    handlers, flushes and destructors still run.  ``main`` touches neither
    setting, for in-process callers.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read when numpy loads
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
