"""Per-layer metrics from the spans ``tracer.py`` writes.

A span's self time is its duration minus the part of it that its direct
children cover (the union of their intervals, so overlapping Monte-Carlo
worker spans are not counted twice).  A leaf layer's time is the union of
its spans' intervals, which also merges recursive calls.  With these rules
the layer times of one command add up to the duration of ``cli.main``:

    cli.main_self + catalog_get + psi_transform + verdict_self
    + indicial_roots + dominant_balance + power_correction + moment
    + sample + mc_self + exact_self + find_self + gamma  ==  main

Every ``*_s`` layer metric is a total over one pass in seconds; counts are
totals over the pass.  The two rates use the pass totals:
``distributions.samples_per_s`` is samples drawn over ``sample_s`` (wall
time with at least one sampler running), ``verification.mc_evals_per_s`` is
samples x test functions over ``verification.mc_self_s``.
"""

from __future__ import annotations

LEAVES = {
    "operators.catalog_get_s": "operators.catalog_get",
    "operators.psi_transform_s": "operators.psi_transform",
    "asymptotics.verdict_s": "asymptotics.verdict",
    "asymptotics.indicial_roots_s": "asymptotics.indicial_roots",
    "asymptotics.dominant_balance_s": "asymptotics.dominant_balance",
    "asymptotics.power_correction_s": "asymptotics.power_correction",
    "distributions.moment_s": "distributions.moment",
    "distributions.sample_s": "distributions.sample",
    "malliavin.gamma_s": "malliavin.gamma",
}
SELF = {
    "cli.main_self_s": "cli.main",
    "asymptotics.verdict_self_s": "asymptotics.verdict",
    "verification.mc_self_s": "verification.mc",
    "verification.exact_self_s": "verification.exact",
    "discovery.find_self_s": "discovery.find",
}
CALLS = {
    "operators.psi_transform_calls": "operators.psi_transform",
    "asymptotics.indicial_roots_calls": "asymptotics.indicial_roots",
    "asymptotics.power_correction_calls": "asymptotics.power_correction",
    "distributions.moment_calls": "distributions.moment",
}
EXTRAS = {
    "distributions.samples_drawn": ("distributions.sample", "n"),
    "verification.mc_evals": ("verification.mc", "evals"),
    "discovery.constraint_rows": ("discovery.find", "rows"),
    "discovery.stabilisation_rounds": ("discovery.find", "rounds"),
    "discovery.nullity": ("discovery.find", "nullity"),
}
# layer times that partition cli.main; verdict_s is inclusive, so not here
PARTITION = [k for k in LEAVES if k != "asymptotics.verdict_s"] + list(SELF)


def union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def command_layers(trace: dict, wall_end: float) -> dict:
    """Layer totals for one traced command whose process was reaped at ``wall_end``."""
    spans = trace["spans"]
    children = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {
        "cli.import_s": trace["import_s"],
        "cli.exit_s": wall_end - trace["end"],
        "cli.main_s": sum(e - s for n, s, e, p, _ in spans if n == "cli.main"),
    }
    for metric, name in LEAVES.items():
        out[metric] = union_length((s, e) for n, s, e, _, _ in spans if n == name)
    for metric, name in SELF.items():
        out[metric] = sum(
            (end - start) - union_length(children.get(i, ()))
            for i, (n, start, end, _, _) in enumerate(spans)
            if n == name
        )
    for metric, name in CALLS.items():
        out[metric] = sum(1 for span in spans if span[0] == name)
    for metric, (name, key) in EXTRAS.items():
        out[metric] = sum(span[4][key] for span in spans if span[0] == name)
    return out


def pass_layers(commands: list[dict], python_start_s: float, wall: float) -> dict:
    """Sum command layer totals over a traced pass of ``wall`` seconds; derive
    the rates and the part of the wall the spans do not account for."""
    total = {key: sum(c[key] for c in commands) for key in commands[0]}
    total["cli.python_start_s"] = python_start_s * len(commands)
    total["distributions.samples_per_s"] = _rate(
        total["distributions.samples_drawn"], total["distributions.sample_s"])
    total["verification.mc_evals_per_s"] = _rate(
        total.pop("verification.mc_evals"), total["verification.mc_self_s"])
    total["trace.accounted_s"] = (
        total["cli.python_start_s"] + total["cli.import_s"]
        + total["cli.main_s"] + total["cli.exit_s"]
    )
    total["trace.unaccounted_s"] = wall - total["trace.accounted_s"]
    return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
