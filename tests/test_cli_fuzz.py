"""Generated CLI inputs: every invocation exits 0, 1 or 2 cleanly.

``cli.main`` runs in-process on catalog and target specs with extreme or
malformed parameters, small operator files with huge or degenerate entries,
and out-of-range flags.  Each case must return (or, for argparse, exit with)
0, 1 or 2 within a time limit (1 s for a usage error, 10 s otherwise),
print no traceback and raise no warning.
Shapes stay small and ``--n`` low so every case is cheap; values that
would take seconds of honest work, such as PN at p = 1000, are left out,
while values past a budget, which must be refused at once, are kept.
"""

import io
import json
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steinscope.cli import main

# seconds one case may take: a refusal (exit 2) does no honest work first
_CASE_LIMIT = 10.0
_REFUSAL_LIMIT = 1.0

_HUGE = "9" * 400
_POSITIVE = st.sampled_from(["1", "2", "3", "4", "5", "1/2", "7/3"])
_GOOD = st.one_of(_POSITIVE, _POSITIVE, st.sampled_from(["0", "-1", "-3/4"]))
_EXTREME = st.sampled_from([
    "1001", "1000000000001", _HUGE, "-" + _HUGE, "1/" + _HUGE, "9" * 5000])
_MALFORMED = st.sampled_from(["1/0", "0/0", "1e3", "1.5", "1_0", "nan", "", " ", "x", "+"])
_NUMBERS = st.one_of(*[_POSITIVE] * 6, _GOOD, _EXTREME, _EXTREME, _MALFORMED)
_FAMILY_KEYS = {
    "PN": ("p", "sigma2"), "PRR": ("s",), "G1X": ("r", "lam", "sigma2"),
    "BG1": ("a", "b", "r"), "G1G2": ("r", "s", "lam"), "gaussian": ("sigma2",),
    "N01": ("sigma2",),
}
_MOSTLY = st.sampled_from([True] * 9 + [False])
_NAMES = st.sampled_from([
    *_FAMILY_KEYS, "semicircle", "gauss_classical", "H3_T4m3", "H4_T2m3",
    "H6_T6m3", "gauss_semicircle_T5", "H0", "H1", "H2", "H3", "H5", "H8",
    "H150", "H3000", "H-1", "H", "Hx", "nonsense", "",
])

# catalog operators and the laws they annihilate
_PAIRS = [("gauss_classical", "N01"), ("H3_T4m3", "H3"), ("H4_T2m3", "H4"),
          ("H5_T13m4", "H5"), ("H6_T6m3", "H6"), ("gauss_semicircle_T5", "semicircle")]


@st.composite
def specs(draw):
    """A catalog or target spec: a name with, mostly, each of its parameters."""
    name = draw(_NAMES)
    keys = [k for k in _FAMILY_KEYS.get(name, ()) if draw(_MOSTLY)]
    keys += draw(st.lists(st.sampled_from(["q", "", "p"]), max_size=1))
    if not keys:
        return name
    return name + ":" + ",".join(f"{k}={draw(_NUMBERS)}" for k in keys)


@st.composite
def operator_files(draw):
    """JSON text of a small operator file with at most one defect."""
    T = draw(st.integers(0, 2))
    m = draw(st.integers(0, 2))
    entry = st.one_of(*[_GOOD] * 4, _EXTREME)
    rows = draw(st.lists(
        st.lists(entry, min_size=T + 1, max_size=T + 1), min_size=m + 1, max_size=m + 1))
    doc = {"name": "fuzz", "T": T, "m": m, "coeff": rows}
    defect = draw(st.sampled_from(
        [None] * 6 + ["entry", "not a string", "wrong T", "wrong m", "no coeff", "T float"]))
    if defect in ("entry", "not a string"):
        bad = _MALFORMED if defect == "entry" else st.sampled_from([0, 1.5, None, [], True])
        rows[draw(st.integers(0, m))][draw(st.integers(0, T))] = draw(bad)
    elif defect == "wrong T":
        doc["T"] = T + 1
    elif defect == "wrong m":
        doc["m"] = draw(st.sampled_from([-1, m + 1, 10**6]))
    elif defect == "no coeff":
        del doc["coeff"]
    elif defect == "T float":
        doc["T"] = float(T)
    return json.dumps(doc)


_INTS = st.one_of(st.sampled_from(["0", "1", "2", "3", "4"]),
                  st.sampled_from(["-5", "-1", "257", "1000000", "x", "1.5"]))


@st.composite
def invocations(draw):
    """(argv, operator file text or None); "{file}" in argv names the file."""
    command = draw(st.sampled_from(
        ["catalog", "transform", "analyze", "verify", "discover", "gamma"]))
    text = draw(operator_files()) if draw(st.booleans()) else None
    op = "{file}" if text is not None else draw(specs())
    argv = [command]
    if command in ("transform", "analyze", "verify"):
        argv += ["--op", op]
    if command == "analyze":
        if draw(st.booleans()):
            argv += ["--moments", draw(_INTS)]
        argv += draw(st.lists(st.sampled_from(["--symmetric", "--zero-mean"]),
                              max_size=2, unique=True))
    if command == "verify":
        pair = draw(st.sampled_from(["any", "own law", "hint"]))
        if pair == "own law" and text is None:  # a family spec names its law
            target = op
        elif pair == "hint":
            argv[2], target = draw(st.sampled_from(_PAIRS))
        else:
            target = draw(specs())
        argv += ["--target", target]
        mode = draw(st.sampled_from(["exact", "mc"] * 4 + ["bogus"]))
        argv += ["--mode", mode]
        if mode == "mc":
            argv += ["--n", draw(st.sampled_from(["-1", "0", "1", "2", "50", "1000"]))]
        else:
            argv += ["--orders", draw(_INTS)]
    if command == "discover":
        shape = st.sampled_from(["0", "1", "2"] * 3 + ["-1", "200"])
        argv += ["--target", draw(specs()),
                 "--order", draw(shape), "--degree", draw(shape)]
        if draw(st.booleans()):
            argv += ["--constraints", draw(_INTS)]
    if command == "gamma":
        argv += ["--target", draw(st.sampled_from(["H3", "H4", "H9", "x"])),
                 "--check", draw(st.sampled_from(["4.1", "4.2", "9.9", ""]))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(["0", "7"] * 3 + ["-1", str(2**70), "x"]))]
    if draw(st.booleans()):
        argv.append("--pretty")
    return argv, text


def run_clean(argv, text=None):
    """Run ``main`` in-process and check that it exits cleanly.

    ``text``, when given, is written to an operator file that replaces
    "{file}" in argv.
    """
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = Path(tmp) / "op.json"
            path.write_text(text)
            argv = [str(path) if a == "{file}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        elapsed = time.monotonic() - start
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, argv
    assert [str(w.message) for w in caught] == [], argv
    assert elapsed < (_REFUSAL_LIMIT if code == 2 else _CASE_LIMIT), (argv, code, elapsed)
    if code == 2:
        assert err.startswith(("steinscope: error:", "usage:")), (argv, err)
    else:
        assert out and err == "", (argv, err)


class TestGeneratedInvocations:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations())
    def test_exit_code_is_0_1_or_2_without_traceback_or_warning(self, case):
        run_clean(*case)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(operator_files(), st.sampled_from(["transform", "analyze", "exact", "mc"]),
           st.sampled_from(["gaussian", "H3", "PN:p=3", "semicircle", "H150"]))
    def test_operator_file_through_each_command(self, text, command, target):
        # every command that reads an operator, on a target it accepts
        if command in ("exact", "mc"):
            argv = ["verify", "--op", "{file}", "--target", target, "--mode", command,
                    "--n", "50", "--orders", "12"]
        else:
            argv = [command, "--op", "{file}"]
        run_clean(argv, text)
