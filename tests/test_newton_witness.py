"""The weight-table readers of ``asymptotics`` against their former selves.

``newton_witness`` keeps the four Newton-polygon readers as they were
written before ``asymptotics._weights`` grouped the monomials once.  On
random ODEs and on every catalog, golden and corpus ODE the package must
give the same singularity kind, the same Frobenius levels at a regular
singular point, the same branches (or the same ``NoBalance`` text) and, on
each exponential branch, the same power correction (or the same exception).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from steinscope import asymptotics
from steinscope.algebra import RationalPoly
from steinscope.cli import load_operator_file
from steinscope.operators import CfOde, catalog_get, psi_transform

import newton_witness
from ladder import H7_ODE, H8_ODE

TESTS = Path(__file__).parent


def outcome(f, *args):
    """f(*args), or the type and text of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_reading(ode: CfOde):
    kind = asymptotics.classify_singularity(ode)
    assert kind == newton_witness.classify_singularity(ode)
    if kind == "regular_singular":
        assert asymptotics._level_polynomials(ode) == newton_witness._level_polynomials(ode)
    branches = outcome(asymptotics.dominant_balance, ode)
    assert branches == outcome(newton_witness.dominant_balance, ode)
    if type(branches) is list:
        for b in branches:
            if b.kind == "exponential":
                assert outcome(asymptotics.power_correction, ode, b) == outcome(
                    newton_witness.power_correction, ode, b)


def _named_odes() -> dict[str, CfOde]:
    specs = ["H3_T4m3", "H3_T5m2", "H4_T2m3", "H4_T3m2", "H5_T13m4", "H6_T6m3",
             "gauss_classical", "gauss_semicircle_T5"]
    specs += [f"PN:p={p}" for p in range(1, 13)]
    specs += ["PRR:s=3/4", "PRR:s=2", "G1X:r=2,lam=3,sigma2=2", "BG1:a=1/2,b=1,r=2",
              "G1G2:r=1,s=2,lam=2"]
    specs += [json.loads(path.read_text())["inputs"]["op"]
              for path in sorted((TESTS / "golden").glob("analyze_*.json"))]
    odes = {spec: psi_transform(catalog_get(spec)) for spec in specs}
    odes.update({path.stem: psi_transform(load_operator_file(path))
                 for path in sorted((TESTS / "data" / "verdicts").glob("*.json"))})
    odes.update({"H7_T25m6": H7_ODE, "H8_T10m4": H8_ODE})
    return odes


NAMED = _named_odes()


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_odes_read_alike(name):
    assert_same_reading(NAMED[name])


entries = st.fractions(min_value=-6, max_value=6, max_denominator=3)
polys = st.dictionaries(st.integers(0, 8), entries, max_size=4)


@st.composite
def odes(draw):
    """A CfOde of order <= 6 and t-degree <= 8 with a nonzero top coefficient."""
    order = draw(st.integers(0, 6))
    coeffs = [RationalPoly(draw(polys)) for _ in range(order)]
    top = RationalPoly(draw(st.dictionaries(st.integers(0, 8), entries.filter(bool),
                                            min_size=1, max_size=3)))
    return CfOde(tuple(coeffs) + (top,), draw(st.integers(0, 3)))


def cf_ode(turns, *rows):
    return CfOde(tuple(RationalPoly(r) for r in rows), turns)


@settings(max_examples=400, deadline=None)
@given(odes())
# two levels between balance and correction, the lower one read second
@example(cf_ode(0, {0: 1, 2: 1}, {4: 1, 5: 1}))
# an ordinary and a regular singular point
@example(cf_ode(1, {0: 1}, {0: -1}))
@example(cf_ode(2, {0: 2}, {1: 1}, {2: 1}))
def test_random_odes_read_alike(ode):
    assert_same_reading(ode)


def test_weights_group_by_integer_weight():
    # t^2 D^2 + 3 t D + t^3: at slope 3/2 the weight of t^d D^k is 2d - 3k
    table = asymptotics._weights(cf_ode(0, {3: 1}, {1: 3}, {2: 1}), Fraction(3, 2))
    assert table == {-1: {1: 3}, -2: {2: 1}, 6: {0: 1}}
    assert list(table) == [-2, -1, 6]
