"""Acceptance gate: ten end-to-end guarantees, one test and one PASS/FAIL line each.

Every test here drives the public API against frozen exact oracles and prints
a single summary line (run pytest with ``-s`` to see the lines for passing
criteria).  Each expected value is the exact value for the input it is
checked on.  The branch values of criteria 03 and 04 are also confirmed by
the float residual witness in ``tests/test_branch_witness.py``, which shows
that each one lifts the ODE residual by one level and that the closed forms
formerly pinned in their place do not.  A failure message carries the
expected and the computed value.
"""

import time
from fractions import Fraction as F

from steinscope.algebra import QI
from steinscope.asymptotics import (
    H7_LEADING_ODE,
    H8_LEADING_ODE,
    characterisation_verdict,
    dominant_balance,
    indicial_roots,
    power_correction,
    verdict_for_ode,
)
from steinscope.discovery import DiscoveryProblem, canonicalise, find_stein_operators
from steinscope.distributions import (
    BesselRatioCf,
    GaussianCf,
    get_target,
)
from steinscope.malliavin import (
    ChaosElement,
    check_cumulant_formula,
    check_gamma_characterisation,
    gamma_r,
    identity_catalog,
)
from steinscope.operators import (
    CfOde,
    SteinOperator,
    catalog_get,
    psi_transform,
    stirling2,
)
from steinscope.verification import check_moment_recurrence, mc_stein_residual, ode_residual


def ode_of(spec: str) -> CfOde:
    return psi_transform(catalog_get(spec))


def branch_signature(ode):
    """(bounded multiplicity, sorted power exponents, exponential (gamma, mag, phase))."""
    bounded = 0
    powers = []
    exps = set()
    for b in dominant_balance(ode):
        if b.kind == "bounded":
            bounded += b.multiplicity
        elif b.kind == "logarithmic":
            powers.append(b.power_exponent)
        else:
            exps.add((b.gamma, b.magnitude_pair, b.phase))
    return bounded, sorted(powers), exps


def conclude(num, title, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {num:02d}] {title}: {status} ({elapsed:.2f}s)"
    if failures:
        line += " -- " + "; ".join(failures)
    print(line, flush=True)
    assert not failures, line
    assert elapsed <= budget, f"{title}: runtime {elapsed:.2f}s over budget {budget}s"


def test_criterion_01_transform_fidelity():
    t0 = time.monotonic()
    failures = []

    def check(label, got, expected):
        if got != expected:
            failures.append(f"{label}: expected {expected!r}, computed {got!r}")

    # degree-3 target, order-4 operator
    check(
        "H3_T4m3 ode",
        ode_of("H3_T4m3"),
        CfOde([{3: 1080, 1: -12}, {4: 324, 2: 207, 0: -5}, {3: 351, 1: 3}, {4: 81}]),
    )
    # degree-4 target, order-2 operator
    check(
        "H4_T2m3 ode",
        ode_of("H4_T2m3"),
        CfOde(
            [
                {2: QI(0, -1728), 1: 1008, 0: QI(0, 24)},
                {2: 576, 1: QI(0, 72), 0: 50},
                {2: QI(0, -48), 1: 64, 0: QI(0, 1)},
                {2: 16},
            ]
        ),
    )
    # Rayleigh-type family, all of s > 1/2
    for s in (F(3, 4), F(3, 2), F(2), F(5)):
        check(
            f"PRR s={s} ode",
            ode_of(f"PRR:s={s}"),
            CfOde([{1: 2 * s}, {2: s, 0: 2 * s - 1}, {1: 1}]),
        )
    # product-normal family
    for p in (1, 2, 3, 4, 5, 8):
        for s2 in (F(1), F(1, 3)):
            coeffs = [{} for _ in range(max(p - 1, 1) + 1)]
            for k in range(1, p + 1):
                coeffs[k - 1][k] = coeffs[k - 1].get(k, F(0)) + s2 * stirling2(p, k)
            coeffs[1][0] = coeffs[1].get(0, F(0)) + 1
            check(f"PN p={p},s2={s2} ode", ode_of(f"PN:p={p},sigma2={s2}"), CfOde(coeffs))
    # shared Gaussian/semicircle operator
    check(
        "shared-operator ode",
        ode_of("gauss_semicircle_T5"),
        CfOde(
            [
                {5: 1, 3: -5},
                {4: 4, 2: -21, 0: 9},
                {5: 1, 3: -2, 1: -9},
                {4: 1, 2: -3},
            ]
        ),
    )
    conclude(1, "transform fidelity", failures, time.monotonic() - t0, 1.0)


def test_criterion_02_indicial_roots():
    t0 = time.monotonic()
    failures = []
    for s in (F(3, 4), F(1), F(3, 2), F(2), F(5)):
        got = frozenset(r.alpha for r in indicial_roots(ode_of(f"PRR:s={s}")).roots)
        expected = frozenset({F(0), 2 - 2 * s})
        if got != expected:
            failures.append(f"PRR s={s}: expected {set(expected)}, computed {set(got)}")
    for a, b in ((F(1, 2), F(1)), (F(1, 2), F(1, 4)), (F(2), F(3))):
        ind = indicial_roots(ode_of(f"BG1:a={a},b={b},r=2"))
        got = frozenset(r.alpha for r in ind.roots)
        expected = frozenset({F(0), 1 - a - b})
        if got != expected:
            failures.append(
                f"BG1 a={a},b={b}: expected {set(expected)}, computed {set(got)}"
            )
    conclude(2, "indicial roots", failures, time.monotonic() - t0, 1.0)


def test_criterion_03_branch_tables():
    t0 = time.monotonic()
    failures = []

    def show(value):
        if isinstance(value, (set, frozenset)):
            return "{" + ", ".join(sorted(str(x) for x in value)) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(str(x) for x in value) + "]"
        return str(value)

    def check(label, got, expected):
        if got != expected:
            failures.append(f"{label}: expected {show(expected)}, computed {show(got)}")

    # degree-3 operator: bounded branch, one power-log branch, exp(1/(54 t^2))
    bounded, powers, exps = branch_signature(ode_of("H3_T4m3"))
    check("H3 bounded multiplicity", bounded, 1)
    check("H3 exponential branch", exps, {(F(2), (F(1, 54), 1), F(0))})
    # was 5/3, the exponent of phi': the edge 3t phi'' - 5 phi' = 0 gives phi ~ t^(8/3)
    check("H3 log-branch power", powers, [F(8, 3)])
    # degree-4 operator: two bounded branches and i/(16 t)
    bounded, powers, exps = branch_signature(ode_of("H4_T2m3"))
    check("H4 bounded multiplicity", bounded, 2)
    check("H4 power branches", powers, [])
    check("H4 exponential branch", exps, {(F(1), (F(1, 16), 1), F(1, 2))})
    # degree 5: exponent 2/3, magnitude 3/(10*5^(2/3)), phases 0, 2pi/3, 4pi/3
    _, _, exps = branch_signature(ode_of("H5_T13m4"))
    mag5 = (F(27, 25000), 3)
    check(
        "H5 exponential branches",
        exps,
        {(F(2, 3), mag5, ph) for ph in (F(0), F(2, 3), F(4, 3))},
    )
    # degree 6: exponent 1/2, magnitude sqrt(2)/(6 sqrt(3))
    _, _, exps = branch_signature(ode_of("H6_T6m3"))
    check(
        "H6 exponential branches",
        {(g, m) for g, m, _ in exps},
        {(F(1, 2), (F(1, 54), 2))},
    )
    # degree 7: exponent 2/5, magnitude 5/(14*7^(2/5)), five phases
    _, _, exps = branch_signature(H7_LEADING_ODE)
    mag7 = (F(3125, 26353376), 5)
    check(
        "H7 exponential branches",
        exps,
        {(F(2, 5), mag7, F(2 * j, 5)) for j in range(5)},
    )
    # degree 8: exponent 1/3, magnitude 3/16, phases pi/6, 5pi/6, 3pi/2
    _, _, exps = branch_signature(H8_LEADING_ODE)
    check("H8 magnitudes", {(g, m) for g, m, _ in exps}, {(F(1, 3), (F(3, 16), 1))})
    check(
        "H8 phase set",
        {ph for _, _, ph in exps},
        # was {1/2, 3/2, 1/6, 11/6, 5/6, 7/6}: an order-4 ODE with one bounded
        # direction has at most three exponential ones (A^3 = -i/4096 on the
        # edge (1,0)-(4,4))
        {F(1, 6), F(5, 6), F(3, 2)},
    )
    # product-normal tables: +-i/t for p=4, then magnitudes 3/2, 2, 5/2, 3, 7/2
    _, _, exps = branch_signature(ode_of("PN:p=4"))
    check("PN(4) magnitudes", {(g, m) for g, m, _ in exps}, {(F(1), (F(1), 1))})
    # was {0, 1}: the balance A t^-2 + A^3 t^-2 = 0 gives A^2 = -1, so A_S = +-i
    check("PN(4) phase set", {ph for _, _, ph in exps}, {F(1, 2), F(3, 2)})
    pn_expected = {
        5: ((F(3, 2), 1), {F(0), F(2, 3), F(4, 3)}),
        6: ((F(2), 1), {F(1, 4), F(3, 4), F(5, 4), F(7, 4)}),
        7: ((F(5, 2), 1), {F(2 * j, 5) for j in range(5)}),
        8: ((F(3), 1), {F(1, 6), F(1, 2), F(5, 6), F(7, 6), F(3, 2), F(11, 6)}),
        9: ((F(7, 2), 1), {F(2 * j, 7) for j in range(7)}),
    }
    for p, (mag, phases) in pn_expected.items():
        _, _, exps = branch_signature(ode_of(f"PN:p={p}"))
        check(f"PN({p}) branches", exps, {(F(2, p - 2), mag, ph) for ph in phases})
    conclude(3, "dominant-balance branch tables", failures, time.monotonic() - t0, 5.0)


def test_criterion_04_power_corrections():
    failures = []
    elapsed = []

    def timed_correction(label, ode, expected):
        t0 = time.monotonic()
        (branch,) = [b for b in dominant_balance(ode) if b.kind == "exponential"][:1]
        got = power_correction(ode, branch)
        elapsed.append(time.monotonic() - t0)
        if got != expected:
            failures.append(f"{label}: expected {expected}, computed {got}")

    # template family: t^2 phi'' + (a i + b t + c i t^2) phi' + d phi = 0 -> 2 - b
    t0 = time.monotonic()
    for a, b, c, d in [
        (1, 3, 0, 2),
        (F(1, 2), F(-7, 3), F(2, 5), 1),
        (2, 2, 1, 5),
        (3, F(9, 2), F(-1, 3), F(7, 2)),
    ]:
        ode = CfOde([{0: F(d)}, {0: QI(0, a), 1: F(b), 2: QI(0, c)}, {2: 1}])
        (branch,) = [x for x in dominant_balance(ode) if x.kind == "exponential"]
        got = power_correction(ode, branch)
        if got != 2 - F(b):
            failures.append(f"template b={b}: expected {2 - F(b)}, computed {got}")
    elapsed.append(time.monotonic() - t0)

    # was 4: for phi = t^a e^{i/(16t)} the residual's t^-3 coefficient is -a/16
    timed_correction("H4 correction", ode_of("H4_T2m3"), F(0))
    # was 8/3: with B^3 = -i/4096 the residual's t^-1 coefficient is -3ia
    timed_correction("H8 correction", H8_LEADING_ODE, F(0))
    # was -33/2: with phi = Phi', WKB gives Phi ~ t^(p/(p-2)) e^S, so phi ~ t^0 e^S
    timed_correction("PN(8) correction", ode_of("PN:p=8"), F(0))
    for label, dt in zip(("template", "H4", "H8", "PN(8)"), elapsed):
        if dt > 1.0:
            failures.append(f"{label} correction took {dt:.2f}s (budget 1s)")
    conclude(4, "power-log corrections", failures, sum(elapsed), 4.0)


def test_criterion_05_verdict_table():
    t0 = time.monotonic()
    failures = []

    def check(label, verdict, status, conditions=frozenset()):
        got = (verdict.status, set(verdict.conditions))
        expected = (status, set(conditions))
        if got != expected:
            failures.append(f"{label}: expected {expected}, computed {got}")

    def verdict_of(spec, moment_order, **meta):
        return characterisation_verdict(
            catalog_get(spec), {"moment_order": moment_order, **meta}
        )

    for s in ("3/4", "1", "3/2", "2", "5"):
        check(f"PRR s={s}", verdict_of(f"PRR:s={s}", 2), "characterising")
    check("G1X", verdict_of("G1X:r=2,lam=3,sigma2=2", 2), "characterising")
    check("BG1", verdict_of("BG1:a=1/2,b=1,r=2", 2), "characterising")
    check("G1G2", verdict_of("G1G2:r=1,s=2,lam=2", 2), "characterising")
    check("H3_T4m3", verdict_of("H3_T4m3", 3, symmetric=True), "characterising")
    check("H3_T5m2", verdict_of("H3_T5m2", 3, symmetric=True), "characterising")
    check("H4_T3m2", verdict_of("H4_T3m2", 4, zero_mean=True), "characterising")
    check(
        "H4_T2m3",
        verdict_of("H4_T2m3", 4, zero_mean=True),
        "characterising_with_conditions",
        {"zero_mean"},
    )
    check(
        "H5_T13m4",
        verdict_of("H5_T13m4", 5, symmetric=True),
        "characterising_with_conditions",
        {"symmetry"},
    )
    check(
        "H7 fixture",
        verdict_for_ode(H7_LEADING_ODE, 7, symmetric=True),
        "characterising_with_conditions",
        {"symmetry"},
    )
    check("H6_T6m3 mo=3", verdict_of("H6_T6m3", 3, zero_mean=True), "characterising")
    check("H8 fixture mo=4", verdict_for_ode(H8_LEADING_ODE, 4), "characterising")
    for p in (3, 4):
        check(
            f"PN p={p}",
            verdict_of(f"PN:p={p}", p - 1, symmetric=True),
            "characterising",
        )
    for p in (5, 6, 7, 8):
        check(
            f"PN p={p}",
            verdict_of(f"PN:p={p}", p - 1, symmetric=True),
            "characterising_with_conditions",
            {"symmetry"},
        )
    check("PN p=9", verdict_of("PN:p=9", 8, symmetric=True), "inconclusive")
    conclude(5, "characterisation verdict table", failures, time.monotonic() - t0, 10.0)


def test_criterion_06_exact_moment_recurrences():
    t0 = time.monotonic()
    failures = []
    pairs = [
        ("H3_T4m3", "H3"),
        ("H3_T5m2", "H3"),
        ("H4_T2m3", "H4"),
        ("H4_T3m2", "H4"),
        ("H5_T13m4", "H5"),
        ("H6_T6m3", "H6"),
        ("gauss_classical", "gaussian"),
        ("gauss_semicircle_T5", "gaussian"),
        ("gauss_semicircle_T5", "semicircle"),
    ] + [
        (f"PN:p={p},sigma2={s2}", f"PN:p={p},sigma2={s2}")
        for p in (1, 2, 3, 4, 5, 6)
        for s2 in ("1",)
    ] + [("PN:p=4,sigma2=1/3", "PN:p=4,sigma2=1/3")]
    for op_spec, tgt_spec in pairs:
        reports = check_moment_recurrence(
            catalog_get(op_spec), get_target(tgt_spec), K=12
        )
        bad = [r.test_id for r in reports if r.residual != 0]
        if len(reports) != 13 or bad:
            failures.append(f"{op_spec} vs {tgt_spec}: nonzero residuals {bad}")
    # the k=0 row of the degree-4 operator reads E[W^2] = 50 E[W] + 24
    op = catalog_get("H4_T2m3")
    constant_column = {(i, j): c for (i, j), c in op.a.items() if j == 0}
    if constant_column != {(2, 0): F(-1), (1, 0): F(50), (0, 0): F(24)}:
        failures.append(f"k=0 row coefficients: computed {constant_column}")
    mu = get_target("H4").moment
    if mu(2) != 50 * mu(1) + 24:
        failures.append(f"k=0 oracle relation: E[W^2]={mu(2)}, 50E[W]+24={50*mu(1)+24}")
    conclude(6, "exact moment recurrences", failures, time.monotonic() - t0, 10.0)


def test_criterion_07_shared_operator_necessity():
    t0 = time.monotonic()
    failures = []
    op = catalog_get("gauss_semicircle_T5")
    for tgt_spec, second_moment in (("gaussian", F(1)), ("semicircle", F(1, 4))):
        target = get_target(tgt_spec)
        if target.moment(2) != second_moment:
            failures.append(
                f"{tgt_spec} E[Y^2]: expected {second_moment}, got {target.moment(2)}"
            )
        bad = [
            r.test_id
            for r in check_moment_recurrence(op, target, K=12)
            if r.residual != 0
        ]
        if bad:
            failures.append(f"recurrence vs {tgt_spec}: nonzero residuals {bad}")
    ode = psi_transform(op)
    for label, cf in (
        ("gaussian cf", GaussianCf(1)),
        ("semicircle cf", BesselRatioCf("J")),
        ("second-kind solution", BesselRatioCf("Y")),
    ):
        resid = ode_residual(ode, cf)
        if not resid < 1e-8:
            failures.append(f"{label}: ODE residual {resid:.3e} >= 1e-8")
    conclude(7, "shared-operator necessity", failures, time.monotonic() - t0, 5.0)


def test_criterion_08_monte_carlo_discrimination():
    t0 = time.monotonic()
    failures = []
    n = 10**6
    true_pairs = [
        ("H3_T5m2", "H3", 0),
        ("PN:p=4,sigma2=1", "PN:p=4,sigma2=1", 1),
    ]
    for op_spec, tgt_spec, seed in true_pairs:
        reports = mc_stein_residual(
            catalog_get(op_spec), get_target(tgt_spec), n=n, seed=seed
        )
        bad = [r.test_id for r in reports if not r.passed]
        if bad:
            failures.append(f"true pair {op_spec}: failed at 4 sigma on {bad}")
    # moment-matched Gaussian impostors (matching variances 6 and 1)
    impostors = [
        ("H3_T5m2", "gaussian:sigma2=6", 0),
        ("PN:p=4,sigma2=1", "gaussian:sigma2=1", 1),
    ]
    for op_spec, tgt_spec, seed in impostors:
        reports = mc_stein_residual(
            catalog_get(op_spec), get_target(tgt_spec), n=n, seed=seed
        )
        if all(r.passed for r in reports):
            failures.append(f"impostor {tgt_spec} under {op_spec}: no test failed")
    conclude(8, "monte-carlo discrimination", failures, time.monotonic() - t0, 60.0)


def test_criterion_09_gamma_identities():
    t0 = time.monotonic()
    failures = []
    if identity_catalog() != {"4.1": "H3", "4.2": "H3", "4.3": "H4"}:
        failures.append(f"identity catalog: {identity_catalog()}")
    for check_id in ("4.1", "4.3"):
        residual = check_gamma_characterisation(check_id)
        if not residual.is_zero():
            failures.append(f"identity {check_id}: nonzero residual {residual!r}")
    # the middle identity's residual is computed exactly and surfaced verbatim
    residual = check_gamma_characterisation("4.2")
    h3 = ChaosElement({3: 1})
    if residual != -3 * gamma_r(h3, 4):
        failures.append(f"identity 4.2 residual: computed {residual!r}")
    if residual.c != {1: F(-58320), 3: F(-47142), 5: F(-6804), 7: F(-243)}:
        failures.append(f"identity 4.2 expansion: computed {dict(residual.c)}")
    # r! E[Gamma_r(F)] = kappa_{r+1}(F) for both targets, r <= 5
    named = {("H4", 1): F(24), ("H4", 2): F(1728), ("H3", 3): F(3240)}
    for name, level in (("H3", 3), ("H4", 4)):
        target = ChaosElement({level: 1})
        for r in range(6):
            lhs, rhs = check_cumulant_formula(target, r)
            if lhs != rhs:
                failures.append(f"cumulant formula {name} r={r}: {lhs} != {rhs}")
            want = named.get((name, r))
            if want is not None and rhs != want:
                failures.append(f"kappa_{r+1}({name}): expected {want}, computed {rhs}")
    conclude(9, "gamma identities and cumulants", failures, time.monotonic() - t0, 10.0)


def test_criterion_10_discovery():
    t0 = time.monotonic()
    failures = []
    # degree-4 target at shape (2, 3): exactly the catalogued operator
    found = find_stein_operators(DiscoveryProblem(get_target("H4"), 2, 3))
    if len(found) != 1 or found[0] != catalog_get("H4_T2m3"):
        failures.append(f"(H4, 2, 3): computed basis {found!r}")
    # degree-3 target at shape (4, 3): span contains the order-4 closed form
    h3_fourth_order = SteinOperator(
        {
            (1, 0): 5,
            (0, 1): -12,
            (2, 1): -3,
            (1, 2): 207,
            (0, 3): -1080,
            (2, 3): 351,
            (1, 4): -324,
            (3, 4): 81,
        }
    )
    basis = find_stein_operators(DiscoveryProblem(get_target("H3"), 4, 3))
    if canonicalise(basis + [h3_fourth_order]) != canonicalise(basis):
        failures.append(f"(H3, 4, 3): order-4 operator outside the computed span")
    # Gaussian at shape (1, 1): the classical operator
    found = find_stein_operators(DiscoveryProblem(get_target("gaussian"), 1, 1))
    if found != [SteinOperator({(0, 1): 1, (1, 0): -1})]:
        failures.append(f"gaussian (1, 1): computed basis {found!r}")
    conclude(10, "operator discovery", failures, time.monotonic() - t0, 120.0)
