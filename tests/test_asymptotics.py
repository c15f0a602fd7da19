"""Tests for the asymptotic analysis of characteristic-function ODEs."""

from fractions import Fraction

import pytest

from steinscope.algebra import QI
from steinscope.asymptotics import (
    _apply_conjugate_trap,
    H7_LEADING_ODE,
    H8_LEADING_ODE,
    AsymptoticBranch,
    CorrectionNotLinear,
    NoBalance,
    NotRegularSingular,
    classify_branch,
    classify_singularity,
    characterisation_verdict,
    dominant_balance,
    indicial_roots,
    power_correction,
    resolve_target_meta,
    verdict_for_ode,
)
from steinscope.operators import CfOde, catalog_get, psi_transform


def ode_of(spec: str) -> CfOde:
    return psi_transform(catalog_get(spec))


def exp_branches(ode):
    return [b for b in dominant_balance(ode) if b.kind == "exponential"]


def branch_signature(ode):
    """(bounded multiplicity, powers, exponential (gamma, mag, phase) set)."""
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


class TestSingularityClassification:
    def test_catalog_examples(self):
        assert classify_singularity(ode_of("gauss_classical")).kind == "ordinary"
        for spec in ("PRR:s=3/2", "BG1:a=1/2,b=1,r=2", "gauss_semicircle_T5"):
            assert classify_singularity(ode_of(spec)).kind == "regular_singular"
        for spec in (
            "H3_T4m3",
            "H3_T5m2",
            "H4_T2m3",
            "H4_T3m2",
            "H5_T13m4",
            "H6_T6m3",
            "G1X:r=1,lam=1,sigma2=1",
            "G1G2:r=1,s=1,lam=1",
            "PN:p=3",
        ):
            assert classify_singularity(ode_of(spec)).kind == "irregular_singular", spec

    def test_ordinary_point(self):
        ode = CfOde([{1: 1}, {0: 1}])  # phi' + t phi = 0
        assert classify_singularity(ode).kind == "ordinary"

    def test_zero_coefficient_never_blocks(self):
        ode = CfOde([{}, {1: 1}, {2: 1}])  # t^2 phi'' + t phi'
        assert classify_singularity(ode).kind == "regular_singular"

    def test_valuations_recorded(self):
        sing = classify_singularity(ode_of("PRR:s=1"))
        assert sing.pole_orders == (1, 0, 1)


class TestIndicialRoots:
    def test_rayleigh_roots(self):
        # roots {0, 2 - 2s}
        for s in (Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(5), Fraction(7, 2)):
            ind = indicial_roots(ode_of(f"PRR:s={s}"))
            assert {r.alpha for r in ind.roots} == {Fraction(0), 2 - 2 * s}
            assert ind.fully_factored()

    def test_rayleigh_double_root_carries_log(self):
        ind = indicial_roots(ode_of("PRR:s=1"))
        (root,) = ind.roots
        assert root.alpha == 0 and root.multiplicity == 2

    def test_beta_gamma_roots(self):
        # roots {0, 1 - a - b}
        for a, b in ((Fraction(1, 2), Fraction(1)), (Fraction(2), Fraction(3)),
                     (Fraction(1, 4), Fraction(1, 4))):
            ind = indicial_roots(ode_of(f"BG1:a={a},b={b},r=2"))
            assert {r.alpha for r in ind.roots} == {Fraction(0), 1 - a - b}

    def test_euler_double_root(self):
        ode = CfOde([{}, {1: 1}, {2: 1}])
        ind = indicial_roots(ode)
        assert [(r.alpha, r.multiplicity) for r in ind.roots] == [(Fraction(0), 2)]

    def test_gauss_semicircle_log_structure(self):
        ind = indicial_roots(ode_of("gauss_semicircle_T5"))
        by_alpha = {r.alpha: r for r in ind.roots}
        assert set(by_alpha) == {Fraction(-2), Fraction(0), Fraction(2)}
        # the gap 0 -> 2 has zero forcing: both analytic solutions are log-free
        assert by_alpha[Fraction(0)].log_exponent is None
        assert by_alpha[Fraction(2)].log_exponent is None
        # the gap -2 -> 0 forces a log at t^0
        assert by_alpha[Fraction(-2)].log_exponent == 0

    def test_requires_regular_singular(self):
        with pytest.raises(NotRegularSingular):
            indicial_roots(ode_of("H3_T4m3"))
        with pytest.raises(NotRegularSingular):
            indicial_roots(ode_of("gauss_classical"))

    def test_irrational_roots_surface_residual(self):
        # t^2 phi'' + t phi' - 2 phi: indicial beta^2 - 2, no rational roots
        ode = CfOde([{0: -2}, {1: 1}, {2: 1}])
        ind = indicial_roots(ode)
        assert {r.alpha for r in ind.roots} == set()
        assert not ind.fully_factored()


class TestNewtonPolygonBranches:
    def test_degree3_order3_table(self):
        bounded, powers, exps = branch_signature(ode_of("H3_T4m3"))
        assert bounded == 1
        assert powers == [Fraction(8, 3)]
        assert exps == {(Fraction(2), (Fraction(1, 54), 1), Fraction(0))}

    def test_degree4_order3_table(self):
        bounded, powers, exps = branch_signature(ode_of("H4_T2m3"))
        assert bounded == 2
        assert powers == []
        assert exps == {(Fraction(1), (Fraction(1, 16), 1), Fraction(1, 2))}

    def test_degree3_order2_table(self):
        bounded, powers, exps = branch_signature(ode_of("H3_T5m2"))
        assert (bounded, powers) == (1, [])
        assert exps == {(Fraction(2), (Fraction(1, 54), 1), Fraction(0))}

    def test_degree4_order2_table(self):
        bounded, powers, exps = branch_signature(ode_of("H4_T3m2"))
        assert (bounded, powers) == (1, [])
        assert exps == {(Fraction(1), (Fraction(1, 16), 1), Fraction(1, 2))}

    def test_degree5_table(self):
        bounded, powers, exps = branch_signature(ode_of("H5_T13m4"))
        assert (bounded, powers) == (1, [])
        mag = (Fraction(27, 25000), 3)  # = (3 / (10 * 5^(2/3)))^3
        assert exps == {
            (Fraction(2, 3), mag, Fraction(0)),
            (Fraction(2, 3), mag, Fraction(2, 3)),
            (Fraction(2, 3), mag, Fraction(4, 3)),
        }

    def test_degree6_table(self):
        bounded, powers, exps = branch_signature(ode_of("H6_T6m3"))
        assert (bounded, powers) == (1, [])
        mag = (Fraction(1, 54), 2)  # = (sqrt(2) / (6 sqrt(3)))^2
        assert exps == {
            (Fraction(1, 2), mag, Fraction(3, 4)),
            (Fraction(1, 2), mag, Fraction(7, 4)),
        }

    def test_degree7_table(self):
        bounded, powers, exps = branch_signature(H7_LEADING_ODE)
        assert (bounded, powers) == (1, [])
        mag = (Fraction(3125, 26353376), 5)  # = (5 / (14 * 7^(2/5)))^5
        assert exps == {
            (Fraction(2, 5), mag, Fraction(j))
            for j in (0, Fraction(2, 5), Fraction(4, 5), Fraction(6, 5), Fraction(8, 5))
        }

    def test_degree8_table(self):
        bounded, powers, exps = branch_signature(H8_LEADING_ODE)
        assert (bounded, powers) == (1, [])
        assert exps == {
            (Fraction(1, 3), (Fraction(3, 16), 1), Fraction(1, 6)),
            (Fraction(1, 3), (Fraction(3, 16), 1), Fraction(5, 6)),
            (Fraction(1, 3), (Fraction(3, 16), 1), Fraction(3, 2)),
        }

    def test_product_normal_tables(self):
        expected = {
            3: ((Fraction(1, 2), 1), {Fraction(0)}),
            4: ((Fraction(1), 1), {Fraction(1, 2), Fraction(3, 2)}),
            5: ((Fraction(3, 2), 1), {Fraction(0), Fraction(2, 3), Fraction(4, 3)}),
            6: (
                (Fraction(2), 1),
                {Fraction(1, 4), Fraction(3, 4), Fraction(5, 4), Fraction(7, 4)},
            ),
            7: (
                (Fraction(5, 2), 1),
                {Fraction(0), Fraction(2, 5), Fraction(4, 5), Fraction(6, 5), Fraction(8, 5)},
            ),
            8: (
                (Fraction(3), 1),
                {
                    Fraction(1, 6),
                    Fraction(1, 2),
                    Fraction(5, 6),
                    Fraction(7, 6),
                    Fraction(3, 2),
                    Fraction(11, 6),
                },
            ),
            9: (
                (Fraction(7, 2), 1),
                {Fraction(2 * j, 7) for j in range(7)},
            ),
        }
        for p, (mag, phases) in expected.items():
            bounded, powers, exps = branch_signature(ode_of(f"PN:p={p}"))
            assert (bounded, powers) == (1, []), p
            gamma = Fraction(2, p - 2)
            assert exps == {(gamma, mag, ph) for ph in phases}, p

    def test_branch_count_matches_order_everywhere(self):
        specs = [
            "H3_T4m3",
            "H3_T5m2",
            "H4_T2m3",
            "H4_T3m2",
            "H5_T13m4",
            "H6_T6m3",
            "gauss_semicircle_T5",
            "gauss_classical",
            "PRR:s=3/2",
            "G1X:r=2,lam=1,sigma2=1",
            "BG1:a=1/2,b=1,r=2",
            "G1G2:r=1,s=2,lam=1",
        ] + [f"PN:p={p}" for p in range(1, 10)]
        for spec in specs:
            ode = ode_of(spec)
            total = sum(b.multiplicity for b in dominant_balance(ode))
            assert total == ode.order, spec
        for ode in (H7_LEADING_ODE, H8_LEADING_ODE):
            assert sum(b.multiplicity for b in dominant_balance(ode)) == ode.order

    def test_balance_identity_exact(self):
        # for every exponential branch, l_k1 + l_k2 * rho = 0 exactly
        for spec in ("H3_T4m3", "H5_T13m4", "H6_T6m3", "PN:p=8", "G1G2:r=1,s=2,lam=3"):
            ode = ode_of(spec)
            for b in exp_branches(ode):
                k1, k2 = b.edge
                l1 = ode.coeffs[k1].coeff(ode.coeffs[k1].valuation())
                l2 = ode.coeffs[k2].coeff(ode.coeffs[k2].valuation())
                assert l1 + l2 * b.rho == QI(0)

    def test_interior_point_on_exponential_edge_rejected(self):
        # c0 = 1, c1 = t^2, c2 = t^4: one edge of slope 2 carrying k = 0, 1, 2
        ode = CfOde([{0: 1}, {2: 1}, {4: 1}])
        with pytest.raises(NoBalance):
            dominant_balance(ode)

    def test_off_axis_ratio_rejected(self):
        # exponential edge with A^2 = -(1+i): off both axes
        ode = CfOde([{0: QI(1, 1)}, {}, {4: 1}])
        with pytest.raises(NoBalance):
            dominant_balance(ode)

    def test_slope_one_irrational_exponents_rejected(self):
        # t^2 phi'' + t phi' - 2 phi has edge polynomial beta^2 - 2 ... but is
        # regular singular; build an irregular variant with the same edge
        ode = CfOde([{0: -2}, {1: 1}, {2: 1, 4: 1}, {5: 1}])
        with pytest.raises(NoBalance):
            dominant_balance(ode)


class TestPowerCorrection:
    def template(self, a, b, c, d):
        """t^2 phi'' + (a i + b t + c i t^2) phi' + d phi = 0."""
        return CfOde(
            [{0: Fraction(d)}, {0: QI(0, a), 1: Fraction(b), 2: QI(0, c)}, {2: 1}]
        )

    def test_template_family_gives_two_minus_b(self):
        for a, b, c, d in [
            (1, 3, 0, 2),
            (Fraction(1, 2), Fraction(-7, 3), Fraction(2, 5), 1),
            (2, 2, 1, 5),
            (3, Fraction(9, 2), Fraction(-1, 3), Fraction(7, 2)),
            (Fraction(-5, 4), 0, 0, 0),
        ]:
            ode = self.template(a, b, c, d)
            (branch,) = exp_branches(ode)
            assert power_correction(ode, branch) == 2 - Fraction(b)

    def test_template_blowup_classification(self):
        # b = -2 gives phi ~ t^4 e^{S}: the 2nd derivative has no limit at 0
        ode = self.template(1, -2, 0, 1)
        (branch,) = exp_branches(ode)
        branch.power_exponent = power_correction(ode, branch)
        assert branch.power_exponent == 4
        assert classify_branch(branch, 2) == "derivative_blowup(2)"

    def test_degree4_order3_correction_vanishes(self):
        ode = ode_of("H4_T2m3")
        (branch,) = exp_branches(ode)
        assert power_correction(ode, branch) == 0

    def test_degree8_correction_vanishes(self):
        (branch, *_) = exp_branches(H8_LEADING_ODE)
        assert power_correction(H8_LEADING_ODE, branch) == 0

    def test_product_normal_corrections_vanish(self):
        for p in (4, 8):
            ode = ode_of(f"PN:p={p}")
            for branch in exp_branches(ode):
                assert power_correction(ode, branch) == 0

    def test_degree3_corrections_vanish(self):
        for spec in ("H3_T4m3", "H3_T5m2"):
            ode = ode_of(spec)
            for branch in exp_branches(ode):
                assert power_correction(ode, branch) == 0

    def test_gamma_difference_correction(self):
        for r, s in ((Fraction(1, 3), Fraction(1, 4)), (Fraction(1), Fraction(2)),
                     (Fraction(1, 2), Fraction(1, 2))):
            ode = ode_of(f"G1G2:r={r},s={s},lam=2")
            (branch,) = exp_branches(ode)
            assert power_correction(ode, branch) == 1 - r - s

    def test_perturbed_magnitude_raises_correction_not_linear(self):
        # Doubling A_S breaks the leading balance; that must surface as
        # CorrectionNotLinear, which verdicts record in correction_failures.
        # A_S = -A/gamma with A^(k2 - k1) = rho, so doubling A_S multiplies
        # rho by 2^(k2 - k1).
        ode = ode_of("H4_T2m3")
        (branch,) = exp_branches(ode)
        k1, k2 = branch.edge
        branch.rho = branch.rho * 2 ** (k2 - k1)
        with pytest.raises(CorrectionNotLinear, match="failed to cancel"):
            power_correction(ode, branch)

    def test_intermediate_level_raises(self):
        # gamma = 3: the i t phi' term sits at t^-3, between the balance
        # level t^-4 and the correction level t^-1
        ode = CfOde([{}, {0: -3, 1: QI(0, -1)}, {4: -3}])
        (branch,) = exp_branches(ode)
        with pytest.raises(
            CorrectionNotLinear,
            match=r"intermediate level t\^-3 between balance t\^-4 and correction t\^-1",
        ):
            power_correction(ode, branch)

    def test_complex_log_coefficient_raises(self):
        ode = CfOde([{}, {0: 1}, {2: 2, 3: QI(2, -2)}])
        (branch,) = exp_branches(ode)
        with pytest.raises(CorrectionNotLinear, match=r"not real \(\(5/2-1/2\*i\)\)"):
            power_correction(ode, branch)

    def test_inconsistent_ring_components_raise(self):
        # d = 2: the t^5 phi''' term lands in the A^1 component, which the
        # log coefficient (fixed by the A^0 component) cannot balance
        ode = CfOde([{}, {0: 2}, {}, {4: -2, 5: -1}])
        branches = exp_branches(ode)
        assert len(branches) == 2
        for branch in branches:
            with pytest.raises(CorrectionNotLinear, match="inconsistent across ring"):
                power_correction(ode, branch)

    def test_branch_of_another_ode_below_balance_raises(self):
        (branch,) = exp_branches(ode_of("H4_T2m3"))
        with pytest.raises(CorrectionNotLinear, match=r"below the balance level at t\^-2"):
            power_correction(ode_of("PN:p=4"), branch)

    def test_branch_of_another_ode_without_its_edge_term_raises(self):
        (branch,) = exp_branches(ode_of("H4_T2m3"))  # edge (2, 3)
        ode = CfOde([{}, {0: 2}, {}, {4: -2, 5: -1}])  # no D^2 term
        with pytest.raises(CorrectionNotLinear, match=r"no edge term in D\^2"):
            power_correction(ode, branch)

    def test_needs_exponential_branch(self):
        ode = ode_of("H3_T4m3")
        bounded = [b for b in dominant_balance(ode) if b.kind == "bounded"][0]
        with pytest.raises(ValueError):
            power_correction(ode, bounded)


class TestClassifyBranch:
    def test_growing_branch_excluded(self):
        ode = ode_of("H3_T4m3")
        (branch,) = exp_branches(ode)  # S ~ +1/(54 t^2)
        assert classify_branch(branch, 3) == "unbounded(both)"

    def test_one_sided_growth(self):
        # gamma = 1/2, so the left-side phase is (theta - 1/2) pi: the
        # 7/4 branch grows only for t > 0, the 3/4 branch only for t < 0.
        branches = {b.phase: b for b in exp_branches(ode_of("PN:p=6"))}
        assert classify_branch(branches[Fraction(7, 4)], 5) == "unbounded(right)"
        assert classify_branch(branches[Fraction(3, 4)], 5) == "unbounded(left)"

    def test_two_sided_growth_with_fractional_gamma(self):
        # gamma = 1/3 and theta = 1/6 give cos(pi/6) > 0 on the right and
        # cos(-pi/6) > 0 on the left: excluded in both directions.
        (b,) = [b for b in exp_branches(H8_LEADING_ODE) if b.phase == Fraction(1, 6)]
        assert classify_branch(b, 4) == "unbounded(both)"

    def test_oscillating_branch_needs_refinement(self):
        ode = ode_of("H4_T2m3")
        (b,) = exp_branches(ode)
        assert classify_branch(b, 3) == "not_excluded"
        b.power_exponent = power_correction(ode, b)
        assert classify_branch(b, 3) == "derivative_blowup(0)"

    def test_decaying_complex_branch_symmetry(self):
        (b,) = [
            b
            for b in exp_branches(ode_of("H5_T13m4"))
            if b.phase == Fraction(4, 3)
        ]
        assert classify_branch(b, 4, symmetric=False) == "not_excluded"
        assert classify_branch(b, 4, symmetric=True) == "excluded_by_symmetry"

    def test_negative_power_unbounded(self):
        b = AsymptoticBranch("logarithmic", power_exponent=Fraction(-1, 2))
        assert classify_branch(b, 2) == "unbounded(both)"

    def test_fractional_power_derivative_blowup(self):
        b = AsymptoticBranch("logarithmic", power_exponent=Fraction(8, 3))
        assert classify_branch(b, 3) == "derivative_blowup(3)"
        assert classify_branch(b, 2) == "not_excluded"

    def test_log_at_zero_unbounded(self):
        b = AsymptoticBranch(
            "logarithmic", power_exponent=Fraction(0), log_exponent=Fraction(0)
        )
        assert classify_branch(b, 2) == "unbounded(both)"

    def test_analytic_root_is_candidate(self):
        b = AsymptoticBranch("logarithmic", power_exponent=Fraction(2))
        assert classify_branch(b, 2) == "candidate"


class TestVerdicts:
    def check(self, spec, moment_order, status, conditions=frozenset(), **meta):
        op = catalog_get(spec)
        meta = {"moment_order": moment_order, **meta}
        v = characterisation_verdict(op, meta)
        assert v.status == status, (spec, v.status, v.diagnostics)
        assert v.conditions == frozenset(conditions), (spec, v.conditions)
        return v

    def test_rayleigh_all_parameter_regimes(self):
        for s in ("3/4", "1", "6/5", "3/2", "2", "5"):
            self.check(f"PRR:s={s}", 2, "characterising")

    def test_gamma_families(self):
        self.check("G1X:r=2,lam=1,sigma2=1", 2, "characterising")
        self.check("G1G2:r=1/3,s=1/4,lam=2", 2, "characterising")
        self.check("G1G2:r=2,s=3,lam=1", 2, "characterising")

    def test_beta_gamma_all_regimes(self):
        for a, b in (("1/2", "1/4"), ("1/2", "1/2"), ("2", "3")):
            self.check(f"BG1:a={a},b={b},r=2", 2, "characterising")

    def test_hermite_degree3_operators(self):
        self.check("H3_T4m3", 3, "characterising", symmetric=True)
        self.check("H3_T5m2", 3, "characterising", symmetric=True)

    def test_hermite_degree4_operators(self):
        self.check("H4_T3m2", 4, "characterising", zero_mean=True)
        self.check(
            "H4_T2m3", 4, "characterising_with_conditions", {"zero_mean"},
            zero_mean=True,
        )

    def test_hermite_degree5_and_6(self):
        self.check(
            "H5_T13m4", 5, "characterising_with_conditions", {"symmetry"},
            symmetric=True,
        )
        self.check("H6_T6m3", 6, "characterising", zero_mean=True)

    def test_degree7_and_8_fixtures(self):
        v = verdict_for_ode(H7_LEADING_ODE, 7, symmetric=True)
        assert (v.status, v.conditions) == (
            "characterising_with_conditions",
            frozenset({"symmetry"}),
        )
        v = verdict_for_ode(H8_LEADING_ODE, 8)
        assert (v.status, v.conditions) == ("characterising", frozenset())

    def test_product_normal_family(self):
        for p in (1, 2, 3, 4):
            self.check(f"PN:p={p}", max(p - 1, 1), "characterising", symmetric=True)
        for p in (5, 6, 7, 8):
            self.check(
                f"PN:p={p}", p - 1, "characterising_with_conditions", {"symmetry"},
                symmetric=True,
            )

    def test_product_normal_nine_is_inconclusive(self):
        v = self.check("PN:p=9", 8, "inconclusive", symmetric=True)
        assert "surviving_branches" in v.diagnostics
        assert "conjugate_trap" in v.diagnostics

    def test_conjugate_trap_flips_exactly_the_conjugate_pairs(self):
        def exp(phase, gamma=Fraction(1, 2), mag=Fraction(2)):
            return AsymptoticBranch("exponential", gamma=gamma, mag_pow=mag,
                                    mag_root=1, phase=phase)

        sym = "excluded_by_symmetry"
        table = [
            (exp(Fraction(1, 3)), sym),  # 0: pairs with 5
            (exp(Fraction(1, 2)), sym),  # 1: no partner with phase 3/2
            (exp(Fraction(3, 2), gamma=Fraction(1, 3)), sym),  # 2: other gamma
            (exp(Fraction(3, 2)), "unbounded(right)"),  # 3: not excluded by symmetry
            (exp(Fraction(1, 4), mag=Fraction(3)), sym),  # 4: other magnitude
            (exp(Fraction(5, 3)), sym),  # 5: pairs with 0
            (exp(Fraction(7, 4)), sym),  # 6: no partner with magnitude 2
        ]
        # the pairwise search the set lookup replaced
        pairs = [
            i for i, (bi, ri) in enumerate(table) if ri == sym
            if any(j != i and rj == sym and bi.gamma == bj.gamma
                   and bi.magnitude_pair == bj.magnitude_pair
                   and (bi.phase + bj.phase) % 2 == 0
                   for j, (bj, rj) in enumerate(table))
        ]
        assert pairs == [0, 5]
        assert _apply_conjugate_trap(table) == pairs
        assert [reason for _, reason in table] == [
            "not_excluded", sym, sym, "unbounded(right)", sym, "not_excluded", sym]

    def test_gauss_semicircle_shared_operator_inconclusive(self):
        v = self.check("gauss_semicircle_T5", 2, "inconclusive", symmetric=True)
        assert v.diagnostics.get("free_moments") == [2]

    def test_first_order_always_characterises(self):
        self.check("gauss_classical", 2, "characterising")
        self.check("PN:p=1", 1, "characterising")
        self.check("PN:p=2", 1, "characterising")

    def test_conditions_only_consumed_when_needed(self):
        # symmetric metadata available but never used: conditions stay empty
        v = self.check("H3_T5m2", 3, "characterising", symmetric=True)
        assert v.conditions == frozenset()

    def test_default_moment_order_is_ode_order(self):
        op = catalog_get("H4_T2m3")
        v = characterisation_verdict(op, {"zero_mean": True})
        assert v.status == "characterising_with_conditions"

    def test_verdict_json_shape(self):
        op = catalog_get("H5_T13m4")
        v = characterisation_verdict(op, {"symmetric": True, "moment_order": 5})
        blob = v.as_json()
        assert blob["status"] == "characterising_with_conditions"
        assert blob["conditions"] == ["symmetry"]
        assert blob["singularity"]["kind"] == "irregular_singular"
        kinds = {row["kind"] for row in blob["branch_table"]}
        assert kinds == {"bounded", "exponential"}
        for row in blob["branch_table"]:
            assert "exclusion" in row

    def test_ordinary_higher_order_needs_operator(self):
        ode = CfOde([{0: 1}, {0: 1}, {0: 1}])  # analytic coefficients
        v = verdict_for_ode(ode, 2)
        assert v.status == "inconclusive"

    @pytest.mark.parametrize("moment_order", [-1, -5])
    def test_negative_moment_order_is_an_error(self, moment_order):
        # a negative count of finite moments is meaningless; the first-order
        # Gaussian ODE would otherwise report "characterising"
        with pytest.raises(ValueError, match="moment_order >= 0"):
            verdict_for_ode(psi_transform(catalog_get("gauss_classical")), moment_order)
        with pytest.raises(ValueError, match="moment_order >= 0"):
            characterisation_verdict(catalog_get("gauss_classical"),
                                     {"moment_order": moment_order})

    def test_resolved_target_meta_fills_defaults_in_report_order(self):
        op = catalog_get("H4_T2m3")
        assert resolve_target_meta(op, {"zero_mean": True}) == {
            "moment_order": 3, "symmetric": False, "zero_mean": True}
        assert list(resolve_target_meta(op)) == ["moment_order", "symmetric", "zero_mean"]
        with pytest.raises(ValueError, match="unknown target_meta keys"):
            resolve_target_meta(op, {"moments": 3})


class TestNumericalCrossCheck:
    """Excluded 'unbounded' branches must show up in actual ODE solutions.

    Integrating from t = 0.5 toward 0 along the real axis, generic initial
    data picks up the dominant growing branch, so |phi| should exceed the
    initial magnitude by a large factor before reaching t = 0.01.
    """

    CASES = {
        "H3_T5m2": 2,
        "PRR:s=2": 2,
        "G1X:r=2,lam=1,sigma2=1": 2,
        "PN:p=3": 2,
        "BG1:a=2,b=2,r=1": 2,
    }

    def test_growing_solutions_blow_up_toward_zero(self):
        import numpy as np
        from scipy.integrate import solve_ivp

        for spec, order in self.CASES.items():
            ode = ode_of(spec)
            assert ode.order == order

            def rhs(t, y):
                cs = [c.eval_complex(t) for c in ode.coeffs]
                top = cs[-1]
                lower = sum(c * y[i] for i, c in enumerate(cs[:-1]))
                dy = list(y[1:]) + [-lower / top]
                return dy

            y0 = np.array([1.0 + 0j, 1.0 + 0j])
            blow = lambda t, y: float(np.abs(y[0]) - 1e8)
            blow.terminal = True
            blow.direction = 1
            sol = solve_ivp(
                rhs, (0.5, 0.01), y0, events=blow, rtol=1e-9, atol=1e-12
            )
            grew = sol.t_events[0].size > 0 or abs(sol.y[0, -1]) > 1e3
            assert grew, f"{spec}: no growth detected ({abs(sol.y[0, -1]):.2e})"
