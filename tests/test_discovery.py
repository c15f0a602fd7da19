"""Tests for exact nullspace discovery of polynomial Stein operators.

Expected dimensions, representatives, and stabilisation trails were
derived once by running the exact solver and cross-checking every
returned operator against the independent moment-recurrence verifier;
they are frozen here as regression oracles.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinscope import discovery
from steinscope.discovery import (
    DiscoveryProblem,
    OracleTooShort,
    canonicalise,
    find_stein_operators,
)
from steinscope.distributions import TargetDistribution, get_target
from steinscope.operators import SteinOperator, catalog_get
from steinscope.verification import check_moment_recurrence

F = Fraction

# Fourth-order operator for the H3 law, frozen from an independent listing:
# 5y - (3y^2+12) D + 207y D^2 + (351y^2-1080) D^3 + (81y^3-324y) D^4.
H3_FOURTH_ORDER = SteinOperator({
    (1, 0): 5,
    (0, 1): -12, (2, 1): -3,
    (1, 2): 207,
    (0, 3): -1080, (2, 3): 351,
    (1, 4): -324, (3, 4): 81,
})

CLASSICAL = SteinOperator({(0, 1): 1, (1, 0): -1})


def in_span(basis, op):
    return canonicalise(basis + [op]) == canonicalise(basis)


class TestDiscoveryProblem:
    def test_default_constraint_count(self):
        prob = DiscoveryProblem(get_target("gaussian"), 2, 3)
        assert prob.K == (2 + 1) * (3 + 1) + 16

    def test_rejects_underdetermined_k(self):
        with pytest.raises(ValueError):
            DiscoveryProblem(get_target("gaussian"), 1, 1, K=3)

    def test_rejects_negative_shape(self):
        with pytest.raises(ValueError):
            DiscoveryProblem(get_target("gaussian"), -1, 1)
        with pytest.raises(ValueError):
            DiscoveryProblem(get_target("gaussian"), 1, -1)

    def test_work_budget(self):
        g = get_target("gaussian")
        # the caps themselves are accepted; H5 (13, 4) has 70 unknowns
        assert DiscoveryProblem(g, 15, 7).K == 128 + 16
        assert DiscoveryProblem(g, 1, 1, K=256).K == 256
        with pytest.raises(ValueError, match="MAX_UNKNOWNS = 128"):
            DiscoveryProblem(g, 128, 0)
        with pytest.raises(ValueError, match="MAX_UNKNOWNS = 128"):
            DiscoveryProblem(g, 10**30, 10**30)
        with pytest.raises(ValueError, match="MAX_CONSTRAINTS = 256"):
            DiscoveryProblem(g, 1, 1, K=257)

    def test_columns_are_i_j_lexicographic(self):
        prob = DiscoveryProblem(get_target("gaussian"), 1, 1, K=4)
        assert prob.columns() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_oracle_forms(self):
        g = get_target("gaussian")
        from_dist = DiscoveryProblem(g, 1, 1, K=4)
        from_list = DiscoveryProblem([g.moment(k) for k in range(6)], 1, 1, K=4)
        for prob in (from_dist, from_list):
            mus = prob.moments(4)
            assert mus == [1, 0, 1, 0, 3]
            assert all(isinstance(mu, Fraction) for mu in mus)

    def test_short_sequence_raises(self):
        prob = DiscoveryProblem([1, 0, 1], 1, 1, K=4)
        assert prob.moments(2) == [1, 0, 1]
        with pytest.raises(OracleTooShort, match="order 3 required"):
            prob.moments(3)


class TestCanonicalise:
    def test_empty_basis(self):
        assert canonicalise([]) == []

    def test_scaling_is_removed(self):
        assert canonicalise([SteinOperator({(0, 1): 2, (1, 0): -2})]) == \
            [CLASSICAL]
        assert canonicalise([7 * catalog_get("H4_T2m3")]) == \
            [catalog_get("H4_T2m3")]

    def test_leading_sign_is_positive(self):
        assert canonicalise([SteinOperator({(0, 1): -1, (1, 0): 1})]) == \
            [CLASSICAL]

    def test_fractions_cleared_to_primitive_integers(self):
        op = SteinOperator({(0, 1): F(1, 3), (1, 0): F(-1, 3)})
        assert canonicalise([op]) == [CLASSICAL]

    def test_dependent_members_are_dropped(self):
        a = catalog_get("H4_T2m3")
        b = catalog_get("H4_T3m2")
        reps = canonicalise([a, a + b, 3 * b])
        assert len(reps) == 2
        assert in_span(reps, a) and in_span(reps, b)

    def test_idempotent(self):
        reps = canonicalise([catalog_get("H3_T5m2"), H3_FOURTH_ORDER])
        assert canonicalise(reps) == reps

    def test_basis_order_does_not_matter(self):
        a, b = catalog_get("H4_T2m3"), catalog_get("H4_T3m2")
        assert canonicalise([a, b]) == canonicalise([b, a])


class TestReproduction:
    def test_gaussian_first_order(self):
        prob = DiscoveryProblem(get_target("gaussian"), 1, 1)
        assert find_stein_operators(prob) == [CLASSICAL]
        assert prob.effective_K == prob.K
        assert prob.dimension_trail == [(prob.K, 1), (prob.K + 8, 1)]

    def test_h4_second_order_is_unique(self):
        prob = DiscoveryProblem(get_target("H4"), 2, 3)
        basis = find_stein_operators(prob)
        assert basis == [catalog_get("H4_T2m3")]

    def test_h3_fourth_order_span(self):
        prob = DiscoveryProblem(get_target("H3"), 4, 3)
        basis = find_stein_operators(prob)
        assert len(basis) == 2
        assert in_span(basis, H3_FOURTH_ORDER)

    @pytest.mark.parametrize("name,T,m,target", [
        ("H3_T5m2", 5, 2, "H3"),
        ("H4_T3m2", 3, 2, "H4"),
        ("H6_T6m3", 6, 3, "H6"),
    ])
    def test_one_dimensional_catalog_cases(self, name, T, m, target):
        prob = DiscoveryProblem(get_target(target), T, m)
        basis = find_stein_operators(prob)
        assert len(basis) == 1
        assert basis == canonicalise([catalog_get(name)])

    def test_h5_thirteenth_order(self):
        prob = DiscoveryProblem(get_target("H5"), 13, 4)
        basis = find_stein_operators(prob)
        assert len(basis) == 1
        assert in_span(basis, catalog_get("H5_T13m4"))
        assert prob.effective_K == (13 + 1) * (4 + 1) + 16

    def test_h5_asks_each_order_once_highest_first(self, monkeypatch):
        # rows k < K + 8 = 94 read orders up to 93 + m = 97; a matrix cell
        # reads the list of moments, not the oracle
        calls = []
        moment = TargetDistribution.moment

        def counting(self, k):
            calls.append(k)
            return moment(self, k)

        monkeypatch.setattr(TargetDistribution, "moment", counting)
        prob = DiscoveryProblem(get_target("H5"), 13, 4)
        assert len(find_stein_operators(prob)) == 1
        assert prob.dimension_trail == [(86, 1), (94, 1)]
        assert calls[0] == 97
        assert sorted(calls) == list(range(98))


class TestSoundness:
    @pytest.mark.parametrize("target,T,m", [
        ("gaussian", 1, 1),
        ("H4", 2, 3),
        ("H3", 4, 3),
    ])
    def test_every_member_annihilates_higher_moments(self, target, T, m):
        dist = get_target(target)
        prob = DiscoveryProblem(dist, T, m)
        for op in find_stein_operators(prob):
            reports = check_moment_recurrence(op, dist, K=prob.effective_K + 8)
            assert all(r.passed for r in reports)


class TestStability:
    def test_h4_span_constant_in_k(self):
        for K in (12, 20, 40):
            prob = DiscoveryProblem(get_target("H4"), 2, 3, K=K)
            assert find_stein_operators(prob) == [catalog_get("H4_T2m3")]

    def test_gaussian_span_constant_in_k(self):
        for K in (4, 12, 32):
            prob = DiscoveryProblem(get_target("gaussian"), 1, 1, K=K)
            assert find_stein_operators(prob) == [CLASSICAL]

    def test_dimension_never_grows_with_k(self):
        dims = []
        for K in (36, 44, 60):
            prob = DiscoveryProblem(get_target("H3"), 4, 3, K=K)
            dims.append(len(find_stein_operators(prob)))
        assert dims == sorted(dims, reverse=True)
        assert dims[0] == dims[-1] == 2

    def test_short_oracle_fails_during_stabilisation(self):
        # Ten moments cover the K = 8 base solve (orders up to K - 1 + m)
        # but not the K + 8 stabilisation pass; the first read asks for
        # both, order K + 7 + m = 16 first, so it fails before any solve.
        mus = [get_target("gaussian").moment(k) for k in range(10)]
        with pytest.raises(OracleTooShort):
            find_stein_operators(DiscoveryProblem(mus, 1, 1, K=8))

    def test_dimension_drop_is_re_solved(self):
        # E[Y^10] off by one breaks the classical operator only at row
        # k = 9, so the K = 8 basis fails the first eight new rows, the
        # K = 16 system is solved anew (nothing survives), and the empty
        # basis then passes the next check trivially.
        mus = [get_target("gaussian").moment(k) for k in range(25)]
        mus[10] += 1
        prob = DiscoveryProblem(mus, 1, 1, K=8)
        assert find_stein_operators(prob) == []
        assert prob.dimension_trail == [(8, 1), (16, 0), (24, 0)]
        assert prob.effective_K == 16

    def test_sequence_oracle_long_enough_succeeds(self):
        mus = [get_target("gaussian").moment(k) for k in range(17)]
        prob = DiscoveryProblem(mus, 1, 1, K=8)
        assert find_stein_operators(prob) == [CLASSICAL]
        assert prob.dimension_trail == [(8, 1), (16, 1)]


class TestNecessityOnlyCaveat:
    def test_one_operator_annihilates_two_laws(self):
        # Membership in the discovered span certifies necessity, not
        # characterisation: the shared fifth-order operator lies in the
        # (T, m) = (5, 3) span of BOTH the Gaussian and the semicircle
        # problems, so span membership alone cannot distinguish the laws.
        shared = catalog_get("gauss_semicircle_T5")
        dims = {}
        for target in ("gaussian", "semicircle"):
            prob = DiscoveryProblem(get_target(target), 5, 3)
            basis = find_stein_operators(prob)
            assert in_span(basis, shared), target
            dims[target] = len(basis)
        assert dims == {"gaussian": 15, "semicircle": 10}


def fraction_nullspace(rows, ncols):
    """Back-substitution nullspace from a plain Fraction RREF."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((q for q in range(r, len(rows)) if rows[q][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for q in range(len(rows)):
            if q != r and rows[q][c]:
                f = rows[q][c]
                rows[q] = [a - f * b for a, b in zip(rows[q], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def free_column_scaled(vectors):
    """Each vector divided by its last nonzero entry, its free column."""
    out = []
    for v in vectors:
        last = next(x for x in reversed(v) if x)
        out.append([Fraction(x) / last for x in v])
    return out


entries = st.one_of(st.integers(-4, 4), st.integers(-(2**310), 2**310))


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=5))
    # extra rows that are integer combinations of the base rows make the
    # matrix rank-deficient
    weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    combos = [
        [sum(w * r[c] for w, r in zip(ws, base)) for c in range(ncols)]
        for ws in draw(st.lists(weights, max_size=3))
    ]
    rows = draw(st.permutations(base + combos))
    return rows, ncols


class TestMultiModularNullspace:
    @settings(max_examples=150, deadline=None)
    @given(integer_matrices())
    def test_matches_fraction_rref(self, matrix):
        rows, ncols = matrix
        got = discovery._nullspace(rows, ncols)
        assert free_column_scaled(got) == fraction_nullspace(rows, ncols)
        assert all(isinstance(x, int) for v in got for x in v)

    def test_large_entries_need_more_than_two_primes(self, monkeypatch):
        rows = [[3**200, 5**190, 7**170], [11**130 + 1, 13**135, 2**301 - 1]]
        used = []
        rref_mod = discovery._rref_mod

        def counting(rows, ncols, p):
            used.append(p)
            return rref_mod(rows, ncols, p)

        monkeypatch.setattr(discovery, "_rref_mod", counting)
        got = discovery._nullspace(rows, 3)
        assert free_column_scaled(got) == fraction_nullspace(rows, 3)
        assert len(used) > 2

    def test_unlucky_rank_is_discarded(self):
        # rank 2 over Q, rank 1 modulo the first prime
        p1 = discovery._prime(0)
        rows = [[1, 1], [1, 1 + p1]]
        assert discovery._rref_mod(rows, 2, p1)[0] == [0]
        assert discovery._nullspace(rows, 2) == []

    def test_unlucky_pivots_are_discarded(self):
        # same rank 2, but pivots [0, 2] modulo the first prime, not [0, 1]
        p1 = discovery._prime(0)
        rows = [[1, 1, 0], [p1, 0, 1]]
        assert discovery._rref_mod(rows, 3, p1)[0] == [0, 2]
        got = discovery._nullspace(rows, 3)
        assert free_column_scaled(got) == [[F(-1, p1), F(1, p1), F(1)]]

    def test_prime_cap_raises(self, monkeypatch):
        monkeypatch.setattr(discovery, "_prime_cap", lambda rows, ncols: 1)
        p1 = discovery._prime(0)
        with pytest.raises(ArithmeticError):
            discovery._nullspace([[1, 1], [1, 1 + p1]], 2)

    def test_primes_are_consecutive_below_2_to_the_62(self):
        primes = [2**62] + [discovery._prime(i) for i in range(4)]
        assert primes[-1] > 2**61
        for above, below in zip(primes, primes[1:]):
            assert discovery._is_prime(below)
            assert not any(discovery._is_prime(n) for n in range(below + 1, above))

    def test_is_prime_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(3000) if discovery._is_prime(n)] == \
            [n for n in range(3000) if trial(n)]
        # strong pseudoprimes to several small bases
        assert not discovery._is_prime(3215031751)
        assert not discovery._is_prime(3825123056546413051)
