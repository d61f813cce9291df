import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from igdist import (
    DistanceLaw,
    ModelParams,
    Rank1Params,
    WPools,
    approx,
    bpsim,
    degree_bound,
    derived_scalars,
    identity_report,
    mean_matrices,
    perron,
    rank1_build,
    runner,
    second_modulus,
    seeding,
)
from igdist.errors import ValidationError


def random_supercritical(rng, target_tau=None):
    """Random valid model with strictly positive P and tau > 1."""
    K = int(rng.integers(1, 6))
    J = int(rng.integers(1, 6))
    n = rng.integers(2, 10_001, size=K)
    m = rng.integers(2, 10_001, size=J)
    P = rng.uniform(0.05, 1.0, size=(K, J))
    params = ModelParams(n=n, m=m, P=P)
    M_X, _ = mean_matrices(params)
    tau, _, _ = perron(M_X)
    target = target_tau if target_tau else float(rng.uniform(1.3, 8.0))
    P = np.minimum(P * math.sqrt(target / tau), 1.0)
    return ModelParams(n=n, m=m, P=P)


class TestValidate:
    def test_scalar4_ok(self, scalar4):
        ModelParams(n=scalar4.n, m=scalar4.m, P=scalar4.P)

    def test_m_below_two(self):
        with pytest.raises(ValidationError, match=r"m_1 = 1 < 2"):
            ModelParams(n=[5], m=[1], P=[[0.1]])

    def test_n_below_two(self):
        with pytest.raises(ValidationError, match=r"n_2 = 1 < 2"):
            ModelParams(n=[5, 1], m=[3], P=[[0.1], [0.1]])

    def test_p_out_of_range(self):
        with pytest.raises(ValidationError, match=r"out of \[0,1\]"):
            ModelParams(n=[5], m=[5], P=[[1.5]])
        with pytest.raises(ValidationError, match=r"out of \[0,1\]"):
            ModelParams(n=[5], m=[5], P=[[-0.25]])
        with pytest.raises(ValidationError, match=r"nan out of \[0,1\]"):
            ModelParams(n=[5], m=[5], P=[[math.nan]])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ModelParams(n=[5, 5], m=[5], P=[[0.1]])

    def test_arrays_are_read_only(self):
        p = ModelParams(n=[5], m=[5], P=[[0.1]])
        copy = pickle.loads(pickle.dumps(p))
        for a in (p.n, p.m, p.P, copy.n, copy.m, copy.P):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_replace_checks_again(self):
        p = ModelParams(n=[5], m=[5], P=[[0.1]])
        with pytest.raises(ValidationError, match=r"out of \[0,1\]"):
            replace(p, P=[[1.5]])

    def test_caller_arrays_stay_writable(self):
        n, P = np.array([5]), np.array([[0.1]])
        p = ModelParams(n=n, m=[5], P=P)
        n[0], P[0, 0] = 1, 1.5
        assert n.flags.writeable and P.flags.writeable
        assert p.n[0] == 5 and p.P[0, 0] == 0.1

    @pytest.mark.parametrize(
        "n, m",
        [
            ([1000.9], [1000]),
            ([1000], [1000.5]),
            ([1000.0], [1000]),
            ([5], [True]),
            (["1000"], [1000]),
        ],
        ids=["fraction_n", "fraction_m", "integral_float", "bool", "string"],
    )
    def test_non_integer_counts_rejected(self, n, m):
        # truncating 1000.9 to 1000 would run a model the caller never gave
        with pytest.raises(ValidationError, match="must be integers"):
            ModelParams(n=n, m=m, P=np.full((len(n), len(m)), 0.1))

    @pytest.mark.parametrize(
        "n, match",
        [(10, r"n must be 1-D, got shape \(\)"),
         ([[1000]], r"n must be 1-D, got shape \(1, 1\)"),
         ([[1000, 1000]], r"n must be 1-D, got shape \(1, 2\)")],
        ids=["scalar", "column", "row"],
    )
    def test_counts_must_be_one_dimensional(self, n, match):
        with pytest.raises(ValidationError, match=match):
            ModelParams(n=n, m=[1000], P=[[0.002]])

    @pytest.mark.parametrize(
        "P, match",
        [([["a"]], "P must be numbers"),
         ([[True]], "P must be numbers"),
         ([[None]], "P must be numbers"),
         ([[0.1], [0.1, 0.2]], "P is not an array")],
        ids=["string", "bool", "null", "ragged"],
    )
    def test_non_numeric_probabilities_rejected(self, P, match):
        with pytest.raises(ValidationError, match=match):
            ModelParams(n=[5] * len(P), m=[5], P=P)

    @pytest.mark.parametrize(
        "alpha, beta, match",
        [("ab", [1.0], "alpha must be 1-D"),
         (["a"], [1.0], "alpha must be numbers"),
         ([0.1], [[1.0]], "beta must be 1-D"),
         ([0.1], [None], "beta must be numbers")],
    )
    def test_rank1_factors_must_be_numeric_vectors(self, alpha, beta, match):
        with pytest.raises(ValidationError, match=match):
            Rank1Params(alpha=alpha, beta=beta)

    def test_numpy_integer_counts_accepted(self):
        p = ModelParams(
            n=np.array([5], dtype=np.int32), m=np.array([5], dtype=np.uint16), P=[[0.1]]
        )
        assert p.n.dtype == p.m.dtype == np.int64

    @pytest.mark.parametrize(
        "alpha, beta, match",
        [
            ([0.5, 0.0], [1.0], "positive"),
            ([0.9, 0.9], [2.0], "invalid probability"),
        ],
    )
    def test_rank1_checked_on_construction(self, alpha, beta, match):
        with pytest.raises(ValidationError, match=match):
            Rank1Params(alpha=alpha, beta=beta)


class TestMeanMatrices:
    def test_scalar_product(self, scalar4):
        M_X, M_Y = mean_matrices(scalar4)
        assert M_X.shape == (1, 1) and M_Y.shape == (1, 1)
        assert M_X[0, 0] == pytest.approx(4.0, abs=1e-14)
        assert M_Y[0, 0] == pytest.approx(4.0, abs=1e-14)

    def test_rank1_vs_dense_triple_product(self, rank1_fixture):
        _, params, _, _, _ = rank1_fixture
        M_X, M_Y = mean_matrices(params)
        N_X = np.diag(params.n.astype(float))
        N_Y = np.diag(params.m.astype(float))
        assert np.allclose(M_X, params.P @ N_Y @ params.P.T @ N_X, rtol=1e-14)
        assert np.allclose(M_Y, params.P.T @ N_X @ params.P @ N_Y, rtol=1e-14)

    def test_entrywise_oracle(self, two_by_two):
        M_X, M_Y = mean_matrices(two_by_two)
        p = two_by_two
        for k in range(2):
            for l in range(2):
                want = sum(
                    p.P[k, j] * p.m[j] * p.P[l, j] * p.n[l] for j in range(2)
                )
                assert M_X[k, l] == pytest.approx(want, rel=1e-14)
        for j in range(2):
            for i in range(2):
                want = sum(
                    p.P[k, j] * p.n[k] * p.P[k, i] * p.m[i] for k in range(2)
                )
                assert M_Y[j, i] == pytest.approx(want, rel=1e-14)

    def test_zero_p(self):
        M_X, M_Y = mean_matrices(ModelParams(n=[5, 5], m=[4], P=[[0.0], [0.0]]))
        assert (M_X == 0).all() and (M_Y == 0).all()


class TestPerron:
    def test_scalar(self):
        tau, left, right = perron(np.array([[4.0]]))
        assert tau == pytest.approx(4.0, rel=1e-12)
        assert left[0] == pytest.approx(1.0) and right[0] == pytest.approx(1.0)

    def test_rank1_closed_form(self, rank1_fixture):
        _, params, tau_cf, mu_cf, nu_cf = rank1_fixture
        M_X, _ = mean_matrices(params)
        tau, mu, nu = perron(M_X)
        assert tau == pytest.approx(4.9, rel=1e-10)
        assert tau == pytest.approx(tau_cf, rel=1e-8)
        assert np.allclose(mu, mu_cf, rtol=1e-8)
        assert np.allclose(nu, nu_cf, rtol=1e-8)
        assert np.allclose(mu, [5 / 11, 6 / 11], rtol=1e-10)

    def test_normalization_and_residuals(self, two_by_two):
        M_X, _ = mean_matrices(two_by_two)
        tau, mu, nu = perron(M_X)
        assert abs(mu.sum() - 1.0) < 1e-12
        assert abs(mu @ nu - 1.0) < 1e-12
        assert (mu > 0).all() and (nu > 0).all()
        assert np.abs(mu @ M_X - tau * mu).max() <= 1e-10 * tau
        assert np.abs(M_X @ nu - tau * nu).max() <= 1e-10 * tau

    def test_periodic_rejected(self):
        with pytest.raises(ValidationError, match="periodic"):
            perron(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # the 3-cycle 1 -> 2 -> 3 -> 1 has period 3
        with pytest.raises(ValidationError, match="periodic"):
            perron(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))

    def test_reducible_rejected(self):
        with pytest.raises(ValidationError, match="reducible"):
            perron(np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValidationError, match="reducible"):
            perron(np.array([[0.0]]))
        # type 3 reaches types 1 and 2, but neither reaches it back
        with pytest.raises(ValidationError, match="reducible"):
            perron(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))

    def test_wielandt_matrix_accepted(self):
        # cycle 1 -> 2 -> 3 -> 1 plus the chord 3 -> 2: primitive, with
        # exponent exactly (K-1)^2 + 1 = 5, the largest possible for K = 3
        M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        S = M > 0
        assert not np.linalg.matrix_power(S, 4).all()
        assert np.linalg.matrix_power(S, 5).all()
        tau, mu, nu = perron(M)
        # tau is the real root of x^3 = x + 1 (the plastic number)
        assert tau**3 == pytest.approx(tau + 1.0, rel=1e-14)
        assert abs(mu.sum() - 1.0) < 1e-14 and abs(mu @ nu - 1.0) < 1e-14
        assert (mu > 0).all() and (nu > 0).all()
        assert np.abs(mu @ M - tau * mu).max() <= 1e-14 * tau
        assert np.abs(M @ nu - tau * nu).max() <= 1e-14 * tau


class TestSecondModulus:
    def test_scalar4(self, scalar4_spec):
        s = scalar4_spec
        assert s.lambda2_mod == 0.0
        assert s.gamma == pytest.approx(4.0)
        # max over integer s of (s+1) * (1/2)^s is 1, tied at s = 0, 1
        assert s.theta == pytest.approx(1.0, abs=1e-14)

    def test_rank1_deflation_is_zero(self, rank1_fixture):
        _, params, _, _, _ = rank1_fixture
        M_X, _ = mean_matrices(params)
        tau, mu, nu = perron(M_X)
        l2, gamma, _ = second_modulus(M_X, tau, nu, mu)
        assert l2 == 0.0
        assert gamma == pytest.approx(4.9)

    def test_known_eigenvalue_pair(self):
        # characteristic polynomial of [[4,1],[2.5,2.5]] is
        # x^2 - 6.5x + 7.5 = (x - 5)(x - 1.5)
        M = np.array([[4.0, 1.0], [2.5, 2.5]])
        tau, mu, nu = perron(M)
        assert tau == pytest.approx(5.0, rel=1e-10)
        l2, gamma, _ = second_modulus(M, tau, nu, mu)
        assert l2 == pytest.approx(1.5, rel=1e-9)
        assert gamma == pytest.approx(5.0)

    @pytest.mark.parametrize("r", [0.5, 2.0**-0.5, 0.9, 0.999])
    def test_theta_closed_form_matches_brute_force(self, r):
        # with lambda_2 = 0, gamma = tau and r = sqrt(tau)/tau; r = 0.5
        # ties at s = 0 and s = 1
        tau = 1.0 / r**2
        _, gamma, theta = second_modulus(
            np.array([[tau]]), tau, np.array([1.0]), np.array([1.0])
        )
        ratio = math.sqrt(gamma) / tau
        assert theta == max((s + 1) * ratio**s for s in range(10**5))

    def test_subcritical_rejected(self):
        with pytest.raises(ValidationError, match="tau <= 1"):
            second_modulus(
                np.array([[0.5]]), 0.5, np.array([1.0]), np.array([1.0])
            )


class TestDerivedScalars:
    def test_scalar4_values(self, scalar4_spec):
        s = scalar4_spec
        assert s.tau == pytest.approx(4.0, rel=1e-12)
        assert s.zeta == pytest.approx(2.0, rel=1e-12)
        assert s.mu_tilde[0] == pytest.approx(1.0)
        assert s.kappa == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert s.kappa_printed == pytest.approx(4.0 / 3000.0, rel=1e-12)
        assert s.i0 == 4
        assert s.phi_n == pytest.approx(0.256, rel=1e-12)
        assert s.frak_z**2 == pytest.approx(4.0, rel=1e-12)
        assert s.zeta**2 * s.n_total / s.m_total == pytest.approx(
            s.frak_z**2, rel=1e-14
        )
        assert s.e_mn == pytest.approx(2.0 / 1000.0**0.25, rel=1e-14)
        assert s.u_mn == pytest.approx(2.0, rel=1e-14)
        assert s.rhoX == pytest.approx(1.0) and s.rhoY == pytest.approx(1.0)

    def test_scalar2_values(self, scalar2_spec):
        s = scalar2_spec
        assert s.tau == pytest.approx(2.0, rel=1e-12)
        assert s.kappa == pytest.approx(2.0, rel=1e-10)
        assert s.i0 == 13
        assert s.phi_n == pytest.approx(0.8192, rel=1e-10)
        # theta: max of (s+1) (1/sqrt(2))^s, attained at s = 2
        assert s.theta == pytest.approx(1.5, rel=1e-10)

    def test_i0_bracketing_exact(self, scalar4_spec, scalar2_spec, two_by_two_spec):
        for s in (scalar4_spec, scalar2_spec, two_by_two_spec):
            assert s.tau**s.i0 <= s.n_total < s.tau ** (s.i0 + 1)
            assert 1.0 / s.tau < s.phi_n <= 1.0

    def test_subcritical_rejected(self):
        with pytest.raises(ValidationError, match="tau <= 1"):
            derived_scalars(ModelParams(n=[100], m=[100], P=[[0.001]]))

    def test_replace_rejects_subcritical_tau(self, scalar4_spec):
        with pytest.raises(ValidationError, match="tau <= 1"):
            replace(scalar4_spec, tau=0.5)

    def test_two_weakly_linked_communities(self):
        # two types with equal growth that share few objects: the two
        # eigenvalues of M_X differ by about 4e-5 relative
        p = ModelParams(
            n=[1000, 2000], m=[1000, 500], P=[[0.002, 2e-8], [2e-8, 0.002]]
        )
        s = derived_scalars(p)
        (a, b), (c, d) = s.M_X
        # (tr + sqrt(tr^2 - 4 det)) / 2, with the discriminant written as
        # (a - d)^2 + 4bc to avoid cancellation
        exact = 0.5 * (a + d + math.sqrt((a - d) ** 2 + 4.0 * b * c))
        assert s.tau == pytest.approx(exact, rel=1e-12)
        assert max(identity_report(s).values()) < 1e-10


class TestIdentityReport:
    def test_scalar4_clean(self, scalar4_spec):
        rep = identity_report(scalar4_spec)
        assert max(rep.values()) < 1e-12

    def test_random_models(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            s = derived_scalars(random_supercritical(rng))
            rep = identity_report(s)
            assert max(rep.values()) < 1e-10, rep

    def test_corrupted_mu_tilde_flagged(self, two_by_two_spec):
        bad = two_by_two_spec.mu_tilde.copy()
        bad[0] += 1e-3
        rep = identity_report(replace(two_by_two_spec, mu_tilde=bad))
        assert rep["left_eigen_MY"] > 1e-4


class TestRank1:
    def test_fixture_values(self, rank1_fixture):
        _, params, tau, mu, nu = rank1_fixture
        assert tau == pytest.approx(4.9, rel=1e-12)
        assert np.allclose(mu, [0.45455, 0.54545], atol=5e-6)
        assert np.allclose(nu, [1.12245, 0.89796], atol=5e-6)
        assert mu @ nu == pytest.approx(1.0, abs=1e-8)

    def test_scalar_reduces_to_pp_mn(self):
        r = Rank1Params(alpha=[0.004], beta=[0.5])
        _, tau, _, _ = rank1_build(r, [1000], [2000])
        assert tau == pytest.approx((0.004 * 0.5) ** 2 * 1000 * 2000, rel=1e-12)

    def test_invalid_probability(self):
        with pytest.raises(ValidationError, match="invalid probability"):
            rank1_build(Rank1Params(alpha=[0.9, 0.9], beta=[2.0]), [5, 5], [5])

    def test_random_agreement_with_power_iteration(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            K = int(rng.integers(1, 5))
            J = int(rng.integers(1, 5))
            r = Rank1Params(
                alpha=rng.uniform(0.001, 0.08, K), beta=rng.uniform(0.1, 1.0, J)
            )
            n = rng.integers(2, 3000, K)
            m = rng.integers(2, 3000, J)
            params, tau_cf, mu_cf, nu_cf = rank1_build(r, n, m)
            M_X, _ = mean_matrices(params)
            tau, mu, nu = perron(M_X)
            assert tau == pytest.approx(tau_cf, rel=1e-8)
            assert np.allclose(mu, mu_cf, rtol=1e-8)
            assert np.allclose(nu, nu_cf, rtol=1e-8)

    def test_constrained_minimality(self, rank1_fixture):
        # among P with P N_Y beta = (beta' N_Y beta) alpha, the product
        # form has the smallest growth rate
        rng = np.random.default_rng(3)
        alpha = np.array([0.004, 0.006])
        beta = np.array([0.5, 0.8, 0.3])
        n = np.array([400, 300])
        m = np.array([200, 150, 250])
        params0, tau0, _, _ = rank1_build(Rank1Params(alpha, beta), n, m)
        w = m * beta
        found_distinct = 0
        for _ in range(50):
            delta = rng.normal(0.0, 1.0, size=(2, 3))
            delta -= np.outer(delta @ w, w) / (w @ w)
            scale = 0.4 * params0.P.min() / max(np.abs(delta).max(), 1e-12)
            P = params0.P + scale * delta
            assert (P >= 0).all() and (P <= 1).all()
            assert np.allclose(P @ w, (beta @ w) * alpha, rtol=1e-10)
            M_X, _ = mean_matrices(ModelParams(n=n, m=m, P=P))
            tau, _, _ = perron(M_X)
            assert tau >= tau0 - 1e-9
            if abs(tau - tau0) > 1e-9:
                found_distinct += 1
        assert found_distinct > 0


class TestDegreeBound:
    def test_homogeneous_equality(self):
        p = ModelParams(
            n=[10, 10], m=[50, 50], P=[[0.02, 0.02], [0.03, 0.03]]
        )
        bound, tau, slack = degree_bound(p)
        assert bound == pytest.approx(1.3, rel=1e-12)
        assert abs(slack) <= 1e-9

    def test_rank1_nonnegative_slack(self, rank1_fixture):
        _, params, _, _, _ = rank1_fixture
        _, _, slack = degree_bound(params)
        assert slack >= -1e-9

    def test_random_fixed_degrees(self):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            K = int(rng.integers(1, 5))
            J = int(rng.integers(2, 5))
            n = rng.integers(2, 500, K)
            m = rng.integers(10, 500, J)
            D = rng.uniform(0.5, 4.0, K)
            raw = rng.uniform(0.1, 1.0, (K, J))
            P = raw * (D / (raw * m).sum(axis=1))[:, None]
            assert (P <= 1.0).all()
            p = ModelParams(n=n, m=m, P=P)
            assert np.allclose(P @ m, D, rtol=1e-12)
            _, _, slack = degree_bound(p)
            assert slack >= -1e-9


class TestZetaStarSandwich:
    def test_fixtures_and_random(self, scalar4_spec, two_by_two_spec):
        rng = np.random.default_rng(42)
        specs = [scalar4_spec, two_by_two_spec]
        specs += [derived_scalars(random_supercritical(rng)) for _ in range(10)]
        for s in specs:
            J = len(s.mu_tilde)
            assert (s.mu.min() / J) * s.zeta_star <= s.zeta + 1e-12
            assert s.zeta <= s.zeta_star + 1e-12


_P20 = ModelParams(n=[20], m=[20], P=[[0.1]])
_SPEC20 = derived_scalars(_P20)
_POOLS = WPools(pool_a=[1.0, 2.0], pool_b=[0.5, 1.5], surv_a=0.9, surv_b=0.8, horizon=4)
_LAW = DistanceLaw(counts={2: 5, 3: 5}, infinite_count=0, total=10)
# no individual has offspring, so a population cap of 1 never trips
_DEAD = ModelParams(n=[20], m=[20], P=[[0.0]])

# every count, offset, cap or seed argument checked by `model._integer`: a call
# with the value v in that argument, and the argument's lower bound
_INTEGER_ARGS = {
    "simulate_batch.generations": (lambda v: bpsim.simulate_batch(_P20, 0, v, 2, 1), 0),
    "simulate_batch.reps": (lambda v: bpsim.simulate_batch(_P20, 0, 2, v, 1), 1),
    "simulate_batch.population_cap": (
        lambda v: bpsim.simulate_batch(_DEAD, 0, 2, 2, 1, population_cap=v), 1
    ),
    "w_sample.horizon": (lambda v: bpsim.w_sample(_P20, _SPEC20, 0, v, 1), 1),
    "w_sample.population_cap": (
        lambda v: bpsim.w_sample(_DEAD, _SPEC20, 0, 2, 1, population_cap=v), 1
    ),
    "extinction_frequency.horizon": (
        lambda v: bpsim.extinction_frequency(_P20, 0, v, 5, 1), 0
    ),
    "extinction_frequency.reps": (
        lambda v: bpsim.extinction_frequency(_P20, 0, 2, v, 1), 1
    ),
    "conditioned_w_pool.pool_size": (
        lambda v: bpsim.conditioned_w_pool(_P20, _SPEC20, 0, 2, v, 1), 1
    ),
    "conditioned_w_pool.seed": (
        lambda v: bpsim.conditioned_w_pool(_P20, _SPEC20, 0, 2, 1, v), None
    ),
    "labeled_growth.depth": (lambda v: bpsim.labeled_growth(_P20, 0, 0, v, 1), 1),
    "labeled_growth.population_cap": (
        lambda v: bpsim.labeled_growth(_DEAD, 0, 0, 2, 1, population_cap=v), 1
    ),
    "ghost_scaling.depth": (lambda v: bpsim.ghost_scaling(_P20, _SPEC20, v, 2, 1), 1),
    "ghost_scaling.population_cap": (
        lambda v: bpsim.ghost_scaling(_DEAD, _SPEC20, 2, 2, 1, population_cap=v), 1
    ),
    "survival_prob.max_iter": (  # any step is within tol=1 of the start
        lambda v: bpsim.survival_prob(_P20, tol=1.0, max_iter=v), 1
    ),
    "sample_U_tilde.count": (lambda v: approx.sample_U_tilde(_SPEC20, _POOLS, v, 1), 1),
    "build_approx_law.offset": (
        lambda v: approx.build_approx_law(_SPEC20, _POOLS, [0, v]), None
    ),
    "compare.offset": (lambda v: approx.compare(_LAW, _SPEC20, _POOLS, [0, v]), None),
    "derive_seed.replicate": (lambda v: seeding.derive_seed(0, "graph", v), 0),
    "derive_seed.seed": (lambda v: seeding.derive_seed(v, "graph"), None),
    "replicate_blocks.reps": (
        lambda v: seeding.replicate_blocks(lambda rng, c: c, v, 4, 1, "t"), 1
    ),
    "replicate_blocks.seed": (  # the jobs run too: each derives its substream
        lambda v: [job() for job in seeding.replicate_blocks(lambda rng, c: c, 6, 4, v, "t")],
        None,
    ),
}


def _integer_cases():
    for arg, (_, low) in _INTEGER_ARGS.items():
        values = [True, 2.5] + ([] if low is None else [low - 1]) + [np.int64(low or 0)]
        for v in values:
            yield pytest.param(arg, v, id=f"{arg}-{v!r}")


class TestIntegerRule:
    @pytest.mark.parametrize("arg, value", _integer_cases())
    def test_count_and_offset_arguments(self, arg, value, monkeypatch):
        # a bool is not a count of one, a float is not truncated, a value
        # below the bound is refused, and a numpy integer is an integer
        call, low = _INTEGER_ARGS[arg]
        name = arg.split(".")[1]
        if isinstance(value, np.integer):
            call(value)
            return
        if isinstance(value, (bool, float)):
            want = f"{name} must be an integer, got {value!r}"
        else:
            want = f"{name} must be >= {low}"
        # a rejected argument stops the call before any worker starts
        monkeypatch.setattr(runner, "parallel_map", _no_workers)
        with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
            call(value)


def _no_workers(fn, args_list, workers):
    raise AssertionError("workers started on a rejected argument")
