import math
import pickle

import numpy as np
import pytest

from igdist import (
    ModelParams,
    conditioned_w_pool,
    derive_seed,
    derived_scalars,
    extinction_frequency,
    labeled_growth,
    simulate,
    survival_prob,
    w_sample,
)
from igdist.bpsim import simulate_batch
from igdist.errors import (
    ConvergenceError,
    PopulationCapError,
    SimulationError,
    ValidationError,
)

BIG_CAP = 10**12


class TestSimulate:
    def test_zero_probability_dies_immediately(self):
        p = ModelParams(n=[10], m=[10], P=[[0.0]])
        t = simulate(p, 0, 5, seed=1)
        assert t.X[0][0] == 1
        assert all(x.sum() == 0 for x in t.X[1:])
        assert all(y.sum() == 0 for y in t.Y)

    def test_deterministic(self, scalar4):
        a = simulate(scalar4, 0, 6, seed=42)
        b = simulate(scalar4, 0, 6, seed=42)
        assert all((x == y).all() for x, y in zip(a.X, b.X))

    def test_mean_one_generation(self, scalar4):
        # E X(1) = tau = 4 and E Y(1) = p m = zeta = 2
        X, Y = simulate_batch(scalar4, 0, 1, 40_000, seed=7)
        x1 = X[:, 1, 0]
        y1 = Y[:, 0, 0]
        assert abs(x1.mean() - 4.0) <= 3 * x1.std() / math.sqrt(len(x1))
        assert abs(y1.mean() - 2.0) <= 3 * y1.std() / math.sqrt(len(y1))

    def test_mean_recursion_multitype(self, two_by_two, two_by_two_spec):
        # E X(i) = X(0)' M_X^i and E Y(i) = X(0)' M_X^(i-1) P N_Y
        s = two_by_two_spec
        reps = 40_000
        X, Y = simulate_batch(two_by_two, 0, 4, reps, seed=3, population_cap=BIG_CAP)
        x0 = np.array([1.0, 0.0])
        power = np.eye(2)
        for i in range(1, 5):
            y_want = (x0 @ power) @ (two_by_two.P * two_by_two.m)
            power = power @ s.M_X
            x_want = x0 @ power
            for k in range(2):
                vals = X[:, i, k]
                assert abs(vals.mean() - x_want[k]) <= 3 * vals.std() / math.sqrt(reps)
                vals = Y[:, i - 1, k]
                assert abs(vals.mean() - y_want[k]) <= 3 * vals.std() / math.sqrt(reps)

    @pytest.mark.parametrize(
        "model, start",
        [
            ("scalar4", 0),
            ("two_by_two", 1),
            (ModelParams(n=[20, 30], m=[25, 15], P=[[0.05, 0.1], [0.0, 0.0]]), [1, 1]),
        ],
        ids=["scalar4", "two_by_two", "zero_row"],
    )
    def test_lone_replicate_matches_batch_of_one(self, request, model, start):
        # the scalar and the array binomial paths must draw the same stream
        p = request.getfixturevalue(model) if isinstance(model, str) else model
        for seed in range(20):
            t = simulate(p, start, 8, seed, population_cap=BIG_CAP)
            X, Y = simulate_batch(p, start, 8, 1, seed, population_cap=BIG_CAP)
            assert (t.X == X[0]).all() and (t.Y == Y[0]).all()

    def test_population_cap_names_generation(self):
        p = ModelParams(n=[1000], m=[1000], P=[[0.02]])  # tau = 400
        with pytest.raises(PopulationCapError, match="generation") as exc:
            simulate(p, 0, 8, seed=2, population_cap=10_000)
        assert exc.value.generation >= 1

    def test_population_cap_error_pickles(self):
        # a cap hit in a worker process reaches the caller pickled
        err = PopulationCapError(3, 10, 5)
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is PopulationCapError
        assert (copy.generation, copy.count, copy.cap) == (3, 10, 5)
        assert str(copy) == str(err)

    def test_start_validation(self, scalar4):
        with pytest.raises(ValidationError, match="invalid start type"):
            simulate(scalar4, 5, 2, seed=1)
        with pytest.raises(ValidationError, match="nonempty"):
            simulate(scalar4, [0], 2, seed=1)
        with pytest.raises(ValidationError, match="exceeds available"):
            simulate(scalar4, [1001], 2, seed=1)
        t = simulate(scalar4, [2], 1, seed=1)
        assert t.X[0][0] == 2


class TestMartingale:
    def test_zero_model(self):
        p = ModelParams(n=[10], m=[10], P=[[0.0]])
        # tau is undefined for the zero model; build spec on a
        # supercritical one and reuse it for the subcritical run
        with pytest.raises(ValidationError):
            derived_scalars(p)

    def test_survival_iff_positive(self, scalar4, scalar4_spec):
        pos = neg = 0
        for r in range(200):
            seed = derive_seed(1, "t", r)
            survived = bool(simulate(scalar4, 0, 6, seed).X[-1].any())
            assert (w_sample(scalar4, scalar4_spec, 0, 6, seed) > 0.0) == survived
            pos += survived
            neg += not survived
        assert pos > 0 and neg > 0

    def test_martingale_mean_at_three_horizons(self, scalar4, scalar4_spec):
        for i in (2, 6, 10):
            X, _ = simulate_batch(
                scalar4, 0, i, 30_000, seed=100 + i, population_cap=BIG_CAP
            )
            w = (X[:, i, :] @ scalar4_spec.nu) * scalar4_spec.tau**-i
            assert abs(w.mean() - 1.0) <= 3 * w.std() / math.sqrt(len(w))

    def test_variance_stabilizes(self, scalar4, scalar4_spec):
        # Var(W_i) approaches Var(W); horizons 8 and 12 agree within
        # Monte Carlo error of the variance estimates
        reps = 60_000
        var = {}
        for i in (8, 12):
            X, _ = simulate_batch(
                scalar4, 0, i, reps, seed=55, population_cap=BIG_CAP
            )
            w = (X[:, i, :] @ scalar4_spec.nu) * scalar4_spec.tau**-i
            var[i] = w.var()
            # SE of a variance estimate: sqrt((m4 - m2^2)/reps)
            m2 = ((w - w.mean()) ** 2).mean()
            m4 = ((w - w.mean()) ** 4).mean()
            var[f"se{i}"] = math.sqrt((m4 - m2**2) / reps)
        assert abs(var[8] - var[12]) <= 3 * (var["se8"] + var["se12"])


class TestSurvival:
    def test_degenerate_models(self):
        assert survival_prob(ModelParams(n=[5], m=[5], P=[[0.0]]))[0] == 0.0
        assert survival_prob(ModelParams(n=[5], m=[5], P=[[1.0]]))[0] == 1.0

    def test_scalar4_against_simulation(self, scalar4):
        s = survival_prob(scalar4)[0]
        q_sim = extinction_frequency(scalar4, 0, 30, 10_000, seed=6)
        se = math.sqrt(q_sim * (1 - q_sim) / 10_000)
        assert abs((1 - s) - q_sim) <= 3 * se

    @pytest.mark.parametrize("start_type", [-1, 2])
    def test_extinction_frequency_rejects_bad_start_type(self, two_by_two, start_type):
        # a negative id would otherwise wrap around to the last type
        with pytest.raises(ValidationError, match="invalid vertex type"):
            extinction_frequency(two_by_two, start_type, 5, 10, seed=1)

    def test_extinction_frequency_rejects_zero_reps(self, scalar4):
        with pytest.raises(ValidationError, match="reps must be >= 1"):
            extinction_frequency(scalar4, 0, 5, 0, seed=1)

    def test_extinction_frequency_zero_model_is_one(self):
        p = ModelParams(n=[10, 5], m=[10, 4], P=[[0.0, 0.0], [0.0, 0.0]])
        assert extinction_frequency(p, 1, 5, 50, seed=1) == 1.0

    @pytest.mark.parametrize("start_type", [0, 1])
    def test_extinction_frequency_one_generation_exact(self, two_by_two, start_type):
        # P[X(1) = 0] = f_k(0) = prod_j (1 - p_kj + p_kj g_j(0))^m_j with
        # g_j(0) = prod_l (1 - p_lj)^n_l
        P = two_by_two.P
        g0 = np.prod((1.0 - P) ** two_by_two.n[:, None], axis=0)
        f0 = float(np.prod((1.0 - P[start_type] + P[start_type] * g0) ** two_by_two.m))
        reps = 20_000
        q_sim = extinction_frequency(two_by_two, start_type, 1, reps, seed=71)
        assert abs(q_sim - f0) <= 3 * math.sqrt(f0 * (1 - f0) / reps)

    def test_max_iter_exhausted_raises(self, scalar4):
        # scalar4 needs more than 3 iterations to reach tol
        with pytest.raises(ConvergenceError, match="after 3 iterations"):
            survival_prob(scalar4, max_iter=3)

    def test_subcritical_returns_zero(self):
        p = ModelParams(n=[100], m=[100], P=[[0.005]])  # tau = 0.25
        assert survival_prob(p)[0] == pytest.approx(0.0, abs=1e-9)

    def test_multitype_vector(self, two_by_two):
        s = survival_prob(two_by_two)
        assert s.shape == (2,)
        assert (s > 0.5).all() and (s < 1.0).all()


class TestConditionedPool:
    def test_mean_matches_inverse_survival(self, scalar4, scalar4_spec):
        pool = conditioned_w_pool(
            scalar4, scalar4_spec, 0, 12, 10_000, seed=2, population_cap=BIG_CAP
        )
        s = survival_prob(scalar4)[0]
        se = pool.std() / math.sqrt(len(pool))
        assert abs(pool.mean() - 1.0 / s) <= 3 * se
        assert (pool > 0).all()

    def test_deterministic(self, scalar4, scalar4_spec):
        a = conditioned_w_pool(scalar4, scalar4_spec, 0, 6, 100, seed=9)
        b = conditioned_w_pool(scalar4, scalar4_spec, 0, 6, 100, seed=9)
        assert (a == b).all()

    def test_survival_too_rare(self, scalar4_spec):
        p = ModelParams(n=[10], m=[10], P=[[0.0]])
        with pytest.raises(SimulationError, match="survival too rare"):
            conditioned_w_pool(p, scalar4_spec, 0, 5, 10, seed=1)


class TestLabeledGrowth:
    def test_zero_probability_roots_only(self):
        p = ModelParams(n=[5], m=[4], P=[[0.0]])
        f = labeled_growth(p, 0, 0, depth=3, seed=1)
        assert len(f.generations) == 1
        assert len(f.edges_v) == 0
        assert f.ghost_x.sum() == 0 and f.ghost_y.sum() == 0
        assert f.distance() == math.inf

    def test_complete_tiny_model_reuses_indices(self):
        p = ModelParams(n=[2], m=[2], P=[[1.0]])
        f = labeled_growth(p, 0, 0, depth=2, seed=3)
        assert f.ghost_y[1].sum() > 0  # duplicates in the first object wave
        assert f.distance() == 1

    def test_roots_distinct_same_type(self, scalar4):
        f = labeled_growth(scalar4, 0, 0, depth=1, seed=5)
        assert f.root_a != f.root_b

    def test_class1_indices_unique_per_type(self, two_by_two):
        for seed in range(10):
            f = labeled_growth(two_by_two, 0, 1, depth=4, seed=seed)
            for rec in f.generations:
                for t in np.unique(rec.types):
                    ix = rec.indices[(rec.types == t) & (rec.classes == 1)]
                    assert len(np.unique(ix)) == len(ix)

    def test_ghost_children_are_ghosts(self, two_by_two):
        f = labeled_growth(two_by_two, 0, 1, depth=4, seed=13)
        for g in range(1, len(f.generations)):
            rec = f.generations[g]
            parent_classes = f.generations[g - 1].classes[rec.parent_rows]
            child_of_ghost = parent_classes != 1
            assert (rec.classes[child_of_ghost] != 1).all()

    def test_deterministic(self, scalar4):
        a = labeled_growth(scalar4, 0, 0, depth=3, seed=21)
        b = labeled_growth(scalar4, 0, 0, depth=3, seed=21)
        assert a.distance() == b.distance()
        assert (a.edges_v == b.edges_v).all() and (a.edges_o == b.edges_o).all()

    def test_pruning_preserves_distance_law(self):
        # pruned and unpruned runs share the seed, hence the same kept
        # skeleton whenever ghosts never branch; compare distributions
        n = 300
        p = ModelParams(n=[n], m=[n], P=[[math.sqrt(2.0) / n]])
        d_full = [
            labeled_growth(p, 0, 0, 5, derive_seed(4, "a", r)).distance()
            for r in range(300)
        ]
        d_pruned = [
            labeled_growth(
                p, 0, 0, 5, derive_seed(4, "b", r), prune_ghosts=True
            ).distance()
            for r in range(300)
        ]
        vals = sorted({d for d in d_full + d_pruned if d != math.inf})
        tv = 0.5 * sum(
            abs(d_full.count(v) - d_pruned.count(v)) / 300.0 for v in vals
        ) + 0.5 * abs(
            d_full.count(math.inf) - d_pruned.count(math.inf)
        ) / 300.0
        assert tv <= 0.12

    def test_depth_validation(self, scalar4):
        with pytest.raises(ValidationError, match="depth"):
            labeled_growth(scalar4, 0, 0, depth=0, seed=1)


class TestGhostScaling:
    def test_zero_probability_no_ghosts(self, scalar4_spec):
        p = ModelParams(n=[10], m=[10], P=[[0.0]])
        rows = __import__("igdist").ghost_scaling(p, scalar4_spec, 3, 50, seed=1)
        assert all(r["ghostX_mean"] == 0.0 and r["ghostY_mean"] == 0.0 for r in rows)

    def test_two_scales_comparable_after_normalization(self):
        # same tau, populations 100x apart: dividing by tau^{2i} e(m,n)^4
        # brings the ghost means within a factor of 10
        from igdist import derived_scalars, ghost_scaling

        ratios = []
        for n in (100, 10_000):
            p = ModelParams(n=[n], m=[n], P=[[2.0 / n]])  # tau = 4
            s = derived_scalars(p)
            rows = ghost_scaling(p, s, depth=3, reps=400, seed=55)
            ratios.append(rows[2]["ratioX"])
        big, small = max(ratios), min(ratios)
        assert small > 0.0
        assert big / small <= 10.0


class TestTypeProportions:
    def test_stable_type_distribution_given_survival(
        self, two_by_two, two_by_two_spec
    ):
        # conditional on survival to generation 10, type proportions
        # approach the left eigenvectors on both sides
        s = two_by_two_spec
        X, Y = simulate_batch(
            two_by_two, 0, 10, 4000, seed=8, population_cap=BIG_CAP
        )
        alive = X[:, 10, :].sum(axis=1) > 0
        xn = X[alive, 10, :].astype(float)
        xn /= xn.sum(axis=1, keepdims=True)
        assert np.abs(xn.mean(axis=0) - s.mu).max() < 0.02
        yn = Y[alive, 9, :].astype(float)
        yn /= yn.sum(axis=1, keepdims=True)
        assert np.abs(yn.mean(axis=0) - s.mu_tilde).max() < 0.02
