import hashlib
import math
import pickle
import types

import numpy as np
import pytest

from igdist import (
    ModelParams,
    conditioned_w_pool,
    derive_seed,
    derived_scalars,
    empirical_distance_law,
    extinction_frequency,
    ghost_scaling,
    labeled_growth,
    survival_prob,
    w_sample,
)
from igdist import bpsim, runner
from igdist.bpsim import simulate_batch
from igdist.errors import (
    ConvergenceError,
    PopulationCapError,
    SimulationError,
    ValidationError,
)
from igdist.graphgen import distance_jobs, sample_family_subsets

BIG_CAP = 10**12
DENSE = ModelParams(n=[3, 4], m=[5, 2], P=[[0.6, 0.0], [0.3, 0.9]])


def _rounds_only_subsets(rng, counts, universe):
    """Oracle: the subset sampler before families over half their
    universe were drawn as complements.  Every family runs the redraw
    rounds whole, so it is equal in law to `sample_family_subsets` on
    another random stream."""
    counts = np.asarray(counts, dtype=np.int64)
    base = np.repeat(np.arange(counts.size, dtype=np.int64) * universe, counts)
    keys = base + rng.integers(0, universe, size=base.size)
    keys.sort()
    while True:
        dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        if not dup.size:
            return keys
        keys[dup] = base[dup] + rng.integers(0, universe, size=dup.size)
        keys.sort()


def _no_workers(fn, args_list, workers):
    raise AssertionError("workers started on a rejected argument")


def _forest_digest(f):
    h = hashlib.sha256()
    for rec in f.generations:
        for a in (rec.types, rec.indices, rec.classes, rec.parent_rows):
            h.update(a.tobytes())
    h.update(f.edges_v.tobytes())
    h.update(f.edges_o.tobytes())
    return h.hexdigest()[:16]


class TestSimulate:
    def test_zero_probability_dies_immediately(self):
        p = ModelParams(n=[10], m=[10], P=[[0.0]])
        X, Y = simulate_batch(p, 0, 5, 1, seed=1)
        assert X[0, 0, 0] == 1
        assert not X[0, 1:].any()
        assert not Y[0].any()

    def test_deterministic(self, scalar4):
        a, _ = simulate_batch(scalar4, 0, 6, 1, seed=42)
        b, _ = simulate_batch(scalar4, 0, 6, 1, seed=42)
        assert (a == b).all()

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
            (ModelParams(n=[20, 30], m=[25, 15], P=[[0.05, 0.1], [0.0, 0.0]]), 0),
        ],
        ids=["scalar4", "two_by_two", "zero_row"],
    )
    def test_lone_replicate_matches_batch_of_one(self, request, model, start):
        # the lone run of `w_sample` on Python ints and the array path of
        # `simulate_batch` must draw the same stream and leave the
        # generator in the same state; zero_row's type-0 objects draw
        # type-1 vertices, whose zero P row skips every p_kj = 0 block.
        # w_sample reads only nu and tau, so zero_row, which has no
        # spectrum, gets positive stand-ins.
        if isinstance(model, str):
            p, spec = (request.getfixturevalue(f) for f in (model, f"{model}_spec"))
        else:
            p, spec = model, types.SimpleNamespace(nu=np.array([0.7, 1.3]), tau=1.5)
        for horizon in (1, 8, 10):
            for seed in range(20):
                lone, batch = np.random.default_rng(seed), np.random.default_rng(seed)
                w = w_sample(p, spec, start, horizon, lone, population_cap=BIG_CAP)
                X, _ = simulate_batch(p, start, horizon, 1, batch, population_cap=BIG_CAP)
                assert w == float(spec.nu @ X[0, -1]) * spec.tau**-horizon
                assert lone.bit_generator.state == batch.bit_generator.state

    @pytest.mark.parametrize(
        "side, model",
        [
            ("objects", ModelParams(n=[50], m=[20_000], P=[[0.1]])),
            ("vertices", ModelParams(n=[20_000], m=[50], P=[[0.1]])),
        ],
    )
    def test_lone_and_batch_hit_the_cap_alike(self, side, model):
        # the cap trips at generation 2 on the named side: on objects,
        # each vertex has ~2000 objects, and on vertices, each object
        # has ~2000 vertices.  Both runs name the same generation and
        # count, and an uncapped run on the same seed shows the side.
        spec = derived_scalars(model)
        cap = 100_000
        for seed in range(5):
            errors = []
            for run in (
                lambda: w_sample(model, spec, 0, 6, seed, population_cap=cap),
                lambda: simulate_batch(model, 0, 6, 1, seed, population_cap=cap),
            ):
                with pytest.raises(PopulationCapError) as exc:
                    run()
                errors.append((exc.value.generation, exc.value.count))
            assert errors[0] == errors[1]
            generation, count = errors[0]
            assert generation == 2
            X, Y = simulate_batch(model, 0, generation, 1, seed, population_cap=BIG_CAP)
            y, x = int(Y[0, -1].sum()), int(X[0, -1].sum())
            if side == "objects":
                assert count == y > cap
            else:
                assert y <= cap < x == count

    def test_population_cap_names_generation(self):
        p = ModelParams(n=[1000], m=[1000], P=[[0.02]])  # tau = 400
        with pytest.raises(PopulationCapError, match="generation") as exc:
            simulate_batch(p, 0, 8, 1, seed=2, population_cap=10_000)
        assert exc.value.generation >= 1

    def test_population_cap_error_pickles(self):
        # a cap hit in a worker process reaches the caller pickled
        err = PopulationCapError(3, 10, 5)
        copy = pickle.loads(pickle.dumps(err))
        assert type(copy) is PopulationCapError
        assert (copy.generation, copy.count, copy.cap) == (3, 10, 5)
        assert str(copy) == str(err)

    def test_start_validation(self, scalar4):
        with pytest.raises(ValidationError, match="invalid vertex type"):
            simulate_batch(scalar4, 5, 2, 1, seed=1)
        X, _ = simulate_batch(scalar4, np.int64(0), 1, 1, seed=1)
        assert X[0, 0, 0] == 1

    @pytest.mark.parametrize("bad", [5, -1, [0], True, 0.0])
    @pytest.mark.parametrize(
        "run",
        [
            lambda p, k: simulate_batch(p, k, 2, 3, seed=1),
            lambda p, k: extinction_frequency(p, k, 2, 3, seed=1),
            lambda p, k: labeled_growth(p, 0, k, 1, seed=1),
            lambda p, k: empirical_distance_law(p, k, 0, reps=1, seed=1),
            lambda p, k: distance_jobs(p, 0, k, reps=1, seed=1),
            lambda p, k: ghost_scaling(p, derived_scalars(p), 1, 2, 1, k1=k),
            lambda p, k: ghost_scaling(p, derived_scalars(p), 1, 2, 1, k2=k),
        ],
        ids=["simulate_batch", "extinction_frequency", "labeled_growth",
             "empirical_distance_law", "distance_jobs", "ghost_scaling.k1",
             "ghost_scaling.k2"],
    )
    def test_every_run_rejects_a_bad_vertex_type(self, two_by_two, run, bad, monkeypatch):
        # one check for every typed start, made before any worker starts;
        # a negative id would otherwise wrap around to the last type
        monkeypatch.setattr(runner, "parallel_map", _no_workers)
        with pytest.raises(ValidationError, match="invalid vertex type"):
            run(two_by_two, bad)


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
            X, _ = simulate_batch(scalar4, 0, 6, 1, seed)
            survived = bool(X[0, -1].any())
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

    def test_extinction_frequency_rejects_negative_horizon(self, scalar4):
        with pytest.raises(ValidationError, match="horizon must be >= 0"):
            extinction_frequency(scalar4, 0, -3, 10, seed=1)

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

    @pytest.mark.parametrize("model, start", [("scalar4", 0), ("two_by_two", 1)])
    def test_one_stream_equals_substream_per_attempt_in_law(
        self, request, model, start
    ):
        # the per-attempt sampler this pool replaced, kept as the oracle:
        # attempt i runs on its own substream (seed, "w", i).  Two-sample
        # KS on 2000-draw pools at horizon 8; seeds and bound fixed before
        # the first run.
        from scipy import stats

        p = request.getfixturevalue(model)
        spec = request.getfixturevalue(f"{model}_spec")
        pool = conditioned_w_pool(p, spec, start, 8, 2000, seed=41)
        oracle = []
        attempt = 0
        while len(oracle) < 2000:
            w = w_sample(p, spec, start, 8, derive_seed(42, "w", attempt))
            attempt += 1
            if w > 0.0:
                oracle.append(w)
        assert stats.ks_2samp(pool, oracle).pvalue > 1e-3

    def test_pools_bytes_pinned(self, scalar2, scalar2_spec, two_by_two, two_by_two_spec):
        # sha256 of the pools' bytes, recorded before `w_sample` ran the
        # lone replicate on its own
        want = {
            (1, None): "b4de3db729708588d79a27b9bf3cb5668a7714a3f01ee1245d6216a79e84dff7",
            (2, None): "98a8e505624cc7ce368a35cdcd82091a181560bd1830201c1f97ed1350602314",
            (3, None): "65337e191dce469b04a74b133406d1cc6a25ea6b2e4fd99cce30b6563abd9590",
            (1, 0): "123f97a44103a460818a31fda0f78380a3071f06bd63a31061da82c5479c464b",
            (1, 1): "d09af4f5a27860ac13098f36ff1a2b44a49f13e106ff6e5b47443cfc3540d3d4",
            (2, 0): "09f934c1b845c518d92aff030f97861e69a916bdcf673ff0a9633c5104c33e22",
            (2, 1): "febb5711e843518ae261352d0703716e3fd62ece5edf225bd5097f65e91c7d74",
            (3, 0): "0c6e8243e9021e192f605255632e611ff1cd750554071a06ab91226a47053409",
            (3, 1): "6ef580b8647990ce148bd92866ff9e7582743a810a46f9635ed6e801db90215d",
        }
        for (seed, start), hexdigest in want.items():
            if start is None:  # scalar2 at the headline horizon
                pool = conditioned_w_pool(scalar2, scalar2_spec, 0, 14, 120, seed)
            else:
                pool = conditioned_w_pool(
                    two_by_two, two_by_two_spec, start, 8, 120, seed,
                    population_cap=BIG_CAP,
                )
            assert hashlib.sha256(pool.tobytes()).hexdigest() == hexdigest
        # zero_row of test_lone_replicate_matches_batch_of_one, whose
        # p_kj = 0 blocks are not offspring blocks, with its stand-ins
        zero_row = ModelParams(n=[20, 30], m=[25, 15], P=[[0.05, 0.1], [0.0, 0.0]])
        spec = types.SimpleNamespace(nu=np.array([0.7, 1.3]), tau=1.5)
        for seed, hexdigest in (
            (1, "cd8ecaf3a18d6d28617ad113d89a02ae29c8e6f05d808ec1a7266f4ebd0b3eef"),
            (2, "a73c5c0bcceac8bd8d743569dff1f9dcea2d5bf844566d64ea5f9912359b966a"),
            (3, "b09fc035396d4c58c5591bf88f123de8b53a822f1e2dc3e52e30580ee02fb9b6"),
        ):
            pool = conditioned_w_pool(
                zero_row, spec, 0, 8, 120, seed, population_cap=BIG_CAP
            )
            assert hashlib.sha256(pool.tobytes()).hexdigest() == hexdigest

    def test_every_attempt_is_one_w_sample_call(
        self, monkeypatch, scalar2, scalar2_spec
    ):
        # a traced benchmark counts pool attempts as `w_sample` calls
        # made inside `conditioned_w_pool`
        want = conditioned_w_pool(scalar2, scalar2_spec, 0, 10, 60, seed=4)
        draws = []

        def counted(*args, **kwargs):
            draws.append(w_sample(*args, **kwargs))
            return draws[-1]

        monkeypatch.setattr(bpsim, "w_sample", counted)
        pool = conditioned_w_pool(scalar2, scalar2_spec, 0, 10, 60, seed=4)
        assert pool.tobytes() == want.tobytes()
        assert len(draws) > len(pool) and draws[-1] > 0.0
        assert [w for w in draws if w > 0.0] == pool.tolist()

    @pytest.mark.parametrize("pool_size", [True, 2.5, 2.0, "2"])
    def test_non_integer_pool_size_rejected(self, scalar4, scalar4_spec, pool_size):
        # a pool size is a count: a float or a bool is refused, not
        # rounded up or read as 1
        with pytest.raises(ValidationError, match="pool_size must be an integer"):
            conditioned_w_pool(scalar4, scalar4_spec, 0, 6, pool_size, seed=1)

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

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize(
        "model, k1, k2, depth",
        [("two_by_two", 0, 1, 4), ("dense", 1, 1, 2), ("rank1_fixture", 0, 1, 3)],
    )
    def test_forest_structure(self, request, model, k1, k2, depth, prune):
        # the tree every coupling must return, read from its records
        # alone: parent rows, indices in range and distinct among
        # siblings of one type, edges as (parent, child)
        # id pairs of the class 1 and 2 children of kept parents, and
        # ghost tallies as the per-generation counts of classes != 1
        if model == "dense":
            p = DENSE
        elif model == "rank1_fixture":
            p = request.getfixturevalue(model)[1]
        else:
            p = request.getfixturevalue(model)
        sizes = {"X": p.n, "Y": p.m}
        off = {s: np.concatenate([[0], np.cumsum(c)]) for s, c in sizes.items()}
        for seed in range(1, 6):
            f = labeled_growth(p, k1, k2, depth, seed, prune_ghosts=prune)
            gens = f.generations
            assert gens[0].parent_rows.tolist() == [-1, -1]
            gid = [off[r.side][r.types] + r.indices for r in gens]
            ghosts = {"X": np.zeros_like(f.ghost_x), "Y": np.zeros_like(f.ghost_y)}
            lo = 0
            for g, rec in enumerate(gens):
                assert ((rec.indices >= 0) & (rec.indices < sizes[rec.side][rec.types])).all()
                ghosts[rec.side][(g + 1) // 2] += np.bincount(
                    rec.types[rec.classes != 1], minlength=len(sizes[rec.side])
                )
                if g == 0:
                    continue
                prev = gens[g - 1]
                assert rec.side != prev.side
                assert ((rec.parent_rows >= 0) & (rec.parent_rows < prev.size())).all()
                # siblings of one type carry distinct indices
                family = zip(rec.parent_rows.tolist(), rec.types.tolist(), rec.indices.tolist())
                assert len(set(family)) == rec.size()
                linked = rec.classes != 0
                assert (prev.classes[rec.parent_rows[linked]] == 1).all()
                pairs = [gid[g - 1][rec.parent_rows[linked]], gid[g][linked]]
                if rec.side == "X":
                    pairs.reverse()
                hi = lo + int(linked.sum())
                got = sorted(zip(f.edges_v[lo:hi].tolist(), f.edges_o[lo:hi].tolist()))
                assert got == sorted(zip(*(a.tolist() for a in pairs)))
                lo = hi
            assert lo == f.edges_v.size == f.edges_o.size
            assert (f.ghost_x == ghosts["X"]).all() and (f.ghost_y == ghosts["Y"]).all()

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

    def test_cap_checked_before_any_index_is_drawn(self, monkeypatch):
        # generation 1 has about 2 * 180 objects and generation 2 about
        # 360 * 180 vertices; the cap must stop generation 2 once its
        # counts are known, before any of its subsets is drawn
        drawn = []

        def watched(rng, counts, universe):
            drawn.append(int(np.sum(counts)))
            if drawn[-1] > 10_000:
                raise AssertionError("subsets drawn past the cap")
            return sample_family_subsets(rng, counts, universe)

        monkeypatch.setattr("igdist.bpsim.sample_family_subsets", watched)
        p = ModelParams(n=[200], m=[200], P=[[0.9]])
        with pytest.raises(PopulationCapError, match="generation 2"):
            labeled_growth(p, 0, 0, depth=1, seed=3, population_cap=10_000)
        assert len(drawn) == 1  # generation 1's one object type

    def test_depth_validation(self, scalar4):
        with pytest.raises(ValidationError, match="depth"):
            labeled_growth(scalar4, 0, 0, depth=0, seed=1)

    @pytest.mark.parametrize(
        "model, k1, k2, depth, seed, prune, digest, ghost_x, ghost_y, distance",
        [
            ("two_by_two", 0, 1, 4, 4, False, "2d33b03f4f2e2c90",
             [[0, 0], [0, 0], [0, 0], [3, 5], [45, 29]],
             [[0, 0], [0, 0], [0, 0], [0, 1], [22, 13]], math.inf),
            ("two_by_two", 0, 1, 4, 4, True, "e05c673165451099",
             [[0, 0], [0, 0], [0, 0], [3, 2], [29, 20]],
             [[0, 0], [0, 0], [0, 0], [0, 1], [9, 8]], math.inf),
            ("two_by_two", 0, 1, 4, 5, False, "2ab9a3b8fe38c741",
             [[0, 0], [0, 0], [0, 2], [3, 3], [26, 18]],
             [[0, 0], [0, 0], [0, 0], [0, 3], [10, 7]], 4),
            ("dense_zero_block", 1, 1, 2, 2, False, "cdece2edf88d9a49",
             [[0, 0], [3, 13], [78, 149]], [[0, 0], [0, 1], [38, 27]], 1),
            ("dense_zero_block", 1, 1, 2, 2, True, "9b37e71f55491f83",
             [[0, 0], [3, 9], [6, 2]], [[0, 0], [0, 1], [11, 4]], 1),
        ],
        ids=["2x2", "2x2-pruned", "2x2-connected", "dense", "dense-pruned"],
    )
    def test_stream_pinned(
        self, request, model, k1, k2, depth, seed, prune, digest, ghost_x,
        ghost_y, distance,
    ):
        # exact values of this implementation's random stream: all child
        # counts are drawn first, then the child types' indices in
        # ascending type order, and a repeated fresh index is class 2
        # after its first occurrence; both models produce
        # class-2 children, the third 2x2 case joins the roots at a
        # distance above 1, and the second model has a zero block and
        # p_kj > 1/2, so some families are drawn as complements
        p = request.getfixturevalue("two_by_two") if model == "two_by_two" else DENSE
        f = labeled_growth(p, k1, k2, depth, seed, prune_ghosts=prune)
        assert _forest_digest(f) == digest
        assert f.ghost_x.tolist() == ghost_x
        assert f.ghost_y.tolist() == ghost_y
        assert f.distance() == distance

    @pytest.mark.parametrize(
        "prune, digest", [(False, "e1f4dea46ab65533"), (True, "c255ef4d04ab993e")]
    )
    def test_rounds_only_oracle_is_the_former_stream(self, monkeypatch, prune, digest):
        # the oracle reproduces the dense pins from before families over
        # half their universe were drawn as complements
        monkeypatch.setattr("igdist.bpsim.sample_family_subsets", _rounds_only_subsets)
        f = labeled_growth(DENSE, 1, 1, 2, 2, prune_ghosts=prune)
        assert _forest_digest(f) == digest

    def test_complement_draw_equal_in_law_to_rounds_only(self, monkeypatch):
        # DENSE has families over half their universe.  2000 forests at
        # depth 2 from each sampler, on separate seeds: every ghost-tally
        # mean, P(d > 1) and P(d = inf) of the root-to-root distance
        # agree within 4 two-sample SE.  Replicates, seed and bound were
        # fixed before the first run.
        reps, seed = 2000, 37

        def run(label):
            tallies, dist = [], []
            for r in range(reps):
                f = labeled_growth(DENSE, 1, 1, 2, derive_seed(seed, label, r))
                tallies.append(np.concatenate([f.ghost_x.ravel(), f.ghost_y.ravel()]))
                dist.append(f.distance())
            d = np.asarray(dist)
            return np.column_stack([tallies, d > 1, d == math.inf]).astype(float)

        new = run("new")
        monkeypatch.setattr("igdist.bpsim.sample_family_subsets", _rounds_only_subsets)
        oracle = run("oracle")
        se = np.sqrt((new.var(axis=0) + oracle.var(axis=0)) / reps)
        diff = np.abs(new.mean(axis=0) - oracle.mean(axis=0))
        assert (diff <= 4 * se).all(), (diff, se)


class TestGhostScaling:
    def test_zero_reps_rejected(self, scalar4, scalar4_spec):
        with pytest.raises(ValidationError, match="reps must be >= 1"):
            ghost_scaling(scalar4, scalar4_spec, 3, 0, seed=1)

    def test_rows_pinned(self, scalar4, scalar4_spec):
        # values of the per-replicate ghost streams (seed, "ghost", r),
        # recorded before replicate_blocks ran them; one worker or two
        want = [
            (1, 0.05, 0.0, 0.19531249999999997, 0.0),
            (2, 2.45, 0.45, 0.5981445312499999, 1.7578124999999996),
            (3, 35.75, 10.0, 0.5455017089843749, 2.4414062499999996),
        ]
        for workers in (1, 2):
            rows = ghost_scaling(
                scalar4, scalar4_spec, depth=3, reps=20, seed=9, workers=workers
            )
            got = [
                (r["i"], r["ghostX_mean"], r["ghostY_mean"], r["ratioX"], r["ratioY"])
                for r in rows
            ]
            assert got == want

    def test_zero_probability_no_ghosts(self, scalar4_spec):
        p = ModelParams(n=[10], m=[10], P=[[0.0]])
        rows = ghost_scaling(p, scalar4_spec, 3, 50, seed=1)
        assert all(r["ghostX_mean"] == 0.0 and r["ghostY_mean"] == 0.0 for r in rows)

    def test_two_scales_comparable_after_normalization(self):
        # same tau, populations 100x apart: dividing by tau^{2i} e(m,n)^4
        # brings the ghost means within a factor of 10
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
