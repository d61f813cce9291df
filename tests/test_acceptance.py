"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured margin and runtime (run with -s to see
them).  Tolerances are fixed here, not calibrated."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from igdist import (
    ModelParams,
    Rank1Params,
    SamplingScheme,
    WPools,
    cdf_U_prime,
    conditioned_w_pool,
    degree_bound,
    derive_seed,
    derived_scalars,
    empirical_distance_law,
    extinction_frequency,
    ghost_scaling,
    identity_report,
    labeled_growth,
    lambda_value,
    mean_matrices,
    p_no_collision_exact,
    perron,
    rank1_build,
    sample_U_tilde,
    survival_prob,
)
from igdist.approx import exceed_prob
from igdist.bpsim import simulate_batch
from igdist.coincidence import _exact_class_prob, bounds
from igdist.config import config_from_dict
from igdist.graphgen import DistanceLaw
from igdist.runner import run

BIG_CAP = 10**12


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"criterion {num:2d}: {status} - {detail} [{elapsed:.1f}s / {budget:.0f}s]"
    )
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s over budget"


def random_supercritical(rng):
    K = int(rng.integers(1, 6))
    J = int(rng.integers(1, 6))
    n = rng.integers(2, 10_001, size=K)
    m = rng.integers(2, 10_001, size=J)
    P = rng.uniform(0.05, 1.0, size=(K, J))
    params = ModelParams(n=n, m=m, P=P)
    M_X, _ = mean_matrices(params)
    tau, _, _ = perron(M_X)
    target = float(rng.uniform(1.3, 8.0))
    return ModelParams(n=n, m=m, P=np.minimum(P * math.sqrt(target / tau), 1.0))


def test_criterion_01_spectral_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(100):
        spec = derived_scalars(random_supercritical(rng))
        assert spec.tau > 1.0
        worst = max(worst, max(identity_report(spec).values()))
    ok = worst <= 1e-10
    report(1, ok, f"100 random models, worst residual {worst:.2e} <= 1e-10",
           time.time() - t0, 10.0)


def test_criterion_02_rank1_agreement():
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 6))
        J = int(rng.integers(1, 6))
        r = Rank1Params(
            alpha=rng.uniform(0.001, 0.08, K), beta=rng.uniform(0.1, 1.0, J)
        )
        n = rng.integers(2, 5001, K)
        m = rng.integers(2, 5001, J)
        params, tau_cf, mu_cf, nu_cf = rank1_build(r, n, m)
        M_X, _ = mean_matrices(params)
        tau, mu, nu = perron(M_X)
        worst = max(
            worst,
            abs(tau - tau_cf) / tau,
            float(np.abs(mu - mu_cf).max() / np.abs(mu).max()),
            float(np.abs(nu - nu_cf).max() / np.abs(nu).max()),
        )
    ok = worst <= 1e-8
    report(2, ok, f"100 random rank-1 models, worst rel diff {worst:.2e} <= 1e-8",
           time.time() - t0, 5.0)


def test_criterion_03_rayleigh_bound():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst_slack = math.inf
    for _ in range(200):
        K = int(rng.integers(1, 5))
        J = int(rng.integers(2, 5))
        n = rng.integers(2, 500, K)
        m = rng.integers(10, 500, J)
        D = rng.uniform(0.5, 4.0, K)
        raw = rng.uniform(0.1, 1.0, (K, J))
        P = raw * (D / (raw * m).sum(axis=1))[:, None]
        _, _, slack = degree_bound(ModelParams(n=n, m=m, P=P))
        worst_slack = min(worst_slack, slack)
    worst_eq = 0.0
    for _ in range(20):
        K = int(rng.integers(1, 5))
        J = int(rng.integers(1, 5))
        n = rng.integers(2, 500, K)
        m = rng.integers(10, 500, J)
        D = rng.uniform(0.5, 4.0, K)
        P = np.repeat((D / m.sum())[:, None], J, axis=1)
        _, _, slack = degree_bound(ModelParams(n=n, m=m, P=P))
        worst_eq = max(worst_eq, abs(slack))
    ok = worst_slack >= -1e-9 and worst_eq <= 1e-9
    report(
        3, ok,
        f"200 random: min slack {worst_slack:.2e} >= -1e-9; "
        f"homogeneous |slack| {worst_eq:.2e} <= 1e-9",
        time.time() - t0, 10.0,
    )


def _draw_options(w, max_size=3):
    singles = [(z,) for z in range(0, min(max_size, w) + 1)]
    pairs = [
        (z1, z2)
        for z1 in range(1, min(max_size, w) + 1)
        for z2 in range(z1, min(max_size, w) + 1)
    ]
    return singles + pairs


def test_criterion_04_poisson_coincidence_grid():
    t0 = time.time()
    cells = failures = 0
    closed_checked = 0
    for w in range(2, 9):
        options = _draw_options(w)
        for ws in (0, 1):
            for da in options:
                for db in options:
                    s = SamplingScheme(
                        w=[w], draws_a=[da], draws_b=[db], excluded=[ws]
                    )
                    p0 = p_no_collision_exact(s)
                    lam = lambda_value(s)
                    b1, b1s = bounds(s)
                    cells += 1
                    if abs(p0 - math.exp(-lam)) > b1 + b1s:
                        failures += 1
                    if len(da) == 1 and len(db) == 1 and ws == 0:
                        closed = Fraction(
                            math.comb(w - da[0], db[0])
                            if w - da[0] >= db[0]
                            else 0,
                            math.comb(w, db[0]),
                        )
                        conv = _exact_class_prob(w, 0, da, db)
                        assert closed == conv
                        closed_checked += 1
    # two-class cells over the complete product of a reduced option set
    for w1 in (2, 4, 8):
        for w2 in (2, 4, 8):
            opts1 = [(1,), (min(3, w1),), (1, 2) if w1 >= 3 else (1, 1)]
            opts2 = [(1,), (min(3, w2),), (1, 2) if w2 >= 3 else (1, 1)]
            for da1 in opts1:
                for db1 in opts1:
                    for da2 in opts2:
                        for db2 in opts2:
                            for ws in ((0, 0), (1, 1)):
                                s = SamplingScheme(
                                    w=[w1, w2],
                                    draws_a=[da1, da2],
                                    draws_b=[db1, db2],
                                    excluded=list(ws),
                                )
                                p0 = p_no_collision_exact(s)
                                lam = lambda_value(s)
                                b1, b1s = bounds(s)
                                cells += 1
                                if abs(p0 - math.exp(-lam)) > b1 + b1s:
                                    failures += 1
    ok = failures == 0 and closed_checked > 0
    report(
        4, ok,
        f"{cells} grid cells, {failures} bound failures; "
        f"{closed_checked} closed-form/enumeration identities",
        time.time() - t0, 60.0,
    )


def test_criterion_05_martingale_and_mean_recursions(
    scalar4, scalar4_spec, two_by_two, two_by_two_spec
):
    t0 = time.time()
    reps = 100_000
    ok = True
    details = []
    for params, spec, tag in (
        (scalar4, scalar4_spec, "scalar"),
        (two_by_two, two_by_two_spec, "2x2"),
    ):
        X, _ = simulate_batch(params, 0, 10, reps, seed=3, population_cap=BIG_CAP)
        for i in (2, 6, 10):
            w = (X[:, i, :].astype(float) @ spec.nu) * spec.tau**-i
            dev = abs(w.mean() - spec.nu[0])
            lim = 3 * w.std() / math.sqrt(reps)
            ok &= dev <= lim
            details.append(f"{tag} W_{i} dev {dev:.4f}<= {lim:.4f}")
        x0 = np.zeros(params.K)
        x0[0] = 1.0
        power = np.eye(params.K)
        for i in range(1, 5):
            power = power @ spec.M_X
            want = x0 @ power
            for k in range(params.K):
                vals = X[:, i, k]
                dev = abs(vals.mean() - want[k])
                lim = 3 * vals.std() / math.sqrt(reps)
                ok &= dev <= lim
    report(5, ok, f"{len(details)} martingale + mean-recursion checks at 1e5 reps",
           time.time() - t0, 60.0)


def test_criterion_06_extinction_fixed_point(two_by_two, rank1_fixture):
    t0 = time.time()
    n = 1000
    sets = [
        ModelParams(n=[n], m=[n], P=[[math.sqrt(1.5) / n]]),  # tau = 1.5
        ModelParams(n=[n], m=[n], P=[[math.sqrt(2.0) / n]]),  # tau = 2
        ModelParams(n=[n], m=[n], P=[[0.002]]),               # tau = 4
        two_by_two,                                           # tau ~ 2.62
        rank1_fixture[1],                                     # tau = 4.9
    ]
    reps = 10_000
    ok = True
    worst_sigma = 0.0
    for idx, params in enumerate(sets):
        q_fp = 1.0 - survival_prob(params)[0]
        q_sim = extinction_frequency(params, 0, 30, reps, seed=600 + idx)
        se = math.sqrt(max(q_sim * (1 - q_sim), 1e-12) / reps)
        sigma = abs(q_sim - q_fp) / se
        worst_sigma = max(worst_sigma, sigma)
        ok &= abs(q_sim - q_fp) <= 3 * se
    report(
        6, ok,
        f"5 parameter sets (tau 1.5..4.9), worst |dev| {worst_sigma:.2f} SE <= 3 SE",
        time.time() - t0, 120.0,
    )


def test_criterion_07_coupling_exactness_tv():
    t0 = time.time()
    n = 500
    params = ModelParams(n=[n], m=[n], P=[[math.sqrt(2.0) / n]])
    assert derived_scalars(params).tau == pytest.approx(2.0, rel=1e-12)
    reps = 2000
    forest_d = [
        labeled_growth(
            params, 0, 0, depth=6, seed=derive_seed(71, "forest", r),
            prune_ghosts=True,
        ).distance()
        for r in range(reps)
    ]
    law_forest = DistanceLaw.from_samples(forest_d)
    law_graph = empirical_distance_law(params, 0, 0, reps, seed=72)
    # common refinement: exact cells 1..11 plus one ">11" cell (the
    # depth-6 coupling resolves distances up to 12, direct sampling all)
    cut = 11

    def hist(law):
        h = [law.counts.get(d, 0) / law.total for d in range(1, cut + 1)]
        h.append(law.prob_greater(cut))
        return np.array(h)

    tv = 0.5 * float(np.abs(hist(law_forest) - hist(law_graph)).sum())
    report(7, tv <= 0.05, f"TV(coupling, direct) = {tv:.4f} <= 0.05 at 2000 seeds",
           time.time() - t0, 300.0)


def test_criterion_08_headline_distance_approximation(scalar2, scalar2_spec):
    t0 = time.time()
    spec = scalar2_spec
    assert spec.i0 == 13
    assert spec.phi_n == pytest.approx(0.8192, rel=1e-10)
    assert spec.kappa == pytest.approx(2.0, rel=1e-10)
    law = empirical_distance_law(scalar2, 0, 0, 2000, seed=81, workers=4)
    surv = survival_prob(scalar2)[0]
    pool_a = conditioned_w_pool(scalar2, spec, 0, 14, 5000, seed=82)
    pool_b = conditioned_w_pool(scalar2, spec, 0, 14, 5000, seed=83)
    pools = WPools(
        pool_a=pool_a, pool_b=pool_b, surv_a=surv, surv_b=surv, horizon=14
    )
    max_diff = 0.0
    for u in range(-2, 4):
        emp = law.prob_greater(spec.i0 + u)
        appr = exceed_prob(spec, pools, u)
        max_diff = max(max_diff, abs(emp - appr))
    defect_diff = abs(law.prob_infinite() - (1.0 - surv * surv))
    ok = max_diff <= 0.05 and defect_diff <= 0.05
    report(
        8, ok,
        f"max |emp - approx| over u in -2..3: {max_diff:.4f} <= 0.05; "
        f"defect diff {defect_diff:.4f} <= 0.05",
        time.time() - t0, 900.0,
    )


def test_criterion_09_gumbel_mixture_consistency(scalar4, scalar4_spec):
    t0 = time.time()
    # point-mass closed form
    point = WPools(pool_a=[1.0], pool_b=[1.0], surv_a=1.0, surv_b=1.0, horizon=10)
    closed = cdf_U_prime(scalar4_spec, point, 0.0)
    ok = abs(closed - 0.73640) <= 5e-6
    # KS between sampled and analytic mixture over shared pools
    surv = survival_prob(scalar4)[0]
    pool_a = conditioned_w_pool(
        scalar4, scalar4_spec, 0, 10, 60, seed=91, population_cap=BIG_CAP
    )
    pool_b = conditioned_w_pool(
        scalar4, scalar4_spec, 0, 10, 60, seed=92, population_cap=BIG_CAP
    )
    pools = WPools(pool_a=pool_a, pool_b=pool_b, surv_a=surv, surv_b=surv, horizon=10)
    n = 10_000
    samples = np.sort(sample_U_tilde(scalar4_spec, pools, n, seed=93))
    prod = np.multiply.outer(pool_a, pool_b).ravel()
    scale = scalar4_spec.kappa * scalar4_spec.tau**samples
    cdf = 1.0 - np.exp(-np.multiply.outer(scale, prod)).mean(axis=1)
    grid = np.arange(1, n + 1) / n
    ks = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / n)).max())
    ok &= ks <= 1.63e-2
    report(
        9, ok,
        f"KS {ks:.4f} <= 0.0163 at 1e4 draws; point-mass cdf {closed:.5f} = 0.73640",
        time.time() - t0, 30.0,
    )


def test_criterion_10_ghost_scaling(scalar4, scalar4_spec):
    t0 = time.time()
    rows = ghost_scaling(scalar4, scalar4_spec, depth=5, reps=2000, seed=101)
    by_i = {r["i"]: r for r in rows}
    xs = np.array([2, 3, 4, 5], dtype=float)
    ys = np.log([by_i[i]["ratioX"] for i in (2, 3, 4, 5)])
    slope = float(np.polyfit(xs, ys, 1)[0])
    report(
        10, slope <= 0.1,
        f"log-slope of ghost ratio over i=2..5: {slope:+.4f} <= 0.1",
        time.time() - t0, 300.0,
    )


def test_criterion_11_determinism_across_workers(tmp_path):
    t0 = time.time()
    base = {
        "model": {"n": [1000], "m": [1000], "P": [[0.002]]},
        "seed": 111,
        "reps": {"graph": 60, "pool": 80, "bp": 300},
        "horizon": 6,
        "depth": 3,
    }
    rank1_doc = {
        "rank1": {"alpha": [0.005, 0.004], "beta": [1.0], "n": [200, 300],
                  "m": [500]},
        "seed": 112,
        "reps": {"graph": 40, "pool": 50, "bp": 200},
        "horizon": 5,
        "depth": 2,
    }
    jobs = [
        ("spectral", base), ("graph-dist", base), ("bp", base),
        ("coincidence", base), ("approx", base), ("compare", base),
        ("ghosts", base), ("rank1", rank1_doc),
    ]
    mismatches = []
    compared = 0
    for sub, doc in jobs:
        cfg = config_from_dict(doc)
        out1 = run(sub, cfg, out_dir=tmp_path / f"{sub}-w1", workers=1)
        out8 = run(sub, cfg, out_dir=tmp_path / f"{sub}-w8", workers=8)
        for f1 in sorted(out1.glob("*")):
            if f1.name == "manifest.json":  # carries timestamps
                continue
            f8 = out8 / f1.name
            compared += 1
            if f1.read_bytes() != f8.read_bytes():
                mismatches.append(f"{sub}/{f1.name}")
    ok = not mismatches and compared > 0
    report(
        11, ok,
        f"{compared} result files byte-identical at workers 1 vs 8"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
        time.time() - t0, 300.0,
    )
