"""Workload definitions: inputs made from a seed, the timed pipelines,
and the statistical checks that decide whether each call succeeded.

Nothing here imports igdist at module level; run.py generates inputs
with numpy alone, and only the child process (see child.py) imports the
program.  Checks compare outputs against laws, never against byte
digests, so a later sampler that is equal in law still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import cpu_seconds

DEFAULT_SEED = 1
# Kept out of every tuning run; a change that claims a gain confirms it here.
HELD_OUT_SEED = 7919

# Tolerance, in Monte Carlo standard errors, for the law checks.  The
# n = 10^4 approximation bias (0.015-0.027 on the exceedances) is under
# one SE at the replicate counts below, so a false alarm needs a 4-sigma
# excursion.
Z_TOL = 5.0
# Monte Carlo against exact coincidence.  At 3 SE a correct sampler fails
# on 0.27% of seeds (seeds 19 and 44 of 0..299 do), which would report a
# healthy tree as failing; 4 SE still catches a 0.045 shift at MC_REPS.
Z_MC_EXACT = 4.0

SCALAR2 = {"n": [10000], "m": [10000], "P": [[0.00014142135623730951]]}
TWO_BY_TWO = {
    "n": [300, 400],
    "m": [350, 450],
    "P": [[0.004, 0.001], [0.0008, 0.003]],
}

U_WINDOW = range(-2, 4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict
    k1: int = 1  # 1-based, as in config files
    k2: int = 1
    reps: dict = field(default_factory=dict)
    horizon: int | None = None
    workers: int = 1
    pipelines: tuple = ()  # runner subcommands; empty for the library workload


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="headline-tau2",
            why=(
                "the paper's headline compare on scalar2 at n=10^4, two "
                "workers; graph sampling dominates"
            ),
            model=SCALAR2,
            reps={"graph": 8, "pool": 120},
            horizon=14,
            workers=2,
            pipelines=("compare",),
        ),
        Workload(
            name="multitype-2x2",
            why=(
                "compare, bp and ghosts on the dense 2x2 model at one worker; "
                "branching-process loops dominate"
            ),
            model=TWO_BY_TWO,
            k1=1,
            k2=2,
            reps={"graph": 40, "pool": 100, "bp": 100},
            workers=1,
            pipelines=("compare", "bp", "ghosts"),
        ),
        Workload(
            name="approx-coincidence",
            why=(
                "the approximation and coincidence layers alone, on synthetic "
                "2500x2500 pools; no graphs, no branching process"
            ),
            model=SCALAR2,
            reps={"pool": 2500},
        ),
    )
}

# approx-coincidence sizes
SYNTH_DRAWS = 4000  # synthetic distance replicates behind `compare`
U_TILDE_DRAWS = 20000
MC_REPS = 2000
CDF_OFFSETS = (-1, 0, 2)
MC_EXACT_SCHEME = {"w": [12], "zA": [[2, 3]], "zB": [[2]], "wstar": [2]}
# (scheme, path poisson_check must take): closed form, convolution, Monte Carlo
SCHEME_GRID = (
    ({"w": [50], "zA": [[3]], "zB": [[4]], "wstar": [0]}, "exact"),
    ({"w": [10, 20], "zA": [[2], [3]], "zB": [[1], [2]], "wstar": [0, 0]}, "exact"),
    ({"w": [8], "zA": [[2]], "zB": [[3]], "wstar": [1]}, "exact"),
    (MC_EXACT_SCHEME, "exact"),
    ({"w": [60], "zA": [[3, 2]], "zB": [[2, 2]], "wstar": [5]}, "mc"),
    ({"w": [2000], "zA": [[5, 5]], "zB": [[5]], "wstar": [10]}, "mc"),
)


# ---------------------------------------------------------------- spectra
# Independent of igdist: the checks must not trust the code they check.


def perron_vectors(model: dict) -> tuple[float, np.ndarray, np.ndarray]:
    """tau, l1-normalized left vector mu and right vector nu (mu @ nu = 1)
    of the vertex-side mean matrix."""
    n = np.asarray(model["n"], float)
    m = np.asarray(model["m"], float)
    P = np.asarray(model["P"], float)
    M = (P * m) @ P.T * n
    vals, right = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    vals_l, left = np.linalg.eig(M.T)
    mu = np.abs(left[:, int(np.argmax(vals_l.real))].real)
    mu /= mu.sum()
    nu = np.abs(right[:, i].real)
    nu /= mu @ nu
    return float(vals[i].real), mu, nu


def scalar_constants(model: dict) -> dict:
    """Closed forms for K = J = 1: tau = p^2 n m, kappa = tau/(tau-1),
    i0 = floor(log_tau n), phi = tau^i0 / n."""
    n, m, p = model["n"][0], model["m"][0], model["P"][0][0]
    tau = p * p * n * m
    i0 = int(math.floor(math.log(n) / math.log(tau)))
    return {"tau": tau, "kappa": tau / (tau - 1.0), "i0": i0, "phi": tau**i0 / n}


# ----------------------------------------------------------------- inputs


def config_doc(wl: Workload, seed: int, workers: int) -> dict:
    doc = {"model": wl.model, "k1": wl.k1, "k2": wl.k2, "seed": seed}
    if wl.reps:
        doc["reps"] = wl.reps
    if wl.horizon is not None:
        doc["horizon"] = wl.horizon
    if wl.pipelines:
        doc["workers"] = workers
    return doc


def write_inputs(wl: Workload, seed: int, workers: int, work: Path) -> None:
    """Write everything the child needs into `work`: the config and, for
    the library workload, the synthetic pools and distance histogram."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.json").write_text(json.dumps(config_doc(wl, seed, workers)))
    if wl.pipelines:
        return
    rng = np.random.default_rng([seed, 0xA99])
    c = scalar_constants(wl.model)
    # survival of the Poisson limit of the two-step offspring law,
    # q = exp(pm (exp(pn (q - 1)) - 1)): the pools are synthetic, so they
    # only need a realistic scale
    pm = wl.model["P"][0][0] * wl.model["m"][0]
    pn = wl.model["P"][0][0] * wl.model["n"][0]
    q = 0.0
    for _ in range(500):
        q = math.exp(pm * (math.exp(pn * (q - 1.0)) - 1.0))
    surv = 1.0 - q
    size = wl.reps["pool"]
    pool_a = rng.gamma(2.0, 0.5 / surv, size)
    pool_b = rng.gamma(2.0, 0.5 / surv, size)
    # distances drawn from the mixture itself: P[U > t] = E exp(-a b kappa
    # tau^t), so D = i0 + ceil(U - log_tau phi) has exactly the
    # exceedances exceed_prob computes from these pools
    alive = rng.random(SYNTH_DRAWS) < surv * surv
    k = int(alive.sum())
    a = pool_a[rng.integers(0, size, k)]
    b = pool_b[rng.integers(0, size, k)]
    u = -(rng.gumbel(size=k) + np.log(a * b * c["kappa"])) / math.log(c["tau"])
    d = c["i0"] + np.ceil(u - math.log(c["phi"]) / math.log(c["tau"]))
    d = np.maximum(d, 1).astype(int)
    values, counts = np.unique(d, return_counts=True)
    rows = [f"{v},{n}" for v, n in zip(values, counts)]
    rows.append(f"inf,{SYNTH_DRAWS - k}")
    (work / "distances.csv").write_text("distance,count\n" + "\n".join(rows) + "\n")
    np.save(work / "pool_a.npy", pool_a)
    np.save(work / "pool_b.npy", pool_b)
    (work / "synthetic.json").write_text(
        json.dumps({"surv": surv, "seed": seed})
    )


# -------------------------------------------------------------- pipelines


def run_pipelines(igdist, wl: Workload, cfg, work: Path, out: Path, workers: int, times: dict):
    """The timed calls.  Returns {op name: result or the exception} and
    fills `times` with {op name: (wall s, cpu s) of that call}."""
    results = {}
    if wl.pipelines:
        for sub in wl.pipelines:
            _call(results, times, sub, lambda sub=sub: igdist.runner.run(
                sub, cfg, out_dir=out / sub, workers=workers
            ))
    else:
        _run_library(igdist, cfg, work, results, times)
    return results


def _call(results: dict, times: dict, name: str, fn) -> None:
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        results[name] = fn()
    except Exception as e:  # counted as a failed call
        results[name] = e
    times[name] = (time.perf_counter() - t0, cpu_seconds() - c0)


def _library_inputs(work: Path):
    synth = json.loads((work / "synthetic.json").read_text())
    with open(work / "distances.csv") as f:
        rows = list(csv.reader(f))[1:]
    return (
        np.load(work / "pool_a.npy"),
        np.load(work / "pool_b.npy"),
        synth["surv"],
        rows,
    )


def _run_library(igdist, cfg, work: Path, results: dict, times: dict):
    approx, coincidence = igdist.approx, igdist.coincidence
    pool_a, pool_b, surv, rows = _library_inputs(work)

    def op(name, fn):
        _call(results, times, name, fn)

    try:
        spec = igdist.model.derived_scalars(cfg.params)
        pools = approx.WPools(
            pool_a=pool_a, pool_b=pool_b, surv_a=surv, surv_b=surv, horizon=14
        )
        point = approx.WPools(
            pool_a=[1.0], pool_b=[1.0], surv_a=1.0, surv_b=1.0, horizon=14
        )
        law = igdist.graphgen.DistanceLaw.from_rows(rows)
        exact_scheme = _scheme(coincidence, MC_EXACT_SCHEME)
    except Exception as e:  # every call below needs these
        results.update({name: e for name in expected_ops(WORKLOADS["approx-coincidence"])})
        return
    op("build_approx_law", lambda: approx.build_approx_law(spec, pools, U_WINDOW))
    op("compare", lambda: approx.compare(law, spec, pools))
    shift = math.log(spec.phi_n) / math.log(spec.tau)
    for u in CDF_OFFSETS:
        op(f"cdf_U_prime[{u}]", lambda u=u: approx.cdf_U_prime(spec, pools, u + shift))
    op(
        "sample_U_tilde",
        lambda: approx.sample_U_tilde(spec, pools, U_TILDE_DRAWS, cfg.seed),
    )
    op("point_mass", lambda: [approx.cdf_U_prime(spec, point, u) for u in U_WINDOW])
    for i, (doc, _) in enumerate(SCHEME_GRID):
        op(
            f"poisson_check[{i}]",
            lambda doc=doc: coincidence.poisson_check(
                _scheme(coincidence, doc), mc_reps=MC_REPS, seed=cfg.seed
            ),
        )
    op(
        "mc_vs_exact",
        lambda: (
            coincidence.p_no_collision_mc(exact_scheme, MC_REPS, cfg.seed),
            coincidence.p_no_collision_exact(exact_scheme),
        ),
    )


def _scheme(coincidence, doc):
    return coincidence.SamplingScheme(
        w=doc["w"], draws_a=doc["zA"], draws_b=doc["zB"], excluded=doc["wstar"]
    )


def expected_ops(wl: Workload) -> list[str]:
    if wl.pipelines:
        return list(wl.pipelines)
    return (
        ["build_approx_law", "compare"]
        + [f"cdf_U_prime[{u}]" for u in CDF_OFFSETS]
        + ["sample_U_tilde", "point_mass"]
        + [f"poisson_check[{i}]" for i in range(len(SCHEME_GRID))]
        + ["mc_vs_exact"]
    )


# ------------------------------------------------------------------ digests


def digest(wl: Workload, results: dict, out: Path) -> str:
    """sha256 over the result CSVs (or the library results); two runs of
    one seed must agree byte for byte."""
    h = hashlib.sha256()
    if wl.pipelines:
        for path in sorted(out.rglob("*.csv")):
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    else:
        for name in sorted(results):
            h.update(name.encode())
            h.update(repr(_plain(results[name])).encode())
    return h.hexdigest()


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, BaseException):
        return f"{type(x).__name__}: {x}"
    return x


# ------------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check(wl: Workload, cfg_doc: dict, results: dict, work: Path, out: Path) -> dict:
    """{op name: None if the call and its output check passed, else why}."""
    errors = {}
    for name in expected_ops(wl):
        res = results.get(name, KeyError(f"{name} never ran"))
        if isinstance(res, BaseException):
            errors[name] = f"{type(res).__name__}: {res}"
            continue
        try:
            if wl.pipelines:
                _check_pipeline(name, wl, cfg_doc, out / name)
            else:
                _check_library(name, wl, results, work)
            errors[name] = None
        except CheckFailed as e:
            errors[name] = f"check: {e}"
        except (OSError, ValueError, KeyError, IndexError) as e:
            errors[name] = f"check: unreadable output: {type(e).__name__}: {e}"
    return errors


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _compare_rows_ok(rows, reps, pool_term):
    """Each compare row within Z_TOL standard errors; approx exceedances
    non-increasing in u and inside [defect, 1]."""
    finite = [r for r in rows if r["u"] != "inf"]
    (inf_row,) = [r for r in rows if r["u"] == "inf"]
    defect = float(inf_row["approx_exceed"])
    prev = 1.0
    for r in finite:
        emp, appr = float(r["empirical_exceed"]), float(r["approx_exceed"])
        _require(
            defect - 1e-12 <= appr <= prev + 1e-12,
            f"approx exceedance at u={r['u']} is {appr}, outside [defect, previous]",
        )
        prev = appr
        se = math.sqrt(appr * (1.0 - appr) / reps + pool_term**2)
        _require(
            abs(emp - appr) <= Z_TOL * se,
            f"u={r['u']}: |{emp} - {appr}| > {Z_TOL} SE ({se:.4f})",
        )
    emp_inf = float(inf_row["empirical_exceed"])
    se = math.sqrt(defect * (1.0 - defect) / reps)
    _require(
        abs(emp_inf - defect) <= Z_TOL * se,
        f"defect row: |{emp_inf} - {defect}| > {Z_TOL} SE ({se:.4f})",
    )


def _survival(out: Path) -> dict:
    return {int(r["type"]) - 1: float(r["survival"]) for r in _read_rows(out / "survival.csv")}


def _pool_stats(path: Path):
    vals = np.array([float(r["value"]) for r in _read_rows(path)])
    _require(vals.size > 0 and bool((vals > 0).all()), f"{path.name}: non-positive")
    return vals


def _check_pools(out: Path, cfg_doc: dict, nu: np.ndarray):
    """The pool means imply an acceptance rate nu_k / E[W | W > 0] that
    must match survival_prob, since E W = nu_k exactly at every horizon."""
    surv = _survival(out)
    size = cfg_doc["reps"]["pool"]
    for tag, k in (("a", cfg_doc["k1"] - 1), ("b", cfg_doc["k2"] - 1)):
        vals = _pool_stats(out / f"wpool_{tag}.csv")
        _require(vals.size == size, f"wpool_{tag}: {vals.size} values, expected {size}")
        mean, sd = float(vals.mean()), float(vals.std(ddof=1))
        implied = nu[k] / mean
        se = implied * sd / mean / math.sqrt(vals.size)
        _require(
            abs(implied - surv[k]) <= Z_TOL * se,
            f"pool {tag}: implied acceptance {implied:.4f} vs survival "
            f"{surv[k]:.4f} (SE {se:.4f})",
        )


def _check_pipeline(name: str, wl: Workload, cfg_doc: dict, out: Path):
    tau, _, nu = perron_vectors(wl.model)
    reps = cfg_doc["reps"]
    if name == "compare":
        dist = _read_rows(out / "distances.csv")
        total = sum(int(r["count"]) for r in dist)
        _require(total == reps["graph"], f"{total} distances, expected {reps['graph']}")
        surv = _survival(out)
        sab = surv[cfg_doc["k1"] - 1] * surv[cfg_doc["k2"] - 1]
        pool_term = 0.5 * sab * math.sqrt(2.0 / reps["pool"])
        rows = _read_rows(out / "compare.csv")
        _require(len(rows) == len(U_WINDOW) + 1, f"{len(rows)} compare rows")
        _compare_rows_ok(rows, reps["graph"], pool_term)
        _check_pools(out, cfg_doc, nu)
    elif name == "bp":
        _check_pools(out, cfg_doc, nu)
        # martingale mean: E[nu . X(H)] tau^-H = nu_k1, variance from pool a
        k = cfg_doc["k1"] - 1
        rows = _read_rows(out / "trajectory_mean.csv")
        horizon = max(int(r["generation"]) for r in rows)
        x_h = np.zeros(len(nu))
        for r in rows:
            if r["side"] == "X" and int(r["generation"]) == horizon:
                x_h[int(r["type"]) - 1] = float(r["mean_count"])
        w_mean = float(nu @ x_h) * tau**-horizon
        vals = _pool_stats(out / "wpool_a.csv")
        s = _survival(out)[k]
        var = max(s * float(np.mean(vals**2)) - nu[k] ** 2, 1e-12)
        se = math.sqrt(var / reps["bp"])
        _require(
            abs(w_mean - nu[k]) <= Z_TOL * se,
            f"mean W at horizon {horizon}: {w_mean:.4f} vs nu {nu[k]:.4f} (SE {se:.4f})",
        )
    elif name == "ghosts":
        n_tot, m_tot = sum(wl.model["n"]), sum(wl.model["m"])
        e4 = (n_tot**-0.25 + m_tot**-0.25) ** 4
        rows = _read_rows(out / "ghosts.csv")
        _require(len(rows) >= 1, "no ghost rows")
        for r in rows:
            i, gx = int(r["i"]), float(r["ghostX_mean"])
            _require(gx >= 0.0 and float(r["ghostY_mean"]) >= 0.0, f"i={i}: negative")
            want = gx / (tau ** (2 * i) * e4)
            _require(
                math.isclose(float(r["ratioX"]), want, rel_tol=1e-6, abs_tol=1e-12),
                f"i={i}: ratioX {r['ratioX']} != {want}",
            )


def _check_library(name: str, wl: Workload, results: dict, work: Path):
    c = scalar_constants(wl.model)
    res = results[name]
    surv = json.loads((work / "synthetic.json").read_text())["surv"]
    sab = surv * surv
    if name == "build_approx_law":
        _require(abs(res.defect - (1.0 - sab)) <= 1e-12, f"defect {res.defect}")
        prev = 1.0
        for u, e in zip(res.support, res.exceed):
            _require(
                res.defect - 1e-12 <= e <= prev + 1e-12,
                f"exceed_prob({u}) = {e} not monotone in [defect, 1]",
            )
            prev = e
    elif name == "compare":
        rows = [
            {
                "u": "inf" if math.isinf(r.u) else str(int(r.u)),
                "empirical_exceed": r.empirical_exceed,
                "approx_exceed": r.approx_exceed,
            }
            for r in res.rows
        ]
        # the synthetic distances resample these very pools, so only the
        # binomial error of SYNTH_DRAWS replicates remains
        _compare_rows_ok(rows, SYNTH_DRAWS, 0.0)
    elif name.startswith("cdf_U_prime["):
        law = results["build_approx_law"]
        _require(not isinstance(law, BaseException), "needs build_approx_law")
        u = int(name[len("cdf_U_prime["):-1])
        want = 1.0 - law.exceed[law.support.index(u)]
        _require(abs(res - want) <= 1e-9, f"cdf {res} != 1 - exceed_prob = {want}")
    elif name == "sample_U_tilde":
        pool_a, pool_b, _, _ = _library_inputs(work)
        _require(res.shape == (U_TILDE_DRAWS,), f"shape {res.shape}")
        euler = 0.5772156649015329
        mean = -(
            euler + np.log(pool_a).mean() + np.log(pool_b).mean() + math.log(c["kappa"])
        ) / math.log(c["tau"])
        se = float(res.std(ddof=1)) / math.sqrt(res.size)
        _require(
            abs(float(res.mean()) - mean) <= Z_TOL * se,
            f"mean {res.mean():.4f} vs {mean:.4f} (SE {se:.4f})",
        )
    elif name == "point_mass":
        # criterion 9: unit point masses give 1 - exp(-kappa tau^u)
        for u, got in zip(U_WINDOW, res):
            want = 1.0 - math.exp(-c["kappa"] * c["tau"] ** u)
            _require(abs(got - want) <= 1e-12, f"u={u}: {got} != {want}")
    elif name.startswith("poisson_check["):
        i = int(name[len("poisson_check["):-1])
        method = SCHEME_GRID[i][1]
        _require(res.method == method, f"took the {res.method} path, expected {method}")
        _require(0.0 <= res.p_no_collision <= 1.0, f"P[S=0] = {res.p_no_collision}")
        _require(bool(res.passed), f"|{res.abs_diff}| > bound {res.bound}")
    elif name == "mc_vs_exact":
        (est, _), exact = res
        se = math.sqrt(exact * (1.0 - exact) / MC_REPS)
        _require(
            abs(est - exact) <= Z_MC_EXACT * se,
            f"MC {est} vs exact {exact}: more than {Z_MC_EXACT} SE ({se:.4f})",
        )


def coverage_errors(wl: Workload, cfg_doc: dict, layers: dict) -> list[str]:
    """Counts that prove each tracer wrapper fired, whatever module the
    call went through."""
    n_compare = 1 if not wl.pipelines else wl.pipelines.count("compare")
    n_pools = 2 * sum(sub in ("compare", "bp") for sub in wl.pipelines)
    want = {
        "graphgen.sample_bipartite.calls": n_compare * wl.reps.get("graph", 0),
        "approx.exceed_prob.calls": 12 * n_compare,
    }
    if not wl.pipelines:
        n_mc = sum(path == "mc" for _, path in SCHEME_GRID) + 1
        want["coincidence.p_no_collision_mc.reps"] = n_mc * MC_REPS
    errors = [
        f"{key} = {layers[key]}, expected {value}"
        for key, value in want.items()
        if layers[key] != value
    ]
    attempts = layers["bpsim.pool.attempts"]
    if attempts < n_pools * wl.reps.get("pool", 0):
        errors.append(f"bpsim.pool.attempts = {attempts} < pool sizes")
    return errors
