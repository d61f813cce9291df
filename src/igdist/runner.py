"""Experiment orchestration: subcommand pipelines, parallel mapping,
CSV/JSON persistence, and the run manifest.

Replicate work is partitioned by index, never by scheduling order, and
every randomized stage derives its own substream from the master seed,
so identical configs produce byte-identical result files at any worker
count.  Floats are serialized with repr (shortest round-trip form).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import signal
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .approx import U_WINDOW, WPools, build_approx_law, compare
from .bpsim import conditioned_w_pool, ghost_scaling, simulate_batch, survival_prob
from .coincidence import SamplingScheme, poisson_check
from .config import ExperimentConfig
from .errors import ConfigError
from .graphgen import DistanceLaw, distance_jobs, empirical_distance_law
from .model import (
    _is_integer, _spectrum, derived_scalars, identity_report, perron, rank1_build,
)
from .seeding import derive_seed

def parallel_map(fn, args_list, workers: int):
    """Map preserving argument order; worker count never affects results.

    The caller is one of w = min(workers, tasks, CPUs) workers, counting
    the CPUs this process may run on.  Share i holds tasks i, i + w,
    i + 2w, ...: the caller works share 0, and w - 1 children forked
    from it (POSIX only) work the others, each sending back one pickled
    list.  Tasks reach the children through
    fork, so only results and exceptions are pickled.  If any share
    fails, the caller kills the children still working and reaps every
    child before it raises the failure.
    """
    w = min(workers, len(args_list), _cpus())
    if w <= 1:
        return [fn(a) for a in args_list]
    children = {}  # pid -> read end of its pipe, until it is reaped
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _work_share(fn, args_list[i::w], wr)  # never returns
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(wr)
            children[pid] = r
        shares = [[fn(a) for a in args_list[::w]]]
        for pid in list(children):
            shares.append(_receive(pid, children.pop(pid)))
    finally:
        for pid, r in children.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    out = [None] * len(args_list)
    for i, share in enumerate(shares):
        out[i::w] = share
    return out


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work_share(fn, share, wr) -> None:
    """In a forked child: work one share and write (ok, results or the
    exception) to the pipe.  Leaves only through os._exit, so the child
    never unwinds into the caller's frames, whose handlers would act on
    the parent's state (RunWriter.discard deletes the parent's files)."""
    status = 1
    try:
        try:
            payload = (True, [fn(a) for a in share])
        except BaseException as e:
            payload = (False, e)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            error = RuntimeError(f"a worker's results could not be pickled: {e!r}")
            data = pickle.dumps((False, error))
        with open(wr, "wb") as f:
            f.write(data)
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, r: int) -> list:
    """The results of a child's share, read to end of file from its
    pipe; reaps the child, and re-raises the exception it sent."""
    try:
        with open(r, "rb") as f:
            data = f.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if not data:
        raise RuntimeError(
            f"worker process {pid} exited with status "
            f"{os.waitstatus_to_exitcode(status)} before sending its results"
        )
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def _fmt(x) -> str:
    if isinstance(x, float):  # numpy's float64 included
        return float.__repr__(x)  # also "nan", "inf" and "-inf"
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    return str(x)


class RunWriter:
    """Collects output files and the manifest; removes partial output,
    and the directories this run created for it, when a stage fails."""

    def __init__(self, out_dir: Path, config: ExperimentConfig, subcommand: str):
        self.out_dir = Path(out_dir)
        self.created: list[Path] = []  # deepest first
        self.files: dict[Path, str] = {}  # path -> sha256 of its bytes
        self.seeds: dict[str, int] = {}
        self.config = config
        self.subcommand = subcommand
        self.started = datetime.now(timezone.utc).isoformat()

    def stage_seed(self, tag: str) -> int:
        seed = derive_seed(self.config.seed, f"stage:{tag}")
        self.seeds[tag] = seed
        return seed

    def _path(self, name: str) -> Path:
        """Path of an output file; the directory is made on first use."""
        if not self.out_dir.is_dir():
            self.created = [
                d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()
            ]
            self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def _write(self, name: str, text: str) -> Path:
        path = self._path(name)
        data = text.encode()
        path.write_bytes(data)
        self.files[path] = hashlib.sha256(data).hexdigest()
        return path

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        return self._write(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, payload: dict) -> Path:
        return self._write(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def discard(self) -> None:
        for f in self.files:
            try:
                f.unlink()
            except OSError:
                pass
        for d in self.created:
            try:
                d.rmdir()
            except OSError:
                break

    def finish(self) -> Path:
        cfg_hash = hashlib.sha256(
            json.dumps(self.config.raw, sort_keys=True).encode()
        ).hexdigest()
        outputs = [{"path": f.name, "sha256": d} for f, d in self.files.items()]
        manifest = {
            "subcommand": self.subcommand,
            "config_hash": cfg_hash,
            "code_version": __version__,
            "seeds": self.seeds,
            "started": self.started,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": outputs,
        }
        path = self._path("manifest.json")
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        path.write_bytes(text.encode())
        return path


def _default_horizon(cfg: ExperimentConfig, spec) -> int:
    """The configured horizon, else max(12, 2 i0) lowered until tau^h is
    at most population_cap / 100, so that the mean surviving population
    stays far below the cap."""
    if cfg.horizon is not None:
        return cfg.horizon
    h = max(12, 2 * spec.i0)
    while h > 1 and spec.tau**h > cfg.population_cap / 100:
        h -= 1
    return h


def _spectral_payload(spec) -> dict:
    payload = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return payload


def _run_spectral(cfg: ExperimentConfig, w: RunWriter, workers: int) -> None:
    spec = derived_scalars(cfg.params)
    w.write_json("spectral.json", _spectral_payload(spec))
    rep = identity_report(spec)
    w.write_csv(
        "identities.csv",
        ["identity", "residual"],
        sorted(rep.items()),
    )


def _run_graph_dist(
    cfg: ExperimentConfig, w: RunWriter, workers: int
) -> DistanceLaw:
    seed = w.stage_seed("graph-dist")
    law = empirical_distance_law(
        cfg.params, cfg.k1, cfg.k2, cfg.graph_reps, seed, workers=workers
    )
    w.write_csv("distances.csv", ["distance", "count"], law.to_rows())
    return law


def _write_survival(cfg: ExperimentConfig, w: RunWriter) -> np.ndarray:
    surv = survival_prob(cfg.params)
    w.write_csv(
        "survival.csv",
        ["type", "survival"],
        [(k + 1, float(surv[k])) for k in range(cfg.params.K)],
    )
    return surv


def _call(job):
    return job()


def _pools(cfg: ExperimentConfig, w: RunWriter, spec, workers: int, *jobs):
    """Pools A and B of conditioned W draws, and the results of the
    argument-free `jobs`, from one parallel pass; writes the pools and
    survival.csv.  The pools are tasks 0 and 1, so the strided shares of
    parallel_map send them to different processes."""
    horizon = _default_horizon(cfg, spec)
    pool_jobs = [
        functools.partial(
            conditioned_w_pool, cfg.params, spec, k, horizon, cfg.pool_size,
            w.stage_seed(tag), cfg.population_cap,
        )
        for tag, k in (("pool-a", cfg.k1), ("pool-b", cfg.k2))
    ]
    pool_a, pool_b, *results = parallel_map(_call, [*pool_jobs, *jobs], workers)
    w.write_csv("wpool_a.csv", ["value"], [(v,) for v in pool_a])
    w.write_csv("wpool_b.csv", ["value"], [(v,) for v in pool_b])
    surv = _write_survival(cfg, w)
    return WPools(
        pool_a=pool_a,
        pool_b=pool_b,
        surv_a=float(surv[cfg.k1]),
        surv_b=float(surv[cfg.k2]),
        horizon=horizon,
    ), results


def _trajectory_rows(X, Y) -> list[tuple]:
    rows = [(i, "X", k + 1, c) for i, x in enumerate(X) for k, c in enumerate(x)]
    rows += [
        (i, "Y", j + 1, c) for i, y in enumerate(Y, start=1) for j, c in enumerate(y)
    ]
    return rows


def _run_bp(cfg: ExperimentConfig, w: RunWriter, workers: int) -> None:
    spec = derived_scalars(cfg.params)
    horizon = _default_horizon(cfg, spec)
    X, Y = simulate_batch(
        cfg.params, cfg.k1, horizon, cfg.bp_reps,
        derive_seed(w.stage_seed("bp"), "rep"), cfg.population_cap,
    )
    # replicate 0 of the iid batch is one run of the process
    w.write_csv(
        "trajectory.csv", ["generation", "side", "type", "count"],
        _trajectory_rows(X[0], Y[0]),
    )
    w.write_csv(
        "trajectory_mean.csv", ["generation", "side", "type", "mean_count"],
        _trajectory_rows(X.sum(axis=0) / cfg.bp_reps, Y.sum(axis=0) / cfg.bp_reps),
    )
    _pools(cfg, w, spec, workers)


def _coincidence_rows(schemes, seed: int) -> list[tuple]:
    rows = []
    for s in schemes:
        chk = poisson_check(s, seed=seed)
        rows.append(
            (
                ";".join(str(x) for x in s.w),
                ";".join("|".join(str(z) for z in d) for d in s.draws_a),
                ";".join("|".join(str(z) for z in d) for d in s.draws_b),
                ";".join(str(x) for x in s.excluded),
                chk.lam,
                chk.p_no_collision,
                chk.method,
                chk.poisson,
                chk.abs_diff,
                chk.bound,
                chk.mc_se,
                int(chk.passed),
            )
        )
    return rows


_COINCIDENCE_HEADER = [
    "w", "zA", "zB", "wstar", "lambda", "p_no_collision", "method",
    "poisson", "abs_diff", "bound", "mc_se", "pass",
]


def _run_coincidence(cfg: ExperimentConfig, w: RunWriter, workers: int) -> None:
    seed = w.stage_seed("coincidence")
    if cfg.scheme is not None:
        schemes = [cfg.scheme]
    else:
        schemes = []
        for w_l in range(2, 9):
            for za in range(1, min(3, w_l) + 1):
                for zb in range(1, min(3, w_l) + 1):
                    for ws in (0, 1):
                        schemes.append(
                            SamplingScheme(
                                w=[w_l], draws_a=[[za]], draws_b=[[zb]],
                                excluded=[ws],
                            )
                        )
    w.write_csv(
        "coincidence.csv", _COINCIDENCE_HEADER, _coincidence_rows(schemes, seed)
    )


def _write_approx_law(w: RunWriter, spec, pools: WPools) -> None:
    law = build_approx_law(spec, pools, U_WINDOW)
    rows = [(u, e) for u, e in zip(law.support, law.exceed)]
    rows.append(("inf", law.defect))
    w.write_csv("approx_law.csv", ["u", "exceed_prob"], rows)


def _run_approx(cfg: ExperimentConfig, w: RunWriter, workers: int) -> None:
    spec = derived_scalars(cfg.params)
    pools, _ = _pools(cfg, w, spec, workers)
    _write_approx_law(w, spec, pools)


_COMPARE_HEADER = [
    "u", "empirical_exceed", "approx_exceed", "abs_diff", "delta_scale",
]


def _run_compare(cfg: ExperimentConfig, w: RunWriter, workers: int) -> None:
    if _spectrum(cfg.params)[0][-1] <= 1.0:
        # rho(M_X) <= 1, no type survives: the approximation is all
        # defect, so only the infinite-distance row is checkable
        law = _run_graph_dist(cfg, w, workers)
        surv = _write_survival(cfg, w)
        defect = 1.0 - float(surv[cfg.k1]) * float(surv[cfg.k2])
        emp_inf = law.prob_infinite()
        w.write_csv(
            "compare.csv",
            _COMPARE_HEADER,
            [("inf", emp_inf, defect, abs(emp_inf - defect), math.nan)],
        )
        return
    spec = derived_scalars(cfg.params)
    jobs = distance_jobs(
        cfg.params, cfg.k1, cfg.k2, cfg.graph_reps, w.stage_seed("graph-dist")
    )
    pools, blocks = _pools(cfg, w, spec, workers, *jobs)
    law = DistanceLaw.from_samples([d for blk in blocks for d in blk])
    w.write_csv("distances.csv", ["distance", "count"], law.to_rows())
    _write_approx_law(w, spec, pools)
    table = compare(law, spec, pools)
    w.write_csv(
        "compare.csv",
        _COMPARE_HEADER,
        [
            (
                "inf" if math.isinf(r.u) else int(r.u),
                r.empirical_exceed,
                r.approx_exceed,
                r.abs_diff,
                r.delta_scale,
            )
            for r in table.rows
        ],
    )


def _run_rank1(cfg: ExperimentConfig, w: RunWriter, workers: int) -> None:
    if cfg.rank1 is None:
        raise ConfigError("rank1 subcommand requires a 'rank1' config block")
    params, tau_cf, mu_cf, nu_cf = rank1_build(
        cfg.rank1, cfg.params.n, cfg.params.m
    )
    tau_pi, mu_pi, nu_pi = perron(params)
    rows = [("tau", tau_cf, tau_pi, abs(tau_cf - tau_pi) / tau_pi)]
    for k in range(params.K):
        rows.append(
            (
                f"mu_{k + 1}", mu_cf[k], mu_pi[k],
                abs(mu_cf[k] - mu_pi[k]) / abs(mu_pi[k]),
            )
        )
        rows.append(
            (
                f"nu_{k + 1}", nu_cf[k], nu_pi[k],
                abs(nu_cf[k] - nu_pi[k]) / abs(nu_pi[k]),
            )
        )
    w.write_csv(
        "rank1.csv", ["quantity", "closed_form", "perron", "rel_diff"],
        rows,
    )


def _run_ghosts(cfg: ExperimentConfig, w: RunWriter, workers: int) -> None:
    spec = derived_scalars(cfg.params)
    seed = w.stage_seed("ghosts")
    rows = ghost_scaling(
        cfg.params, spec, cfg.depth, cfg.bp_reps, seed,
        k1=cfg.k1, k2=cfg.k2, workers=workers, population_cap=cfg.population_cap,
    )
    w.write_csv(
        "ghosts.csv",
        ["i", "ghostX_mean", "ghostY_mean", "ratioX", "ratioY"],
        [
            (r["i"], r["ghostX_mean"], r["ghostY_mean"], r["ratioX"], r["ratioY"])
            for r in rows
        ],
    )


# subcommand -> pipeline(cfg, writer, workers); each pipeline that needs
# the spectral data derives it itself
PIPELINES = {
    "spectral": _run_spectral,
    "graph-dist": _run_graph_dist,
    "bp": _run_bp,
    "coincidence": _run_coincidence,
    "approx": _run_approx,
    "compare": _run_compare,
    "rank1": _run_rank1,
    "ghosts": _run_ghosts,
}
SUBCOMMANDS = tuple(PIPELINES)


def run(
    subcommand: str,
    cfg: ExperimentConfig,
    out_dir=None,
    workers: int | None = None,
) -> Path:
    """Execute one subcommand pipeline; returns the output directory.

    Partial outputs are removed if any stage fails.
    """
    if subcommand not in PIPELINES:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    workers = cfg.workers if workers is None else workers
    if not (_is_integer(workers) and workers >= 1):
        raise ConfigError("workers must be an integer >= 1")
    w = RunWriter(out, cfg, subcommand)
    try:
        PIPELINES[subcommand](cfg, w, workers)
    except BaseException:
        w.discard()
        raise
    w.finish()
    return out
