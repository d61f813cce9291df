"""Benchmark of the igdist pipelines, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload headline-tau2 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --self-check              # determinism, known failures

A run is SLICES slices; each starts SETUP_PROBES set-up-only
interpreters, then a fresh interpreter (child.py) that repeats the
workload, each repeat timed on its own, for the slice's share of
`--seconds`.  With `--trace 1` untraced and traced children alternate,
and the per-layer metrics come from the fastest traced repeat, plus
trace.overhead_s, the traced minus the untraced wall_s.

The JSON reports best values, as timeit does: wall_s and cpu_s sum, over
the workload's calls, each call's fastest repeat, and setup_s is the
fastest set-up.  On a shared host, other tenants slow this machine by up
to 1.9x for seconds to minutes at a time, so a median reads the share of
slow time in the run window, while the fastest repeat of a short call
reads the program.  The lines before the JSON print every metric's best
value, and the median, quartiles and highest percentile with ten samples
above it of its per-repeat totals, with its unit and sample count, then
the failed-call share and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SLICES = 4  # measuring children per run, so that samples span the run
SETUP_PROBES = 2  # set-up-only children before each slice
CHILD_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run a child in its own process group, so that a timeout also
    stops the pool workers it started; always waits for it."""
    proc = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(args[1:3])}: no result within {timeout} s")
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def child(work: Path, name: str, mode: str, seconds: float = 0.0) -> dict:
    t_spawn = time.perf_counter()
    args = [sys.executable, str(HERE / "child.py"), str(work), name, mode, repr(t_spawn),
            repr(seconds)]
    proc = run_child(args)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} child of {name} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: SLICES times, set-up probes and then a
    child that repeats the workload for its share of `seconds` (with
    `trace`, untraced and traced children alternate); returns the summary."""
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[name]
    workers = min(wl.workers, nproc())
    work = Path(".perfbench") / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    modes = ("run", "trace") if trace else ("run",)
    children = {mode: [] for mode in modes}
    setup = []
    try:
        workloads.write_inputs(wl, seed, workers, work)
        for i in range(SLICES):
            setup += [child(work, name, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
            left = seconds - (time.perf_counter() - t0)
            mode = modes[i % len(modes)]
            children[mode].append(child(work, name, mode, left / (SLICES - i)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reports = {mode: merged(reports) for mode, reports in children.items()}
    return summarize(wl, seed, workers, setup, reports)


def merged(reports: list[dict]) -> dict:
    """The reports of several children of one mode as one."""
    out = {key: [v for r in reports for v in r[key]]
           for key in ("calls", "errors", "digests", "layers", "coverage")}
    out["setup_s"] = [r["setup_s"] for r in reports]
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reports)
    return out


WALL, CPU = 0, 1  # fields of a call's time


def repeat_totals(calls: list[dict], field: int) -> list[float]:
    """Per repeat, the sum over its calls."""
    return [sum(t[field] for t in times.values()) for times in calls]


def best_calls(calls: list[dict], field: int) -> float:
    """The sum over the workload's calls of each call's fastest repeat."""
    return sum(min(times[op][field] for times in calls) for op in calls[0])


def summarize(wl, seed, workers, setup, reports) -> dict:
    ref = reports["run"]["digests"][0]
    attempted = failed = 0
    problems = []
    for r in reports.values():
        for errors, digest in zip(r["errors"], r["digests"]):
            for op, err in errors.items():
                attempted += 1
                if err is not None or digest != ref:
                    failed += 1
                    problems.append(f"{op}: {err or 'outputs differ from the first repeat of this seed'}")
        problems += [f"tracer coverage: {msg}" for msg in r["coverage"]]
    run = reports["run"]
    samples = {
        "wall_s": repeat_totals(run["calls"], WALL),
        "cpu_s": repeat_totals(run["calls"], CPU),
        "peak_rss_mb": [run["peak_rss_mb"]],
        "setup_s": setup + [v for r in reports.values() for v in r["setup_s"]],
    }
    best = {
        "wall_s": best_calls(run["calls"], WALL),
        "cpu_s": best_calls(run["calls"], CPU),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": min(samples["setup_s"]),
    }
    units = dict(END_TO_END)
    traced = reports.get("trace")
    if traced:
        layers = traced["layers"]
        for key in tracer.EXACT:
            if len({lay[key] for lay in layers}) != 1:
                problems.append(f"{key} differs between traced repeats: {[lay[key] for lay in layers]}")
        # every layer number comes from one repeat, the fastest traced one
        walls = repeat_totals(traced["calls"], WALL)
        best = dict(layers[walls.index(min(walls))])
        best["trace.overhead_s"] = best_calls(traced["calls"], WALL) - best_calls(run["calls"], WALL)
        samples = {key: [value] for key, value in best.items()}
        units = {key: unit for key, (unit, _) in tracer.METRICS.items()}
    return {
        "workload": wl.name,
        "seed": seed,
        "workers": workers,
        "samples": samples,
        "best": best,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not problems,
    }


def high_percentile(values):
    """The highest percentile with at least ten samples above it, as
    (percent, value), or None when there are too few samples."""
    k = (len(values) - 10) * 100 // len(values)
    if k < 50:
        return None
    return k, statistics.quantiles(values, n=100)[k - 1]


def print_summary(s: dict, header: str) -> None:
    print(f"# {header}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"# {'metric':36s} {'best':>12s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'high pct':>18s}  unit   n")
    for key, vals in s["samples"].items():
        q1, q3 = quartiles(vals)
        hi = high_percentile(vals)
        hi = f"p{hi[0]} {hi[1]:.6g}" if hi else ""
        print(f"  {key:36s} {s['best'][key]:12.6g} {statistics.median(vals):12.6g} {q1:12.6g}"
              f" {q3:12.6g} {hi:>18s}  {s['units'][key]:6s} {len(vals)}")
    share = s["failed"] / s["attempted"]
    print(f"  {'ops_failed':36s} {share:12.6g} {'':12s} {'':12s} {'':12s} {'':18s}"
          f"  share  {s['attempted']}")
    for p in s["problems"][:20]:
        print(f"# FAILED {p}")


def result_line(s: dict, prefix: str = "") -> dict:
    """The best value of each metric; see the module docstring."""
    return {
        f"{prefix}{key}": {"value": value, "unit": s["units"][key]}
        for key, value in s["best"].items()
    }


def self_check(seed: int) -> int:
    """Worker-count determinism of headline-tau2 and the known failures.

    Exits 0 unless the determinism contract breaks; known failures are
    reported by name, and one that stops failing is reported as fixed.
    """
    wl = workloads.WORKLOADS["headline-tau2"]
    work = Path(".perfbench") / f"self-check-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    digests = {}
    try:
        for workers, runs in ((2, 2), (1, 1)):
            d = work / f"workers{workers}"
            workloads.write_inputs(wl, seed, workers, d)
            for i in range(runs):
                r = child(d, wl.name, "run")
                for j, (errors, digest) in enumerate(zip(r["errors"], r["digests"])):
                    digests[f"workers={workers} child {i + 1} repeat {j + 1}"] = digest
                    bad = {op: e for op, e in errors.items() if e}
                    if bad:
                        print(f"# FAILED headline-tau2 workers={workers}: {bad}")
        cli = run_child(
            [sys.executable, "-m", "igdist.cli", "compare", "--config",
             "configs/rank1.json", "--out", str(work / "rank1")]
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    error = cli.stderr.strip().splitlines()[-1] if cli.stderr.strip() else ""
    error = error.removeprefix("igdist: error: ")
    if "population cap exceeded" in error:
        error = "PopulationCapError: " + error
    known = {
        "name": "rank1-default-horizon",
        "command": "igdist compare --config configs/rank1.json",
        "exit_code": cli.returncode,
        "error": error,
        "status": "known failure" if cli.returncode != 0 else "fixed",
    }
    deterministic = len(set(digests.values())) == 1
    report = {
        "machine": machine(),
        "seed": seed,
        "headline_digests": digests,
        "deterministic_across_runs_and_workers": deterministic,
        "known_failures": [known],
    }
    print(json.dumps(report, indent=2))
    return 0 if deterministic else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not Path("src/igdist/__init__.py").is_file():
        print("perfbench: run from the repository root; src/igdist not found", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check(args.seed)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = []
        for name in names:
            s = measure(name, args.seed, args.seconds, bool(args.trace))
            print_summary(
                s, f"{name} seed={args.seed} seconds={args.seconds:g} "
                f"trace={args.trace} workers={s['workers']}"
            )
            summaries.append(s)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for s in summaries:
        metrics.update(result_line(s, f"{s['workload']}/" if len(summaries) > 1 else ""))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
