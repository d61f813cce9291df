"""Spans around the public functions of each igdist module.

`install` wraps every public function that a layer module defines and
rebinds the wrapper under every name that points at the original, in
every igdist module: `from .graphgen import empirical_distance_law`
binds a second name in `igdist.runner`, and each such binding is patched
too.  A span records calls, inclusive time and self time (inclusive
minus the time of the spans it directly encloses); a few spans also
count work from their arguments or results.  Spans are aggregated per
name as they close and kept in memory.

Worker processes are forked from the traced process, so they inherit
the wrappers.  The traced `parallel_map` ships each task's span totals
back with its result and merges them, so worker time is counted as busy
time summed over workers, and parallel_map's own self time is the time
the parent waited.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time

import numpy as np

LAYERS = ("graphgen", "bpsim", "approx", "coincidence", "runner", "seeding", "model", "config")
_MAX_COUNTERS = {"max_population"}
_WRITE_METHODS = ("write_csv", "write_json", "finish")

# The tracer of this process.  Module state because forked workers reach
# it through the pickled task wrapper, which carries no other reference.
_ACTIVE = None


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.stack = []  # open spans: [name, child seconds]
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.counters = {}

    def count(self, key, value):
        if key in _MAX_COUNTERS:
            self.counters[key] = max(self.counters.get(key, 0), value)
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def merge(self, stats, counters):
        for name, (calls, incl, own) in stats.items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += own
        for key, value in counters.items():
            self.count(key, value)

    def drain(self):
        out = (self.stats, self.counters)
        self.stats, self.counters = {}, {}
        return out

    def in_span(self, name) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dt
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict:
        return layer_metrics(self.stats, self.counters)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _population(traj):
    x = np.asarray(traj.X).sum(axis=1).max()
    return int(max(x, np.asarray(traj.Y).sum(axis=1).max(initial=0)))


# Counters read from a traced call's arguments and result.
HOOKS = {
    "graphgen.sample_bipartite": lambda tr, a, k, g: tr.count(
        "edges", sum(map(len, g.vertex_adj))
    ),
    "bpsim.simulate": lambda tr, a, k, traj: (
        tr.count("sim_generations", _arg(a, k, 2, "generations")),
        tr.count("max_population", _population(traj)),
    ),
    "bpsim.w_sample": lambda tr, a, k, ws: tr.count(
        "pool_attempts", int(tr.in_span("bpsim.conditioned_w_pool"))
    ),
    "bpsim.conditioned_w_pool": lambda tr, a, k, pool: tr.count(
        "pool_accepted", len(pool)
    ),
    "bpsim.labeled_growth": lambda tr, a, k, forest: tr.count(
        "individuals", sum(g.size() for g in forest.generations)
    ),
    "approx.exceed_prob": lambda tr, a, k, _: tr.count(
        "pair_evals",
        _arg(a, k, 1, "pools").pool_a.size * _arg(a, k, 1, "pools").pool_b.size,
    ),
    "coincidence.p_no_collision_mc": lambda tr, a, k, _: tr.count(
        "mc_reps", _arg(a, k, 1, "reps")
    ),
    "runner.write": lambda tr, a, k, path: tr.count(
        "write_bytes", path.stat().st_size
    ),
}


def _worker_call(fn, arg):
    tr = _ACTIVE
    if tr is None:
        # a spawned, not forked, worker: no wrappers, so no spans; the
        # coverage counts of the traced run then show the gap
        return fn(arg), ({}, {})
    if tr.pid != os.getpid():
        # first task in a forked worker: drop the totals and open spans
        # inherited from the parent, which the parent still owns
        tr.pid, tr.stack = os.getpid(), []
        tr.drain()
    return fn(arg), tr.drain()


def cpu_seconds() -> float:
    """User plus system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _traced_parallel_map(tr, orig):
    def parallel_map(fn, args_list, workers):
        c0, t0 = cpu_seconds(), time.perf_counter()
        pairs = orig(functools.partial(_worker_call, fn), args_list, workers)
        tr.count("pmap_cpu", cpu_seconds() - c0)
        tr.count("pmap_wall", time.perf_counter() - t0)
        for _, (stats, counters) in pairs:
            tr.merge(stats, counters)
        return [result for result, _ in pairs]

    return parallel_map


def install(igdist) -> Tracer:
    """Trace every public function of the layer modules of `igdist`."""
    global _ACTIVE
    tr = Tracer()
    _ACTIVE = tr
    modules = [m for n, m in sys.modules.items() if n == "igdist" or n.startswith("igdist.")]
    wrapped = {}  # id(original) -> wrapper
    for layer in LAYERS:
        mod = getattr(igdist, layer)
        for fname, fn in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{fname}"
            if name == "runner.parallel_map":
                inner = _traced_parallel_map(tr, fn)
            else:
                inner = fn
            wrapped[id(fn)] = tr.wrap(name, inner, HOOKS.get(name))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    writer = igdist.runner.RunWriter
    for meth in _WRITE_METHODS:
        setattr(writer, meth, tr.wrap("runner.write", getattr(writer, meth), HOOKS["runner.write"]))
    return tr


# ------------------------------------------------------------------ metrics
# name -> (unit, better); the order is the order of BENCHMARK.json.
METRICS = {
    "graphgen.sample_bipartite.calls": ("count", "lower"),
    "graphgen.sample_bipartite.ms": ("ms", "lower"),
    "graphgen.edges_per_graph": ("count", "lower"),
    "graphgen.pair_distance.ms": ("ms", "lower"),
    "graphgen.empirical_distance_law.s": ("s", "lower"),
    "bpsim.simulate.calls": ("count", "lower"),
    "bpsim.simulate.us_per_gen": ("us", "lower"),
    "bpsim.pool.attempts": ("count", "lower"),
    "bpsim.pool.accept_rate": ("ratio", "higher"),
    "bpsim.max_population": ("count", "lower"),
    "bpsim.conditioned_w_pool.s": ("s", "lower"),
    "bpsim.survival_prob.ms": ("ms", "lower"),
    "bpsim.labeled_growth.ms": ("ms", "lower"),
    "bpsim.labeled_growth.individuals": ("count", "lower"),
    "bpsim.ghost_scaling.s": ("s", "lower"),
    "approx.exceed_prob.calls": ("count", "lower"),
    "approx.exceed_prob.ms": ("ms", "lower"),
    "approx.pair_evals": ("count", "lower"),
    "approx.ns_per_pair": ("ns", "lower"),
    "approx.build_approx_law.s": ("s", "lower"),
    "approx.compare.s": ("s", "lower"),
    "coincidence.poisson_check.calls": ("count", "lower"),
    "coincidence.p_no_collision_mc.reps": ("count", "lower"),
    "coincidence.mc_us_per_rep": ("us", "lower"),
    "coincidence.p_no_collision_exact.ms": ("ms", "lower"),
    "runner.parallel_map.s": ("s", "lower"),
    "runner.cores_used": ("cores", "higher"),
    "runner.write.s": ("s", "lower"),
    "runner.write.bytes": ("bytes", "lower"),
    "seeding.derive_seed.calls": ("count", "lower"),
    "seeding.derive_seed.s": ("s", "lower"),
    "model.derived_scalars.ms": ("ms", "lower"),
    "config.load_config.ms": ("ms", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}

# Counts that depend only on the seed and must repeat exactly.
EXACT = (
    "graphgen.sample_bipartite.calls",
    "graphgen.edges_per_graph",
    "bpsim.simulate.calls",
    "bpsim.pool.attempts",
    "bpsim.max_population",
    "bpsim.labeled_growth.individuals",
    "approx.exceed_prob.calls",
    "approx.pair_evals",
    "coincidence.poisson_check.calls",
    "coincidence.p_no_collision_mc.reps",
    "seeding.derive_seed.calls",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced repeat (trace.overhead_s excluded;
    it needs an untraced repeat)."""

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def mean_ms(name):
        return 1e3 * _ratio(total(name), calls(name))

    c = counters.get
    out = {
        "graphgen.sample_bipartite.calls": calls("graphgen.sample_bipartite"),
        "graphgen.sample_bipartite.ms": mean_ms("graphgen.sample_bipartite"),
        "graphgen.edges_per_graph": _ratio(c("edges", 0), calls("graphgen.sample_bipartite")),
        "graphgen.pair_distance.ms": mean_ms("graphgen.pair_distance"),
        "graphgen.empirical_distance_law.s": total("graphgen.empirical_distance_law"),
        "bpsim.simulate.calls": calls("bpsim.simulate"),
        "bpsim.simulate.us_per_gen": 1e6 * _ratio(total("bpsim.simulate"), c("sim_generations", 0)),
        "bpsim.pool.attempts": c("pool_attempts", 0),
        "bpsim.pool.accept_rate": _ratio(c("pool_accepted", 0), c("pool_attempts", 0)),
        "bpsim.max_population": c("max_population", 0),
        "bpsim.conditioned_w_pool.s": total("bpsim.conditioned_w_pool"),
        "bpsim.survival_prob.ms": mean_ms("bpsim.survival_prob"),
        "bpsim.labeled_growth.ms": mean_ms("bpsim.labeled_growth"),
        "bpsim.labeled_growth.individuals": _ratio(c("individuals", 0), calls("bpsim.labeled_growth")),
        "bpsim.ghost_scaling.s": total("bpsim.ghost_scaling"),
        "approx.exceed_prob.calls": calls("approx.exceed_prob"),
        "approx.exceed_prob.ms": mean_ms("approx.exceed_prob"),
        "approx.pair_evals": c("pair_evals", 0),
        "approx.ns_per_pair": 1e9 * _ratio(total("approx.exceed_prob"), c("pair_evals", 0)),
        "approx.build_approx_law.s": total("approx.build_approx_law"),
        "approx.compare.s": total("approx.compare"),
        "coincidence.poisson_check.calls": calls("coincidence.poisson_check"),
        "coincidence.p_no_collision_mc.reps": c("mc_reps", 0),
        "coincidence.mc_us_per_rep": 1e6 * _ratio(total("coincidence.p_no_collision_mc"), c("mc_reps", 0)),
        "coincidence.p_no_collision_exact.ms": mean_ms("coincidence.p_no_collision_exact"),
        "runner.parallel_map.s": total("runner.parallel_map"),
        "runner.cores_used": _ratio(c("pmap_cpu", 0.0), c("pmap_wall", 0.0)),
        "runner.write.s": total("runner.write"),
        "runner.write.bytes": c("write_bytes", 0),
        "seeding.derive_seed.calls": calls("seeding.derive_seed"),
        "seeding.derive_seed.s": total("seeding.derive_seed"),
        "model.derived_scalars.ms": mean_ms("model.derived_scalars"),
        "config.load_config.ms": mean_ms("config.load_config"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            st[2] for name, st in stats.items() if name.startswith(layer + ".")
        )
    return out
