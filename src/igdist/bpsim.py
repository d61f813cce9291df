"""Bipartite multitype branching process: trajectories, martingale
limits, extinction, and the labeled coupling with ghost bookkeeping.

Generations alternate vertex side and object side.  A type-k vertex
spawns objects per class j as Binomial(m_j, p_kj); a type-j object
spawns vertices per class k as Binomial(n_k, p_kj).  Aggregated counts
use binomial additivity (the sum of X iid Bi(m, p) draws is
Bi(m*X, p)), which is the exact offspring law of the whole generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    PopulationCapError,
    SimulationError,
    ValidationError,
)
from .graphgen import BipartiteGraph, pair_distance, sample_family_subsets
from .model import ModelParams, SpectralData
from .seeding import derive_seed

DEFAULT_POP_CAP = 100_000_000

# extinction_frequency declares a population above this size surviving:
# dying out from N individuals has probability at most q^N, far below
# Monte Carlo resolution, and simulating on exactly would overflow any
# budget
_SURVIVING_POPULATION = 100_000


@dataclass
class Trajectory:
    """Type counts of one run: X is (I+1, K) over generations 0..I, Y is
    (I, J) over generations 1..I."""

    X: np.ndarray
    Y: np.ndarray


@dataclass
class GenerationRecord:
    """One labeled generation: parallel arrays over individuals.

    classes: 1 = kept, 0 = ghost, 2 = ghost whose index was first
    claimed in its own generation (these still carry one edge).
    parent_rows point into the previous generation's arrays (-1 = root).
    """

    side: str  # "X" (vertices) or "Y" (objects)
    types: np.ndarray
    indices: np.ndarray
    classes: np.ndarray
    parent_rows: np.ndarray

    def size(self) -> int:
        return len(self.types)


@dataclass
class LabeledForest:
    """Labeled two-rooted growth with ghost tallies and induced edges.

    edges_v/edges_o pair a vertex index-node with an object index-node;
    together they form the realized bipartite index graph, whose halved
    distances are intersection-graph distances.
    """

    params: ModelParams
    depth: int
    generations: list[GenerationRecord]
    ghost_x: np.ndarray  # (depth+1, K), ghosts in vertex generation i
    ghost_y: np.ndarray  # (depth+1, J), ghosts in object generation i (row 0 unused)
    edges_v: np.ndarray
    edges_o: np.ndarray
    root_a: int
    root_b: int
    pruned: bool = False

    def distance(self):
        """Intersection-graph distance between the two roots; inf when
        not connected within depth."""
        g = BipartiteGraph.from_edges(
            self.params.n, self.params.m, self.edges_v, self.edges_o
        )
        return pair_distance(g, self.root_a, self.root_b)


def _check_cap(count: int, cap: int, generation: int) -> None:
    if count > cap:
        raise PopulationCapError(generation, count, cap)


def _generation(rng, p: ModelParams, x: list) -> tuple[list, list]:
    """One aggregated vertex -> object -> vertex generation.

    x holds one count per vertex type: a Python int for a lone
    replicate, which keeps every binomial on numpy's scalar path, or an
    int64 array over replicates for a batch.  Returns (y, x') in the
    same form.  Object blocks draw in (k, j) order and vertex blocks in
    (j, k) order, skipping p_kj = 0; a zero parent count consumes no
    randomness, so the stream does not depend on which replicates live.
    """
    P, m, n = p.P.tolist(), p.m.tolist(), p.n.tolist()
    zero = 0 * x[0]
    y = [zero] * len(m)
    for k, row in enumerate(P):
        for j, pkj in enumerate(row):
            if pkj > 0.0:
                y[j] = y[j] + rng.binomial(m[j] * x[k], pkj)
    x = [zero] * len(n)
    for j, col in enumerate(zip(*P)):
        for k, pkj in enumerate(col):
            if pkj > 0.0:
                x[k] = x[k] + rng.binomial(n[k] * y[j], pkj)
    return y, x


def _largest(total) -> int:
    """Largest replicate total of an int (one replicate) or an array."""
    return total if isinstance(total, int) else int(total.max())


def _grow(rng, p: ModelParams, x: list, X: np.ndarray, Y: np.ndarray, cap: int):
    """Fill X[..., i, :] and Y[..., i - 1, :] for i = 1, 2, ... from the
    generation-0 state x, checking the cap on both sides; rows after
    every replicate has died out stay zero."""
    for i in range(1, X.shape[-2]):
        y, x = _generation(rng, p, x)
        _check_cap(_largest(sum(y)), cap, i)
        largest = _largest(sum(x))
        _check_cap(largest, cap, i)
        for j, c in enumerate(y):
            Y[..., i - 1, j] = c
        for k, c in enumerate(x):
            X[..., i, k] = c
        if largest == 0:
            return


def _start_vector(p: ModelParams, start) -> np.ndarray:
    """Either a single 0-based type id or a length-K count vector."""
    if isinstance(start, (int, np.integer)):
        # e_k: nonempty, nonnegative and within n_k >= 2 by construction
        if not 0 <= int(start) < p.K:
            raise ValidationError(f"invalid start type {start}")
        x0 = np.zeros(p.K, dtype=np.int64)
        x0[int(start)] = 1
        return x0
    x0 = np.asarray(start, dtype=np.int64)
    if x0.shape != (p.K,):
        raise ValidationError("start must be a type id or a length-K count vector")
    if x0.sum() == 0:
        raise ValidationError("start must be nonempty")
    if (x0 < 0).any():
        raise ValidationError("start counts must be nonnegative")
    if (x0 > p.n).any():
        raise ValidationError("X(0) exceeds available vertices of some type")
    return x0


def simulate(
    p: ModelParams,
    start,
    generations: int,
    seed: int,
    population_cap: int = DEFAULT_POP_CAP,
) -> Trajectory:
    """Run the aggregated process for `generations` vertex generations.

    `start` is a single 0-based vertex type or a length-K count vector.
    Deterministic given the seed.
    """
    if generations < 0:
        raise ValidationError("generations must be >= 0")
    x0 = _start_vector(p, start)
    X = np.zeros((generations + 1, p.K), dtype=np.int64)
    Y = np.zeros((generations, p.J), dtype=np.int64)
    X[0] = x0
    _grow(np.random.default_rng(seed), p, x0.tolist(), X, Y, population_cap)
    return Trajectory(X=X, Y=Y)


def simulate_batch(
    p: ModelParams,
    start,
    generations: int,
    reps: int,
    seed: int,
    population_cap: int = DEFAULT_POP_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Many independent runs at once, vectorized across replicates.

    Returns (X, Y) with shapes (reps, generations+1, K) and
    (reps, generations, J).  Replicates occupy slots of one shared
    stream, so the batch is deterministic given (seed, reps); use
    `simulate` when each replicate must own a substream.
    """
    if generations < 0:
        raise ValidationError("generations must be >= 0")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    x0 = _start_vector(p, start)
    X = np.zeros((reps, generations + 1, p.K), dtype=np.int64)
    Y = np.zeros((reps, generations, p.J), dtype=np.int64)
    X[:, 0] = x0
    x = [np.full(reps, c, dtype=np.int64) for c in x0.tolist()]
    _grow(np.random.default_rng(seed), p, x, X, Y, population_cap)
    return X, Y


def w_sample(
    p: ModelParams,
    spec: SpectralData,
    start_type: int,
    horizon: int,
    seed: int,
    population_cap: int = DEFAULT_POP_CAP,
) -> float:
    """One draw of the truncated martingale tau^-I * nu @ X(I) from a
    single type-k vertex; it is positive exactly when the run survives,
    since nu is strictly positive."""
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    traj = simulate(p, start_type, horizon, seed, population_cap)
    return float(spec.nu @ traj.X[-1]) * spec.tau**-horizon


def survival_prob(p: ModelParams, tol: float = 1e-12, max_iter: int = 1_000_000):
    """P_k[W > 0] per start type, from the extinction fixed point.

    q is the minimal fixed point in [0,1]^K of the one-vertex-generation
    extinction map f_k(s) = prod_j (1 - p_kj + p_kj g_j(s))^{m_j} with
    g_j(s) = prod_l (1 - p_lj + p_lj s_l)^{n_l}; survival is identified
    with {W > 0} (almost-sure positivity on non-extinction).  Raises
    ConvergenceError when `max_iter` iterations leave a step >= tol.
    """
    P = p.P
    s = np.zeros(p.K)
    for _ in range(max_iter):
        g = np.prod((1.0 - P + P * s[:, None]) ** p.n[:, None], axis=0)
        f = np.prod((1.0 - P + P * g[None, :]) ** p.m[None, :], axis=1)
        if np.abs(f - s).max() < tol:
            return 1.0 - f
        s = f
    raise ConvergenceError(
        f"extinction fixed point not within {tol} after {max_iter} iterations"
    )


def extinction_frequency(
    p: ModelParams,
    start_type: int,
    horizon: int,
    reps: int,
    seed: int,
) -> float:
    """Monte Carlo fraction of runs extinct by `horizon` generations.

    All replicates step together on the stream (seed, "extinction"); a
    replicate leaves the batch when it dies out or when its population
    passes _SURVIVING_POPULATION, which counts it as surviving.
    """
    if not 0 <= start_type < p.K:
        raise ValidationError(f"invalid vertex type {start_type}")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, "extinction"))
    x = [np.full(reps, int(k == start_type), dtype=np.int64) for k in range(p.K)]
    extinct = 0
    for _ in range(horizon):
        _, x = _generation(rng, p, x)
        total = sum(x)
        extinct += int(np.count_nonzero(total == 0))
        live = (total > 0) & (total <= _SURVIVING_POPULATION)
        if not live.any():
            break
        x = [c[live] for c in x]
    return extinct / reps


def conditioned_w_pool(
    p: ModelParams,
    spec: SpectralData,
    start_type: int,
    horizon: int,
    pool_size: int,
    seed: int,
    population_cap: int = DEFAULT_POP_CAP,
) -> np.ndarray:
    """Positive truncated-martingale values conditioned on survival.

    Attempts are indexed substreams of the seed, so the pool is
    reproducible regardless of batching.  Raises when the acceptance
    rate falls below 1e-4.
    """
    if pool_size < 1:
        raise ValidationError("pool_size must be >= 1")
    values = []
    attempts = 0
    while len(values) < pool_size:
        value = w_sample(
            p, spec, start_type, horizon, derive_seed(seed, "w", attempts),
            population_cap,
        )
        attempts += 1
        if value > 0.0:
            values.append(value)
        if attempts >= 10_000 and len(values) < attempts * 1e-4:
            raise SimulationError(
                f"survival too rare: {len(values)}/{attempts} accepted"
            )
    return np.asarray(values)


def labeled_growth(
    p: ModelParams,
    k1: int,
    k2: int,
    depth: int,
    seed: int,
    prune_ghosts: bool = False,
    population_cap: int = DEFAULT_POP_CAP,
) -> LabeledForest:
    """Grow the two-rooted labeled process for 2*depth generations.

    Indices are assigned per family as uniform distinct subsets of the
    type's index range.  Individuals are classified generation by
    generation in ascending (type, parent, sibling) order: a child of a
    ghost is a ghost; a child whose index was already claimed by a kept
    individual of the same type is a ghost, flagged 2 when the claim
    happened in its own generation; everything else is kept (class 1).
    Edges arise only from kept parents to children of class 1 or 2.

    With prune_ghosts=True ghosts get no offspring; the induced edge set
    and distances are unchanged in law, but deep ghost tallies then only
    count ghosts fathered by kept individuals.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    for k in (k1, k2):
        if not 0 <= k < p.K:
            raise ValidationError(f"invalid vertex type {k}")

    rng = np.random.default_rng(seed)
    v_off = np.concatenate([[0], np.cumsum(p.n)])
    o_off = np.concatenate([[0], np.cumsum(p.m)])

    # generation of first class-1 claim per (side, type, index); -1 = never
    first_gen_x = [np.full(int(c), -1, dtype=np.int64) for c in p.n]
    first_gen_y = [np.full(int(c), -1, dtype=np.int64) for c in p.m]

    ix_b = 1 if k1 == k2 else 0
    roots = GenerationRecord(
        side="X",
        types=np.asarray([k1, k2], dtype=np.int64),
        indices=np.asarray([0, ix_b], dtype=np.int64),
        classes=np.asarray([1, 1], dtype=np.int8),
        parent_rows=np.asarray([-1, -1], dtype=np.int64),
    )
    first_gen_x[k1][0] = 0
    first_gen_x[k2][ix_b] = 0

    generations = [roots]
    ghost_x = np.zeros((depth + 1, p.K), dtype=np.int64)
    ghost_y = np.zeros((depth + 1, p.J), dtype=np.int64)
    edges_v: list[np.ndarray] = []
    edges_o: list[np.ndarray] = []

    for g in range(1, 2 * depth + 1):
        parent_rec = generations[-1]
        to_objects = parent_rec.side == "X"
        child_side = "Y" if to_objects else "X"
        n_child_types = p.J if to_objects else p.K
        sizes = p.m if to_objects else p.n
        first_gen = first_gen_y if to_objects else first_gen_x
        x_gen = (g + 1) // 2  # vertex/object generation index i

        if prune_ghosts:
            parent_sel = np.flatnonzero(parent_rec.classes == 1)
        else:
            parent_sel = np.arange(parent_rec.size())
        if parent_sel.size == 0:
            break
        par_types = parent_rec.types[parent_sel]
        par_classes = parent_rec.classes[parent_sel]
        par_indices = parent_rec.indices[parent_sel]

        types_parts, ix_parts, cls_parts, prow_parts = [], [], [], []
        for b in range(n_child_types):
            universe = int(sizes[b])
            pvals = p.P[par_types, b] if to_objects else p.P[b, par_types]
            counts = rng.binomial(universe, pvals)
            total = int(counts.sum())
            if total == 0:
                continue
            fam = np.repeat(np.arange(parent_sel.size), counts)
            ix = sample_family_subsets(rng, fam, universe)
            pcls = par_classes[fam]

            cls = np.zeros(total, dtype=np.int8)
            elig = np.flatnonzero(pcls == 1)
            if elig.size:
                fg = first_gen[b]
                e_ix = ix[elig]
                fresh = fg[e_ix] < 0
                f_slots = elig[fresh]
                if f_slots.size:
                    f_ix = ix[f_slots]
                    win = np.zeros(f_slots.size, dtype=bool)
                    _, first_pos = np.unique(f_ix, return_index=True)
                    win[first_pos] = True
                    cls[f_slots[win]] = 1
                    cls[f_slots[~win]] = 2
                    fg[f_ix[win]] = g
                # indices claimed in an earlier generation stay plain ghosts

            emask = (pcls == 1) & (cls != 0)
            if emask.any():
                child_nodes = (o_off[b] if to_objects else v_off[b]) + ix[emask]
                par_t = par_types[fam[emask]]
                par_nodes = (
                    v_off[par_t] if to_objects else o_off[par_t]
                ) + par_indices[fam[emask]]
                if to_objects:
                    edges_v.append(par_nodes)
                    edges_o.append(child_nodes)
                else:
                    edges_v.append(child_nodes)
                    edges_o.append(par_nodes)

            ghosts = int(np.count_nonzero(cls != 1))
            if to_objects:
                ghost_y[x_gen, b] += ghosts
            else:
                ghost_x[x_gen, b] += ghosts

            types_parts.append(np.full(total, b, dtype=np.int64))
            ix_parts.append(ix)
            cls_parts.append(cls)
            prow_parts.append(parent_sel[fam])

        if not types_parts:
            break
        rec = GenerationRecord(
            side=child_side,
            types=np.concatenate(types_parts),
            indices=np.concatenate(ix_parts),
            classes=np.concatenate(cls_parts),
            parent_rows=np.concatenate(prow_parts),
        )
        _check_cap(rec.size(), population_cap, g)
        generations.append(rec)

    empty = np.empty(0, dtype=np.int64)
    return LabeledForest(
        params=p,
        depth=depth,
        generations=generations,
        ghost_x=ghost_x,
        ghost_y=ghost_y,
        edges_v=np.concatenate(edges_v) if edges_v else empty,
        edges_o=np.concatenate(edges_o) if edges_o else empty,
        root_a=int(v_off[k1]) + 0,
        root_b=int(v_off[k2]) + ix_b,
        pruned=prune_ghosts,
    )


def ghost_scaling(
    p: ModelParams,
    spec: SpectralData,
    depth: int,
    reps: int,
    seed: int,
    k1: int = 0,
    k2: int = 0,
    workers: int = 1,
    population_cap: int = DEFAULT_POP_CAP,
) -> list[dict]:
    """Monte Carlo ghost means per generation with their scaling ratios.

    ratio_x divides the mean vertex-side ghost count at generation i by
    tau^{2i} e(m,n)^4; ratio_y divides the object-side mean by
    sqrt(m/n) tau^{2(i-1)} e(m,n)^4.  Non-growing ratios are the
    empirical signature of the uniform ghost-mean bound.
    """
    from .runner import parallel_map  # runner imports this module

    def ghosts(s):
        f = labeled_growth(p, k1, k2, depth, s, population_cap=population_cap)
        return f.ghost_x, f.ghost_y

    seeds = [derive_seed(seed, "ghost", r) for r in range(reps)]
    tallies = parallel_map(ghosts, seeds, workers)
    gx = np.mean([t[0] for t in tallies], axis=0)
    gy = np.mean([t[1] for t in tallies], axis=0)
    e4 = spec.e_mn**4
    ratio_scale_y = math.sqrt(p.m_total / p.n_total)
    rows = []
    for i in range(1, depth + 1):
        gxi = float(gx[i].sum())
        gyi = float(gy[i].sum())
        rows.append(
            {
                "i": i,
                "ghostX_mean": gxi,
                "ghostY_mean": gyi,
                "ratioX": gxi / (spec.tau ** (2 * i) * e4),
                "ratioY": gyi
                / (ratio_scale_y * spec.tau ** (2 * (i - 1)) * e4),
            }
        )
    return rows
