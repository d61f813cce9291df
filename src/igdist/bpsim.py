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

from .errors import ConvergenceError, PopulationCapError, SimulationError
from .graphgen import BipartiteGraph, pair_distance, sample_family_subsets
from .model import ModelParams, SpectralData, _integer, _roots, _vertex_type
from .seeding import _generator, derive_seed, replicate_blocks

DEFAULT_POP_CAP = 100_000_000

# extinction_frequency declares a population above this size surviving:
# dying out from N individuals has probability at most q^N, far below
# Monte Carlo resolution, and simulating on exactly would overflow any
# budget
_SURVIVING_POPULATION = 100_000


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
    """One aggregated vertex -> object -> vertex generation of a batch.

    x holds one int64 array over replicates per vertex type; returns
    (y, x') in the same form.  The blocks draw in the order of
    `p.offspring_blocks`; a zero parent count consumes no randomness,
    so the stream does not depend on which replicates live.
    """
    objects, vertices = p.offspring_blocks
    zero = np.zeros_like(x[0])
    y = [zero] * p.J
    for k, j, m_j, pkj in objects:
        y[j] = y[j] + rng.binomial(m_j * x[k], pkj)
    x = [zero] * p.K
    for j, k, n_k, pkj in vertices:
        x[k] = x[k] + rng.binomial(n_k * y[j], pkj)
    return y, x


def simulate_batch(
    p: ModelParams,
    start,
    generations: int,
    reps: int,
    seed: int | np.random.Generator,
    population_cap: int = DEFAULT_POP_CAP,
) -> tuple[np.ndarray, np.ndarray]:
    """Many independent runs at once from one vertex of the 0-based type
    `start` each, vectorized across replicates.

    Returns (X, Y) with shapes (reps, generations+1, K) and
    (reps, generations, J): X[:, i] is vertex generation i and
    Y[:, i - 1] object generation i, and rows after every replicate has
    died out stay zero.  The cap is checked on both sides of each
    generation.  Replicates occupy slots of one shared stream, so the
    batch is deterministic given (seed, reps).  `seed` is an integer
    >= 0 or a numpy Generator, which the draw advances.
    """
    generations = _integer(generations, "generations", 0)
    reps = _integer(reps, "reps", 1)
    population_cap = _integer(population_cap, "population_cap", 1)
    k = _vertex_type(p, start)
    X = np.zeros((reps, generations + 1, p.K), dtype=np.int64)
    Y = np.zeros((reps, generations, p.J), dtype=np.int64)
    X[:, 0, k] = 1
    rng = _generator(seed)
    x = list(X[:, 0].T)
    for i in range(1, generations + 1):
        y, x = _generation(rng, p, x)
        _check_cap(int(sum(y).max()), population_cap, i)
        largest = int(sum(x).max())
        _check_cap(largest, population_cap, i)
        Y[:, i - 1] = np.column_stack(y)
        X[:, i] = np.column_stack(x)
        if largest == 0:
            break
    return X, Y


def w_sample(
    p: ModelParams,
    spec: SpectralData,
    start_type: int,
    horizon: int,
    seed: int | np.random.Generator,
    population_cap: int = DEFAULT_POP_CAP,
) -> float:
    """One draw of the truncated martingale tau^-I * nu @ X(I) from a
    single type-k vertex; it is positive exactly when the run survives,
    since nu is strictly positive.  `seed` is an integer >= 0 or a
    numpy Generator, which the draw advances.

    The one lone run of the process: counts stay Python ints, so every
    binomial takes numpy's scalar path, and a block whose parent count
    is 0 is skipped, which draws what row 0 of a `simulate_batch` of
    one draws.  The cap is checked on the object side, then on the
    vertex side, of each generation.
    """
    horizon = _integer(horizon, "horizon", 1)
    population_cap = _integer(population_cap, "population_cap", 1)
    K, J = len(p.n), len(p.m)
    x = [0] * K
    x[_vertex_type(p, start_type)] = 1
    binomial = _generator(seed).binomial
    objects, vertices = p.offspring_blocks
    for i in range(1, horizon + 1):
        y = [0] * J
        for k, j, m_j, pkj in objects:
            if x[k]:
                y[j] += binomial(m_j * x[k], pkj)
        _check_cap(sum(y), population_cap, i)
        x = [0] * K
        for j, k, n_k, pkj in vertices:
            if y[j]:
                x[k] += binomial(n_k * y[j], pkj)
        total = sum(x)
        _check_cap(total, population_cap, i)
        if not total:
            return 0.0
    return float(spec.nu @ np.array(x, dtype=np.int64)) * spec.tau**-horizon


def survival_prob(p: ModelParams, tol: float = 1e-12, max_iter: int = 1_000_000):
    """P_k[W > 0] per start type, from the extinction fixed point.

    q is the minimal fixed point in [0,1]^K of the one-vertex-generation
    extinction map f_k(s) = prod_j (1 - p_kj + p_kj g_j(s))^{m_j} with
    g_j(s) = prod_l (1 - p_lj + p_lj s_l)^{n_l}; survival is identified
    with {W > 0} (almost-sure positivity on non-extinction).  Raises
    ConvergenceError when `max_iter` iterations leave a step >= tol.
    """
    max_iter = _integer(max_iter, "max_iter", 1)
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
    k = _vertex_type(p, start_type)
    horizon = _integer(horizon, "horizon", 0)
    reps = _integer(reps, "reps", 1)
    rng = _generator(derive_seed(seed, "extinction"))
    x = [np.full(reps, int(i == k), dtype=np.int64) for i in range(p.K)]
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

    Every attempt is one `w_sample` call, and the attempts draw in turn
    from one Generator on the substream (seed, "w"), so the pool is
    deterministic given the seed.  Raises when the acceptance rate falls
    below 1e-4.
    """
    pool_size = _integer(pool_size, "pool_size", 1)
    rng = _generator(derive_seed(seed, "w"))
    values = []
    attempts = 0
    while len(values) < pool_size:
        value = w_sample(p, spec, start_type, horizon, rng, population_cap)
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
    seed: int | np.random.Generator,
    prune_ghosts: bool = False,
    population_cap: int = DEFAULT_POP_CAP,
) -> LabeledForest:
    """Grow the two-rooted labeled process for 2*depth generations.

    Each generation first draws every child count, so `population_cap`
    is checked before any index is.  Child types then draw in ascending
    order, one uniform distinct subset per parent, and the coupling
    decodes each key r * universe + index into parent row and index.
    Global ids number each side's (type, index) pairs and pass on as
    the parents' ids, so one step per generation classifies all
    children in ascending (type, parent, sibling) order: a child of a
    ghost is a ghost; a child whose id was already claimed by a kept
    individual is a ghost, flagged 2 when the claim happened in its own
    generation; everything else is kept (class 1).  Edges arise only
    from kept parents to children of class 1 or 2.

    With prune_ghosts=True ghosts get no offspring; the induced edge set
    and distances are unchanged in law, but deep ghost tallies then only
    count ghosts fathered by kept individuals.  The roots are `_roots`.
    `seed` is an integer >= 0 or a numpy Generator, which the draw
    advances.
    """
    depth = _integer(depth, "depth", 1)
    population_cap = _integer(population_cap, "population_cap", 1)
    root_a, root_b = _roots(p, k1, k2)

    rng = _generator(seed)
    # one entry per side: type sizes, global id offsets, P[parent type,
    # child type] toward the side, ids claimed by a kept individual,
    # ghost tallies per vertex/object generation, and edge endpoints
    sizes = {"X": p.n, "Y": p.m}
    P_to = {"X": p.P.T, "Y": p.P}
    off = {s: np.concatenate([[0], np.cumsum(c)]) for s, c in sizes.items()}
    claimed = {s: np.zeros(o[-1], dtype=bool) for s, o in off.items()}
    ghosts = {s: np.zeros((depth + 1, len(c)), np.int64) for s, c in sizes.items()}
    ends = {s: [np.empty(0, dtype=np.int64)] for s in sizes}

    gid = np.asarray([root_a, root_b])
    claimed["X"][gid] = True
    generations = [
        GenerationRecord(
            side="X",
            types=np.asarray([k1, k2], dtype=np.int64),
            indices=gid - off["X"][[k1, k2]],
            classes=np.asarray([1, 1], dtype=np.int8),
            parent_rows=np.asarray([-1, -1], dtype=np.int64),
        )
    ]

    for g in range(1, 2 * depth + 1):
        parent, parent_gid = generations[-1], gid
        ps, cs = parent.side, "Y" if parent.side == "X" else "X"
        kept = parent.classes == 1
        rows = np.flatnonzero(kept) if prune_ghosts else np.arange(kept.size)

        # counts[b, r]: type-b children of parent row rows[r].  Every
        # count is drawn before any index, so the cap is checked first.
        counts = rng.binomial(sizes[cs][:, None], P_to[cs][parent.types[rows]].T)
        _check_cap(int(counts.sum()), population_cap, g)
        if not counts.any():
            break
        types = np.repeat(np.arange(len(counts)), counts.sum(axis=1))
        # per child type, keys r * universe + index; rows[r] is the parent
        fam, ix = (np.concatenate(a) for a in zip(*[
            np.divmod(sample_family_subsets(rng, c, universe), universe)
            for c, universe in zip(counts, sizes[cs].tolist())
        ]))

        # classify every child at once on global ids, which never
        # collide across child types
        gid = off[cs][types] + ix
        fresh = np.flatnonzero(kept[rows[fam]] & ~claimed[cs][gid])
        _, first = np.unique(gid[fresh], return_index=True)
        cls = np.zeros(types.size, dtype=np.int8)
        cls[fresh] = 2
        cls[fresh[first]] = 1
        claimed[cs][gid[fresh]] = True
        edge = rows[fam[cls != 0]]
        ends[cs].append(gid[cls != 0])
        ends[ps].append(parent_gid[edge])
        ghost_types = types[cls != 1]
        ghosts[cs][(g + 1) // 2] += np.bincount(ghost_types, minlength=len(sizes[cs]))
        generations.append(GenerationRecord(cs, types, ix, cls, rows[fam]))

    return LabeledForest(
        params=p, depth=depth, generations=generations,
        ghost_x=ghosts["X"], ghost_y=ghosts["Y"],
        edges_v=np.concatenate(ends["X"]), edges_o=np.concatenate(ends["Y"]),
        root_a=root_a, root_b=root_b,
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
    # every argument is checked before any worker is forked
    depth = _integer(depth, "depth", 1)
    workers = _integer(workers, "workers", 1)
    population_cap = _integer(population_cap, "population_cap", 1)
    _roots(p, k1, k2)
    from .runner import _call, parallel_map  # runner imports this module

    def ghosts(rng, count):  # the tallies, not the forests, travel back
        forests = (
            labeled_growth(p, k1, k2, depth, rng, population_cap=population_cap)
            for _ in range(count)
        )
        return [(f.ghost_x, f.ghost_y) for f in forests]

    blocks = replicate_blocks(ghosts, reps, 1, seed, "ghost")
    tallies = [t for blk in parallel_map(_call, blocks, workers) for t in blk]
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
