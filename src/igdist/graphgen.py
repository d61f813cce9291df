"""Bipartite graph sampling and intersection-graph distances.

The intersection graph is never materialized: two vertices are adjacent
iff they share an object, so intersection distance is half the bipartite
distance.  A query runs two searches, from both vertices, that meet in
the middle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import ModelParams
from .seeding import derive_seed

INF = math.inf


def sample_family_subsets(rng, fam: np.ndarray, universe: int) -> np.ndarray:
    """Uniform distinct indices within each family, batched.

    `fam` labels each slot with its family; the result gives every slot
    an index in range(universe).  Each pending slot redraws uniformly
    until free; earlier slots win intra-round ties.  Conditional on the
    accepted set, every accepted value is uniform over its family's
    unused indices, so the family's final index set is a uniform subset,
    exactly as if filled one draw at a time.  A family filling most of
    the universe needs many rounds, so callers drawing more than half of
    it draw the complement instead.
    """
    total = len(fam)
    vals = np.empty(total, dtype=np.int64)
    pending = np.arange(total)
    taken = np.empty(0, dtype=np.int64)  # sorted keys fam * universe + value
    while pending.size:
        cand = rng.integers(0, universe, size=pending.size)
        key, first_pos = np.unique(fam[pending] * universe + cand, return_index=True)
        at = np.searchsorted(taken, key)
        old = at < taken.size
        old[old] = taken[at[old]] == key[old]
        keep = np.zeros(pending.size, dtype=bool)
        keep[first_pos[~old]] = True
        vals[pending[keep]] = cand[keep]
        taken = np.sort(np.concatenate([taken, key[~old]]))
        pending = pending[~keep]
    return vals


class _Rows:
    """Read-only per-node view of a CSR adjacency: rows[i] is node i's
    neighbour array."""

    __slots__ = ("_ptr", "_idx")

    def __init__(self, ptr: np.ndarray, idx: np.ndarray):
        self._ptr = ptr
        self._idx = idx

    def __len__(self) -> int:
        return len(self._ptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._idx[self._ptr[i] : self._ptr[i + 1]]

    def __iter__(self):
        bounds = self._ptr.tolist()
        return (self._idx[a:b] for a, b in zip(bounds, bounds[1:]))


def _csr(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int):
    """CSR arrays of the pairs (rows[i], cols[i]), each row ascending."""
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
    idx = np.sort(rows * n_cols + cols) % n_cols
    ptr.flags.writeable = False
    idx.flags.writeable = False
    return ptr, idx


@dataclass(frozen=True)
class BipartiteGraph:
    """Sampled vertex-object adjacency in CSR form, both directions.

    Vertices and objects use global 0-based ids, type by type;
    `vertex_offsets`/`object_offsets` give the per-type split.  Vertex
    v's objects are `vertex_idx[vertex_ptr[v]:vertex_ptr[v+1]]` and
    object o's vertices likewise, each in ascending order.
    """

    vertex_ptr: np.ndarray = field(repr=False)
    vertex_idx: np.ndarray = field(repr=False)
    object_ptr: np.ndarray = field(repr=False)
    object_idx: np.ndarray = field(repr=False)
    vertex_offsets: np.ndarray = field(repr=False)
    object_offsets: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, n, m, v, o) -> "BipartiteGraph":
        """Graph on the per-type vertex counts n and object counts m with
        edges (v[i], o[i]) in global ids; duplicates are the caller's
        responsibility."""
        n_v, n_o = int(np.sum(n)), int(np.sum(m))
        v = np.asarray(v, dtype=np.int64)
        o = np.asarray(o, dtype=np.int64)
        if v.shape != o.shape:
            raise ValidationError("edge arrays differ in length")
        if v.size and not (
            0 <= v.min() and v.max() < n_v and 0 <= o.min() and o.max() < n_o
        ):
            raise ValidationError("edge endpoint out of range")
        vertex_ptr, vertex_idx = _csr(v, o, n_v, n_o)
        object_ptr, object_idx = _csr(o, v, n_o, n_v)
        return cls(
            vertex_ptr=vertex_ptr,
            vertex_idx=vertex_idx,
            object_ptr=object_ptr,
            object_idx=object_idx,
            vertex_offsets=np.concatenate([[0], np.cumsum(n)]),
            object_offsets=np.concatenate([[0], np.cumsum(m)]),
        )

    @property
    def vertex_adj(self) -> _Rows:
        return _Rows(self.vertex_ptr, self.vertex_idx)

    @property
    def object_adj(self) -> _Rows:
        return _Rows(self.object_ptr, self.object_idx)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ptr) - 1

    @property
    def n_objects(self) -> int:
        return len(self.object_ptr) - 1

    def edge_count(self) -> int:
        return len(self.vertex_idx)


@dataclass
class DistanceLaw:
    """Defective distance distribution: finite histogram plus mass at
    infinity."""

    counts: dict[int, int]
    infinite_count: int
    total: int

    def __post_init__(self):
        if sum(self.counts.values()) + self.infinite_count != self.total:
            raise ValidationError("distance law counts do not sum to total")

    def prob_greater(self, d: int) -> float:
        """P[D > d], counting infinite distances."""
        finite = sum(c for dd, c in self.counts.items() if dd > d)
        return (finite + self.infinite_count) / self.total

    def prob_infinite(self) -> float:
        return self.infinite_count / self.total

    @classmethod
    def from_samples(cls, samples) -> "DistanceLaw":
        counts: dict[int, int] = {}
        inf_count = 0
        for d in samples:
            if d == INF:
                inf_count += 1
            else:
                counts[int(d)] = counts.get(int(d), 0) + 1
        return cls(counts=counts, infinite_count=inf_count, total=len(samples))

    def to_rows(self) -> list[tuple[str, int]]:
        rows = [(str(d), c) for d, c in sorted(self.counts.items())]
        rows.append(("inf", self.infinite_count))
        return rows

    @classmethod
    def from_rows(cls, rows) -> "DistanceLaw":
        counts: dict[int, int] = {}
        inf_count = 0
        for d, c in rows:
            if str(d) == "inf":
                inf_count += int(c)
            else:
                counts[int(d)] = counts.get(int(d), 0) + int(c)
        return cls(counts, inf_count, sum(counts.values()) + inf_count)


def sample_bipartite(p: ModelParams, seed: int) -> BipartiteGraph:
    """Sample the typed bipartite graph with independent (v,u) edges.

    Per (vertex class k, object class j) block, Binomial(m_j, p_kj)
    degrees are drawn for all type-k vertices at once and each vertex's
    objects are a uniform distinct subset, batched over the block; equal
    in law to per-pair Bernoulli trials but linear in the edge count.
    Blocks with p_kj > 1/2 draw their non-edges the same way with
    probability 1 - p_kj, so the subset draws never fill a row.
    """
    rng = np.random.default_rng(seed)
    v_off = np.concatenate([[0], np.cumsum(p.n)])
    o_off = np.concatenate([[0], np.cumsum(p.m)])
    vs: list[np.ndarray] = []
    obs: list[np.ndarray] = []
    for k in range(p.K):
        n_k = int(p.n[k])
        for j in range(p.J):
            prob = float(p.P[k, j])
            if prob == 0.0:
                continue
            m_j = int(p.m[j])
            dense = prob > 0.5
            degs = rng.binomial(m_j, 1.0 - prob if dense else prob, size=n_k)
            fam = np.repeat(np.arange(n_k), degs)
            objs = sample_family_subsets(rng, fam, m_j)
            if dense:
                keep = np.ones((n_k, m_j), dtype=bool)
                keep[fam, objs] = False
                fam, objs = np.nonzero(keep)
            vs.append(fam + v_off[k])
            obs.append(objs + o_off[j])
    empty = np.empty(0, dtype=np.int64)
    return BipartiteGraph.from_edges(
        p.n,
        p.m,
        np.concatenate(vs) if vs else empty,
        np.concatenate(obs) if obs else empty,
    )


def _gather(ptr: np.ndarray, idx: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows of `nodes`."""
    starts = ptr[nodes]
    lens = ptr[nodes + 1] - starts
    row_start = np.cumsum(lens) - lens
    pos = np.arange(int(lens.sum())) + np.repeat(starts - row_start, lens)
    return idx[pos]


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of x.  Plain `np.unique` imports `numpy.ma`
    on first use (13-18 ms), which every fresh worker would pay."""
    x = np.sort(x)
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def pair_distance(g: BipartiteGraph, a: int, b: int):
    """Intersection-graph distance between vertices a and b.

    Two searches meet in the middle: each step grows the ball with the
    smaller vertex frontier by one level, vertex -> object -> vertex.
    While the balls of radii t_a and t_b are disjoint, d(a, b) > t_a + t_b,
    so the first step that reaches the other ball gives the distance
    exactly; a side that gains no vertex has exhausted its component.
    0 iff a == b, inf iff the vertices are in different components.
    """
    n_v, n_o = g.n_vertices, g.n_objects
    for v in (a, b):
        if not 0 <= v < n_v:
            raise ValidationError(f"invalid vertex id {v}")
    if a == b:
        return 0
    # ball[v] is 1 or 2 when v is in a's or b's ball, else 0.  Disjoint
    # vertex balls have disjoint object balls, so one seen flag serves
    # the objects of both.
    ball = np.zeros(n_v, dtype=np.int8)
    seen_o = np.zeros(n_o, dtype=bool)
    ball[a], ball[b] = 1, 2
    frontier = [np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)]
    radius = [0, 0]
    while True:
        s = 0 if frontier[0].size <= frontier[1].size else 1
        objs = _gather(g.vertex_ptr, g.vertex_idx, frontier[s])
        objs = _distinct(objs[~seen_o[objs]])
        seen_o[objs] = True
        verts = _gather(g.object_ptr, g.object_idx, objs)
        owner = ball[verts]
        if (owner == 2 - s).any():  # the other side's mark
            return radius[0] + radius[1] + 1
        verts = _distinct(verts[owner == 0])
        if not verts.size:
            return INF
        ball[verts] = s + 1
        radius[s] += 1
        frontier[s] = verts


def sample_pair_distance(
    p: ModelParams, k1: int, k2: int, seed: int
):
    """One replicate: fresh graph, uniform ordered pair of distinct
    typed vertices, one distance search."""
    g = sample_bipartite(p, seed)
    rng = np.random.default_rng(derive_seed(seed, "pair"))
    off1 = int(g.vertex_offsets[k1])
    off2 = int(g.vertex_offsets[k2])
    a = off1 + int(rng.integers(0, int(p.n[k1])))
    if k1 == k2:
        b = off2 + int(rng.integers(0, int(p.n[k2]) - 1))
        if b >= a:
            b += 1
    else:
        b = off2 + int(rng.integers(0, int(p.n[k2])))
    return pair_distance(g, a, b)


def empirical_distance_law(
    p: ModelParams,
    k1: int,
    k2: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> DistanceLaw:
    """Monte Carlo distance law between a type-k1 and a type-k2 vertex.

    Each replicate samples a fresh graph and one uniform ordered pair of
    distinct vertices; replicate r uses the substream (seed, "graph", r),
    so the histogram is identical for any worker count.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    for k in (k1, k2):
        if not 0 <= k < p.K:
            raise ValidationError(f"invalid vertex type {k}")
    from .runner import parallel_map  # runner imports this module

    replicate = functools.partial(sample_pair_distance, p, k1, k2)
    return DistanceLaw.from_samples(
        parallel_map(replicate, distance_seeds(seed, reps), workers)
    )


def distance_seeds(seed: int, reps: int) -> list[int]:
    """The replicate seeds of `empirical_distance_law`: replicate r uses
    the substream (seed, "graph", r)."""
    return [derive_seed(seed, "graph", r) for r in range(reps)]
