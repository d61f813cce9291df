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
from .model import ModelParams, _array, _integer, _is_integer, _roots
from .seeding import _generator, replicate_blocks

INF = math.inf


def sample_family_subsets(rng, counts, universe: int) -> np.ndarray:
    """Uniform distinct indices within each family, batched, as keys.

    Family f draws a uniform counts[f]-subset of range(universe) as the
    keys f * universe + index, so `keys % universe` are its indices; the
    result is every family's keys, ascending.  Every round sorts the
    keys, keeps one copy of each repeated key and redraws the other
    copies within their own family, until no key repeats.  A round
    commutes with any permutation of one family's indices, and the
    redraws are fresh uniforms, so each family's final set is a uniform
    subset, independently of the other families.  A family of more than
    half the universe draws its universe - counts[f] missing indices
    instead, which keeps the rounds short, and returns the rest of its
    mask row.  `rng` is a numpy Generator, which the draw advances.
    """
    counts = np.asarray(counts, dtype=np.int64)
    top = counts.max(initial=0)
    if top > universe:
        raise ValidationError("a family is larger than its universe")
    drawn = np.minimum(counts, universe - counts) if 2 * top > universe else counts
    keys = np.repeat(np.arange(counts.size, dtype=np.int64) * universe, drawn)
    keys += rng.integers(0, universe, size=keys.size)
    keys.sort()
    while True:
        dup = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        if not dup.size:
            break
        fam = keys[dup] - keys[dup] % universe  # a redraw keeps its family
        keys[dup] = fam + rng.integers(0, universe, size=dup.size)
        keys.sort(kind="stable")
    if 2 * top <= universe:
        return keys
    flip = drawn < counts
    missing = np.repeat(flip, drawn)
    mask = np.ones((int(flip.sum()), universe), dtype=bool)
    mask_row = np.repeat(np.arange(len(mask)), drawn[flip])
    mask[mask_row, keys[missing] % universe] = False
    mask_row, ix = np.divmod(np.flatnonzero(mask), universe)
    out_flip = np.repeat(flip, counts)
    out = np.empty(out_flip.size, dtype=np.int64)
    out[out_flip] = np.flatnonzero(flip)[mask_row] * universe + ix
    out[~out_flip] = keys[~missing]
    return out


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
    """CSR arrays of the pairs (rows[i], cols[i]), each row ascending.
    Reads `rows` and takes `cols` over: pairs already in (row, col)
    order, as the vertex side of a one-block `sample_bipartite` graph
    is, keep `cols` as the index array; the others sort their keys in
    place."""
    ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=ptr[1:])
    keys = rows * n_cols
    keys += cols
    if (keys[1:] >= keys[:-1]).all():
        idx = cols
    else:
        keys.sort()
        idx = np.remainder(keys, n_cols, out=keys)
    ptr.flags.writeable = False
    idx.flags.writeable = False
    return ptr, idx


@dataclass(frozen=True)
class BipartiteGraph:
    """Sampled vertex-object adjacency in CSR form, both directions.

    Vertices and objects use global 0-based ids, type by type;
    `vertex_offsets` gives the per-type split of the vertices.  Vertex
    v's objects are `vertex_idx[vertex_ptr[v]:vertex_ptr[v+1]]` and
    object o's vertices likewise, each in ascending order.
    """

    vertex_ptr: np.ndarray = field(repr=False)
    vertex_idx: np.ndarray = field(repr=False)
    object_ptr: np.ndarray = field(repr=False)
    object_idx: np.ndarray = field(repr=False)
    vertex_offsets: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, n, m, v, o) -> "BipartiteGraph":
        """Graph on the per-type vertex counts n and object counts m with
        edges (v[i], o[i]) in global ids; duplicates are the caller's
        responsibility.  All four must be 1-D integer arrays (no bools or
        floats).  The graph holds copies of v and o."""
        n, m = _array(n, "n", np.int64, 1), _array(m, "m", np.int64, 1)
        v, o = _array(v, "v", np.int64, 1), _array(o, "o", np.int64, 1)
        n_v, n_o = int(n.sum()), int(m.sum())
        if v.shape != o.shape:
            raise ValidationError("edge arrays differ in length")
        if v.size and not (
            0 <= v.min() and v.max() < n_v and 0 <= o.min() and o.max() < n_o
        ):
            raise ValidationError("edge endpoint out of range")
        return cls._owning(n, m, v, o)

    @classmethod
    def _owning(cls, n, m, v, o) -> "BipartiteGraph":
        """`from_edges` on int64 edge arrays that are in range and that
        the graph takes over: its CSR is built in place from them."""
        n_v, n_o = int(np.sum(n)), int(np.sum(m))
        vertex_ptr, vertex_idx = _csr(v, o, n_v, n_o)
        object_ptr, object_idx = _csr(o, v, n_o, n_v)
        return cls(
            vertex_ptr=vertex_ptr,
            vertex_idx=vertex_idx,
            object_ptr=object_ptr,
            object_idx=object_idx,
            vertex_offsets=np.concatenate([[0], np.cumsum(n)]),
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
        if min(self.counts, default=0) < 0:
            raise ValidationError("distance law has a negative distance")
        if min([*self.counts.values(), self.infinite_count]) < 0:
            raise ValidationError("distance law has a negative count")
        if sum(self.counts.values()) + self.infinite_count != self.total:
            raise ValidationError("distance law counts do not sum to total")
        if self.total == 0:
            raise ValidationError("distance law has no samples")

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


def sample_bipartite(p: ModelParams, seed: int | np.random.Generator) -> BipartiteGraph:
    """Sample the typed bipartite graph with independent (v,u) edges.

    Per (vertex class k, object class j) block of n_k * m_j cells, the
    edge count is Binomial(n_k * m_j, p_kj) and the edge set a uniform
    subset of that many cells, one `sample_family_subsets` draw; this
    is equal in law to per-pair Bernoulli trials but linear in the edge
    count.  `seed` is an integer >= 0 or a numpy Generator, which the
    draw advances.
    """
    rng = _generator(seed)
    v_off = np.concatenate([[0], np.cumsum(p.n)]).tolist()
    o_off = np.concatenate([[0], np.cumsum(p.m)]).tolist()
    vs: list[np.ndarray] = []
    obs: list[np.ndarray] = []
    for k in range(p.K):
        for j in range(p.J):
            prob = float(p.P[k, j])
            if prob == 0.0:
                continue
            m_j = int(p.m[j])
            cells = int(p.n[k]) * m_j
            # the drawn cells v * m_j + o become the object ids in place
            o = sample_family_subsets(rng, [rng.binomial(cells, prob)], cells)
            v = o // m_j
            o -= v * m_j
            v += v_off[k]
            o += o_off[j]
            vs.append(v)
            obs.append(o)
    return BipartiteGraph._owning(p.n, p.m, _joined(vs), _joined(obs))


def _joined(parts: list) -> np.ndarray:
    """The blocks' edge arrays as one int64 array, without a copy for a
    single block."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


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
        if not (_is_integer(v) and 0 <= v < n_v):
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


def _distances(p: ModelParams, a: int, b: int, rng, count: int) -> list:
    return [pair_distance(sample_bipartite(p, rng), a, b) for _ in range(count)]


def distance_jobs(p: ModelParams, k1: int, k2: int, reps: int, seed: int) -> list:
    """The replicates of `empirical_distance_law`, `replicate_blocks` of
    one: a fresh graph and the distance between the `_roots`."""
    a, b = _roots(p, k1, k2)
    return replicate_blocks(
        functools.partial(_distances, p, a, b), reps, 1, seed, "graph"
    )


def empirical_distance_law(
    p: ModelParams,
    k1: int,
    k2: int,
    reps: int,
    seed: int,
    workers: int = 1,
) -> DistanceLaw:
    """Monte Carlo distance law between a type-k1 and a type-k2 vertex.

    Each replicate samples a fresh graph and measures two fixed roots,
    which have the law of a uniform pair of distinct vertices; the
    `distance_jobs` blocks join in block order, so the histogram is
    identical for any worker count.
    """
    from .runner import _call, parallel_map  # runner imports this module

    workers = _integer(workers, "workers", 1)
    blocks = parallel_map(_call, distance_jobs(p, k1, k2, reps, seed), workers)
    return DistanceLaw.from_samples([d for blk in blocks for d in blk])
