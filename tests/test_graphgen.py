import functools
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igdist
from igdist import (
    DistanceLaw,
    ModelParams,
    empirical_distance_law,
    pair_distance,
    sample_bipartite,
    survival_prob,
)
from igdist.errors import ValidationError
from igdist.graphgen import (
    BipartiteGraph, _gather, distance_jobs, sample_family_subsets,
)
from igdist.model import _roots
from igdist.seeding import derive_seed


def graph_from_edges(n_vertices, n_objects, edges):
    """Explicit single-type bipartite graph from an edge list."""
    v, o = zip(*edges) if edges else ((), ())
    return BipartiteGraph.from_edges([n_vertices], [n_objects], v, o)


def _slot_by_slot_draw(rng, fam, universe):
    """Reference subset draw: slot i takes an index for family fam[i];
    each pending slot redraws uniformly until its value is new to its
    family, earlier slots winning ties within a round."""
    vals = np.empty(len(fam), dtype=np.int64)
    pending = np.arange(len(fam))
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


def _slot_by_slot_subsets(rng, counts, universe):
    """Reference subset sampler: a family of more than half the
    universe draws its universe - count missing indices slot by slot
    and takes the rest; the others draw their own indices.  The
    families' sets in family order."""
    flip = 2 * counts > universe
    drawn = np.where(flip, universe - counts, counts)
    vals = _slot_by_slot_draw(rng, np.repeat(np.arange(counts.size), drawn), universe)
    sets = np.split(vals, np.cumsum(drawn)[:-1])
    return np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [np.setdiff1d(np.arange(universe), v) if f else v
           for f, v in zip(flip, sets)]
    )


def _indices(keys, counts, universe):
    """The indices keys % universe of a `sample_family_subsets` result,
    after checking its key contract: int64 keys, strictly ascending, and
    key i's family keys[i] // universe is the family of position i."""
    fam = np.repeat(np.arange(len(counts)), counts)
    assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
    assert (keys // universe == fam).all()
    return keys % universe


class TestSampling:
    def test_zero_probability(self):
        g = sample_bipartite(ModelParams(n=[20], m=[10], P=[[0.0]]), seed=1)
        assert g.edge_count() == 0

    def test_complete_bipartite(self):
        p = ModelParams(n=[4, 3], m=[5], P=[[1.0], [1.0]])
        g = sample_bipartite(p, seed=1)
        assert g.edge_count() == 7 * 5
        for adj in g.vertex_adj:
            assert sorted(adj) == list(range(5))

    def test_deterministic_given_seed(self, scalar4):
        g1 = sample_bipartite(scalar4, seed=99)
        g2 = sample_bipartite(scalar4, seed=99)
        assert all(
            (a == b).all() for a, b in zip(g1.vertex_adj, g2.vertex_adj)
        )
        g3 = sample_bipartite(scalar4, seed=100)
        assert any(
            len(a) != len(b) or (a != b).any()
            for a, b in zip(g1.vertex_adj, g3.vertex_adj)
        )

    def test_adjacency_symmetric_and_duplicate_free(self, two_by_two):
        g = sample_bipartite(two_by_two, seed=5)
        for v, objs in enumerate(g.vertex_adj):
            assert len(set(objs.tolist())) == len(objs)
            for o in objs:
                assert v in g.object_adj[o]
        for o, verts in enumerate(g.object_adj):
            assert len(set(verts.tolist())) == len(verts)
            for v in verts:
                assert o in g.vertex_adj[v]

    def test_edge_count_mean(self, scalar2):
        # total edge count is Binomial(n*m, p)
        counts = [
            sample_bipartite(scalar2, seed=s).edge_count() for s in range(200)
        ]
        p = scalar2.P[0, 0]
        mean = 1e8 * p
        se = math.sqrt(1e8 * p * (1 - p) / 200)
        assert abs(np.mean(counts) - mean) <= 3 * se

    def test_degree_chi_square(self):
        # per-vertex degree toward one object class is Binomial(m_j, p);
        # tail lumped so every cell has expected count >= 20
        from scipy import stats

        m_j, prob = 50, 0.04
        p = ModelParams(n=[100_000], m=[m_j], P=[[prob]])
        g = sample_bipartite(p, seed=30)
        degrees = np.array([len(a) for a in g.vertex_adj])
        kmax = 8
        observed = np.bincount(np.minimum(degrees, kmax), minlength=kmax + 1)
        pmf = stats.binom.pmf(np.arange(kmax), m_j, prob)
        expected = np.append(pmf, 1.0 - pmf.sum()) * len(degrees)
        stat, pval = stats.chisquare(observed, expected)
        assert pval > 1e-3

    def test_subset_sampler_uniform(self):
        # all C(5,2) = 10 subsets equally likely, 1000 families per call
        from scipy import stats

        rng = np.random.default_rng(8)
        sizes = np.full(1000, 2)
        draws = [sample_family_subsets(rng, sizes, 5) for _ in range(20)]
        pairs = np.concatenate([_indices(k, sizes, 5).reshape(-1, 2) for k in draws])
        pairs.sort(axis=1)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        _, counts = np.unique(pairs[:, 0] * 5 + pairs[:, 1], return_counts=True)
        assert len(counts) == 10
        stat, pval = stats.chisquare(counts)
        assert pval > 1e-3

    def test_subset_sampler_mixed_families(self):
        # families of sizes 1, 0, 2 and 3 over universe 5, 20000 times
        # each: the joint outcome of the three nonempty families has
        # 5 * 10 * 10 equally likely cells exactly when each family is
        # uniform and the families are independent.  Seed and bound were
        # fixed before the first run.
        from scipy import stats

        reps = 20_000
        rng = np.random.default_rng(21)
        counts = np.tile([1, 0, 2, 3], reps)
        keys = sample_family_subsets(rng, counts, 5)
        ix = _indices(keys, counts, 5).reshape(reps, 6)
        one, two, three = ix[:, :1], ix[:, 1:3], ix[:, 3:]
        for fam in (two, three):
            assert (np.diff(fam, axis=1) > 0).all()  # ascending, distinct
        code = [(fam[:, :, None] == np.arange(5)).any(axis=1) @ (1 << np.arange(5))
                for fam in (one, two, three)]
        # subsets of each size coded 0..C(5, size) - 1
        rank = [np.unique(c, return_inverse=True)[1] for c in code]
        assert [r.max() + 1 for r in rank] == [5, 10, 10]
        joint = (rank[0] * 10 + rank[1]) * 10 + rank[2]
        observed = np.bincount(joint, minlength=500)
        assert stats.chisquare(observed).pvalue > 1e-3

    def test_subset_sampler_matches_slot_by_slot_reference(self):
        # the rounds keep the first copy of each new value and redraw the
        # rest, as the reference does slot by slot, so from one stream
        # both end with the same set per family and the same generator
        # state; only the order inside a family differs.  Both draw a
        # family over half the universe as its complement.
        cases = np.random.default_rng(22)
        for case in range(300):
            universe = int(cases.integers(1, 40))
            counts = cases.integers(0, universe + 1, size=int(cases.integers(0, 20)))
            fam = np.repeat(np.arange(counts.size), counts)
            rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
            keys = sample_family_subsets(rng, counts, universe)
            got = _indices(keys, counts, universe)
            ref = _slot_by_slot_subsets(ref_rng, counts, universe)
            order = np.lexsort((ref, fam))
            assert (got == ref[order]).all(), case
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62), case

    def test_subset_sampler_complements_families_over_half(self):
        # from one seed, a family of U - c > U/2 is the complement of a
        # family of c, and both leave the generator in the same state
        universe = 30
        for c in range(universe // 2):
            rng, ref_rng = np.random.default_rng(c), np.random.default_rng(c)
            keys = sample_family_subsets(rng, [universe - c], universe)
            got = _indices(keys, [universe - c], universe)
            keys = sample_family_subsets(ref_rng, [c], universe)
            drop = _indices(keys, [c], universe)
            assert (got == np.setdiff1d(np.arange(universe), drop)).all(), c
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62), c
        # in one call: exactly half (drawn as is), full, empty, flipped
        # and unflipped families, each ascending and in family order;
        # the flipped families 1, 3, 5 and 7 draw their missing indices
        counts = np.array([15, 30, 0, 22, 4, 29, 15, 16, 1])
        drawn = np.array([15, 0, 0, 8, 4, 1, 15, 14, 1])
        keys = sample_family_subsets(np.random.default_rng(40), counts, universe)
        got = _indices(keys, counts, universe)
        raw = _slot_by_slot_draw(
            np.random.default_rng(40), np.repeat(np.arange(counts.size), drawn),
            universe,
        )
        parts = np.split(got, np.cumsum(counts)[:-1])
        for f, (part, own) in enumerate(
            zip(parts, np.split(raw, np.cumsum(drawn)[:-1]))
        ):
            assert part.size == counts[f]
            assert (np.diff(part) > 0).all(), f
            if f in (1, 3, 5, 7):
                own = np.setdiff1d(np.arange(universe), own)
            assert (part == np.sort(own)).all(), f
        assert (parts[1] == np.arange(universe)).all()

    def test_subset_sampler_rejects_oversized_family(self):
        with pytest.raises(ValidationError, match="larger than its universe"):
            sample_family_subsets(np.random.default_rng(0), [2, 6], 5)

    def test_csr_bytes_pinned(self, scalar2, two_by_two):
        # sha256 of the CSR arrays, recorded before `_csr` learned to
        # skip the sort of pairs already in order; scalar2's vertex side
        # takes that path, two_by_two's blocks and every object side sort
        def digest(g):
            h = hashlib.sha256()
            for a in (g.vertex_ptr, g.vertex_idx, g.object_ptr, g.object_idx):
                h.update(a.tobytes())
            return h
        want = {
            ("scalar2", 1): "47e03b8a216a00068618243b2982a1edcace72842a7c9003956a35f2af43a30f",
            ("scalar2", 2): "a466418ce4d4d8385b5ca60c9db6f699de95f7ca0f79d4d6684cc6e42d2accaa",
            ("scalar2", 3): "672aff0d48230a44d35fd091854becf12b7bf55d5bba6358fa5dda7c8afeba04",
            ("two_by_two", 1): "9554affeca98e52274aad0aacda108784ab1e746c3108b65f836fa8953d65708",
            ("two_by_two", 2): "67c32b7bdfcccc251f30d0d7b8ed651251f85b2c6142a9fa65c72f73a5c6786a",
            ("two_by_two", 3): "41dfec3124499064a79ef056f1e0a5bb5656abfa19915b9541208e0072b0c441",
        }
        models = {"scalar2": scalar2, "two_by_two": two_by_two}
        for (name, seed), hexdigest in want.items():
            g = sample_bipartite(models[name], seed)
            h = digest(g)
            h.update(g.vertex_offsets.tobytes())
            assert h.hexdigest() == hexdigest
        rng = np.random.default_rng(5)
        for hexdigest in (
            "dc5948d255d57fbe00b0e470730bca3ff1eec8480c6c96336554ece8fbb2e8b2",
            "7446a71405a29d8111579410591967622dea4baf032accab4a90b3d2f8ede931",
            "208255a366caa5fe8c6a8c7487d13f3c05e78c6051235d48d0fb5f0a2a7bf719",
        ):
            v, o = rng.integers(0, 700, 5000), rng.integers(0, 800, 5000)
            cells = np.unique(v * 800 + o)
            rng.shuffle(cells)
            g = BipartiteGraph.from_edges([300, 400], [350, 450], cells // 800, cells % 800)
            assert digest(g).hexdigest() == hexdigest

    def test_from_edges_in_order_equals_shuffled(self):
        # pairs already in (vertex, object) order skip the sort; the
        # graph is the one the shuffled pairs give, and the caller's
        # arrays stay writable and unshared
        rng = np.random.default_rng(8)
        cells = np.unique(rng.integers(0, 40 * 30, 300))
        v, o = cells // 30, cells % 30
        g = BipartiteGraph.from_edges([40], [30], v, o)
        perm = rng.permutation(cells.size)
        h = BipartiteGraph.from_edges([40], [30], v[perm], o[perm])
        for a, b in ((g.vertex_ptr, h.vertex_ptr), (g.vertex_idx, h.vertex_idx),
                     (g.object_ptr, h.object_ptr), (g.object_idx, h.object_idx)):
            assert a.dtype == b.dtype and (a == b).all()
        csr = (g.vertex_ptr, g.vertex_idx, g.object_ptr, g.object_idx)
        assert v.flags.writeable and o.flags.writeable
        assert not any(np.shares_memory(a, e) for a in csr for e in (v, o))
        assert not g.vertex_idx.flags.writeable
        o[:] = 0
        assert (g.vertex_idx == h.vertex_idx).all()

    def test_csr_arrays_read_only_and_unshared(self, scalar2, two_by_two):
        # the sampler builds the CSR in place from the cells it drew: the
        # four arrays are still read-only and own disjoint memory
        for p in (scalar2, two_by_two):
            for seed in (1, 2):
                g = sample_bipartite(p, seed)
                csr = (g.vertex_ptr, g.vertex_idx, g.object_ptr, g.object_idx)
                assert not any(a.flags.writeable for a in csr)
                for a, b in itertools.combinations(csr, 2):
                    assert not np.shares_memory(a, b)

    def test_cells_map_to_pairs_across_object_classes(self):
        # each block is one subset of cells, cell = vertex * m_j + object;
        # this model has a zero block, two dense blocks and two object
        # classes, so a wrong offset or stride shows in the per-pair
        # frequencies.  Each count is Binomial(reps, p); seed and bound
        # were fixed before the first run.
        from scipy import stats

        params = ModelParams(n=[3, 4], m=[5, 2], P=[[0.6, 0.0], [0.3, 0.9]])
        pair_p = np.repeat(np.repeat(params.P, params.n, axis=0), params.m, axis=1)
        reps = 4000
        counts = np.zeros(pair_p.shape, dtype=np.int64)
        for r in range(reps):
            g = sample_bipartite(params, seed=derive_seed(23, "cells", r))
            v = np.repeat(np.arange(g.n_vertices), np.diff(g.vertex_ptr))
            counts[v, g.vertex_idx] += 1
        assert (counts[pair_p == 0.0] == 0).all()
        live = pair_p > 0.0
        expected = reps * pair_p[live]
        stat = float(
            (((counts[live] - expected) ** 2) / (expected * (1 - pair_p[live]))).sum()
        )
        assert stats.chi2.sf(stat, live.sum()) > 1e-3


def _dense_distance(B):
    """d(vertex 0, vertex 1) in the intersection graph of the dense
    incidence matrix B, by BFS on the materialized adjacency."""
    A = (B.astype(np.int64) @ B.T.astype(np.int64)) > 0
    reached = np.zeros(len(A), dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    d = 0
    while frontier.any():
        d += 1
        nxt = A[frontier].any(axis=0) & ~reached
        if nxt[1]:
            return d
        reached |= nxt
        frontier = nxt
    return math.inf


class TestSamplerAgainstDenseOracle:
    """sample_bipartite + pair_distance against the model's definition:
    one independent Bernoulli(p_kj) draw per (vertex, object) pair.  The
    p = 0.6 block runs the sampler's non-edge branch.  Seeds and bounds
    were fixed before the sampler was run against them."""

    params = ModelParams(n=[12, 15], m=[10], P=[[0.15], [0.6]])
    reps = 4000
    # p of every (vertex, object) pair
    pair_p = np.repeat(np.repeat(params.P, params.n, axis=0), params.m, axis=1)

    @pytest.fixture(scope="class")
    def sampled(self):
        counts = np.zeros(self.pair_p.shape, dtype=np.int64)
        degrees = []
        dists = []
        for r in range(self.reps):
            g = sample_bipartite(self.params, seed=derive_seed(5, "oracle", r))
            deg = np.diff(g.vertex_ptr)
            counts[np.repeat(np.arange(g.n_vertices), deg), g.vertex_idx] += 1
            degrees.append(deg)
            dists.append(pair_distance(g, 0, 1))
        return counts, DistanceLaw.from_samples(dists), np.array(degrees)

    def test_distance_law_tv(self, sampled):
        # over 40 oracle-vs-oracle pairs at 4000 reps, TV had mean 0.012,
        # sd 0.005 and max 0.021; 0.05 is the criterion-7 bound
        rng = np.random.default_rng(6)
        P = self.pair_p
        oracle = DistanceLaw.from_samples(
            [_dense_distance(rng.random(P.shape) < P) for _ in range(self.reps)]
        )
        law = sampled[1]
        cells = sorted(set(law.counts) | set(oracle.counts))
        diff = sum(abs(law.counts.get(d, 0) - oracle.counts.get(d, 0)) for d in cells)
        diff += abs(law.infinite_count - oracle.infinite_count)
        tv = 0.5 * diff / self.reps
        assert tv <= 0.05

    def test_per_pair_edge_frequencies(self, sampled):
        # each pair's count is Binomial(reps, p_kj), independent across pairs
        from scipy import stats

        P = self.pair_p
        expected = self.reps * P
        stat = float((((sampled[0] - expected) ** 2) / (expected * (1 - P))).sum())
        assert stats.chi2.sf(stat, P.size) > 1e-3

    def test_degree_law(self, sampled):
        # per-pair frequencies cannot see a wrong degree law with the right
        # mean; degrees of each type are Binomial(10, p_k1), cells with
        # expected count < 20 lumped into one
        from scipy import stats

        bounds = np.cumsum([0, *self.params.n])
        for k, prob in enumerate(self.params.P[:, 0]):
            deg = sampled[2][:, bounds[k] : bounds[k + 1]].ravel()
            expected = stats.binom.pmf(np.arange(11), 10, prob) * deg.size
            observed = np.bincount(deg, minlength=11)
            rare = expected < 20
            expected = np.append(expected[~rare], expected[rare].sum())
            observed = np.append(observed[~rare], observed[rare].sum())
            assert stats.chisquare(observed, expected).pvalue > 1e-3


class TestPairDistance:
    def test_hand_checkable_path(self):
        # v1-u1, v2-u1, v2-u2, v3-u2: d(v1,v3)=2 via v1-u1-v2-u2-v3
        g = graph_from_edges(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        assert pair_distance(g, 0, 2) == 2
        assert pair_distance(g, 0, 1) == 1
        assert pair_distance(g, 0, 0) == 0

    def test_isolated_vertex(self):
        g = graph_from_edges(3, 2, [(1, 0), (1, 1), (2, 1)])
        assert pair_distance(g, 0, 1) == math.inf

    def test_invalid_id(self):
        g = graph_from_edges(2, 1, [(0, 0)])
        with pytest.raises(ValidationError, match="invalid vertex id"):
            pair_distance(g, 0, 5)

    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            graph_from_edges(2, 1, [(0, 1)])
        with pytest.raises(ValidationError, match="out of range"):
            graph_from_edges(2, 1, [(-1, 0)])

    def test_from_edges_rejects_float_endpoints(self):
        # truncation would silently build the edges (1, 0) and (0, 1)
        with pytest.raises(ValidationError, match="v must be integers"):
            BipartiteGraph.from_edges([2], [2], [0.7, 1.9], [1.2, 0.5])
        with pytest.raises(ValidationError, match="o must be integers"):
            BipartiteGraph.from_edges([2], [2], [1, 0], [0.0, 1.0])

    def test_from_edges_rejects_float_counts(self):
        with pytest.raises(ValidationError, match="n must be integers"):
            BipartiteGraph.from_edges([2.5], [2], [0], [0])
        with pytest.raises(ValidationError, match="m must be integers"):
            BipartiteGraph.from_edges([2], [2.0], [0], [0])

    def test_from_edges_rejects_bool_endpoints(self):
        with pytest.raises(ValidationError, match="v must be integers"):
            BipartiteGraph.from_edges([2], [2], [True, False], [0, 1])
        with pytest.raises(ValidationError, match="o must be integers"):
            BipartiteGraph.from_edges([2], [2], [0, 1], np.array([True, False]))

    def test_from_edges_rejects_nested_edges(self):
        with pytest.raises(ValidationError, match="v must be 1-D"):
            BipartiteGraph.from_edges([3], [3], [[0, 1], [2, 0]], [[1, 2], [0, 1]])
        with pytest.raises(ValidationError, match="o must be 1-D"):
            BipartiteGraph.from_edges([3], [3], [0, 1], [[1], [2]])

    def test_vertex_id_must_be_an_integer(self):
        # a bool would measure from vertex 1, a float reach numpy's
        # IndexError; numpy integers pass like Python ints
        g = graph_from_edges(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        for a, b in ((True, 2), (2, False), (1.5, 0), (0, 2.0), ("0", 2)):
            with pytest.raises(ValidationError, match="invalid vertex id"):
                pair_distance(g, a, b)
        assert pair_distance(g, np.int64(0), np.int32(2)) == 2

    def test_exhaustive_small_graphs_vs_floyd_warshall(self):
        # all bipartite graphs on 3 vertices + 3 objects
        pairs = list(itertools.product(range(3), range(3)))
        for mask in range(2**9):
            edges = [pairs[i] for i in range(9) if mask >> i & 1]
            g = graph_from_edges(3, 3, edges)
            # materialized intersection graph distance via Floyd-Warshall
            D = np.full((3, 3), np.inf)
            np.fill_diagonal(D, 0.0)
            for a in range(3):
                for b in range(a + 1, 3):
                    if set(g.vertex_adj[a]) & set(g.vertex_adj[b]):
                        D[a, b] = D[b, a] = 1.0
            for k in range(3):
                for i in range(3):
                    for j in range(3):
                        D[i, j] = min(D[i, j], D[i, k] + D[k, j])
            for a in range(3):
                for b in range(3):
                    d = pair_distance(g, a, b)
                    assert d == D[a, b]
                    assert d == pair_distance(g, b, a)
            # triangle inequality on the BFS outputs
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        assert D[a, b] <= D[a, c] + D[c, b]


def _one_sided_distance(g: BipartiteGraph, a: int, b: int):
    """Reference search from a alone: whole vertex -> object -> vertex
    frontiers until b is reached or a's component is exhausted."""
    n_v, n_o = g.n_vertices, g.n_objects
    for v in (a, b):
        if not 0 <= v < n_v:
            raise ValidationError(f"invalid vertex id {v}")
    if a == b:
        return 0
    seen_v = np.zeros(n_v, dtype=bool)
    seen_o = np.zeros(n_o, dtype=bool)
    seen_v[a] = True
    frontier = np.array([a], dtype=np.int64)
    dist = 0
    while frontier.size:
        dist += 1
        objs = _gather(g.vertex_ptr, g.vertex_idx, frontier)
        objs = np.unique(objs[~seen_o[objs]])
        seen_o[objs] = True
        verts = _gather(g.object_ptr, g.object_idx, objs)
        verts = np.unique(verts[~seen_v[verts]])
        seen_v[verts] = True
        if seen_v[b]:
            return dist
        frontier = verts
    return math.inf


@pytest.fixture(scope="module")
def dense_block():
    return TestSamplerAgainstDenseOracle.params  # a block with p > 1/2


@pytest.fixture(scope="module")
def zero_p():
    return ModelParams(n=[6, 5], m=[4], P=[[0.0], [0.0]])


class TestMeetInTheMiddle:
    """pair_distance against the one-sided search on fixed graphs and
    pairs, both orders of each pair."""

    @pytest.mark.parametrize(
        "model, k1, k2",
        [
            ("scalar2", 0, 0),
            ("two_by_two", 0, 1),
            ("two_by_two", 1, 1),
            ("dense_block", 0, 1),
            ("zero_p", 0, 1),
        ],
    )
    def test_equals_one_sided_search(self, request, model, k1, k2):
        p = request.getfixturevalue(model)
        finite = infinite = 0
        for r in range(50):
            g = sample_bipartite(p, seed=derive_seed(13, model, r))
            rng = np.random.default_rng(derive_seed(14, model, r))
            off1, off2 = int(g.vertex_offsets[k1]), int(g.vertex_offsets[k2])
            for _ in range(4):
                a = off1 + int(rng.integers(p.n[k1]))
                b = off2 + int(rng.integers(p.n[k2]))
                d = _one_sided_distance(g, a, b)
                assert pair_distance(g, a, b) == d, (model, r, a, b)
                assert pair_distance(g, b, a) == d, (model, r, b, a)
                infinite += d == math.inf
                finite += d != math.inf
        # pairs in different components are the case the one-sided
        # search walks in full
        assert infinite > 0
        assert finite > 0 or model == "zero_p"

    def test_search_imports_no_numpy_ma(self):
        # plain np.unique imports numpy.ma on first use, 13-18 ms that
        # every run would pay; a subprocess because the test session may
        # have imported numpy.ma already
        code = (
            "import math, sys\n"
            "from igdist import ModelParams\n"
            "from igdist.graphgen import distance_jobs\n"
            "p = ModelParams(n=[10**4], m=[10**4], P=[[math.sqrt(2.0) * 1e-4]])\n"
            "distance_jobs(p, 0, 0, 1, 1)[0]()\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(igdist.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestEmpiricalLaw:
    def test_all_mass_at_one_when_complete(self):
        p = ModelParams(n=[6], m=[4], P=[[1.0]])
        law = empirical_distance_law(p, 0, 0, reps=40, seed=3)
        assert law.counts == {1: 40}
        assert law.prob_infinite() == 0.0

    def test_all_mass_at_infinity_when_empty(self):
        p = ModelParams(n=[6, 5], m=[4], P=[[0.0], [0.0]])
        law = empirical_distance_law(p, 0, 1, reps=30, seed=3)
        assert law.infinite_count == 30

    def test_two_vertices_suffice_for_same_type_pairs(self):
        # n_k >= 2 is guaranteed by validation, so same-type sampling
        # always has a distinct partner available
        p = ModelParams(n=[2, 5], m=[4], P=[[0.5], [0.5]])
        law = empirical_distance_law(p, 0, 0, reps=25, seed=1)
        assert law.total == 25
        assert 0 not in law.counts

    def test_invalid_type_rejected(self, scalar4):
        with pytest.raises(ValidationError, match="invalid vertex type"):
            empirical_distance_law(scalar4, 0, 3, reps=5, seed=1)

    def test_no_replicates_rejected(self, scalar4):
        with pytest.raises(ValidationError, match="reps must be >= 1"):
            distance_jobs(scalar4, 0, 0, reps=0, seed=1)

    def test_deterministic_and_worker_invariant(self, scalar4):
        a = empirical_distance_law(scalar4, 0, 0, reps=30, seed=11)
        b = empirical_distance_law(scalar4, 0, 0, reps=30, seed=11)
        c = empirical_distance_law(scalar4, 0, 0, reps=30, seed=11, workers=4)
        assert a.counts == b.counts == c.counts
        assert a.infinite_count == b.infinite_count == c.infinite_count

    def test_defect_matches_survival_product(self):
        # P[D = inf] ~ 1 - P[W>0]^2 at moderate scale
        n = 2000
        p = ModelParams(n=[n], m=[n], P=[[math.sqrt(2.0) / n]])
        law = empirical_distance_law(p, 0, 0, reps=600, seed=17)
        s = survival_prob(p)[0]
        assert abs(law.prob_infinite() - (1.0 - s * s)) <= 0.05


def _exact_distance_law(n: int, m: int, p: float) -> dict:
    """P(D = d) for d = 1, 2, ... and P(D = inf) between two distinct
    vertices of the K = J = 1 model: the forward recursion of the
    meet-in-the-middle exploration on counts, with state (Uv, Uo, F0,
    F1, r0, r1), unreached vertices and objects, the two vertex
    frontiers and the two radii, from (n - 2, m, 1, 1, 0, 0).  A step
    expands the smaller frontier F (side 0 on ties) against the other
    frontier G: Bin(Uo, 1 - q^F) new objects; the searches meet with
    probability 1 - q^(G newo), giving d = r0 + r1 + 1; otherwise
    Bin(Uv, 1 - q^newo) new vertices form side's frontier, and none
    means d = inf.  Each unrevealed (vertex, object) pair is drawn
    exactly once, so the law is exact."""
    q = 1.0 - p

    @functools.cache
    def pmf(N: int, c: int) -> tuple:  # Bin(N, 1 - q^c)
        x = 1.0 - q**c
        return tuple(
            math.comb(N, k) * x**k * (1.0 - x) ** (N - k) for k in range(N + 1)
        )

    law: dict = {}
    states = {(n - 2, m, 1, 1, 0, 0): 1.0}
    while states:
        nxt: dict = {}
        for (uv, uo, f0, f1, r0, r1), w in states.items():
            side = 0 if f0 <= f1 else 1
            F, G = (f0, f1) if side == 0 else (f1, f0)
            for newo, po in enumerate(pmf(uo, F)):
                if not po:
                    continue
                meet = 1.0 - q ** (G * newo)
                law[r0 + r1 + 1] = law.get(r0 + r1 + 1, 0.0) + w * po * meet
                miss = w * po * (1.0 - meet)
                for newv, pv in enumerate(pmf(uv, newo)):
                    if not newv:
                        law[math.inf] = law.get(math.inf, 0.0) + miss * pv
                        continue
                    key = (
                        (uv - newv, uo - newo, newv, f1, r0 + 1, r1) if side == 0
                        else (uv - newv, uo - newo, f0, newv, r0, r1 + 1)
                    )
                    nxt[key] = nxt.get(key, 0.0) + miss * pv
        states = nxt
    return law


class TestExactSmallN:
    """distance_jobs against the exact law of the count recursion at
    n = m = 12, p = sqrt(2)/12.  Replicates, seed and p-value floor were
    fixed before the first run; at 12000 replicates the test has power
    0.93 (noncentral chi^2, lambda = 33) against a sampler with p 3%
    too high."""

    n = 12
    p = math.sqrt(2.0) / 12

    def test_total_mass(self):
        law = _exact_distance_law(self.n, self.n, self.p)
        assert abs(sum(law.values()) - 1.0) <= 1e-13
        assert min(law) == 1

    def test_two_vertices_one_object(self):
        # n = m = 2: d = 1 iff one object holds both, else inf
        p = 0.3
        law = _exact_distance_law(2, 2, p)
        assert law[1] == pytest.approx(1.0 - (1.0 - p * p) ** 2, rel=1e-14)
        assert set(law) == {1, math.inf}

    def test_distance_jobs_chi2(self):
        from scipy import stats

        reps, seed = 12_000, 2026
        model = ModelParams(n=[self.n], m=[self.n], P=[[self.p]])
        law = DistanceLaw.from_samples(
            [d for job in distance_jobs(model, 0, 0, reps, seed) for d in job()]
        )
        exact = _exact_distance_law(self.n, self.n, self.p)
        # finite cells with expected count >= 5, the rarer finite tail
        # lumped into one cell, and inf
        finite = sorted(d for d in exact if d != math.inf)
        keep = [d for d in finite if reps * exact[d] >= 5]
        tail = [d for d in finite if d not in keep]
        expected = [exact[d] for d in keep] + [sum(exact[d] for d in tail)]
        observed = [law.counts.get(d, 0) for d in keep]
        observed.append(sum(law.counts.get(d, 0) for d in tail))
        expected.append(exact[math.inf])
        observed.append(law.infinite_count)
        assert sum(observed) == reps
        res = stats.chisquare(observed, reps * np.asarray(expected))
        assert res.pvalue > 1e-3, (observed, expected)


def _uniform_pair_distance(p: ModelParams, k1: int, k2: int, seed: int):
    """The uniform-pair replicate that fixed roots replaced: a fresh graph
    and a uniform ordered pair of distinct typed vertices drawn from a
    second generator on the substream (seed, "pair")."""
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


class TestFixedRoots:
    def test_roots(self, two_by_two):
        # index 0 of each type, index 1 of the type when k1 == k2
        assert _roots(two_by_two, 0, 1) == (0, 300)
        assert _roots(two_by_two, 1, 1) == (300, 301)
        assert _roots(two_by_two, 0, 0) == (0, 1)
        with pytest.raises(ValidationError, match="invalid vertex type"):
            _roots(two_by_two, 0, 2)

    @pytest.mark.parametrize("k1, k2", [(0, 1), (1, 1)])
    def test_equal_in_law_to_a_uniform_pair(self, two_by_two, k1, k2):
        # vertices of one type are exchangeable, so fixed roots have the
        # law of a uniform pair.  2000 replicates each, on separate
        # seeds: TV over the union of the distance cells, inf included,
        # at most 0.07, and P(inf) within 4 two-sample SE.  Replicates,
        # seeds and bounds were fixed before the first run.
        reps = 2000
        jobs = distance_jobs(two_by_two, k1, k2, reps, 2031)
        fixed = DistanceLaw.from_samples([d for job in jobs for d in job()])
        uniform = DistanceLaw.from_samples([
            _uniform_pair_distance(
                two_by_two, k1, k2, derive_seed(2032, "pair-oracle", r)
            )
            for r in range(reps)
        ])
        cf, cu = fixed.counts, uniform.counts
        diff = sum(abs(cf.get(d, 0) - cu.get(d, 0)) for d in set(cf) | set(cu))
        diff += abs(fixed.infinite_count - uniform.infinite_count)
        assert 0.5 * diff / reps <= 0.07
        a, b = fixed.prob_infinite(), uniform.prob_infinite()
        se = math.sqrt((a * (1 - a) + b * (1 - b)) / reps)
        assert abs(a - b) <= 4 * se


class TestDistanceLaw:
    def test_totals_enforced(self):
        with pytest.raises(ValidationError):
            DistanceLaw(counts={1: 3}, infinite_count=1, total=5)

    def test_prob_greater_counts_infinity(self):
        law = DistanceLaw(counts={1: 2, 3: 3}, infinite_count=5, total=10)
        assert law.prob_greater(0) == 1.0
        assert law.prob_greater(1) == 0.8
        assert law.prob_greater(3) == 0.5
        assert law.prob_infinite() == 0.5

    def test_rows_roundtrip(self):
        law = DistanceLaw(counts={2: 4, 5: 1}, infinite_count=2, total=7)
        rows = law.to_rows()
        assert rows[-1] == ("inf", 2)
        back = DistanceLaw.from_rows(rows)
        assert back == law
