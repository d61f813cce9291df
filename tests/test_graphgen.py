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
from igdist.graphgen import BipartiteGraph, _gather, sample_family_subsets
from igdist.seeding import derive_seed


def graph_from_edges(n_vertices, n_objects, edges):
    """Explicit single-type bipartite graph from an edge list."""
    v, o = zip(*edges) if edges else ((), ())
    return BipartiteGraph.from_edges([n_vertices], [n_objects], v, o)


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
        fam = np.repeat(np.arange(1000), 2)
        pairs = np.concatenate(
            [sample_family_subsets(rng, fam, 5).reshape(-1, 2) for _ in range(20)]
        )
        pairs.sort(axis=1)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        _, counts = np.unique(pairs[:, 0] * 5 + pairs[:, 1], return_counts=True)
        assert len(counts) == 10
        stat, pval = stats.chisquare(counts)
        assert pval > 1e-3


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
            "from igdist.graphgen import sample_pair_distance\n"
            "p = ModelParams(n=[10**4], m=[10**4], P=[[math.sqrt(2.0) * 1e-4]])\n"
            "sample_pair_distance(p, 0, 0, 1)\n"
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
