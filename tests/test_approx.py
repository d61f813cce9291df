import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import igdist
from igdist import (
    DistanceLaw,
    WPools,
    build_approx_law,
    cdf_U_prime,
    compare,
    conditioned_w_pool,
    delta_error_scale,
    derived_scalars,
    exceed_prob,
    sample_U_tilde,
)
from igdist import approx
from igdist.approx import (
    _BLOCK,
    _chebyshev_degree,
    _grid_mean,
    _quadrature,
    theta_tilde,
)
from igdist.errors import ValidationError

POINT_MASS = WPools(pool_a=[1.0], pool_b=[1.0], surv_a=1.0, surv_b=1.0, horizon=12)


def _pair_mean(pool_a, pool_b, scale):
    """Mean of exp(-a*b*scale) over all pool pairs, through both pools'
    quadratures as `exceed_prob` takes it: within (1 + Lambda_B) _TOL."""
    return _grid_mean(_quadrature(pool_a), _quadrature(pool_b), scale)


def dense_pair_mean(pool_a, pool_b, scale):
    """Oracle: exp(-a*b*scale) at every pair, in row blocks of at most
    _BLOCK elements."""
    a = pool_a * -scale
    rows = max(1, min(_BLOCK // len(pool_b), len(a)))
    buf = np.empty((rows, len(pool_b)))
    total = 0.0
    for lo in range(0, len(a), rows):
        blk = buf[: len(a) - lo]
        np.multiply.outer(a[lo : lo + rows], pool_b, out=blk)
        total += float(np.exp(blk, out=blk).sum())
    return total / (len(a) * len(pool_b))


@pytest.fixture(scope="module")
def random_pools():
    rng = np.random.default_rng(10)
    return WPools(
        pool_a=rng.lognormal(0.0, 0.5, 300),
        pool_b=rng.lognormal(0.1, 0.4, 250),
        surv_a=0.8,
        surv_b=0.75,
        horizon=12,
    )


class TestExceedProb:
    def test_point_mass_closed_form(self, scalar4_spec):
        got = exceed_prob(scalar4_spec, POINT_MASS, 0)
        assert got == pytest.approx(math.exp(-4.0 / 3.0 * 0.256), rel=1e-12)
        assert got == pytest.approx(0.71082, abs=5e-6)

    def test_limit_at_minus_infinity(self, scalar4_spec, random_pools):
        assert exceed_prob(scalar4_spec, random_pools, -60) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_limit_at_plus_infinity(self, scalar4_spec, random_pools):
        # u = 511 overflows a*b*scale, u = 600 overflows tau**u itself
        defect = 1.0 - random_pools.surv_a * random_pools.surv_b
        for u in (511, 600):
            assert exceed_prob(scalar4_spec, random_pools, u) == pytest.approx(
                defect, abs=1e-12
            )

    def test_monotone_nonincreasing(self, scalar4_spec, random_pools):
        vals = [exceed_prob(scalar4_spec, random_pools, u) for u in range(-4, 6)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        defect = 1.0 - random_pools.surv_a * random_pools.surv_b
        assert all(defect - 1e-12 <= v <= 1.0 + 1e-12 for v in vals)

    def test_empty_pool_rejected(self, scalar4_spec):
        with pytest.raises(ValidationError, match="empty pool"):
            empty = WPools(pool_a=[], pool_b=[1.0], surv_a=1.0, surv_b=1.0, horizon=1)
            exceed_prob(scalar4_spec, empty, 0)


class TestPairMean:
    @pytest.mark.parametrize(
        "len_a, len_b, scale",
        [
            (1, 1, 0.7),  # pools of length 1: one atom each
            (40, 7, 1.3),  # both keep their atoms: no more than 2 (deg+1)
            (300, 1000, 0.2),  # both compressed to their nodes
            (3, _BLOCK + 5, 0.5),  # A keeps its atoms, B compressed
        ],
    )
    def test_against_dense_reference(self, len_a, len_b, scale):
        rng = np.random.default_rng(len_a + len_b)
        a = rng.lognormal(0.0, 0.5, len_a)
        b = rng.lognormal(0.1, 0.4, len_b)
        a0, b0 = a.copy(), b.copy()
        want = np.exp(-np.multiply.outer(a, b) * scale).mean()
        assert _pair_mean(a, b, scale) == pytest.approx(want, rel=1e-12)
        assert (a == a0).all() and (b == b0).all()

    def test_zero_scale_is_exactly_one(self):
        rng = np.random.default_rng(21)
        assert _pair_mean(rng.lognormal(size=300), rng.lognormal(size=1000), 0.0) == 1.0

    def test_underflow_to_zero(self):
        rng = np.random.default_rng(22)
        a = rng.uniform(0.5, 2.0, 300)
        b = rng.uniform(0.5, 2.0, 1000)
        assert np.exp(-np.multiply.outer(a, b) * 1e4).max() == 0.0
        assert _pair_mean(a, b, 1e4) == 0.0

    def test_working_memory_bounded(self):
        rng = np.random.default_rng(23)
        for size in (2500, 20000):
            a = rng.lognormal(size=size)
            b = rng.lognormal(size=size)
            _pair_mean(a, b, 0.3)
            tracemalloc.start()
            try:
                _pair_mean(a, b, 0.3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20


class TestPairMeanAgainstOracle:
    """The quadrature pair mean against every pair, rel=1e-12."""

    def test_wide_lognormal_pools(self):
        rng = np.random.default_rng(31)
        a = rng.lognormal(0.0, 3.0, 5000)
        b = rng.lognormal(0.0, 3.0, 5000)
        want = dense_pair_mean(a, b, 1.0)
        assert _pair_mean(a, b, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "top", [1.7, np.nextafter(1.7, 2.0), 1.7 + 1e-9], ids=["tied", "ulp", "near"]
    )
    def test_tied_pool(self, top):
        rng = np.random.default_rng(32)
        a = np.full(500, 1.7)
        a[-1] = top
        b = rng.lognormal(0.0, 1.0, 400)
        want = dense_pair_mean(a, b, 1.0)
        assert _pair_mean(a, b, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_pool_as_long_as_the_nodes(self, extra):
        # deg + 1 nodes: pool A keeps its atoms at lengths deg to
        # deg + 2, no more than 2 (deg + 1); pool B is compressed
        scale = 0.8
        deg = _chebyshev_degree(0.05 * scale, 20.0 * scale)
        a = np.geomspace(0.05, 20.0, deg + 1 + extra)
        assert a.min() * scale == 0.05 * scale and a.max() * scale == 20.0 * scale
        b = np.random.default_rng(33).lognormal(0.0, 1.0, 20000)
        assert len(b) > 2 * (deg + 1) ** 2 + deg + 1
        want = dense_pair_mean(a, b, scale)
        assert _pair_mean(a, b, scale) == pytest.approx(want, rel=1e-12)

    def test_wide_range_stays_in_memory(self):
        # 18 decades need deg + 1 > sqrt(_BLOCK) nodes, so the cosine
        # table would outgrow _BLOCK: the pool keeps its atoms
        a = np.geomspace(1e-9, 1e9, 2000)
        b = np.random.default_rng(38).lognormal(0.0, 1.0, 500)
        assert (_chebyshev_degree(1e-9, 1e9) + 1) ** 2 > _BLOCK
        want = dense_pair_mean(a, b, 1.0)
        tracemalloc.start()
        try:
            got = _pair_mean(a, b, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(want, rel=1e-12)
        assert peak < 4 * 2**20

    def test_scalar4_w_pools(self, scalar4, scalar4_spec):
        a = conditioned_w_pool(scalar4, scalar4_spec, 0, 8, 2000, seed=34)
        b = conditioned_w_pool(scalar4, scalar4_spec, 0, 8, 2000, seed=35)
        s = scalar4_spec
        for u in (-2, 0, 2):
            scale = s.kappa * s.tau**u * s.phi_n
            want = dense_pair_mean(a, b, scale)
            assert _pair_mean(a, b, scale) == pytest.approx(want, rel=1e-12)

    def test_rank1_w_pools(self, rank1_fixture):
        params = rank1_fixture[1]
        s = derived_scalars(params)
        a = conditioned_w_pool(params, s, 0, 8, 1000, seed=36)
        b = conditioned_w_pool(params, s, 1, 8, 1000, seed=37)
        for u in (-2, 0, 2):
            scale = s.kappa * s.tau**u * s.phi_n
            want = dense_pair_mean(a, b, scale)
            assert _pair_mean(a, b, scale) == pytest.approx(want, rel=1e-12)


def lebesgue_bound(n: int) -> float:
    """Chebyshev Lebesgue constant bound for n = deg + 1 nodes."""
    return 1.0 + 2.0 / math.pi * math.log(n)


@pytest.fixture(scope="module")
def gamma_pools():
    rng = np.random.default_rng(41)
    return WPools(
        pool_a=rng.gamma(2.0, 1.0, 2500),
        pool_b=rng.gamma(2.0, 1.0, 2500),
        surv_a=0.7,
        surv_b=0.6,
        horizon=14,
    )


class TestQuadrature:
    def test_weights_reproduce_the_moments(self, gamma_pools):
        pool = gamma_pools.pool_a
        values, weights = _quadrature(pool)
        deg = len(values) - 1
        assert deg == _chebyshev_degree(pool.min(), pool.max())
        assert len(pool) > 2 * (deg + 1)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)
        lo, hi = np.log(pool.min()), np.log(pool.max())
        y = (np.log(pool) - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
        nodes = (np.log(values) - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
        for k in range(deg + 1):
            want = np.cos(k * np.arccos(np.clip(y, -1.0, 1.0))).mean()
            got = weights @ np.cos(k * np.arccos(np.clip(nodes, -1.0, 1.0)))
            assert abs(got - want) <= 1e-13

    def test_lebesgue_bound(self, gamma_pools, scalar4, scalar4_spec):
        rng = np.random.default_rng(42)
        pools = {
            "gamma": gamma_pools.pool_b,
            "lognormal": rng.lognormal(0.0, 3.0, 5000),
            "scalar4": conditioned_w_pool(scalar4, scalar4_spec, 0, 8, 2000, seed=43),
        }
        for name, pool in pools.items():
            values, weights = _quadrature(pool)
            assert len(values) < len(pool), name
            assert 1.0 <= np.abs(weights).sum() <= lebesgue_bound(len(values)), name

    def test_exceedances_against_every_pair(self, scalar2_spec, gamma_pools):
        p = gamma_pools
        sab = p.surv_a * p.surv_b
        law = build_approx_law(scalar2_spec, p, range(-2, 4))
        emp = DistanceLaw(counts={12: 5, 13: 5}, infinite_count=0, total=10)
        table = compare(emp, scalar2_spec, p)
        got = zip(law.exceed, (r.approx_exceed for r in table.finite_rows()))
        for u, (from_law, from_compare) in zip(law.support, got):
            scale = scalar2_spec.kappa * scalar2_spec.tau**u * scalar2_spec.phi_n
            want = (1.0 - sab) + sab * dense_pair_mean(p.pool_a, p.pool_b, scale)
            assert from_law == pytest.approx(want, rel=1e-12)
            assert from_compare == pytest.approx(want, rel=1e-12)

    def test_built_once_per_pool(self, monkeypatch, scalar2_spec, gamma_pools):
        built = []

        def counting(pool):
            built.append(len(pool))
            return _quadrature(pool)

        monkeypatch.setattr(approx, "_quadrature", counting)
        pools = replace(gamma_pools)
        emp = DistanceLaw(counts={12: 5, 13: 5}, infinite_count=0, total=10)
        # 12 exceed_prob calls, as the runner's compare makes
        build_approx_law(scalar2_spec, pools, range(-2, 4))
        compare(emp, scalar2_spec, pools)
        assert built == [2500, 2500]
        # a replaced instance starts without them
        exceed_prob(scalar2_spec, replace(pools), 0)
        assert len(built) == 4

    def test_small_w_pools_keep_their_atoms(self, scalar2, scalar2_spec):
        # 120 draws, as the benchmark's headline compare: compressing
        # them would cost more than their pairs
        for seed in (44, 45):
            pool = conditioned_w_pool(scalar2, scalar2_spec, 0, 14, 120, seed=seed)
            values, weights = _quadrature(pool)
            assert len(pool) <= 2 * (_chebyshev_degree(pool.min(), pool.max()) + 1)
            assert (values == pool).all()
            assert (weights == 1.0 / 120).all()

    def test_tied_pool_is_one_atom(self):
        values, weights = _quadrature(np.full(50, 2.5))
        assert values.tolist() == [2.5] and weights.tolist() == [1.0]

    def test_pool_sharing_one_logarithm_keeps_its_atoms(self):
        # 1e200 and the next float have the same log: no range to
        # interpolate over
        a = np.full(500, 1e200)
        a[-1] = np.nextafter(1e200, 2e200)
        assert _chebyshev_degree(a.min(), a.max()) == math.inf
        values, weights = _quadrature(a)
        assert (values == a).all() and (weights == 1.0 / 500).all()
        b = np.random.default_rng(47).lognormal(0.0, 1.0, 400)
        want = dense_pair_mean(a, b, 1e-200)
        assert _pair_mean(a, b, 1e-200) == pytest.approx(want, rel=1e-12)

    def test_pipeline_imports_no_fft_or_ma(self):
        # numpy.fft adds about 0.6 MB of resident memory to every run; a
        # subprocess because the test session may have imported both
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from igdist import DistanceLaw, ModelParams, WPools, derived_scalars\n"
            "from igdist import build_approx_law, compare\n"
            "rng = np.random.default_rng(46)\n"
            "pools = WPools(pool_a=rng.gamma(2.0, 1.0, 2500),\n"
            "               pool_b=rng.gamma(2.0, 1.0, 2500),\n"
            "               surv_a=0.7, surv_b=0.6, horizon=14)\n"
            "spec = derived_scalars(ModelParams(n=[10**4], m=[10**4], P=[[1.4e-4]]))\n"
            "build_approx_law(spec, pools, range(-2, 4))\n"
            "emp = DistanceLaw(counts={12: 5}, infinite_count=0, total=5)\n"
            "compare(emp, spec, pools)\n"
            "print('numpy.fft' in sys.modules, 'numpy.ma' in sys.modules)\n"
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
        assert out.stdout.strip() == "False False"


class TestCdfUPrime:
    def test_point_mass_closed_form(self, scalar4_spec):
        got = cdf_U_prime(scalar4_spec, POINT_MASS, 0.0)
        assert got == pytest.approx(1.0 - math.exp(-4.0 / 3.0), rel=1e-12)
        assert got == pytest.approx(0.73640, abs=5e-6)

    def test_limit_at_minus_infinity(self, scalar4_spec, random_pools):
        assert cdf_U_prime(scalar4_spec, random_pools, -80.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_limit_at_plus_infinity(self, scalar4_spec, random_pools):
        # u = 511 overflows a*b*scale, u = 600 overflows tau**u itself
        sab = random_pools.surv_a * random_pools.surv_b
        for u in (511.0, 600.0):
            assert cdf_U_prime(scalar4_spec, random_pools, u) == pytest.approx(
                sab, abs=1e-12
            )

    def test_translation_identity(self, scalar4_spec, random_pools):
        # 1 - exceed(u) = cdf(u + log phi / log tau), exactly
        shift = math.log(scalar4_spec.phi_n) / math.log(scalar4_spec.tau)
        for u in (-3, -1, 0, 2, 4):
            lhs = 1.0 - exceed_prob(scalar4_spec, random_pools, u)
            rhs = cdf_U_prime(scalar4_spec, random_pools, u + shift)
            assert abs(lhs - rhs) <= 1e-12


class TestSampleUTilde:
    def test_point_mass_mean(self, scalar4_spec):
        samples = sample_U_tilde(scalar4_spec, POINT_MASS, 100_000, seed=12)
        want = -(np.euler_gamma + math.log(4.0 / 3.0)) / math.log(4.0)
        assert want == pytest.approx(-0.62389, abs=5e-6)
        se = samples.std() / math.sqrt(len(samples))
        assert abs(samples.mean() - want) <= 3 * se

    def test_kappa_scale_shifts_by_one(self, scalar4_spec, random_pools):
        base = sample_U_tilde(scalar4_spec, random_pools, 500, seed=3)
        scaled_spec = replace(scalar4_spec, kappa=scalar4_spec.kappa * scalar4_spec.tau)
        shifted = sample_U_tilde(scaled_spec, random_pools, 500, seed=3)
        assert np.allclose(base - 1.0, shifted, atol=1e-12)

    def test_deterministic(self, scalar4_spec, random_pools):
        a = sample_U_tilde(scalar4_spec, random_pools, 200, seed=4)
        b = sample_U_tilde(scalar4_spec, random_pools, 200, seed=4)
        assert (a == b).all()

    def test_ks_against_conditional_cdf(self, scalar4_spec, random_pools):
        n = 4000
        samples = np.sort(sample_U_tilde(scalar4_spec, random_pools, n, seed=6))
        sab = random_pools.surv_a * random_pools.surv_b
        cdf = np.array(
            [cdf_U_prime(scalar4_spec, random_pools, u) / sab for u in samples]
        )
        grid = np.arange(1, n + 1) / n
        ks = max(
            np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / n)).max()
        )
        assert ks <= 1.63 / math.sqrt(n)


class TestDelta:
    def test_zero_level_plug_in(self, scalar2_spec):
        s = scalar2_spec
        want = min(s.n_total**0.25 * s.e_mn**2, 1.0) + (
            s.n_total**0.25 * s.e_mn * theta_tilde(s, s.i0)
        )
        assert delta_error_scale(s, 0.0) == pytest.approx(want, rel=1e-12)

    def test_independent_arithmetic(self, scalar2_spec):
        # n = m = 1e4: n^(1/4) = 10, e = 0.2, theta~_13 = sqrt(14) 2^(-13/4)
        tt = math.sqrt(14.0) * 2.0 ** (-13.0 / 4.0)
        want = 2.0 * 0.4 + 2.0 * 10.0 * 0.2 * tt
        assert delta_error_scale(scalar2_spec, 1.0) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_y(self, scalar4_spec):
        ys = [0.0, 0.5, 1.0, 2.0, 10.0]
        vals = [delta_error_scale(scalar4_spec, y) for y in ys]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestApproxLaw:
    def test_invariants(self, scalar4_spec, random_pools):
        law = build_approx_law(scalar4_spec, random_pools, range(-3, 5))
        assert all(
            a >= b - 1e-15 for a, b in zip(law.exceed, law.exceed[1:])
        )
        assert law.defect == pytest.approx(
            1.0 - random_pools.surv_a * random_pools.surv_b, rel=1e-14
        )
        # the exceedance approaches the defect for large u
        far = exceed_prob(scalar4_spec, random_pools, 40)
        assert far == pytest.approx(law.defect, abs=1e-9)


class TestCompare:
    def test_structure_and_defect_row(self, scalar4_spec, random_pools):
        emp = DistanceLaw(counts={3: 10, 4: 40, 5: 20}, infinite_count=30, total=100)
        table = compare(emp, scalar4_spec, random_pools)
        finite = table.finite_rows()
        assert [r.u for r in finite] == [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        inf_row = table.rows[-1]
        assert math.isinf(inf_row.u)
        assert inf_row.empirical_exceed == pytest.approx(0.3)
        assert inf_row.approx_exceed == pytest.approx(0.4)
        assert table.defect_abs_diff == pytest.approx(0.1)
        assert table.max_abs_diff == max(r.abs_diff for r in finite)
        assert math.isnan(inf_row.delta_scale)

    def test_window_clipped_to_valid_distances(self, scalar4_spec, random_pools):
        emp = DistanceLaw(counts={1: 1}, infinite_count=0, total=1)
        table = compare(
            emp, scalar4_spec, random_pools, u_window=range(-10, -2)
        )
        # i0 = 4: offsets below -4 are dropped
        assert [r.u for r in table.finite_rows()] == [-4.0, -3.0]
        with pytest.raises(ValidationError, match="window"):
            compare(emp, scalar4_spec, random_pools, u_window=[-20])

    def test_saturated_model(self, scalar4_spec):
        # all empirical mass at distance 1 and huge collision rate:
        # exceedances at u >= 1 - i0 are near zero on both sides
        emp = DistanceLaw(counts={1: 50}, infinite_count=0, total=50)
        pools = WPools(
            pool_a=[1.0], pool_b=[1.0], surv_a=1.0, surv_b=1.0, horizon=12
        )
        spec = replace(scalar4_spec, kappa=1e6)
        table = compare(emp, spec, pools, u_window=range(-3, 4))
        assert table.max_abs_diff <= 1e-6
        assert table.defect_abs_diff == 0.0

    def test_offsets_past_the_float_range(self, scalar4_spec, random_pools):
        # tau**u overflows a float past u = 511 at tau = 4; such a row
        # holds the limit 1 - s_A s_B with an infinite error scale
        emp = DistanceLaw(counts={5: 1}, infinite_count=0, total=1)
        table = compare(emp, scalar4_spec, random_pools, u_window=[0, 300, 2000])
        row = table.finite_rows()[-1]
        defect = 1.0 - random_pools.surv_a * random_pools.surv_b
        assert row.u == 2000.0
        assert abs(row.approx_exceed - defect) <= 1e-12
        assert row.delta_scale == math.inf


class TestWPools:
    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            WPools(pool_a=[0.0], pool_b=[1.0], surv_a=0.5, surv_b=0.5, horizon=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_values_rejected(self, bad):
        with pytest.raises(ValidationError, match="positive"):
            WPools(pool_a=[1.0], pool_b=[2.0, bad], surv_a=0.5, surv_b=0.5, horizon=1)

    @pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], [])])
    def test_empty_pools_rejected_on_construction(self, a, b):
        with pytest.raises(ValidationError, match="empty pool"):
            WPools(pool_a=a, pool_b=b, surv_a=0.5, surv_b=0.5, horizon=1)

    @pytest.mark.parametrize("a, b", [([[1.0]], [1.0]), ([1.0], 2.0)])
    def test_pools_must_be_one_dimensional(self, a, b):
        with pytest.raises(ValidationError, match="must be 1-D"):
            WPools(pool_a=a, pool_b=b, surv_a=0.5, surv_b=0.5, horizon=1)

    def test_pools_are_read_only_copies(self):
        a = np.array([1.0, 2.0])
        pools = WPools(pool_a=a, pool_b=[3.0], surv_a=0.5, surv_b=0.5, horizon=1)
        a[0] = 5.0
        assert pools.pool_a[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            pools.pool_b[0] = 4.0

    def test_survival_range_enforced(self):
        with pytest.raises(ValidationError):
            WPools(pool_a=[1.0], pool_b=[1.0], surv_a=1.5, surv_b=0.5, horizon=1)
