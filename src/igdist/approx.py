"""The distance approximation: exceedance probabilities, the defective
Gumbel-mixture law, the structural error scale, and the comparison
against empirical distance data.

On the event that both root vertices start surviving lineages, the
centered distance is approximately distributed like
-(G + log W_A + log W_B + log kappa)/log tau for a standard Gumbel G;
off that event the distance is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphgen import DistanceLaw
from .model import SpectralData, _array, _integer
from .errors import ValidationError

_BLOCK = 1 << 17  # elements of the one working buffer: 1 MiB of float64
_TOL = 1e-15  # interpolation error allowed in the pair mean

# offsets u of the exceedances P[D > i0 + u] that a comparison reports
U_WINDOW = range(-2, 4)


@dataclass(frozen=True)
class WPools:
    """Conditioned positive martingale-limit samples for the two roots,
    with the survival probabilities that weight them.  Checked once, on
    construction: nonempty 1-D pools of positive finite values, held as
    read-only copies, and survival probabilities in [0,1].  Each pool's
    `_quadrature` is built by the first pair mean that needs it and
    kept; `dataclasses.replace` starts without them."""

    pool_a: np.ndarray
    pool_b: np.ndarray
    surv_a: float
    surv_b: float
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "pool_a", _array(self.pool_a, "pool_a", np.float64, 1))
        object.__setattr__(self, "pool_b", _array(self.pool_b, "pool_b", np.float64, 1))
        for pool in (self.pool_a, self.pool_b):
            if pool.size == 0:
                raise ValidationError("empty pool")
            if not (np.isfinite(pool) & (pool > 0.0)).all():
                raise ValidationError("pooled values must be positive and finite")
        for s in (self.surv_a, self.surv_b):
            if not 0.0 <= s <= 1.0:
                raise ValidationError("survival probabilities must be in [0,1]")

    @cached_property
    def _quad_a(self):
        return _quadrature(self.pool_a)

    @cached_property
    def _quad_b(self):
        return _quadrature(self.pool_b)


@dataclass(frozen=True)
class ApproxLaw:
    """Tabulated approximate law of the centered distance.

    exceed[u] approximates P[D - i0 > u]; defect is the mass at
    infinity, 1 - surv_a * surv_b."""

    support: tuple
    exceed: tuple
    defect: float


def _chebyshev_degree(lo: float, hi: float) -> float:
    """Degree at which Chebyshev interpolation on [log lo, log hi] is
    within _TOL of every f(x) = exp(-e^(x + beta)), beta real.

    Each such f is analytic with |f| <= 1 on the strip |Im x| < pi/2.
    The Bernstein ellipse fitting that strip has
    rho = (pi/2 + hypot(pi/2, h))/h, h the half log-range, and the
    interpolant at the deg + 1 points cos(j pi/deg) is within
    4 rho^-deg/(rho - 1) of f (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.2); a function bounded by M on the
    strip gets M times that.  Infinite when the range is empty, also in
    log space, touches zero or is unbounded.
    """
    if not 0.0 < lo < hi < math.inf:
        return math.inf
    h = 0.5 * (math.log(hi) - math.log(lo))
    if h <= 0.0:  # lo and hi an ulp apart can share a logarithm
        return math.inf
    rho = (0.5 * math.pi + math.hypot(0.5 * math.pi, h)) / h
    return max(1, math.ceil(math.log(4.0 / ((rho - 1.0) * _TOL)) / math.log(rho)))


def _quadrature(pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values v and weights u with sum_j u_j f(v_j) within _TOL of
    mean_a f(a) for every f(a) = exp(-c a), c >= 0.

    With deg from _chebyshev_degree on the pool's own range, a pool of
    more than 2 (deg + 1) atoms becomes the deg + 1 Chebyshev nodes
    v_j = exp(mid + half cos(j pi/deg)) in log space, weighted so that
    sum_j u_j f(v_j) is the mean over the pool of f's interpolant:
    with y = (log a - mid)/half and moments M_k = mean_a T_k(y),
    u = (2/deg) w'' C M'', C the cosine table and '' halving both ends.
    The weights sum to 1 and reproduce M_k for k <= deg; their sum of
    magnitudes Lambda is at most the Lebesgue constant
    1 + (2/pi) log(deg + 1).  A smaller pool, or one whose (deg+1)^2
    cosine table would outgrow _BLOCK, keeps its atoms at weight 1/N;
    a tied pool is one atom.  Working memory is O(N): the moments come
    from the three-term recurrence in four buffers.
    """
    lo, hi = float(pool.min()), float(pool.max())
    if lo == hi:
        return pool[:1], np.ones(1)
    n = _chebyshev_degree(lo, hi) + 1  # nodes
    if len(pool) <= 2 * n or n * n > _BLOCK:
        return pool, np.full(len(pool), 1.0 / len(pool))
    deg = n - 1
    mid = 0.5 * (math.log(hi) + math.log(lo))
    half = 0.5 * (math.log(hi) - math.log(lo))
    y = np.log(pool)
    y -= mid
    y /= half
    np.clip(y, -1.0, 1.0, out=y)  # rounding can leave |y| an ulp above 1
    # sums of T_k(y), by T_k+1 = 2 y T_k - T_k-1 in place
    sums = np.empty(n)
    sums[0] = len(pool)
    sums[1] = y.sum()
    y2 = 2.0 * y
    prev, cur, nxt = np.ones_like(y), y, np.empty_like(y)
    for k in range(2, n):
        np.multiply(y2, cur, out=nxt)
        nxt -= prev
        sums[k] = nxt.sum()
        prev, cur, nxt = cur, nxt, prev
    moments = sums / len(pool)
    moments[[0, -1]] *= 0.5
    # the angle j k pi/deg reduced mod 2 pi in integers
    cosines = np.cos(np.arange(2 * deg) * (math.pi / deg))  # cos(m pi/deg)
    k = np.arange(n)
    weights = cosines[np.multiply.outer(k, k) % (2 * deg)] @ moments * (2.0 / deg)
    weights[[0, -1]] *= 0.5
    return np.exp(mid + half * cosines[:n]), weights


def _grid_mean(quad_a, quad_b, scale: float) -> float:
    """u_A' exp(-scale v_A v_B') u_B over two quadratures: the mean of
    exp(-a b scale) over the pool pairs, to within (1 + Lambda_B) _TOL.

    Compressing B first leaves f(log a) = sum_j u_Bj exp(-a v_Bj scale)
    within _TOL of the mean over B at every a, and f is bounded by
    Lambda_B = sum_j |u_Bj| on the strip, so compressing A adds at most
    Lambda_B _TOL.  Both Lambdas lie within 1 + (2/pi) log(deg + 1);
    measured ones are 1.002-1.005.  Rows of the grid go through one
    buffer of at most _BLOCK elements (one row when v_B is longer) and
    are weighted in place: matmul or einsum would page in 64 KiB of
    library code that runs on small pools call nowhere else.
    Scale 0 gives exactly 1; where a b scale overflows the pair adds
    exp(-inf) = 0.
    """
    if scale == 0.0:
        return 1.0
    (va, ua), (vb, ub) = quad_a, quad_b
    rows = max(1, min(_BLOCK // len(vb), len(va)))
    buf = np.empty((rows, len(vb)))
    total = 0.0
    with np.errstate(over="ignore"):
        va = va * -scale
        for lo in range(0, len(va), rows):
            blk = buf[: len(va) - lo]
            np.multiply.outer(va[lo : lo + rows], vb, out=blk)
            np.exp(blk, out=blk)
            blk *= ub
            blk *= ua[lo : lo + rows, None]
            total += float(blk.sum())
    return total


def _power(tau: float, u: float) -> float:
    """tau**u, or inf where it overflows."""
    try:
        return tau**u
    except OverflowError:
        return math.inf


def exceed_prob(spec: SpectralData, pools: WPools, u: int) -> float:
    """Approximate P[D - i0 > u] = E exp(-W_A W_B kappa tau^u phi).

    The zero atoms of the unconditioned limits contribute exp(0) = 1,
    giving the defect plus a weighted pair average over the pools.
    """
    sab = pools.surv_a * pools.surv_b
    scale = spec.kappa * _power(spec.tau, u) * spec.phi_n
    return (1.0 - sab) + sab * _grid_mean(pools._quad_a, pools._quad_b, scale)


def cdf_U_prime(spec: SpectralData, pools: WPools, u: float) -> float:
    """CDF of the uncentered Gumbel mixture at real argument u."""
    sab = pools.surv_a * pools.surv_b
    scale = spec.kappa * _power(spec.tau, u)
    return sab * (1.0 - _grid_mean(pools._quad_a, pools._quad_b, scale))


def sample_U_tilde(
    spec: SpectralData, pools: WPools, count: int, seed: int
) -> np.ndarray:
    """Draws from the conditional (finite-part) mixture law.

    Each sample combines a standard Gumbel with independent resamples
    from the two pools: -(G + log a + log b + log kappa)/log tau.
    """
    count = _integer(count, "count", 1)
    rng = np.random.default_rng(seed)
    gumbel = -np.log(-np.log(rng.random(count)))
    a = pools.pool_a[rng.integers(0, len(pools.pool_a), count)]
    b = pools.pool_b[rng.integers(0, len(pools.pool_b), count)]
    return -(gumbel + np.log(a) + np.log(b) + math.log(spec.kappa)) / math.log(
        spec.tau
    )


def theta_tilde(spec: SpectralData, i: int) -> float:
    """Spectral-gap decay factor sqrt(i+1) * (gamma/tau^2)^(i/4)."""
    return math.sqrt(i + 1.0) * (spec.gamma / spec.tau**2) ** (i / 4.0)


def delta_error_scale(spec: SpectralData, y: float) -> float:
    """Structural error scale of the distance approximation at level y.

    Reported with the unspecified constant of the bound set to 1; this is
    a scale, not a certified bound.
    """
    n4 = spec.n_total**0.25
    e = spec.e_mn
    return (
        (_power(y, 1.5) + 1.0) * min(n4 * e**2, 1.0)
        + (y + 1.0) * n4 * e * theta_tilde(spec, spec.i0)
    )


def build_approx_law(
    spec: SpectralData, pools: WPools, u_values
) -> ApproxLaw:
    """Evaluate the exceedance table over a window of integer offsets."""
    support = tuple(_integer(u, "offset") for u in u_values)
    exceed = tuple(exceed_prob(spec, pools, u) for u in support)
    return ApproxLaw(
        support=support,
        exceed=exceed,
        defect=1.0 - pools.surv_a * pools.surv_b,
    )


@dataclass(frozen=True)
class ComparisonRow:
    u: float  # integer offset, or inf for the defect row
    empirical_exceed: float
    approx_exceed: float
    abs_diff: float
    delta_scale: float


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple
    max_abs_diff: float  # over finite offsets
    defect_abs_diff: float

    def finite_rows(self):
        return [r for r in self.rows if math.isfinite(r.u)]


def compare(
    empirical: DistanceLaw,
    spec: SpectralData,
    pools: WPools,
    u_window=U_WINDOW,
) -> ComparisonTable:
    """Empirical exceedances against the branching-process approximation.

    One row per offset u comparing P-hat[D > i0 + u] with the
    approximate exceedance, plus a defect row comparing the empirical
    infinite mass with 1 - surv_a * surv_b.
    """
    offsets = (_integer(u, "offset") for u in u_window)
    u_values = [u for u in offsets if spec.i0 + u >= 0]
    if not u_values:
        raise ValidationError("comparison window is empty")
    law = build_approx_law(spec, pools, u_values)
    rows = []
    max_diff = 0.0
    for u, appr in zip(law.support, law.exceed):
        emp = empirical.prob_greater(spec.i0 + u)
        diff = abs(emp - appr)
        max_diff = max(max_diff, diff)
        rows.append(
            ComparisonRow(
                u=float(u),
                empirical_exceed=emp,
                approx_exceed=appr,
                abs_diff=diff,
                delta_scale=delta_error_scale(spec, _power(spec.tau, u)),
            )
        )
    emp_inf = empirical.prob_infinite()
    defect_diff = abs(emp_inf - law.defect)
    rows.append(
        ComparisonRow(
            u=math.inf,
            empirical_exceed=emp_inf,
            approx_exceed=law.defect,
            abs_diff=defect_diff,
            delta_scale=math.nan,
        )
    )
    return ComparisonTable(
        rows=tuple(rows), max_abs_diff=max_diff, defect_abs_diff=defect_diff
    )

