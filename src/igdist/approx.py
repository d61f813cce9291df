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

import numpy as np

from .graphgen import DistanceLaw
from .model import SpectralData
from .errors import ValidationError

_BLOCK = 1 << 17  # elements of the one working buffer: 1 MiB of float64


@dataclass(frozen=True)
class WPools:
    """Conditioned positive martingale-limit samples for the two roots,
    with the survival probabilities that weight them."""

    pool_a: np.ndarray
    pool_b: np.ndarray
    surv_a: float
    surv_b: float
    horizon: int

    def __post_init__(self):
        object.__setattr__(
            self, "pool_a", np.asarray(self.pool_a, dtype=np.float64)
        )
        object.__setattr__(
            self, "pool_b", np.asarray(self.pool_b, dtype=np.float64)
        )
        for pool in (self.pool_a, self.pool_b):
            if not (np.isfinite(pool) & (pool > 0.0)).all():
                raise ValidationError("pooled values must be positive and finite")
        for s in (self.surv_a, self.surv_b):
            if not 0.0 <= s <= 1.0:
                raise ValidationError("survival probabilities must be in [0,1]")


@dataclass(frozen=True)
class ApproxLaw:
    """Tabulated approximate law of the centered distance.

    exceed[u] approximates P[D - i0 > u]; defect is the mass at
    infinity, 1 - surv_a * surv_b."""

    support: tuple
    exceed: tuple
    defect: float


def _require_pools(pools: WPools) -> None:
    if pools.pool_a.size == 0 or pools.pool_b.size == 0:
        raise ValidationError("empty pool")


def _pair_mean(pool_a, pool_b, scale: float) -> float:
    """Mean of exp(-a*b*scale) over all pool pairs.

    Row blocks of pool_a against all of pool_b go through one buffer of
    at most _BLOCK elements (one row when pool_b is longer), so working
    memory stays cache-sized and nothing is allocated per block.
    """
    a = pool_a * -scale
    rows = max(1, min(_BLOCK // len(pool_b), len(a)))
    buf = np.empty((rows, len(pool_b)))
    total = 0.0
    for lo in range(0, len(a), rows):
        blk = buf[: len(a) - lo]
        np.multiply.outer(a[lo : lo + rows], pool_b, out=blk)
        total += float(np.exp(blk, out=blk).sum())
    return total / (len(a) * len(pool_b))


def exceed_prob(spec: SpectralData, pools: WPools, u: int) -> float:
    """Approximate P[D - i0 > u] = E exp(-W_A W_B kappa tau^u phi).

    The zero atoms of the unconditioned limits contribute exp(0) = 1,
    giving the defect plus a weighted pair average over the pools.
    """
    _require_pools(pools)
    sab = pools.surv_a * pools.surv_b
    scale = spec.kappa * spec.tau**u * spec.phi_n
    return (1.0 - sab) + sab * _pair_mean(pools.pool_a, pools.pool_b, scale)


def cdf_U_prime(spec: SpectralData, pools: WPools, u: float) -> float:
    """CDF of the uncentered Gumbel mixture at real argument u."""
    _require_pools(pools)
    sab = pools.surv_a * pools.surv_b
    scale = spec.kappa * spec.tau**u
    return sab * (1.0 - _pair_mean(pools.pool_a, pools.pool_b, scale))


def sample_U_tilde(
    spec: SpectralData, pools: WPools, count: int, seed: int
) -> np.ndarray:
    """Draws from the conditional (finite-part) mixture law.

    Each sample combines a standard Gumbel with independent resamples
    from the two pools: -(G + log a + log b + log kappa)/log tau.
    """
    _require_pools(pools)
    if count < 1:
        raise ValidationError("count must be >= 1")
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


def delta_error_scale(spec: SpectralData, y: float, c25: float = 1.0) -> float:
    """Structural error scale of the distance approximation at level y.

    Reported up to the configurable constant c25 (default 1); this is a
    scale, not a certified bound.
    """
    n4 = spec.n_total**0.25
    e = spec.e_mn
    return c25 * (
        (y**1.5 + 1.0) * min(n4 * e**2, 1.0)
        + (y + 1.0) * n4 * e * theta_tilde(spec, spec.i0)
    )


def build_approx_law(
    spec: SpectralData, pools: WPools, u_values
) -> ApproxLaw:
    """Evaluate the exceedance table over a window of integer offsets."""
    support = tuple(int(u) for u in u_values)
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
    u_window=None,
    c25: float = 1.0,
) -> ComparisonTable:
    """Empirical exceedances against the branching-process approximation.

    One row per offset u comparing P-hat[D > i0 + u] with the
    approximate exceedance, plus a defect row comparing the empirical
    infinite mass with 1 - surv_a * surv_b.
    """
    _require_pools(pools)
    if u_window is None:
        u_window = range(-2, 4)
    u_values = [int(u) for u in u_window if spec.i0 + int(u) >= 0]
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
                delta_scale=delta_error_scale(spec, spec.tau**u, c25),
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

