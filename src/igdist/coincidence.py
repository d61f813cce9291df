"""Coincidence probabilities in generalized hypergeometric sampling.

Two players independently draw uniform subsets from per-class universes;
S counts cross-pairs landing on the same element outside an excluded
set.  P[S = 0] admits a Poisson approximation exp(-lambda) with fully
explicit error bounds, which this module evaluates together with exact
and Monte Carlo references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ValidationError
from .graphgen import sample_family_subsets
from .seeding import derive_seed

EXACT_COST_LIMIT = 10_000_000
# Monte Carlo replicates per block times the largest universe: bounds the
# keys held at once for any w.
_CHUNK = 1 << 18


@dataclass(frozen=True)
class SamplingScheme:
    """Per-class universes, draw sizes for both players, exclusions.

    w[l] is the universe size of class l, draws_a[l] / draws_b[l] the
    subset sizes each player draws from it, excluded[l] the size of the
    set whose collisions are not counted.
    """

    w: tuple
    draws_a: tuple
    draws_b: tuple
    excluded: tuple

    def __init__(self, w, draws_a, draws_b, excluded=None):
        object.__setattr__(self, "w", tuple(int(x) for x in w))
        object.__setattr__(
            self, "draws_a", tuple(tuple(int(z) for z in d) for d in draws_a)
        )
        object.__setattr__(
            self, "draws_b", tuple(tuple(int(z) for z in d) for d in draws_b)
        )
        if excluded is None:
            excluded = [0] * len(self.w)
        object.__setattr__(self, "excluded", tuple(int(x) for x in excluded))

    @property
    def L(self) -> int:
        return len(self.w)

    def z_a(self) -> np.ndarray:
        return np.array([sum(d) for d in self.draws_a], dtype=np.int64)

    def z_b(self) -> np.ndarray:
        return np.array([sum(d) for d in self.draws_b], dtype=np.int64)


def validate_scheme(s: SamplingScheme) -> None:
    if not (len(s.draws_a) == len(s.draws_b) == len(s.excluded) == s.L):
        raise ValidationError("per-class lists must share one length")
    for l in range(s.L):
        if s.w[l] < 2:
            raise ValidationError(f"w_{l + 1} = {s.w[l]} < 2")
        if s.excluded[l] < 0 or s.excluded[l] > s.w[l]:
            raise ValidationError(f"w*_{l + 1} out of [0, w_{l + 1}]")
        for z in s.draws_a[l] + s.draws_b[l]:
            if z < 0 or z > s.w[l]:
                raise ValidationError(
                    f"draw size {z} out of [0, w_{l + 1}] in class {l + 1}"
                )


def lambda_value(s: SamplingScheme) -> float:
    """Poisson mean sum_l z_l z'_l / w_l of cross-collision pairs."""
    validate_scheme(s)
    return float(np.sum(s.z_a() * s.z_b() / np.asarray(s.w, dtype=np.float64)))


def bounds(s: SamplingScheme) -> tuple[float, float]:
    """Error bounds (B1, B1*) for the Poisson approximation.

    B1 = 2 sum_l (z_l + z'_l)/w_l covers the dependence between pairs;
    B1* = sum_l z_l z'_l w*_l / w_l^2 the removed excluded-set mass.
    """
    validate_scheme(s)
    w = np.asarray(s.w, dtype=np.float64)
    za, zb = s.z_a(), s.z_b()
    b1 = float(2.0 * np.sum((za + zb) / w))
    b1_star = float(np.sum(za * zb * np.asarray(s.excluded) / w**2))
    return b1, b1_star


def _enumeration_cost(s: SamplingScheme) -> int:
    cost = 0
    for l in range(s.L):
        ca = math.prod(math.comb(s.w[l], z) for z in s.draws_a[l])
        cb = math.prod(math.comb(s.w[l], z) for z in s.draws_b[l])
        cost += ca * cb
    return cost


def _exact_class_prob(
    w: int, w_star: int, draws_a: tuple, draws_b: tuple
) -> Fraction:
    """Exact per-class P[no cross-collision outside the excluded set].

    A's union size u follows a one-dimensional recursion over its
    draws: a draw of size z adds r new elements with probability
    C(w - u, r) C(u, z - r) / C(w, z).  The draws are exchangeable, so a
    union of size u is a uniform u-subset, and the number t of its
    elements outside W* is hypergeometric,
    C(w - w*, t) C(w*, u - t) / C(w, u).  Given t, each of B's draws
    independently avoids those t elements with probability
    C(w - t, z') / C(w, z').
    """
    union = {0: Fraction(1)}
    for z in draws_a:
        step: dict[int, Fraction] = {}
        for u, prob in union.items():
            for r in range(max(0, z - u), min(z, w - u) + 1):
                ways = math.comb(w - u, r) * math.comb(u, z - r)
                step[u + r] = step.get(u + r, 0) + prob * Fraction(
                    ways, math.comb(w, z)
                )
        union = step
    outside = w - w_star
    total = Fraction(0)
    for u, prob in union.items():
        for t in range(max(0, u - w_star), min(u, outside) + 1):
            split = Fraction(
                math.comb(outside, t) * math.comb(w_star, u - t), math.comb(w, u)
            )
            avoid = math.prod(
                Fraction(math.comb(w - t, z), math.comb(w, z)) for z in draws_b
            )
            total += prob * split * avoid
    return total


def p_no_collision_exact(s: SamplingScheme) -> float:
    """Exact P[S = 0], the product over classes of `_exact_class_prob`.

    Raises CapacityError when raw enumeration of the subset choices
    would exceed EXACT_COST_LIMIT, except for one draw per class on
    each side with no exclusions.  The recursion does not need this
    guard: its number of terms grows with the draw sizes, not with
    C(w, z).  The guard stays because it decides which schemes
    `poisson_check` values by Monte Carlo, and the benchmark's scheme
    grid and the tests pin that split.
    """
    validate_scheme(s)
    single = all(
        len(s.draws_a[l]) == 1 and len(s.draws_b[l]) == 1 for l in range(s.L)
    )
    exempt = single and not any(s.excluded)
    if not exempt and _enumeration_cost(s) > EXACT_COST_LIMIT:
        raise CapacityError("instance too large for exact oracle")
    return float(
        math.prod(
            _exact_class_prob(s.w[l], s.excluded[l], s.draws_a[l], s.draws_b[l])
            for l in range(s.L)
        )
    )


def _subset_keys(rng, reps: int, z: int, w: int) -> np.ndarray:
    """Keys rep * w + e of one uniform z-subset of range(w) per
    replicate.  A draw of more than half the universe draws its
    complement, so the rejection rounds stay short."""
    small = min(z, w - z)
    fam = np.repeat(np.arange(reps, dtype=np.int64), small)
    keys = fam * w + sample_family_subsets(rng, fam, w)
    if small == z:
        return keys
    keep = np.ones(reps * w, dtype=bool)
    keep[keys] = False
    return np.flatnonzero(keep)


def p_no_collision_mc(
    s: SamplingScheme, reps: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of P[S = 0] with its binomial standard error.

    Replicates run in blocks, vectorized across the block: every
    (replicate, draw) is one family of `sample_family_subsets`, and a
    replicate collides when one of B's keys is in A's union.
    """
    validate_scheme(s)
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    rng = np.random.default_rng(derive_seed(seed, "coincidence"))
    block = max(1, _CHUNK // max(s.w))
    empty = np.empty(0, dtype=np.int64)
    hits = 0
    for lo in range(0, reps, block):
        n = min(block, reps - lo)
        clear = np.ones(n, dtype=bool)
        for l in range(s.L):
            w, w_star = s.w[l], s.excluded[l]
            a_keys = np.sort(np.concatenate(
                [empty] + [_subset_keys(rng, n, z, w) for z in s.draws_a[l]]
            ))
            # elements 0..w_star-1 play the excluded set; repeated keys
            # do not disturb the membership test below
            a_keys = a_keys[a_keys % w >= w_star]
            b_keys = np.concatenate(
                [empty] + [_subset_keys(rng, n, z, w) for z in s.draws_b[l]]
            )
            at = np.searchsorted(a_keys, b_keys)
            hit = at < a_keys.size
            hit[hit] = a_keys[at[hit]] == b_keys[hit]
            clear[b_keys[hit] // w] = False
        hits += int(np.count_nonzero(clear))
    est = hits / reps
    se = math.sqrt(est * (1.0 - est) / reps)
    return est, se


@dataclass(frozen=True)
class PoissonCheck:
    """One comparison of P[S = 0] against its Poisson approximation."""

    p_no_collision: float
    method: str
    lam: float
    poisson: float
    abs_diff: float
    bound: float
    mc_se: float
    passed: bool


def poisson_check(
    s: SamplingScheme, mc_reps: int = 100_000, seed: int = 0
) -> PoissonCheck:
    """Check |P[S=0] - exp(-lambda)| <= B1 + B1*.

    Uses the exact probability when affordable, otherwise Monte Carlo
    with a 3-sigma allowance added to the bound.
    """
    validate_scheme(s)
    lam = lambda_value(s)
    b1, b1_star = bounds(s)
    try:
        p0 = p_no_collision_exact(s)
        method = "exact"
        se = 0.0
    except CapacityError:
        p0, se = p_no_collision_mc(s, mc_reps, seed)
        method = "mc"
    poisson = math.exp(-lam)
    diff = abs(p0 - poisson)
    bound = b1 + b1_star
    return PoissonCheck(
        p_no_collision=p0,
        method=method,
        lam=lam,
        poisson=poisson,
        abs_diff=diff,
        bound=bound,
        mc_se=se,
        passed=diff <= bound + 3.0 * se,
    )
