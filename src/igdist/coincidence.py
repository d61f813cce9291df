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


def _lambda_of(z, z_prime, w) -> float:
    return float(np.sum(np.asarray(z) * np.asarray(z_prime) / np.asarray(w)))


def bounds(
    s: SamplingScheme, eps_a=None, eps_b=None
) -> tuple[float, float, float]:
    """Error bounds (B1, B1*, B2) for the Poisson approximation.

    B1 = 2 sum_l (z_l + z'_l)/w_l covers the dependence between pairs;
    B1* = sum_l z_l z'_l w*_l / w_l^2 the removed excluded-set mass; B2
    the extra cost of evaluating lambda at perturbed draw totals, as
    min(lambda, 1) applied to each cross term.
    """
    validate_scheme(s)
    w = np.asarray(s.w, dtype=np.float64)
    za, zb = s.z_a(), s.z_b()
    b1 = float(2.0 * np.sum((za + zb) / w))
    b1_star = float(np.sum(za * zb * np.asarray(s.excluded) / w**2))
    if eps_a is None:
        eps_a = np.zeros(s.L)
    if eps_b is None:
        eps_b = np.zeros(s.L)
    eps_a = np.asarray(eps_a, dtype=np.float64)
    eps_b = np.asarray(eps_b, dtype=np.float64)
    if (eps_a < 0).any() or (eps_b < 0).any():
        raise ValidationError("perturbations must be nonnegative")
    b2 = (
        min(_lambda_of(za, eps_b, w), 1.0)
        + min(_lambda_of(eps_a, zb, w), 1.0)
        + min(_lambda_of(eps_a, eps_b, w), 1.0)
    )
    return b1, b1_star, b2


def _enumeration_cost(s: SamplingScheme) -> int:
    cost = 0
    for l in range(s.L):
        ca = math.prod(math.comb(s.w[l], z) for z in s.draws_a[l])
        cb = math.prod(math.comb(s.w[l], z) for z in s.draws_b[l])
        cost += ca * cb
    return cost


def _union_outside_distribution(
    w: int, w_star: int, draws: tuple
) -> dict[tuple[int, int], Fraction]:
    """Joint law of (|union outside W*|, |union inside W*|) for one
    player's draws in one class, by exact convolution.

    Uniform subsets are exchangeable over elements, so only these two
    occupancy counts matter; this collapses the enumeration over raw
    subset choices without changing the value.
    """
    outside_total = w - w_star
    dist: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    for z in draws:
        total_ways = math.comb(w, z)
        new: dict[tuple[int, int], Fraction] = {}
        for (t, u), prob in dist.items():
            occupied = t + u
            for i in range(0, min(z, outside_total - t) + 1):
                ways_i = math.comb(outside_total - t, i)
                for j in range(0, min(z - i, w_star - u) + 1):
                    ways = (
                        ways_i
                        * math.comb(w_star - u, j)
                        * math.comb(occupied, z - i - j)
                    )
                    if ways == 0:
                        continue
                    key = (t + i, u + j)
                    new[key] = new.get(key, Fraction(0)) + prob * Fraction(
                        ways, total_ways
                    )
        dist = new
    return dist


def _exact_class_prob(
    w: int, w_star: int, draws_a: tuple, draws_b: tuple
) -> Fraction:
    """Exact per-class P[no cross-collision outside the excluded set].

    Conditional on player A's union covering t elements outside W*,
    each of B's draws independently avoids those t fixed elements with
    probability C(w - t, z') / C(w, z')."""
    dist = _union_outside_distribution(w, w_star, draws_a)
    prob = Fraction(0)
    for (t, _), pa in dist.items():
        avoid = Fraction(1)
        for z in draws_b:
            denom = math.comb(w, z)
            num = math.comb(w - t, z) if w - t >= z else 0
            avoid *= Fraction(num, denom)
        prob += pa * avoid
    return prob


def p_no_collision_exact(s: SamplingScheme) -> float:
    """Exact P[S = 0].

    Single draw per class on both sides with no exclusions uses the
    closed form prod_l C(w_l - z_l, z'_l) / C(w_l, z'_l); otherwise the
    exact convolution above, guarded by the raw enumeration cost.
    """
    validate_scheme(s)
    single = all(
        len(s.draws_a[l]) == 1 and len(s.draws_b[l]) == 1 for l in range(s.L)
    )
    if single and all(x == 0 for x in s.excluded):
        prob = Fraction(1)
        for l in range(s.L):
            z, zp = s.draws_a[l][0], s.draws_b[l][0]
            num = math.comb(s.w[l] - z, zp) if s.w[l] - z >= zp else 0
            prob *= Fraction(num, math.comb(s.w[l], zp))
        return float(prob)
    if _enumeration_cost(s) > EXACT_COST_LIMIT:
        raise CapacityError("instance too large for exact oracle")
    prob = Fraction(1)
    for l in range(s.L):
        prob *= _exact_class_prob(
            s.w[l], s.excluded[l], s.draws_a[l], s.draws_b[l]
        )
    return float(prob)


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
    b1, b1_star, _ = bounds(s)
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
