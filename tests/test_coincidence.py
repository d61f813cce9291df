import itertools
import math
from fractions import Fraction

import pytest

from igdist import (
    SamplingScheme,
    bounds,
    lambda_value,
    p_no_collision_exact,
    p_no_collision_mc,
    poisson_check,
)
from igdist.coincidence import _exact_class_prob
from igdist.errors import CapacityError, ValidationError


def brute_force_p_s0(scheme: SamplingScheme) -> float:
    """Independent oracle: enumerate every subset choice of both
    players per class; excluded elements are the first w*_l of each
    universe, matching the exchangeable convention of the module."""
    result = Fraction(1)
    for l in range(scheme.L):
        w, ws = scheme.w[l], scheme.excluded[l]
        elements = range(w)
        combos_a = [
            list(itertools.combinations(elements, z)) for z in scheme.draws_a[l]
        ]
        combos_b = [
            list(itertools.combinations(elements, z)) for z in scheme.draws_b[l]
        ]
        good = total = 0
        for ca in itertools.product(*combos_a):
            ua = {e for c in ca for e in c if e >= ws}
            for cb in itertools.product(*combos_b):
                ub = {e for c in cb for e in c if e >= ws}
                total += 1
                good += not (ua & ub)
        result *= Fraction(good, total)
    return float(result)


class TestLambda:
    def test_single_class(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]])
        assert lambda_value(s) == pytest.approx(0.6, abs=1e-15)

    def test_zero_draws(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[0]])
        assert lambda_value(s) == 0.0

    def test_two_classes(self):
        s = SamplingScheme(w=[10, 20], draws_a=[[2], [4]], draws_b=[[3], [5]])
        assert lambda_value(s) == pytest.approx(1.6, abs=1e-15)

    def test_additive_over_disjoint_union(self):
        s1 = SamplingScheme(w=[7], draws_a=[[2, 1]], draws_b=[[3]])
        s2 = SamplingScheme(w=[5], draws_a=[[1]], draws_b=[[2, 2]])
        union = SamplingScheme(
            w=[7, 5], draws_a=[[2, 1], [1]], draws_b=[[3], [2, 2]]
        )
        assert lambda_value(union) == pytest.approx(
            lambda_value(s1) + lambda_value(s2), rel=1e-15
        )


class TestBounds:
    def test_b1(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]])
        b1, b1s = bounds(s)
        assert b1 == pytest.approx(1.0)
        assert b1s == 0.0

    def test_b1_star_zero_without_exclusions(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]], excluded=[0])
        assert bounds(s)[1] == 0.0

    def test_b1_star_full_exclusion_equals_lambda(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]], excluded=[10])
        assert bounds(s)[1] == pytest.approx(lambda_value(s), rel=1e-15)


class TestExact:
    def test_two_singletons(self):
        s = SamplingScheme(w=[2], draws_a=[[1]], draws_b=[[1]])
        assert p_no_collision_exact(s) == 0.5

    def test_closed_form_value(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]])
        assert p_no_collision_exact(s) == pytest.approx(7.0 / 15.0, rel=1e-15)

    def test_full_exclusion_gives_one(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]], excluded=[10])
        assert p_no_collision_exact(s) == 1.0

    def test_closed_form_equals_convolution(self):
        # one draw each, no exclusions: B's draw must miss A's z
        # elements, C(w - z, z') / C(w, z') exactly
        for w in range(2, 9):
            for z in range(0, min(3, w) + 1):
                for zp in range(0, min(3, w) + 1):
                    closed = Fraction(math.comb(w - z, zp), math.comb(w, zp))
                    assert _exact_class_prob(w, 0, (z,), (zp,)) == closed

    def test_against_brute_force(self):
        cases = [
            SamplingScheme(w=[6], draws_a=[[2, 1]], draws_b=[[2]], excluded=[1]),
            SamplingScheme(w=[5], draws_a=[[2, 2]], draws_b=[[1, 3]]),
            SamplingScheme(w=[7], draws_a=[[3]], draws_b=[[3, 2]], excluded=[2]),
            SamplingScheme(
                w=[4, 5], draws_a=[[1], [2, 1]], draws_b=[[2], [2]],
                excluded=[1, 0],
            ),
            SamplingScheme(w=[4], draws_a=[[2]], draws_b=[[2]], excluded=[4]),
            SamplingScheme(w=[6], draws_a=[[0]], draws_b=[[3]]),
            # several B draws, exclusions on both classes
            SamplingScheme(
                w=[7, 5], draws_a=[[2, 2], [1, 2]], draws_b=[[1, 2, 1], [2, 1]],
                excluded=[2, 1],
            ),
        ]
        for s in cases:
            assert p_no_collision_exact(s) == brute_force_p_s0(s)

    def test_monotone_in_draw_sizes(self):
        # adding elements to a draw can only create more collisions
        for w in (5, 8):
            probs = [
                p_no_collision_exact(
                    SamplingScheme(w=[w], draws_a=[[z]], draws_b=[[2]])
                )
                for z in range(0, 4)
            ]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_monotone_in_exclusions(self):
        for w in (5, 8):
            probs = [
                p_no_collision_exact(
                    SamplingScheme(
                        w=[w], draws_a=[[2, 1]], draws_b=[[2]], excluded=[ws]
                    )
                )
                for ws in range(0, w + 1)
            ]
            assert all(a <= b for a, b in zip(probs, probs[1:]))

    def test_capacity_guard(self):
        s = SamplingScheme(w=[4000], draws_a=[[2]], draws_b=[[2]], excluded=[1])
        with pytest.raises(CapacityError, match="too large"):
            p_no_collision_exact(s)


class TestMC:
    def test_certain_collision(self):
        # player A draws the whole universe
        s = SamplingScheme(w=[2], draws_a=[[2]], draws_b=[[1]])
        est, se = p_no_collision_mc(s, 500, seed=1)
        assert est == 0.0

    def test_matches_exact(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]])
        est, se = p_no_collision_mc(s, 100_000, seed=2)
        assert abs(est - 7.0 / 15.0) <= 3 * se

    def test_matches_exact_with_exclusions(self):
        s = SamplingScheme(w=[6], draws_a=[[2, 1]], draws_b=[[2]], excluded=[1])
        est, se = p_no_collision_mc(s, 100_000, seed=3)
        assert abs(est - p_no_collision_exact(s)) <= 3 * se

    def test_complement_draw_matches_exact(self):
        # zA = 5 > w/2 draws its complement; B avoids A's set w.p. 1/6
        s = SamplingScheme(w=[6], draws_a=[[5]], draws_b=[[1]])
        est, se = p_no_collision_mc(s, 100_000, seed=5)
        assert abs(est - 1.0 / 6.0) <= 3 * se

    def test_deterministic(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]])
        assert p_no_collision_mc(s, 1000, seed=4) == p_no_collision_mc(
            s, 1000, seed=4
        )


class TestPoissonCheck:
    def test_reference_instance(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]])
        chk = poisson_check(s)
        assert chk.method == "exact"
        assert chk.p_no_collision == pytest.approx(7.0 / 15.0, rel=1e-15)
        assert chk.poisson == pytest.approx(math.exp(-0.6), rel=1e-15)
        assert chk.abs_diff == pytest.approx(0.08214, abs=5e-6)
        assert chk.bound == pytest.approx(1.0)
        assert chk.passed

    def test_full_exclusion_passes_by_construction(self):
        s = SamplingScheme(w=[10], draws_a=[[2]], draws_b=[[3]], excluded=[10])
        chk = poisson_check(s)
        assert chk.p_no_collision == 1.0
        assert chk.passed

    def test_mc_fallback(self):
        s = SamplingScheme(
            w=[4000], draws_a=[[2]], draws_b=[[2]], excluded=[1]
        )
        chk = poisson_check(s, mc_reps=20_000, seed=5)
        assert chk.method == "mc"
        assert chk.mc_se > 0
        assert chk.passed


class TestValidation:
    def test_small_universe_rejected(self):
        with pytest.raises(ValidationError, match="w_1"):
            lambda_value(SamplingScheme(w=[1], draws_a=[[1]], draws_b=[[1]]))

    def test_oversized_draw_rejected(self):
        with pytest.raises(ValidationError, match="draw size"):
            lambda_value(SamplingScheme(w=[3], draws_a=[[4]], draws_b=[[1]]))

    def test_exclusion_bounds(self):
        with pytest.raises(ValidationError, match=r"w\*_1"):
            lambda_value(
                SamplingScheme(w=[3], draws_a=[[1]], draws_b=[[1]], excluded=[4])
            )
