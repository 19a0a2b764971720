"""Matched power-law velocity profile tests.

The smooth profile has no elementary closed form, so the expected values
come from three independent directions: hand-evaluable special cases
(alpha == beta, the anchor, the matched pure power laws), a 50-digit
quadrature of the defining integral frozen into the tests, and the sharp
limit with its explicit convergence bound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinkfit import (
    PowerLawParams,
    loglog_slope,
    shear,
    velocity_limit,
    velocity_smooth,
)
from kinkfit.errors import NonPositiveY

# Exponent pair used throughout: 1/7 below the crossover, 1/2 above.
ALPHA = 1.0 / 7.0
BETA = 0.5


@pytest.fixture
def crossover_params() -> PowerLawParams:
    """Sharp crossover between the 1/7 and 1/2 exponents at unit distance."""
    return PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=BETA, gamma=1e3, y_c=1.0)


# Frozen 50-digit quadrature of A*y_c**alpha * exp(int_{y_c}^{y} shear(t)/t dt)
# at the crossover_params values (quadrature split at the transition layer).
SMOOTH_REFERENCE = {
    0.5: 0.90509398472910057227,
    2.0: 1.41323687862960698,
}


class TestPowerLawParams:
    def test_exponents_are_reordered_to_alpha_le_beta(self):
        p = PowerLawParams(a_coef=1.0, alpha=BETA, beta=ALPHA, gamma=2.0, y_c=1.5)
        assert (p.alpha, p.beta) == (ALPHA, BETA)
        assert (p.a_coef, p.gamma, p.y_c) == (1.0, 2.0, 1.5)

    def test_equal_exponents_allowed(self):
        p = PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=ALPHA, gamma=1.0, y_c=1.0)
        assert p.alpha == p.beta == ALPHA

    def test_b_coef_matches_the_power_laws_at_y_c(self):
        p = PowerLawParams(a_coef=2.0, alpha=1.0, beta=2.0, gamma=1.0, y_c=4.0)
        assert p.b_coef == pytest.approx(2.0 * 4.0 ** (1.0 - 2.0), rel=1e-15)
        lower = p.a_coef * p.y_c**p.alpha
        upper = p.b_coef * p.y_c**p.beta
        assert upper == pytest.approx(lower, rel=1e-12)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("a_coef", 0.0),
            ("a_coef", -1.0),
            ("gamma", 0.0),
            ("gamma", -2.0),
            ("y_c", 0.0),
            ("y_c", -0.5),
            ("a_coef", math.nan),
            ("alpha", math.inf),
            ("y_c", math.nan),
        ],
    )
    def test_invalid_fields_rejected(self, field, bad):
        kwargs = dict(a_coef=1.0, alpha=ALPHA, beta=BETA, gamma=1.0, y_c=1.0)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            PowerLawParams(**kwargs)


class TestShear:
    def test_midpoint_at_crossover(self, crossover_params):
        got = shear(crossover_params.y_c, crossover_params)
        assert got == pytest.approx(0.5 * (ALPHA + BETA), rel=1e-15)

    def test_midpoint_is_exact_when_width_times_gamma_overflows(self):
        """(beta - alpha) * gamma = inf must not turn z = inf * 0 into NaN."""
        p = PowerLawParams(1.0, -2.0, 1e200 - 2, 1e200, 0.5)
        assert shear(0.5, p) == (p.alpha + p.beta) / 2
        assert shear(0.25, p) == p.alpha and shear(0.75, p) == p.beta

    def test_decays_to_lower_exponent_below_crossover(self):
        """Below y_c the exponent approaches alpha at the logistic rate."""
        p = PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=BETA, gamma=50.0, y_c=1.0)
        y = 0.8
        bound = math.exp(-(BETA - ALPHA) * p.gamma * (p.y_c - y)) * (BETA - ALPHA)
        assert abs(shear(y, p) - ALPHA) <= bound

    def test_constant_when_exponents_equal(self):
        p = PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=ALPHA, gamma=3.0, y_c=1.0)
        for y in (0.1, 1.0, 7.5):
            assert shear(y, p) == ALPHA

    def test_strictly_increasing_in_y(self):
        p = PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=BETA, gamma=5.0, y_c=1.0)
        values = [shear(float(y), p) for y in np.logspace(-1, 1, 41)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("y", [0.0, -1.0])
    def test_rejects_nonpositive_distance(self, y, crossover_params):
        with pytest.raises(NonPositiveY):
            shear(y, crossover_params)


class TestVelocityLimit:
    def test_continuous_at_crossover(self):
        p = PowerLawParams(a_coef=3.0, alpha=ALPHA, beta=BETA, gamma=1.0, y_c=1.7)
        at = velocity_limit(p.y_c, p)
        just_above = velocity_limit(math.nextafter(p.y_c, math.inf), p)
        assert at == pytest.approx(p.a_coef * p.y_c**p.alpha, rel=1e-15)
        assert just_above == pytest.approx(at, rel=1e-12)

    def test_zero_exponent_gives_unit_velocity_below_crossover(self):
        p = PowerLawParams(a_coef=1.0, alpha=0.0, beta=1.0, gamma=1.0, y_c=2.0)
        for y in (0.1, 0.5, 2.0):
            assert velocity_limit(y, p) == 1.0

    def test_matched_upper_branch_value(self):
        p = PowerLawParams(a_coef=2.0, alpha=1.0, beta=2.0, gamma=1.0, y_c=1.0)
        assert velocity_limit(4.0, p) == 32.0

    def test_increasing_for_positive_exponents(self):
        p = PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=BETA, gamma=1.0, y_c=1.0)
        values = [velocity_limit(float(y), p) for y in np.logspace(-1, 1, 41)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("y", [0.0, -0.3])
    def test_rejects_nonpositive_distance(self, y, crossover_params):
        with pytest.raises(NonPositiveY):
            velocity_limit(y, crossover_params)


class TestVelocitySmooth:
    def test_anchor_is_exact_at_crossover(self):
        p = PowerLawParams(a_coef=2.5, alpha=ALPHA, beta=BETA, gamma=10.0, y_c=1.3)
        assert velocity_smooth(p.y_c, p) == p.a_coef * p.y_c**p.alpha

    @pytest.mark.parametrize("y", [0.3, 1.3, 2.5])
    def test_equal_exponents_give_pure_power_law(self, y):
        p = PowerLawParams(a_coef=2.0, alpha=0.25, beta=0.25, gamma=7.0, y_c=1.3)
        tol = 1e-12
        want = p.a_coef * y**p.alpha
        assert abs(velocity_smooth(y, p, tol) - want) <= tol * want

    @pytest.mark.parametrize("y", sorted(SMOOTH_REFERENCE))
    def test_matches_high_precision_quadrature(self, y, crossover_params):
        got = velocity_smooth(y, crossover_params, tol=1e-10)
        assert abs(math.log(got) - math.log(SMOOTH_REFERENCE[y])) <= 5e-10

    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_close_to_sharp_limit_when_gamma_large(self, y, crossover_params):
        got = velocity_smooth(y, crossover_params)
        want = velocity_limit(y, crossover_params)
        assert got == pytest.approx(want, rel=2e-3)

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_rejects_nonpositive_tolerance(self, tol, crossover_params):
        with pytest.raises(ValueError):
            velocity_smooth(1.5, crossover_params, tol)

    @pytest.mark.parametrize("y", [0.0, -2.0])
    def test_rejects_nonpositive_distance(self, y, crossover_params):
        with pytest.raises(NonPositiveY):
            velocity_smooth(y, crossover_params)


class TestLoglogSlope:
    def test_constant_exponent_recovered(self):
        """With alpha == beta the profile is an exact power law, so the
        log-log finite difference returns the exponent to rounding."""
        p = PowerLawParams(a_coef=2.0, alpha=0.25, beta=0.25, gamma=7.0, y_c=1.3)
        tol = 1e-10
        got = loglog_slope(0.7, p, h=1e-3, tol=tol)
        assert abs(got - 0.25) <= 10.0 * tol

    def test_lower_exponent_far_below_crossover(self, crossover_params):
        got = loglog_slope(0.5, crossover_params, h=1e-3)
        assert got == pytest.approx(ALPHA, abs=1e-3)

    def test_upper_exponent_far_above_crossover(self, crossover_params):
        got = loglog_slope(2.0, crossover_params, h=1e-3)
        assert got == pytest.approx(BETA, abs=1e-3)

    def test_midpoint_at_crossover(self, crossover_params):
        got = loglog_slope(crossover_params.y_c, crossover_params, h=1e-3)
        assert got == pytest.approx(0.5 * (ALPHA + BETA), abs=1e-2)

    @pytest.mark.parametrize("h", [0.0, 1.0, -0.5])
    def test_rejects_bad_relative_step(self, h, crossover_params):
        with pytest.raises(ValueError):
            loglog_slope(1.0, crossover_params, h=h)

    @pytest.mark.parametrize("y", [0.0, -1.0])
    def test_rejects_nonpositive_distance(self, y, crossover_params):
        with pytest.raises(NonPositiveY):
            loglog_slope(y, crossover_params, h=1e-3)


class TestProfileInvariants:
    @pytest.mark.parametrize("gamma", [5.0, 1e3])
    def test_loglog_slope_consistent_with_shear(self, gamma):
        """The finite-difference log-log slope reproduces the local exponent
        within the quadrature tolerance plus the O(h^2) difference error."""
        p = PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=BETA, gamma=gamma, y_c=1.0)
        h, tol = 1e-3, 1e-10
        for y in np.logspace(-1, 1, 9):
            y = float(y)
            scale = p.gamma * (p.beta - p.alpha) ** 2 * y * y
            budget = 10.0 * (tol + h * h * scale)
            diff = abs(loglog_slope(y, p, h, tol) - shear(y, p))
            assert diff <= budget

    def test_limit_convergence_bound_and_rate(self):
        """log velocity_smooth approaches log velocity_limit within
        (log 2)/gamma * (1 + |log(y/y_c)|), and the gap halves when gamma
        doubles."""
        grid = np.logspace(math.log10(0.25), math.log10(4.0), 13)

        def sup_gap(gamma: float) -> float:
            p = PowerLawParams(a_coef=1.0, alpha=ALPHA, beta=BETA, gamma=gamma, y_c=1.0)
            worst = 0.0
            for y in grid:
                y = float(y)
                gap = abs(
                    math.log(velocity_smooth(y, p)) - math.log(velocity_limit(y, p))
                )
                bound = (math.log(2.0) / gamma) * (1.0 + abs(math.log(y / p.y_c)))
                assert gap <= bound
                worst = max(worst, gap)
            return worst

        ratio = sup_gap(100.0) / sup_gap(200.0)
        assert 2.0 * 0.85 <= ratio <= 2.0 * 1.15

    @given(
        a_coef=st.floats(0.1, 10.0),
        alpha=st.floats(-2.0, 2.0),
        width=st.floats(0.0, 3.0),
        gamma=st.floats(0.01, 50.0),
        y_c=st.floats(0.1, 10.0),
        factor=st.floats(0.2, 5.0),
    )
    def test_velocity_positive_everywhere(self, a_coef, alpha, width, gamma, y_c, factor):
        """velocity_smooth stays strictly positive on its whole domain."""
        p = PowerLawParams(a_coef=a_coef, alpha=alpha, beta=alpha + width, gamma=gamma, y_c=y_c)
        u = velocity_smooth(factor * y_c, p, tol=1e-8)
        assert math.isfinite(u)
        assert u > 0.0
