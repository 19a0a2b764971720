"""RK4 / adaptive-quadrature cross-verification tests.

The closed-form slope is its own reference here: classical RK4 has global
error O(step^4), so integrating the slope ODE at a small fixed step must
land back on the closed form, and adaptive Simpson integration of the slope
must land on the closed-form observable.  The measured RK4 deviations are
frozen with generous bands and an explicit O(step^4) scaling check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from kinkfit import (
    OdeRun,
    TransitionParams,
    adaptive_simpson,
    integrate_slope_ode,
    integrate_value_quadrature,
    slope,
    value,
    verify_closed_forms,
)
from kinkfit.errors import MaxDepthExceeded, StepTooLarge

SIMPLE = TransitionParams(alpha=1.0, beta=3.0, gamma=2.0, phi_c=0.0, f_c=0.0)


class TestOdeRunValidation:
    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            OdeRun(SIMPLE, 0.0, 1.0, step=0.0, s_start=2.0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            OdeRun(SIMPLE, 0.5, 0.5, step=1e-3, s_start=2.0)

    @pytest.mark.parametrize("s_start", [0.99, 3.01])
    def test_rejects_start_outside_slope_band(self, s_start):
        with pytest.raises(ValueError):
            OdeRun(SIMPLE, 0.0, 1.0, step=1e-3, s_start=s_start)


class TestIntegrateSlopeOde:
    def test_fixed_point_stays_exactly(self):
        traj = integrate_slope_ode(OdeRun(SIMPLE, 0.0, 1.0, step=1e-3, s_start=1.0))
        assert np.all(traj.s == 1.0)

    def test_forward_run_reaches_closed_form(self):
        run = OdeRun(SIMPLE, 0.0, 1.0, step=1e-4, s_start=2.0)
        traj = integrate_slope_ode(run)
        assert traj.phi[0] == 0.0 and traj.phi[-1] == 1.0
        assert abs(traj.s[-1] - slope(1.0, SIMPLE)) < 1e-10

    def test_backward_run_reaches_closed_form(self):
        run = OdeRun(SIMPLE, 0.0, -1.0, step=1e-4, s_start=2.0)
        traj = integrate_slope_ode(run)
        assert traj.phi[-1] == -1.0
        assert np.all(np.diff(traj.phi) < 0.0)
        assert abs(traj.s[-1] - slope(-1.0, SIMPLE)) < 1e-10

    def test_final_step_is_shortened_to_land_exactly(self):
        traj = integrate_slope_ode(OdeRun(SIMPLE, 0.0, 1.0, step=0.3, s_start=2.0))
        assert traj.phi[-1] == 1.0
        np.testing.assert_allclose(traj.phi, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-15)

    def test_demo_endpoints_match_closed_form(self, demo_params):
        mid = 0.5 * (demo_params.alpha + demo_params.beta)
        fwd = integrate_slope_ode(OdeRun(demo_params, 0.598, 0.63, 1e-5, mid))
        bwd = integrate_slope_ode(OdeRun(demo_params, 0.598, 0.57, 1e-5, mid))
        assert abs(fwd.s[-1] - slope(0.63, demo_params)) < 1e-10
        assert abs(bwd.s[-1] - slope(0.57, demo_params)) < 1e-10

    def test_coarse_step_trips_stiffness_guard(self, demo_params):
        mid = 0.5 * (demo_params.alpha + demo_params.beta)
        with pytest.raises(StepTooLarge):
            integrate_slope_ode(OdeRun(demo_params, 0.598, 0.63, step=0.01, s_start=mid))

    @pytest.mark.parametrize("step", [1e-3, 1e-4])
    def test_forward_backward_round_trip(self, step):
        """Integrating out and back returns to the starting slope.

        Reverse integration amplifies perturbations by e^|z|, so the round
        trip is only well-posed while the slope stays numerically away from
        its limiting values; this run turns around at z = 4.
        """
        mid = 2.0
        out = integrate_slope_ode(OdeRun(SIMPLE, 0.0, 1.0, step, mid))
        back = integrate_slope_ode(OdeRun(SIMPLE, 1.0, 0.0, step, float(out.s[-1])))
        assert abs(back.s[-1] - mid) < 1e-9


class TestIntegrateValueQuadrature:
    def test_anchor_is_exact(self, demo_params):
        assert integrate_value_quadrature(demo_params, 0.598, 1e-10) == 0.5

    def test_matches_closed_form(self, demo_params):
        got = integrate_value_quadrature(demo_params, 0.63, tol=1e-10)
        assert abs(got - value(0.63, demo_params)) < 1e-8

    def test_equal_slopes_integrate_linearly(self):
        p = TransitionParams(4.0, 4.0, 1.0, 0.2, -1.0)
        got = integrate_value_quadrature(p, 0.7, tol=1e-10)
        assert abs(got - (-1.0 + 4.0 * 0.5)) <= 1e-10

    def test_depth_limit_is_enforced(self, demo_params):
        with pytest.raises(MaxDepthExceeded):
            adaptive_simpson(
                lambda x: slope(x, demo_params), 0.57, 0.63, tol=1e-12, max_depth=2
            )

    def test_rejects_non_positive_tolerance(self, demo_params):
        with pytest.raises(ValueError):
            integrate_value_quadrature(demo_params, 0.6, tol=0.0)


class TestVerifyClosedForms:
    def test_equal_slopes_are_reproduced_exactly(self):
        p = TransitionParams(2.0, 2.0, 5.0, 0.5, 1.0)
        report = verify_closed_forms(p, 0.0, 1.0, n_samples=11, ode_step=1e-3)
        assert report.max_slope_deviation <= 1e-12
        assert report.max_value_deviation <= 1e-12

    def test_demo_deviations_at_default_step(self, demo_params):
        report = verify_closed_forms(demo_params, 0.57, 0.63)
        assert report.max_slope_deviation <= 1e-9
        assert report.max_value_deviation <= 1e-8
        assert type(report.max_slope_deviation) is float  # JSON-serialisable
        assert type(report.max_value_deviation) is float

    def test_demo_slope_deviation_at_coarser_step(self, demo_params):
        """At step 1e-5 the worst on-grid RK4 deviation sits near the
        transition and measures ~1.9e-8; freeze a generous band around it."""
        report = verify_closed_forms(demo_params, 0.57, 0.63, ode_step=1e-5)
        assert 5e-9 <= report.max_slope_deviation <= 5e-8
        assert report.max_value_deviation <= 1e-8

    def test_slope_deviation_scales_as_step_to_the_fourth(self, demo_params):
        """Quadrupling the step must multiply the deviation by ~256 (O(h^4));
        accept anywhere within a factor of 4 of that."""
        fine = verify_closed_forms(demo_params, 0.57, 0.63, ode_step=1e-5)
        coarse = verify_closed_forms(demo_params, 0.57, 0.63, ode_step=4e-5)
        ratio = coarse.max_slope_deviation / fine.max_slope_deviation
        assert 64.0 <= ratio <= 1024.0

    def test_quadrature_deviation_within_tolerance_budget(self, demo_params):
        quad_tol = 1e-10
        report = verify_closed_forms(demo_params, 0.57, 0.63, quad_tol=quad_tol)
        worst_f = max(abs(value(float(g), demo_params)) for g in report.grid)
        assert report.max_value_deviation <= quad_tol + 10 * np.finfo(float).eps * worst_f

    def test_literal_beta_linear_form_fails_by_analytic_gap(self, demo_params):
        """The beta-linear observable variant must miss the quadrature check
        by at least (beta - alpha) * (phi_c - phi_lo) / 2."""
        phi_lo, phi_hi = 0.57, 0.63
        report = verify_closed_forms(
            demo_params, phi_lo, phi_hi, use_beta_linear=True
        )
        gap = (demo_params.beta - demo_params.alpha) * (demo_params.phi_c - phi_lo) / 2
        assert report.max_value_deviation >= gap

    def test_literal_form_passes_for_equal_slopes(self):
        p = TransitionParams(2.0, 2.0, 5.0, 0.5, 1.0)
        report = verify_closed_forms(p, 0.0, 1.0, n_samples=11, ode_step=1e-3, use_beta_linear=True)
        assert report.max_value_deviation <= 1e-12

    def test_grid_contains_transition_and_bounds(self, demo_params):
        report = verify_closed_forms(demo_params, 0.57, 0.63, n_samples=7, ode_step=1e-4)
        assert report.grid[0] == 0.57 and report.grid[-1] == 0.63
        assert 0.598 in report.grid
        assert report.max_slope_deviation >= 0.0
        assert report.max_value_deviation >= 0.0

    def test_deterministic(self, demo_params):
        a = verify_closed_forms(demo_params, 0.57, 0.63, n_samples=9, ode_step=1e-4)
        b = verify_closed_forms(demo_params, 0.57, 0.63, n_samples=9, ode_step=1e-4)
        assert a.max_slope_deviation == b.max_slope_deviation
        assert a.max_value_deviation == b.max_value_deviation
        assert np.array_equal(a.grid, b.grid)

    def test_rejects_window_not_spanning_transition(self, demo_params):
        with pytest.raises(ValueError):
            verify_closed_forms(demo_params, 0.60, 0.63)

    def test_rejects_tiny_grid(self, demo_params):
        with pytest.raises(ValueError):
            verify_closed_forms(demo_params, 0.57, 0.63, n_samples=2)

    @pytest.mark.parametrize(
        "name, bad", [("ode_step", 0.0), ("ode_step", -1e-3), ("quad_tol", 0.0)]
    )
    def test_rejects_non_positive_step_and_tolerance(self, name, bad):
        """Checked up front: a negative step would march away from its
        target forever."""
        with pytest.raises(ValueError, match=name):
            verify_closed_forms(SIMPLE, -1.0, 1.0, **{name: bad})


class TestAdaptiveSimpson:
    def test_polynomial_is_exact_to_tolerance(self):
        got = adaptive_simpson(lambda x: x**4, 0.0, 1.0, tol=1e-12)
        assert abs(got - 0.2) <= 1e-12

    def test_reversed_interval_flips_sign(self):
        fwd = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
        rev = adaptive_simpson(math.exp, 1.0, 0.0, tol=1e-12)
        assert fwd == -rev
        assert abs(fwd - (math.e - 1.0)) <= 1e-12

    def test_empty_interval_is_zero(self):
        assert adaptive_simpson(math.exp, 0.3, 0.3, tol=1e-12) == 0.0

    def test_tightening_tolerance_never_hurts(self, demo_params):
        exact = value(0.62, demo_params) - demo_params.f_c
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            got = adaptive_simpson(lambda x: slope(x, demo_params), 0.598, 0.62, tol)
            err = abs(got - exact)
            assert err <= tol
            errs.append(err)
        assert errs[-1] <= errs[0] + 1e-15
