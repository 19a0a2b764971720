"""RK4 / adaptive-quadrature cross-verification tests.

The closed-form slope is its own reference here: classical RK4 has global
error O(step^4), so integrating the slope ODE at a small fixed step must
land back on the closed form, and adaptive Simpson integration of the slope
must land on the closed-form observable.  The measured RK4 deviations are
frozen with generous bands and an explicit O(step^4) scaling check.
"""

from __future__ import annotations

import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kinkfit import (
    OdeRun,
    TransitionParams,
    adaptive_simpson,
    integrate_slope_ode,
    integrate_value_quadrature,
    riccati_rhs,
    slope,
    value,
    verify_closed_forms,
)
from kinkfit.errors import MaxDepthExceeded, StepTooLarge
from kinkfit import oracle, quadrature
from kinkfit.oracle import _rk4_march

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

    def test_step_below_resolution_is_rejected(self):
        run = OdeRun(SIMPLE, 0.5, 1.0, step=1e-300, s_start=2.0)
        with pytest.raises(ValueError, match="below floating-point resolution at phi = 0.5"):
            integrate_slope_ode(run)

    def test_step_that_cannot_reach_the_end_is_rejected_before_marching(self, monkeypatch):
        """1e-300 moves phi at 0 but not at 1.0, where the march would stick
        after about 1e16 steps; both ends are tested before any step."""

        def no_march(*args):
            raise AssertionError("marched")

        monkeypatch.setattr(oracle, "_rk4_march", no_march)
        run = OdeRun(SIMPLE, 0.0, 1.0, step=1e-300, s_start=2.0)
        with pytest.raises(ValueError, match=r"below floating-point resolution at phi = 1\.0$"):
            integrate_slope_ode(run)

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


def reference_march(params, phi0, s0, phi1, step):
    """The per-step RK4 march on :func:`kinkfit.riccati_rhs`, kept as the
    oracle for the inlined ``_rk4_march``."""
    lo = params.alpha - (params.beta - params.alpha)
    hi = params.beta + (params.beta - params.alpha)
    direction = 1.0 if phi1 > phi0 else -1.0
    phi, s = phi0, s0
    while True:
        remaining = (phi1 - phi) * direction
        if remaining <= 0.0:
            return
        h = direction * min(step, remaining)
        if phi + h == phi:
            raise ValueError(
                f"step {step!r} is below floating-point resolution at phi = {phi!r}"
            )
        k1 = riccati_rhs(s, params)
        s2 = s + 0.5 * h * k1
        k2 = riccati_rhs(s2, params)
        s3 = s + 0.5 * h * k2
        k3 = riccati_rhs(s3, params)
        s4 = s + h * k3
        k4 = riccati_rhs(s4, params)
        s_new = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for stage in (s2, s3, s4, s_new):
            if not (lo <= stage <= hi):
                raise StepTooLarge(
                    f"stage value {stage!r} left [{lo!r}, {hi!r}] near phi = {phi!r}; "
                    f"reduce the step below {step!r}"
                )
        phi = phi1 if remaining <= step else phi + h
        s = s_new
        yield phi, s


def march_outcome(march, *args):
    """Every yielded (phi, s) as types and exact hex values, then the
    exception's type and message (None, None when the march ends normally)."""
    steps = []
    try:
        for phi, s in march(*args):
            steps.append((type(phi), phi.hex(), type(s), s.hex()))
    except (StepTooLarge, ValueError) as exc:
        return steps, type(exc), str(exc)
    return steps, None, None


class TestRk4MarchMatchesReference:
    """The step is drawn as ``courant / (gamma * (beta - alpha))``: with the
    step near the ODE's own time scale every step moves s by a fair share
    of the band, so a last-bit change in a stage slope reaches the yielded
    s instead of vanishing in ``s + h * k``, and from courant ~5 on the
    stages leave the band (StepTooLarge).  Beyond phi0 = 1e16 the ulp of
    phi is 2 or more, so short steps there fall below its resolution.

    The march computes its steps in blocks, and each draw runs at the
    shipped block size and at 1, 7 and 64 steps: the draws take at most
    ~500 steps, so only the small blocks put edges inside them.  The
    examples put a StepTooLarge and a below-resolution phi past step 64, a
    march of 448 = 7 * 64 steps, and a shortened last step right after the
    448th whole one.  Two take more than two shipped blocks, one each way,
    and one has a slope that overflows to inf at its first step."""

    @given(
        alpha=st.floats(-100.0, 100.0),
        width=st.floats(0.0, 100.0),
        gamma=st.floats(1e-3, 1e3),
        fraction=st.floats(0.0, 1.0),
        phi0=st.one_of(st.floats(-10.0, 10.0), st.floats(1e16, 1e18)),
        direction=st.sampled_from([-1.0, 1.0]),
        courant=st.floats(1e-3, 8.0),
        steps=st.floats(0.5, 500.0),
    )
    @example(alpha=10.7, width=69.3, gamma=40.0, fraction=0.5, phi0=0.598,
             direction=1.0, courant=27.72, steps=3.2)  # StepTooLarge
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.5, phi0=1e17,
             direction=-1.0, courant=4.0, steps=1e3)  # below resolution
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.0, phi0=0.0,
             direction=1.0, courant=1.0, steps=4.0)  # fixed point, whole steps
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.999999999999, phi0=0.0,
             direction=1.0, courant=4.14, steps=1e3)  # StepTooLarge at step 69
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.0, phi0=2.0**54 - 200.0,
             direction=1.0, courant=8.0, steps=1e3)  # stuck at 2**54, step 100
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.5, phi0=0.0,
             direction=1.0, courant=1.0, steps=448.0)  # exact multiple of the block
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.5, phi0=0.0,
             direction=-1.0, courant=1.0, steps=448.5)  # last step at a block edge
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.0625, phi0=0.0,
             direction=1.0, courant=0.125, steps=2 * oracle._BLOCK + 100.5)
    @example(alpha=1.0, width=2.0, gamma=2.0, fraction=0.9375, phi0=0.0,
             direction=-1.0, courant=0.125, steps=2 * oracle._BLOCK + 100.5)
    @example(alpha=-1e200, width=2e200, gamma=1.0, fraction=0.5, phi0=0.0,
             direction=1.0, courant=0.2, steps=3.0)  # k1 is inf: StepTooLarge
    def test_bit_identical_steps_and_errors(
        self, alpha, width, gamma, fraction, phi0, direction, courant, steps
    ):
        params = TransitionParams(alpha, alpha + width, gamma, 0.0, 0.0)
        s_start = params.alpha + fraction * (params.beta - params.alpha)
        step = courant / max(params.gamma * (params.beta - params.alpha), 1e-3)
        args = (params, phi0, s_start, phi0 + direction * steps * step, step)
        want = march_outcome(reference_march, *args)
        for block in (oracle._BLOCK, 1, 7, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_BLOCK", block)
                assert march_outcome(_rk4_march, *args) == want, block


def test_march_holds_one_block_at_a_time():
    """Draining the march to its last pair, as the check does, holds one
    block of (phi, s) floats at a time, whatever the number of steps: about
    100 kB at 1024 steps a block, and about 400 kB at 4096."""
    params = TransitionParams(alpha=1.0, beta=3.0, gamma=2.0, phi_c=0.0, f_c=0.0)
    tracemalloc.start()
    try:
        last = deque(_rk4_march(params, 0.0, 2.0, 0.2, 2e-6), maxlen=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last[0][0] == 0.2
    assert peak < 128 * 1024


def numpy_grid(lo: float, hi: float, n: int, phi_c: float) -> list[str]:
    """The check grid as the numpy expression it replaces builds it, as hex;
    overflow and inf - inf turn into inf and NaN silently, as on floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.unique(np.append(np.linspace(lo, hi, n), phi_c))
    return [x.hex() for x in grid.tolist()]


# Windows a few subnormals wide, where linspace's step underflows to 0.
_TINY = math.ulp(0.0)


@st.composite
def check_windows(draw):
    """(lo, hi, n, phi_c) with lo < phi_c < hi: finite doubles of any size,
    windows of subnormals, and phi_c put on one of linspace's own points."""
    n = draw(st.integers(3, 200))
    kind = draw(st.sampled_from(["any", "subnormal", "on-a-point"]))
    if kind == "subnormal":
        lo, phi_c, hi = sorted(draw(st.sets(st.integers(-60, 60), min_size=3, max_size=3)))
        return lo * _TINY, hi * _TINY, n, phi_c * _TINY
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lo, mid, hi = sorted(draw(st.sets(finite, min_size=3, max_size=3)))
    mid += 0.0  # a -0.0 phi_c ties with linspace's +0.0: see the test below
    if kind == "on-a-point":
        with np.errstate(over="ignore", invalid="ignore"):
            inside = [x for x in np.linspace(lo, hi, n).tolist() if lo < x < hi]
        if inside:
            mid = draw(st.sampled_from(inside))
    return lo, hi, n, mid


class TestSampleGrid:
    """The check grid is built on Python floats; it equals
    ``np.unique(np.append(np.linspace(lo, hi, n), phi_c))`` bit for bit,
    sign of zero included."""

    @given(check_windows())
    @example((-1.0, 1.0, 3, 0.0))  # phi_c is linspace's middle point
    @example((-3 * _TINY, 3 * _TINY, 9, _TINY))  # step == 0
    @example((-1e308, 1e308, 5, 0.0))  # hi - lo overflows: linspace's first point is NaN
    @example((0.57, 0.63, 25, 0.598))
    def test_matches_numpy(self, window):
        lo, hi, n, phi_c = window
        grid = oracle._sample_grid(lo, hi, n, phi_c)
        assert all(type(x) is float for x in grid)
        assert [x.hex() for x in grid] == numpy_grid(lo, hi, n, phi_c)

    @pytest.mark.parametrize("n", [13, 15])
    def test_negative_zero_phi_c_ties_with_linspace_zero(self, n):
        """linspace's zero is +0.0.  With phi_c = -0.0, np.unique keeps
        whichever zero its unstable sort puts first, which varies with n and
        the CPU (numpy 2.4 on an AVX-512 machine keeps +0.0 at n = 13 and
        -0.0 at n = 15); the grid keeps linspace's point, the first given."""
        grid = oracle._sample_grid(-1.0, 1.0, n, -0.0)
        assert [x.hex() for x in grid if x == 0.0] == ["0x0.0p+0"]
        assert grid == tuple(np.unique(np.append(np.linspace(-1.0, 1.0, n), -0.0)).tolist())


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

    def test_depth_limit_is_enforced(self, demo_params, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
        with pytest.raises(MaxDepthExceeded, match="after maximum halvings"):
            adaptive_simpson(lambda x: slope(x, demo_params), 0.57, 0.63, tol=1e-12)

    def test_rejects_non_positive_tolerance(self, demo_params):
        """NaN is refused up front, not after halving to the depth limit,
        and at phi_c = 0.598 too, where no quadrature runs."""
        for phi in (0.6, 0.598):
            for tol in (-1.0, 0.0, math.nan):
                with pytest.raises(ValueError, match="tol must be > 0"):
                    integrate_value_quadrature(demo_params, phi, tol=tol)

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_tolerance_below_rounding_level_stops_at_once(self, demo_params, tol):
        """The integral is ~0.064, so the rounding level of its Simpson sums,
        eps * 0.064 ~ 1.4e-17, exceeds the share tol / 4 of the first
        halving; without the rounding-level stop the halving runs through a
        tree of up to 2**60 intervals."""
        f_calls = []

        def f(x):
            f_calls.append(x)
            return slope(x, demo_params)

        with pytest.raises(MaxDepthExceeded, match="below the rounding level"):
            adaptive_simpson(f, 0.598, 0.599, tol)
        assert len(f_calls) < 1000


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
        assert a.grid == b.grid and type(a.grid) is tuple

    def test_rejects_window_not_spanning_transition(self, demo_params):
        with pytest.raises(ValueError):
            verify_closed_forms(demo_params, 0.60, 0.63)

    def test_rejects_tiny_grid(self, demo_params):
        with pytest.raises(ValueError):
            verify_closed_forms(demo_params, 0.57, 0.63, n_samples=2)

    @pytest.mark.parametrize(
        "name, bad",
        [("ode_step", 0.0), ("ode_step", -1e-3), ("quad_tol", 0.0), ("quad_tol", math.nan)],
    )
    def test_rejects_non_positive_step_and_tolerance(self, name, bad):
        """Checked up front: a negative step would march away from its
        target forever."""
        with pytest.raises(ValueError, match=name):
            verify_closed_forms(SIMPLE, -1.0, 1.0, **{name: bad})

    @pytest.mark.parametrize(
        "phi_lo, phi_hi, ode_step",
        [(-math.inf, 1.0, 1e-3), (-1e308, 1e308, 1e300)],  # steps that fail fast if marched
    )
    def test_rejects_window_that_leaves_no_tolerance_share(self, phi_lo, phi_hi, ode_step):
        """A width that overflows makes quad_tol / (phi_hi - phi_lo) zero,
        so no interval could meet its tolerance: refused before any march."""
        with pytest.raises(ValueError, match="quad_tol"):
            verify_closed_forms(SIMPLE, phi_lo, phi_hi, ode_step=ode_step)

    @pytest.mark.parametrize(
        "params, phi_lo, phi_hi, ode_step, stuck_at",
        [
            (SIMPLE, -1.0, 1.0, 1e-300, -1.0),
            (TransitionParams(1.0, 3.0, 2.0, 0.5, 0.0), 0.47, 0.53, 4e-17, 0.5),
        ],
    )
    def test_rejects_step_that_cannot_move_phi_before_marching(
        self, params, phi_lo, phi_hi, ode_step, stuck_at
    ):
        """A 1e-300 step moves phi at phi_c = 0 but not at -1: the march
        would stick on its way there, at -2**-943 after about 1.3e16 steps.
        4e-17 moves phi left of 0.5 but not right of it, where the march
        goes after the whole left side, about 7.5e14 steps.  Both are
        refused before any march."""
        message = f"step {ode_step!r} is below floating-point resolution at phi = {stuck_at!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_closed_forms(params, phi_lo, phi_hi, ode_step=ode_step)

    def test_rejects_rate_that_overflows_before_marching(self):
        """gamma (s - alpha)(beta - s) is inf at s = 0, where both marches
        start, so no step could follow it: refused, not reported as a step
        too large."""
        params = TransitionParams(-1e200, 1e200, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="leaves the double range"):
            verify_closed_forms(params, -1e-199, 1e-199, ode_step=1e-201)


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

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
    def test_rejects_non_positive_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            adaptive_simpson(math.sin, 0.0, 1.0, tol)

    def test_tightening_tolerance_never_hurts(self, demo_params):
        exact = value(0.62, demo_params) - demo_params.f_c
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            got = adaptive_simpson(lambda x: slope(x, demo_params), 0.598, 0.62, tol)
            err = abs(got - exact)
            assert err <= tol
            errs.append(err)
        assert errs[-1] <= errs[0] + 1e-15
