"""Closed-form model tests.

Quantitative expectations are either hand arithmetic or computed live by an
independent route inside the test: high-precision mpmath evaluation of the
logistic form, adaptive quadrature of the slope, or central finite
differences.  Exact identities (swap symmetry, reflection, the sharp-limit
bound, the factored-quadratic round trip) run as hypothesis properties.
"""

from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kinkfit import (
    PiecewiseFit,
    PowerLawParams,
    TaylorCoeffs,
    TransitionParams,
    adaptive_simpson,
    piecewise_limit,
    riccati_rhs,
    slope,
    slope_limit,
    taylor_to_params,
    value,
    value_and_gradient,
    value_beta_linear,
    value_gradient,
)
from kinkfit import model
from kinkfit.errors import ComplexRoots, DegenerateQuadratic, NonPositiveGamma
from kinkfit.model import _array_libm

LOG2 = math.log(2.0)


# Reference oracle: the closed forms as scalar Python-float code, one libm
# call at a time.  The library evaluates floats and arrays with one kernel;
# both must equal these bit for bit.


def ref_sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def ref_z(p, delta: float) -> float:
    return (p.beta - p.alpha) * p.gamma * delta if delta else 0.0


def ref_slope(phi: float, p) -> float:
    return p.alpha + (p.beta - p.alpha) * ref_sigmoid(ref_z(p, phi - p.phi_c))


def ref_value(phi: float, p) -> float:
    delta = phi - p.phi_c
    tail = math.log1p(math.exp(-abs(ref_z(p, delta)))) - math.log1p(1.0)
    return p.f_c + p.alpha * delta + (p.beta - p.alpha) * max(delta, 0.0) + tail / p.gamma


def ref_piecewise_limit(phi: float, p) -> float:
    delta = phi - p.phi_c
    return p.f_c + (p.alpha if delta <= 0.0 else p.beta) * delta


def ref_value_gradient(phi: float, p) -> tuple[float, ...]:
    delta = phi - p.phi_c
    z = ref_z(p, delta)
    t = math.exp(-abs(z))
    log2 = math.log1p(1.0)
    sensitivity = log2 if t == 0.0 else log2 - abs(z) * t / (1.0 + t) - math.log1p(t)
    return (
        delta * ref_sigmoid(-z),
        delta * ref_sigmoid(z),
        sensitivity / (p.gamma * p.gamma),
        -(p.alpha + (p.beta - p.alpha) * ref_sigmoid(z)),
        1.0,
    )


def bits(values) -> bytes:
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


def rel_err(got: float, want: float, scale: float | None = None) -> float:
    denom = max(abs(got), abs(want)) if scale is None else scale
    return abs(got - want) / max(denom, 1e-300)


def mp_slope(phi: float, p: TransitionParams) -> float:
    """slope() recomputed at 50 significant digits."""
    with mpmath.workdps(50):
        width = mpmath.mpf(p.beta) - mpmath.mpf(p.alpha)
        z = width * mpmath.mpf(p.gamma) * (mpmath.mpf(phi) - mpmath.mpf(p.phi_c))
        return float(mpmath.mpf(p.alpha) + width / (1 + mpmath.exp(-z)))


def mp_value(phi: float, p: TransitionParams) -> float:
    """value() recomputed at 50 significant digits."""
    with mpmath.workdps(50):
        width = mpmath.mpf(p.beta) - mpmath.mpf(p.alpha)
        z = width * mpmath.mpf(p.gamma) * (mpmath.mpf(phi) - mpmath.mpf(p.phi_c))
        softplus = mpmath.log(1 + mpmath.exp(z)) if z < 700 else z
        term = (softplus - mpmath.log(2)) / mpmath.mpf(p.gamma)
        return float(
            mpmath.mpf(p.f_c)
            + mpmath.mpf(p.alpha) * (mpmath.mpf(phi) - mpmath.mpf(p.phi_c))
            + term
        )


# Joint (params, offset) strategy: |z| is capped so strict-interior and
# ordering claims remain decidable in float64.
@st.composite
def params_and_phi(draw, z_max: float = 25.0):
    alpha = draw(st.floats(-20.0, 20.0))
    width = draw(st.floats(0.1, 50.0))
    gamma = draw(st.floats(1e-3, 1e3))
    phi_c = draw(st.floats(-2.0, 2.0))
    f_c = draw(st.floats(-5.0, 5.0))
    z = draw(st.floats(-z_max, z_max))
    delta = z / (width * gamma)
    assume(math.isfinite(phi_c + delta) and abs(delta) < 1e12)
    return TransitionParams(alpha, alpha + width, gamma, phi_c, f_c), phi_c + delta


class TestTransitionParams:
    def test_canonical_slope_order(self):
        p = TransitionParams(alpha=80.0, beta=10.7, gamma=40.0, phi_c=0.598, f_c=0.5)
        assert (p.alpha, p.beta) == (10.7, 80.0)

    def test_equal_slopes_allowed(self):
        p = TransitionParams(2.0, 2.0, 1.0, 0.0, 0.0)
        assert p.alpha == p.beta == 2.0

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError):
            TransitionParams(1.0, 2.0, gamma, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "phi_c", "f_c"])
    def test_non_finite_fields_rejected(self, field):
        kwargs = dict(alpha=1.0, beta=2.0, gamma=1.0, phi_c=0.0, f_c=0.0)
        kwargs[field] = math.nan
        with pytest.raises(ValueError):
            TransitionParams(**kwargs)

    @pytest.mark.parametrize(
        "build",
        [
            lambda a, b: TransitionParams(a, b, 1.0, 0.598, 0.0),
            lambda a, b: PowerLawParams(1.0, a, b, 1.0, 1.0),
        ],
        ids=["TransitionParams", "PowerLawParams"],
    )
    def test_overflowing_width_rejected(self, build):
        """Finite slopes whose width beta - alpha overflows: each closed form
        would turn it into inf or nan, so both constructors refuse it."""
        for a, b in ((-1e308, 1e308), (1e308, -1e308), (-1.7e308, 0.2e308)):
            with pytest.raises(ValueError, match="beta - alpha must be finite"):
                build(a, b)
        assert build(-0.8e308, 0.8e308).beta == 0.8e308


class TestTaylorToParams:
    def test_two_distinct_roots(self):
        # -2 s^2 + 8 s - 6 factors as 2 (s - 1)(3 - s).
        alpha, beta, gamma = taylor_to_params(TaylorCoeffs(s0=0.0, f0=-6.0, f1=8.0, f2=-4.0))
        assert (alpha, beta, gamma) == pytest.approx((1.0, 3.0, 2.0), rel=1e-14)

    def test_double_root_at_zero(self):
        alpha, beta, gamma = taylor_to_params(TaylorCoeffs(s0=0.0, f0=0.0, f1=0.0, f2=-2.0))
        assert (alpha, beta, gamma) == (0.0, 0.0, 1.0)

    def test_expansion_point_shifts_roots(self):
        # Same quadratic as test_two_distinct_roots but expanded about s0 = 2.
        alpha, beta, gamma = taylor_to_params(TaylorCoeffs(s0=2.0, f0=2.0, f1=0.0, f2=-4.0))
        assert (alpha, beta, gamma) == pytest.approx((1.0, 3.0, 2.0), rel=1e-14)

    def test_complex_roots_rejected(self):
        # -1 - s^2 is negative for every s: discriminant 0 - 2(-1)(-2) = -4.
        with pytest.raises(ComplexRoots):
            taylor_to_params(TaylorCoeffs(s0=0.0, f0=-1.0, f1=0.0, f2=-2.0))

    def test_degenerate_quadratic_rejected(self):
        with pytest.raises(DegenerateQuadratic):
            taylor_to_params(TaylorCoeffs(s0=0.0, f0=1.0, f1=2.0, f2=0.0))

    def test_positive_curvature_rejected(self):
        with pytest.raises(NonPositiveGamma):
            taylor_to_params(TaylorCoeffs(s0=0.0, f0=1.0, f1=2.0, f2=3.0))

    @given(
        alpha=st.floats(0.1, 50.0),
        sign=st.sampled_from([-1.0, 1.0]),
        width=st.floats(0.1, 50.0),
        gamma=st.floats(1e-3, 1e3),
        u=st.floats(-0.5, 1.5),
    )
    def test_round_trip(self, alpha, sign, width, gamma, u):
        """Expanding gamma (s - alpha)(beta - s) about any nearby point and
        refactoring recovers (alpha, beta, gamma) to 1e-12 of the root scale."""
        alpha = sign * alpha
        beta = alpha + width
        assume(abs(beta) >= 0.1)
        s0 = alpha + width * u
        f0 = gamma * (s0 - alpha) * (beta - s0)
        f1 = gamma * ((alpha - s0) + (beta - s0))
        f2 = -2.0 * gamma
        got_a, got_b, got_g = taylor_to_params(TaylorCoeffs(s0=s0, f0=f0, f1=f1, f2=f2))
        scale = max(abs(alpha), abs(beta))
        assert abs(got_a - alpha) <= 1e-12 * scale
        assert abs(got_b - beta) <= 1e-12 * scale
        assert abs(got_g - gamma) <= 1e-12 * gamma


class TestRiccatiRhs:
    def test_roots_are_fixed_points(self, demo_params):
        assert riccati_rhs(demo_params.alpha, demo_params) == 0.0
        assert riccati_rhs(demo_params.beta, demo_params) == 0.0

    def test_midpoint_value(self):
        # gamma (beta - alpha)^2 / 4 = 2 * 4 / 4.
        p = TransitionParams(1.0, 3.0, 2.0, 0.0, 0.0)
        assert riccati_rhs(2.0, p) == 2.0


class TestSlope:
    def test_midpoint_at_transition(self, demo_params):
        assert slope(0.598, demo_params) == pytest.approx(45.35, rel=1e-14)
        assert slope(demo_params.phi_c, demo_params) == pytest.approx(
            0.5 * (demo_params.alpha + demo_params.beta), rel=1e-15
        )

    def test_against_high_precision(self, demo_params):
        got = slope(0.60, demo_params)
        assert rel_err(got, mp_slope(0.60, demo_params)) < 1e-13
        assert round(got, 2) == 79.73

    def test_equal_slopes_constant(self):
        p = TransitionParams(3.0, 3.0, 5.0, 0.0, 0.0)
        for phi in (-10.0, 0.0, 0.7, 1e6):
            assert slope(phi, p) == 3.0

    def test_no_overflow_far_from_transition(self):
        p = TransitionParams(1.0, 2.0, 100.0, 0.0, 0.0)
        assert slope(-1e8, p) == 1.0
        assert slope(1e8, p) == 2.0

    def test_peak_memory_is_bounded(self, demo_params):
        """An array slope at n = 1e5 peaks at its one division, holding
        phi - phi_c, exp(-|z|), the numerator, 1 + exp(-|z|) and the
        quotient, 5 x 8n bytes; z is released before it.  Both quotients
        1/(1 + t) and t/(1 + t) formed before the select peaked at
        6.13 x 8n; the bound lies about halfway.  The input phi is made
        before the trace starts."""
        n = 100_000
        phi = np.linspace(0.57, 0.63, n)
        slope(phi[:10], demo_params)
        tracemalloc.start()
        try:
            s = slope(phi, demo_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.shape == (n,)
        assert peak < 5.6 * 8 * n

    def test_matches_ode_rhs_through_derivative(self, demo_params):
        """d(slope)/dphi equals gamma (s - alpha)(beta - s) along the curve."""
        g = demo_params.gamma
        w = demo_params.beta - demo_params.alpha
        tol = 1e-4 * g * w * w
        for phi in np.linspace(0.57, 0.63, 25):
            h = 1e-6 * max(1.0, abs(phi))
            fd = (slope(phi + h, demo_params) - slope(phi - h, demo_params)) / (2 * h)
            assert abs(fd - riccati_rhs(slope(phi, demo_params), demo_params)) <= tol


class TestValue:
    def test_anchor_is_exact(self, demo_params):
        assert value(demo_params.phi_c, demo_params) == demo_params.f_c

    def test_sharp_limit_regime(self):
        p = TransitionParams(10.7, 80.0, 1e6, 0.598, 0.5)
        assert value(0.60, p) == pytest.approx(0.66, abs=1e-4)

    def test_against_quadrature(self, demo_params):
        """f_c plus the adaptive-Simpson integral of the slope is an
        algebra-free route to the same number."""
        for phi in (0.57, 0.59, 0.598, 0.61, 0.63):
            integral = adaptive_simpson(
                lambda x: slope(x, demo_params), demo_params.phi_c, phi, 1e-10
            )
            assert abs(value(phi, demo_params) - (demo_params.f_c + integral)) < 1e-8

    def test_against_high_precision(self, demo_params):
        for phi in (0.57, 0.58, 0.62, 0.63):
            assert rel_err(value(phi, demo_params), mp_value(phi, demo_params)) < 1e-13

    def test_no_overflow_far_from_transition(self):
        p = TransitionParams(1.0, 2.0, 100.0, 0.0, 0.0)
        for phi in (-1e8, 1e8):
            got = value(phi, p)
            assert math.isfinite(got)
            # Saturated regime: the gap to the sharp limit is log(2)/gamma,
            # resolved here only to the rounding ulp of the huge linear term.
            slack = 8 * np.finfo(float).eps * abs(got)
            assert abs(got - piecewise_limit(phi, p)) == pytest.approx(
                LOG2 / p.gamma, abs=slack
            )

    def test_peak_memory_is_bounded(self, demo_params):
        """An array F at n = 1e5 peaks inside the libm map for exp, holding
        phi - phi_c, z, -|z| and exp(-|z|), 4 x 8n bytes, beside one slice's
        Python floats (about 0.2 MB; 4.25 x 8n in all).  An n-long index of
        the live points in the map, and z and exp(-|z|) kept through the sum
        that forms F, peaked at 6.13 x 8n; the bound lies halfway.  The input
        phi is made before the trace starts."""
        n = 100_000
        phi = np.linspace(0.57, 0.63, n)
        value(phi[:10], demo_params)
        tracemalloc.start()
        try:
            f = value(phi, demo_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.shape == (n,)
        assert peak < 5.2 * 8 * n

    def test_beta_linear_variant_offset(self, demo_params):
        """The diagnostic variant differs from value() by exactly
        (beta - alpha)(phi - phi_c), so it cannot be an antiderivative of
        the slope unless alpha == beta."""
        w = demo_params.beta - demo_params.alpha
        for phi in (0.57, 0.59, 0.61, 0.63):
            expected = value(phi, demo_params) + w * (phi - demo_params.phi_c)
            assert value_beta_linear(phi, demo_params) == pytest.approx(expected, rel=1e-12)
        p_eq = TransitionParams(2.0, 2.0, 7.0, 0.1, 0.3)
        assert value_beta_linear(0.7, p_eq) == value(0.7, p_eq)


class TestPiecewiseLimit:
    def test_anchor(self, demo_params):
        assert piecewise_limit(0.598, demo_params) == 0.5

    def test_left_branch(self, demo_params):
        # 0.5 + 10.7 * (0.59 - 0.598)
        assert piecewise_limit(0.59, demo_params) == pytest.approx(0.4144, rel=1e-12)

    def test_right_branch(self, demo_params):
        # 0.5 + 80 * (0.60 - 0.598)
        assert piecewise_limit(0.60, demo_params) == pytest.approx(0.66, rel=1e-12)

    def test_continuous_at_kink(self, demo_params):
        eps = 1e-12
        assert piecewise_limit(0.598 - eps, demo_params) == pytest.approx(0.5, abs=1e-9)
        assert piecewise_limit(0.598 + eps, demo_params) == pytest.approx(0.5, abs=1e-9)


class TestSlopeLimit:
    def test_three_branches(self, demo_params):
        assert slope_limit(0.597, demo_params) == 10.7
        assert slope_limit(0.599, demo_params) == 80.0
        assert slope_limit(0.598, demo_params) == 0.5 * (10.7 + 80.0)

    def test_is_pointwise_sharp_limit_of_slope(self, demo_params):
        """Away from phi_c, slope() approaches slope_limit() as gamma grows."""
        sharp = TransitionParams(10.7, 80.0, 1e9, 0.598, 0.5)
        for phi in (0.57, 0.63):
            assert slope(phi, sharp) == slope_limit(phi, demo_params)


class TestValueGradient:
    N_CHECKS = 100

    @staticmethod
    def _random_setup(rng):
        """Parameter draws keep |z| in [1, 4] so every gradient component is
        bounded away from zero and central differences resolve it cleanly."""
        alpha = rng.uniform(0.5, 10.0)
        beta = alpha + rng.uniform(0.5, 10.0)
        delta = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        gamma = rng.uniform(1.0, 4.0) / ((beta - alpha) * abs(delta))
        phi_c = rng.uniform(-1.0, 1.0)
        f_c = rng.uniform(-3.0, 3.0)
        p = TransitionParams(alpha, beta, gamma, phi_c, f_c)
        return phi_c + delta, p

    @staticmethod
    def _fd_gradient(phi, p, rel_step=1e-6):
        fields = [p.alpha, p.beta, p.gamma, p.phi_c, p.f_c]
        out = []
        for i in range(5):
            h = rel_step * max(1.0, abs(fields[i]))
            hi = fields.copy()
            lo = fields.copy()
            hi[i] += h
            lo[i] -= h
            out.append(
                (value(phi, TransitionParams(*hi)) - value(phi, TransitionParams(*lo)))
                / (2.0 * h)
            )
        return out

    def test_level_component_is_one(self, demo_params):
        for phi in (0.57, 0.598, 0.63):
            assert value_gradient(phi, demo_params)[4] == 1.0

    def test_sharpness_component_vanishes_at_transition(self, demo_params):
        assert value_gradient(demo_params.phi_c, demo_params)[2] == 0.0

    def test_location_component_is_negative_slope(self, demo_params):
        for phi in (0.58, 0.61):
            got = value_gradient(phi, demo_params)[3]
            assert got == pytest.approx(-slope(phi, demo_params), rel=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20240817)
        for _ in range(self.N_CHECKS):
            phi, p = self._random_setup(rng)
            analytic = value_gradient(phi, p)
            numeric = self._fd_gradient(phi, p)
            for a, n in zip(analytic, numeric):
                assert rel_err(a, n) < 1e-5


class TestValueAndGradient:
    """The array form against the reference scalar value and gradient,
    point by point, bit for bit."""

    def assert_matches_scalar(self, phis, p):
        phis = np.asarray(phis, dtype=np.float64)
        with np.errstate(all="raise"):
            values, jac = value_and_gradient(phis, p)
        assert values.shape == phis.shape and jac.shape == phis.shape + (5,)
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(jac))
        want = [(ref_value(x, p),) + ref_value_gradient(x, p) for x in phis.tolist()]
        assert bits(np.column_stack((values, jac))) == bits(want)

    @given(
        alpha=st.floats(-1e3, 1e3),
        width=st.one_of(st.just(0.0), st.floats(1e-3, 1e150)),
        gamma=st.floats(1e-3, 1e150),
        phi_c=st.floats(-10.0, 10.0),
        f_c=st.floats(-1e3, 1e3),
        deltas=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=20),
    )
    def test_matches_scalar_forms(self, alpha, width, gamma, phi_c, f_c, deltas):
        """|z| spans 0 to past the float range: z = width*gamma*delta reaches
        1e300 and overflows to +-inf, where exp(-|z|) == 0 guards the gamma
        sensitivity.  Every value and gradient component stays finite."""
        p = TransitionParams(alpha, alpha + width, gamma, phi_c, f_c)
        self.assert_matches_scalar([phi_c + d for d in deltas] + [phi_c], p)

    @pytest.mark.parametrize("width, gamma", [(1e150, 1e150), (1e200, 1e200), (1.0, 1e-3)])
    def test_extreme_z(self, width, gamma):
        """With width = gamma = 1e150, z is +-1e300 at phi_c +- 1 and
        overflows to +-inf at phi_c +- 1e10; at 1e200 width * gamma itself
        overflows; width 1, gamma 1e-3 keeps |z| below 1e7.  The other
        closed forms, scalar and array, match their references too."""
        p = TransitionParams(-2.0, -2.0 + width, gamma, 0.5, 3.0)
        phis = [0.5 + d for d in (-1e10, -1.0, -1e-150, 0.0, 1e-150, 1.0, 1e10)]
        self.assert_matches_scalar(phis, p)
        TestOneKernel.assert_forms_match(TestOneKernel.FORMS, phis, p)

    @given(params_and_phi())
    def test_anchor_is_exact(self, pp):
        p, _ = pp
        values, jac = value_and_gradient(np.array([p.phi_c, p.phi_c]), p)
        assert values.tolist() == [p.f_c, p.f_c]
        assert jac[:, 2].tolist() == [0.0, 0.0]

    def test_demo_grid_matches_scalar(self, demo_params):
        self.assert_matches_scalar(np.linspace(0.57, 0.63, 601), demo_params)

    def test_anchor_is_exact_when_width_times_gamma_overflows(self):
        """(beta - alpha) * gamma = 1e400 is inf; z at phi_c must still be 0,
        not inf * 0 = NaN, in the scalar and the array forms."""
        p = TransitionParams(-2.0, 1e200 - 2.0, 1e200, 0.5, 3.0)
        assert value(0.5, p) == 3.0
        assert slope(0.5, p) == 0.5 * (p.alpha + p.beta)
        assert value_gradient(0.5, p) == (0.0, 0.0, 0.0, -slope(0.5, p), 1.0)
        with np.errstate(all="raise"):
            values, jac = value_and_gradient(np.array([0.4, 0.5, 0.6]), p)
        assert values[1] == 3.0
        assert jac[1].tolist() == list(value_gradient(0.5, p))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(jac))
        self.assert_matches_scalar([0.4, 0.5, 0.6], p)


class TestExactIdentities:
    @given(
        alpha=st.floats(-50.0, 50.0),
        beta=st.floats(-50.0, 50.0),
        gamma=st.floats(1e-6, 1e6),
        phi_c=st.floats(-10.0, 10.0),
        f_c=st.floats(-10.0, 10.0),
        phi=st.floats(-20.0, 20.0),
    )
    def test_swap_symmetry(self, alpha, beta, gamma, phi_c, f_c, phi):
        """Swapping the two slopes is a no-op: constructors canonicalize, so
        both orderings give bitwise-identical evaluations."""
        p = TransitionParams(alpha, beta, gamma, phi_c, f_c)
        q = TransitionParams(beta, alpha, gamma, phi_c, f_c)
        assert p == q
        assert slope(phi, p) == slope(phi, q)
        assert value(phi, p) == value(phi, q)

    @given(pp=params_and_phi())
    def test_reflection_identity(self, pp):
        """slope(phi_c + d) + slope(phi_c - d) == alpha + beta."""
        p, phi = pp
        d = phi - p.phi_c
        lhs = slope(p.phi_c + d, p) + slope(p.phi_c - d, p)
        scale = max(1.0, abs(p.alpha), abs(p.beta))
        assert abs(lhs - (p.alpha + p.beta)) <= 1e-12 * scale

    @given(pp=params_and_phi())
    def test_slope_strictly_interior(self, pp):
        p, phi = pp
        s = slope(phi, p)
        assert p.alpha < s < p.beta

    @given(pp=params_and_phi(z_max=15.0), dz=st.floats(0.01, 5.0))
    def test_slope_strictly_increasing(self, pp, dz):
        p, phi = pp
        step = dz / ((p.beta - p.alpha) * p.gamma)
        assume(phi + step > phi)
        assert slope(phi + step, p) > slope(phi, p)

    @given(pp=params_and_phi())
    def test_sharp_limit_bound(self, pp):
        """|value - piecewise_limit| <= log(2)/gamma everywhere (up to the
        rounding slack of re-deriving the shared linear term)."""
        p, phi = pp
        gap = abs(value(phi, p) - piecewise_limit(phi, p))
        slack = 8 * np.finfo(float).eps * (
            abs(p.f_c) + (abs(p.alpha) + abs(p.beta)) * abs(phi - p.phi_c)
        )
        assert gap <= LOG2 / p.gamma + slack


class TestNumericalConsistency:
    def test_value_derivative_is_slope(self, demo_params):
        scale = 1e-6 * max(1.0, abs(demo_params.alpha), abs(demo_params.beta))
        for phi in np.linspace(0.57, 0.63, 25):
            h = 1e-6 * max(1.0, abs(phi))
            fd = (value(phi + h, demo_params) - value(phi - h, demo_params)) / (2 * h)
            assert abs(fd - slope(phi, demo_params)) <= scale

    def test_value_derivative_is_slope_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = rng.uniform(-5.0, 5.0)
            width = rng.uniform(0.1, 10.0)
            gamma = rng.uniform(0.1, 100.0)
            p = TransitionParams(alpha, alpha + width, gamma, rng.uniform(-1, 1), rng.uniform(-2, 2))
            z = rng.uniform(-8.0, 8.0)
            phi = p.phi_c + z / (width * gamma)
            h = 1e-6 * max(1.0, abs(phi))
            fd = (value(phi + h, p) - value(phi - h, p)) / (2 * h)
            assert abs(fd - slope(phi, p)) <= 1e-6 * max(1.0, abs(alpha), abs(p.beta))

    def test_doubling_sharpness_halves_limit_gap(self, demo_params):
        """Far from the transition the sharp-limit gap scales as 1/gamma."""
        phi = 0.57
        gaps = []
        for gamma in (50.0, 100.0, 200.0, 400.0):
            p = TransitionParams(10.7, 80.0, gamma, 0.598, 0.5)
            gaps.append(abs(value(phi, p) - piecewise_limit(phi, p)))
        for wide, narrow in zip(gaps, gaps[1:]):
            assert wide / narrow == pytest.approx(2.0, rel=0.10)

    def test_value_is_convex(self, demo_params):
        grid = np.linspace(0.57, 0.63, 601)
        f = np.array([value(float(x), demo_params) for x in grid])
        second = f[:-2] - 2.0 * f[1:-1] + f[2:]
        assert second.min() >= -1e-9


class TestOneKernel:
    """Scalar and array calls of every closed form equal the reference
    scalar forms bit for bit, from z = 0 to z past the float range."""

    FORMS = ((slope, ref_slope), (value, ref_value), (piecewise_limit, ref_piecewise_limit))

    @staticmethod
    def assert_forms_match(forms, phis, p):
        for form, ref in forms:
            want = [ref(x, p) for x in phis]
            scalars = [form(x, p) for x in phis]
            assert all(type(v) is float for v in scalars)
            assert bits(scalars) == bits(want), form.__name__
            assert bits(form(np.array(phis), p)) == bits(want), form.__name__

    @given(
        alpha=st.floats(-1e3, 1e3),
        width=st.one_of(st.just(0.0), st.floats(1e-3, 1e200)),
        gamma=st.floats(1e-3, 1e200),
        phi_c=st.floats(-10.0, 10.0),
        f_c=st.floats(-1e3, 1e3),
        deltas=st.lists(
            st.one_of(st.floats(-1e150, 1e150), st.sampled_from((0.0, -0.0))),
            min_size=1,
            max_size=20,
        ),
    )
    def test_equals_reference(self, alpha, width, gamma, phi_c, f_c, deltas):
        """width * gamma reaches 1e400, past the float range, so z is inf
        away from phi_c and must still be 0 at it; |z| = 1e300 comes from
        width = gamma = 1e150 at delta = 1."""
        p = TransitionParams(alpha, alpha + width, gamma, phi_c, f_c)
        phis = [phi_c + d for d in deltas] + [phi_c]
        self.assert_forms_match(self.FORMS, phis, p)
        want = [ref_value_gradient(x, p) for x in phis]
        assert bits([value_gradient(x, p) for x in phis]) == bits(want)
        assert bits(value_gradient(np.array(phis), p)) == bits(want)

    @given(
        alpha=st.floats(-1e3, 1e3),
        beta=st.floats(-1e3, 1e3),
        phi_c=st.floats(-10.0, 10.0),
        f_c=st.floats(-1e3, 1e3),
        deltas=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    )
    def test_hinge_keeps_unordered_slopes(self, alpha, beta, phi_c, f_c, deltas):
        """A hinge fit keeps its left slope in alpha even when it is the
        steeper one; piecewise_limit draws it as it is."""
        pw = PiecewiseFit(alpha, beta, phi_c, f_c, sse=0.0, candidate_count=1)
        phis = [phi_c + d for d in deltas] + [phi_c]
        self.assert_forms_match(((piecewise_limit, ref_piecewise_limit),), phis, pw)

    @pytest.mark.parametrize("delta", [0.0, -0.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("width, gamma", [(5.0, 7.0), (0.0, 7.0), (1e200, 1e200)])
    def test_signed_zero_and_non_finite_delta(self, delta, width, gamma):
        """At phi_c = 0.0, delta = phi - phi_c is phi itself, -0.0 included;
        the hinge term select(delta, delta, 0.0) is max(delta, 0.0) at each.
        A NaN's sign bit is the compiler's, so a NaN only has to be NaN."""
        p = TransitionParams(-2.0, -2.0 + width, gamma, 0.0, 1.5)

        def nan_bits(values) -> bytes:
            values = np.asarray(values, dtype=np.float64)
            return bits(np.where(np.isnan(values), math.nan, values))

        want = nan_bits((ref_value(delta, p), *ref_value_gradient(delta, p)))
        with np.errstate(all="ignore"):
            values, jac = value_and_gradient(np.array([delta]), p)
            array_value = value(np.array([delta]), p)
        f, gradient = value_and_gradient(delta, p)
        assert nan_bits((f, *gradient)) == want
        assert nan_bits(np.append(values, jac)) == want
        assert nan_bits([value(delta, p)]) == nan_bits(array_value) == want[:8]  # F's 8 bytes

    def test_zero_dimensional_input_returns_a_float(self, demo_params):
        for phi in (0.6, 1, np.float64(0.6), np.array(0.6), np.float32(0.5)):
            for form in (slope, value, piecewise_limit):
                assert type(form(phi, demo_params)) is float
        assert type(value_gradient(np.array(0.6), demo_params)) is tuple


class TestArrayLibm:
    """The blocked libm map makes one libm call per live value and writes
    0.0 at the rest, at any block size, shape and mix of dead (<= -746)
    and NaN entries."""

    @staticmethod
    def reference(values):
        return [0.0 if v <= -746.0 else math.exp(v) for v in values]

    @pytest.mark.parametrize("block", [model._LIBM_BLOCK, 1, 7, 64])
    @given(
        values=st.lists(
            st.one_of(
                st.floats(-800.0, 0.0),
                st.sampled_from((-746.0, -745.5, -math.inf, math.nan, -0.0)),
            ),
            max_size=200,
        )
    )
    def test_matches_one_call_per_value(self, block, values):
        x = np.array(values, dtype=np.float64)
        want = self.reference(values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_LIBM_BLOCK", block)
            got = _array_libm(math.exp, x, -746.0)
            assert got.shape == x.shape and bits(got) == bits(want)
            if len(values) % 2 == 0:
                grid = x.reshape(2, -1)
                for array in (grid, grid.T):  # C and Fortran order
                    got = _array_libm(math.exp, array, -746.0)
                    assert got.shape == array.shape
                    assert bits(got) == bits(self.reference(array.ravel().tolist()))

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("v", [-1.0, -800.0, math.nan, -0.0])
    def test_zero_dimensional_input(self, block, v, monkeypatch):
        monkeypatch.setattr(model, "_LIBM_BLOCK", block)
        got = _array_libm(math.exp, np.array(v), -746.0)
        assert got.shape == () and bits(got) == bits(self.reference([v]))
