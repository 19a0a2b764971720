"""Independent numerical checks of the closed forms.

Fixed-step classical RK4 re-integrates the slope ODE and adaptive Simpson
quadrature re-integrates the slope into the observable, so that both
closed-form expressions in :mod:`kinkfit.model` can be verified against
routes that share no algebra with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import model
from .errors import StepTooLarge
from .model import TransitionParams, _store_finite
from .quadrature import adaptive_simpson


@dataclass(frozen=True)
class OdeRun:
    """A fixed-step RK4 integration request for ds/dphi = gamma (s-a)(b-s).

    The run marches from ``phi_start`` to ``phi_end`` (either direction) in
    uniform steps of ``step``, shortening the final step to land exactly on
    ``phi_end``.
    """

    params: TransitionParams
    phi_start: float
    phi_end: float
    step: float
    s_start: float

    def __post_init__(self):
        _store_finite(self, ("phi_start", "phi_end", "step", "s_start"))
        if self.step <= 0.0:
            raise ValueError(f"step must be > 0, got {self.step!r}")
        if self.phi_start == self.phi_end:
            raise ValueError("phi_start and phi_end must differ")
        if not (self.params.alpha <= self.s_start <= self.params.beta):
            raise ValueError(
                f"s_start = {self.s_start!r} outside [alpha, beta] = "
                f"[{self.params.alpha!r}, {self.params.beta!r}]"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled (phi, s) pairs from an ODE run, including both endpoints."""

    phi: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case deviations between closed forms and their numerical
    re-integrations over a sample grid."""

    max_slope_deviation: float
    max_value_deviation: float
    grid: np.ndarray


def _rk4_march(
    params: TransitionParams, phi0: float, s0: float, phi1: float, step: float
) -> Iterator[tuple[float, float]]:
    """Yield (phi, s) after every accepted RK4 step from phi0 toward phi1.

    Stage values are required to stay within one transition height of
    [alpha, beta]; leaving that band means the fixed step cannot resolve
    the dynamics and raises StepTooLarge, naming the first stage out of it.
    A step that no longer moves phi raises ValueError.

    The right-hand side is :func:`kinkfit.model.riccati_rhs` inlined on
    local floats, in its operation order ``gamma * (s - alpha) * (beta - s)``,
    so every step is bit-identical to calling it; at ~1e6 steps per check
    the calls and attribute lookups cost more than the arithmetic.  The
    march stays a generator yielding each step: ``integrate_slope_ode``
    keeps every step, ``_march_outward`` only the last, and one march
    serves both.
    """
    g, a, b = params.gamma, params.alpha, params.beta
    lo = a - (b - a)
    hi = b + (b - a)
    direction = 1.0 if phi1 > phi0 else -1.0
    phi, s = phi0, s0
    while True:
        remaining = (phi1 - phi) * direction
        if remaining <= 0.0:
            return
        h = direction * (remaining if remaining < step else step)
        if phi + h == phi:
            raise ValueError(
                f"step {step!r} is below floating-point resolution at phi = {phi!r}"
            )
        k1 = g * (s - a) * (b - s)
        s2 = s + 0.5 * h * k1
        k2 = g * (s2 - a) * (b - s2)
        s3 = s + 0.5 * h * k2
        k3 = g * (s3 - a) * (b - s3)
        s4 = s + h * k3
        k4 = g * (s4 - a) * (b - s4)
        s_new = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (lo <= s2 <= hi and lo <= s3 <= hi and lo <= s4 <= hi and lo <= s_new <= hi):
            for stage in (s2, s3, s4, s_new):
                if not (lo <= stage <= hi):
                    raise StepTooLarge(
                        f"stage value {stage!r} left [{lo!r}, {hi!r}] near phi = {phi!r}; "
                        f"reduce the step below {step!r}"
                    )
        phi = phi1 if remaining <= step else phi + h
        s = s_new
        yield phi, s


def integrate_slope_ode(run: OdeRun) -> Trajectory:
    """Integrate the slope ODE with classical fixed-step RK4.

    Returns the full trajectory (every step, endpoints included).  The
    global error scales as O(step^4); a run left at a fixed point of the
    ODE (s_start == alpha or beta) stays there identically.
    """
    phis = [run.phi_start]
    ss = [run.s_start]
    for phi, s in _rk4_march(
        run.params, run.phi_start, run.s_start, run.phi_end, run.step
    ):
        phis.append(phi)
        ss.append(s)
    return Trajectory(np.asarray(phis), np.asarray(ss))


def integrate_value_quadrature(
    params: TransitionParams, phi: float, tol: float
) -> float:
    """f_c plus the adaptive-Simpson integral of the slope from phi_c to phi.

    An independent route to :func:`kinkfit.model.value`; returns f_c exactly
    when phi == phi_c.  Raises MaxDepthExceeded if the quadrature cannot
    reach ``tol``.
    """
    if phi == params.phi_c:
        return params.f_c
    integral = adaptive_simpson(
        lambda x: model.slope(x, params), params.phi_c, phi, tol
    )
    return params.f_c + integral


def _march_outward(
    params: TransitionParams, targets: Iterable[float], step: float, tol_per_unit: float
) -> Iterator[tuple[float, float]]:
    """At successive targets on one side of phi_c, outward: |s_rk4 - slope|
    of one chained RK4 trajectory from the midpoint (phi_c, (alpha+beta)/2),
    and f_c plus one chained adaptive-Simpson integral of the slope, each
    interval between targets integrated once to ``tol_per_unit`` times its
    length."""
    phi, s, integral = params.phi_c, 0.5 * (params.alpha + params.beta), 0.0
    for target in targets:
        start = phi
        for phi, s in _rk4_march(params, start, s, target, step):
            pass
        tol = tol_per_unit * abs(target - start)
        integral += adaptive_simpson(lambda x: model.slope(x, params), start, target, tol)
        yield abs(s - model.slope(phi, params)), params.f_c + integral


def verify_closed_forms(
    params: TransitionParams,
    phi_lo: float,
    phi_hi: float,
    n_samples: int = 61,
    ode_step: float = 2e-6,
    quad_tol: float = 1e-10,
    use_beta_linear: bool = False,
) -> VerificationReport:
    """Cross-check both closed forms over a uniform grid spanning the kink.

    The grid is ``n_samples`` uniform points on [phi_lo, phi_hi] with phi_c
    inserted.  The slope check runs one RK4 trajectory from
    (phi_c, (alpha+beta)/2) out to each side and records the worst
    |s_rk4 - slope| over the grid.  The value check chains adaptive Simpson
    the same way: outward from f_c at phi_c, each interval between grid
    points is integrated once, to quad_tol times its share of
    [phi_lo, phi_hi], so the running integral stays within quad_tol; the
    sums are compared against one array call of :func:`kinkfit.model.value`
    on the grid.  With ``use_beta_linear`` the value check instead targets
    :func:`kinkfit.model.value_beta_linear`, which fails by
    (beta - alpha) * (phi - phi_c) whenever alpha != beta.  Raises
    ValueError unless phi_lo < phi_c < phi_hi, n_samples >= 3, ode_step > 0
    and quad_tol > 0.
    """
    if not phi_lo < params.phi_c < phi_hi:
        raise ValueError(
            f"need phi_lo < phi_c < phi_hi, got {phi_lo!r}, {params.phi_c!r}, {phi_hi!r}"
        )
    if n_samples < 3:
        raise ValueError(f"n_samples must be >= 3, got {n_samples!r}")
    if not ode_step > 0.0:
        raise ValueError(f"ode_step must be > 0, got {ode_step!r}")
    if not quad_tol > 0.0:
        raise ValueError(f"quad_tol must be > 0, got {quad_tol!r}")
    grid = np.unique(np.append(np.linspace(phi_lo, phi_hi, n_samples), params.phi_c))

    points = grid.tolist()
    below = [g for g in reversed(points) if g < params.phi_c]
    above = [g for g in points if g > params.phi_c]
    s_mid = 0.5 * (params.alpha + params.beta)
    rows = [(abs(s_mid - model.slope(params.phi_c, params)), params.f_c)]
    for targets in (below, above):
        rows.extend(_march_outward(params, targets, ode_step, quad_tol / (phi_hi - phi_lo)))
    slope_deviation, quadrature = np.array(rows).T
    value_fn = model.value_beta_linear if use_beta_linear else model.value
    marched = np.array([params.phi_c, *below, *above])
    value_deviation = np.abs(quadrature - value_fn(marched, params))
    return VerificationReport(
        float(slope_deviation.max()), float(value_deviation.max()), grid
    )
