"""Independent numerical checks of the closed forms.

Fixed-step classical RK4 re-integrates the slope ODE and adaptive Simpson
quadrature re-integrates the slope into the observable, so that both
closed-form expressions in :mod:`kinkfit.model` can be verified against
routes that share no algebra with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import model
from .errors import StepTooLarge
from .model import TransitionParams
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
        for name in ("phi_start", "phi_end", "step", "s_start"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
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
    the dynamics and raises StepTooLarge.
    """
    lo = params.alpha - (params.beta - params.alpha)
    hi = params.beta + (params.beta - params.alpha)
    direction = 1.0 if phi1 > phi0 else -1.0
    phi, s = phi0, s0
    rhs = model.riccati_rhs
    while True:
        remaining = (phi1 - phi) * direction
        if remaining <= 0.0:
            return
        h = direction * min(step, remaining)
        if phi + h == phi:
            raise ValueError(
                f"step {step!r} is below floating-point resolution at phi = {phi!r}"
            )
        k1 = rhs(s, params)
        s2 = s + 0.5 * h * k1
        k2 = rhs(s2, params)
        s3 = s + 0.5 * h * k2
        k3 = rhs(s3, params)
        s4 = s + h * k3
        k4 = rhs(s4, params)
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


def _ode_deviations(
    params: TransitionParams, targets: Iterable[float], step: float
) -> Iterator[float]:
    """Deviations |s_rk4 - slope| at successive targets on one side of phi_c,
    marching a single chained RK4 trajectory outward from the midpoint."""
    phi = params.phi_c
    s = 0.5 * (params.alpha + params.beta)
    for target in targets:
        for phi, s in _rk4_march(params, phi, s, target, step):
            pass
        yield abs(s - model.slope(phi, params))


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
    |s_rk4 - slope| over the grid; the value check compares
    :func:`integrate_value_quadrature` (anchored at phi_c) against
    :func:`kinkfit.model.value` at every grid point.  With
    ``use_beta_linear`` the value check instead targets
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

    below = [g for g in grid if g < params.phi_c]
    above = [g for g in grid if g > params.phi_c]
    s_mid = 0.5 * (params.alpha + params.beta)
    max_slope = abs(s_mid - model.slope(params.phi_c, params))
    for devs in (
        _ode_deviations(params, reversed(below), ode_step),
        _ode_deviations(params, above, ode_step),
    ):
        for d in devs:
            max_slope = max(max_slope, d)

    value_fn = model.value_beta_linear if use_beta_linear else model.value
    max_value = 0.0
    for g in grid:
        q = integrate_value_quadrature(params, float(g), quad_tol)
        max_value = max(max_value, abs(q - value_fn(float(g), params)))

    return VerificationReport(float(max_slope), float(max_value), grid)
