"""Independent numerical checks of the closed forms.

Fixed-step classical RK4 re-integrates the slope ODE and adaptive Simpson
quadrature re-integrates the slope into the observable, so that both
closed-form expressions in :mod:`kinkfit.model` can be verified against
routes that share no algebra with them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, repeat
from typing import TYPE_CHECKING, Callable, Iterator

from . import model
from .errors import StepTooLarge
from .model import TransitionParams, _store_finite
from .quadrature import adaptive_simpson

if TYPE_CHECKING:
    import numpy as np

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
    re-integrations over a sample grid, given as a sorted tuple of floats."""

    max_slope_deviation: float
    max_value_deviation: float
    grid: tuple[float, ...]


_BLOCK = 1024  # RK4 steps per block in _rk4_march


def _rk4_march(
    params: TransitionParams, phi0: float, s0: float, phi1: float, step: float
) -> Iterator[tuple[float, float]]:
    """An iterator over (phi, s) after every accepted RK4 step from phi0
    toward phi1.

    Stage values are required to stay within one transition height of
    [alpha, beta]; leaving that band means the fixed step cannot resolve
    the dynamics and raises StepTooLarge, naming the first stage out of it.
    A step that no longer moves phi raises ValueError.  Either error is
    raised once every step before it has been handed out.

    The steps are computed up to ``_BLOCK`` at a time by
    :func:`_march_blocks`, and the pairs come out through C-level
    iteration, one ``zip`` per block chained together: a consumer that
    keeps only the last pair, as ``_outward_deviations`` does, pays no Python
    call per step and holds one block of floats at a time.  There is still
    one item per step, because ``integrate_slope_ode`` keeps every step and
    ``benchmarks/traced.py`` counts them.
    """
    return chain.from_iterable(_march_blocks(params, phi0, s0, phi1, step))


def _march_blocks(
    params: TransitionParams, phi0: float, s0: float, phi1: float, step: float
) -> Iterator[Iterator[tuple[float, float]]]:
    """One ``zip`` of (phi, s) pairs per block of :func:`_rk4_march`.

    phi for a block of whole steps comes from one ``accumulate``, the same
    sequential sum as ``phi + h``.  s runs through one counted loop on
    local floats, which the final shortened step also takes with its own
    h.  The right-hand side is :func:`kinkfit.model.riccati_rhs` inlined,
    in its operation order ``gamma * (s - alpha) * (beta - s)``, so every
    step is bit-identical to calling it; at ~1e6 steps per check the calls
    and attribute lookups cost more than the arithmetic.
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
        if remaining <= step:  # the last step, shortened to land on phi1
            h = direction * remaining
            phis = [phi, phi1]
            count = int(phi + h != phi)
            stuck = not count
        else:
            h = direction * step
            n = int(min(remaining / step, _BLOCK - 1)) + 1  # about what remains
            phis = list(accumulate(repeat(h, n), initial=phi))
            # Step k is whole while more than a step remains before it and moves
            # while phi + h != phi there; phi is monotone, so each holds on a prefix.
            whole = bisect_left(phis, True, 0, n, key=lambda p: not (phi1 - p) * direction > step)
            moving = bisect_left(range(n), True, key=lambda k: phis[k + 1] == phis[k])
            count = min(whole, moving)
            stuck = moving < whole
        half, sixth = 0.5 * h, h / 6.0
        ss: list[float] = []
        append = ss.append
        stage = None
        for _ in repeat(None, count):
            k1 = g * (s - a) * (b - s)
            s2 = s + half * k1
            k2 = g * (s2 - a) * (b - s2)
            s3 = s + half * k2
            k3 = g * (s3 - a) * (b - s3)
            s4 = s + h * k3
            k4 = g * (s4 - a) * (b - s4)
            s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (lo <= s2 <= hi and lo <= s3 <= hi and lo <= s4 <= hi and lo <= s <= hi):
                stage = next(x for x in (s2, s3, s4, s) if not lo <= x <= hi)
                break
            append(s)
        yield zip(phis[1:], ss)
        phi = phis[len(ss)]
        if stage is not None:
            raise StepTooLarge(
                f"stage value {stage!r} left [{lo!r}, {hi!r}] near phi = {phi!r}; "
                f"reduce the step below {step!r}"
            )
        if stuck:
            raise ValueError(
                f"step {step!r} is below floating-point resolution at phi = {phi!r}"
            )


def _check_step_moves(start: float, end: float, step: float) -> None:
    """Raise ValueError unless ``step`` moves phi at ``start`` toward ``end``
    and at ``end`` toward ``start``.  A march between them that could not
    would stick, but only after every step before that point."""
    for phi, toward in ((start, end), (end, start)):
        if phi + math.copysign(step, toward - phi) == phi:
            raise ValueError(f"step {step!r} is below floating-point resolution at phi = {phi!r}")


def integrate_slope_ode(run: OdeRun) -> Trajectory:
    """Integrate the slope ODE with classical fixed-step RK4.

    Returns the full trajectory (every step, endpoints included).  The
    global error scales as O(step^4); a run left at a fixed point of the
    ODE (s_start == alpha or beta) stays there identically.  Raises
    ValueError before marching when the step cannot move phi at either end.
    """
    import numpy as np  # for the Trajectory arrays only
    _check_step_moves(run.phi_start, run.phi_end, run.step)
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
    when phi == phi_c.  Raises ValueError unless ``tol`` > 0, at phi_c too,
    and MaxDepthExceeded if the quadrature cannot reach ``tol``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if phi == params.phi_c:
        return params.f_c
    integral = adaptive_simpson(
        lambda x: model.slope(x, params), params.phi_c, phi, tol
    )
    return params.f_c + integral


def _sample_grid(lo: float, hi: float, n: int, phi_c: float) -> tuple[float, ...]:
    """``np.unique(np.append(np.linspace(lo, hi, n), phi_c))`` on Python
    floats: the first of equal values is kept, and one NaN, last."""
    lo, hi = float(lo), float(hi)
    step = (hi - lo) / (n - 1)
    points = [i * step + lo if step else i / (n - 1) * (hi - lo) + lo for i in range(n - 1)]
    ordered = sorted((*points, hi, phi_c), key=lambda p: (p != p, p))  # NaN last
    return tuple(dict.fromkeys(math.nan if p != p else p for p in ordered))


def _outward_deviations(
    params: TransitionParams, grid: tuple[float, ...], step: float, tol_per_unit: float,
    value_fn: Callable[[float, TransitionParams], float],
) -> Iterator[tuple[float, float]]:
    """(|s_rk4 - slope|, |f_c + integral - value_fn|) at phi_c, then at each grid
    point outward on either side as it is reached: one chained RK4 march from
    (phi_c, (alpha+beta)/2) and one chained adaptive-Simpson integral of the slope
    per side, each interval integrated once to ``tol_per_unit`` times its length."""
    phi_c, f_c, s_mid = params.phi_c, params.f_c, 0.5 * (params.alpha + params.beta)
    yield abs(s_mid - model.slope(phi_c, params)), abs(f_c - value_fn(phi_c, params))
    for targets in ([g for g in reversed(grid) if g < phi_c], [g for g in grid if g > phi_c]):
        phi, s, integral = phi_c, s_mid, 0.0
        for target in targets:
            start = phi
            # The last pair only; a march with no steps leaves phi and s as they are.
            for phi, s in deque(_rk4_march(params, start, s, target, step), maxlen=1):
                pass
            tol = tol_per_unit * abs(target - start)
            integral += adaptive_simpson(lambda x: model.slope(x, params), start, target, tol)
            yield abs(s - model.slope(phi, params)), abs(f_c + integral - value_fn(target, params))


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
    sums are compared against :func:`kinkfit.model.value` at each grid
    point.  With ``use_beta_linear`` the value check instead targets
    :func:`kinkfit.model.value_beta_linear`, which fails by
    (beta - alpha) * (phi - phi_c) whenever alpha != beta.  Raises
    ValueError unless phi_lo < phi_c < phi_hi, 3 <= n_samples <= 10**6, ode_step > 0
    and quad_tol / (phi_hi - phi_lo) > 0, so a window whose width overflows
    is refused before any march.  So is an ode_step that cannot move phi at
    phi_c or into the window from either end (phi + ode_step == phi there),
    where the march would stick, and a rate gamma (s - alpha)(beta - s) that
    is not finite at s = (alpha + beta)/2, where no step could follow it.
    """
    if not phi_lo < params.phi_c < phi_hi:
        raise ValueError(
            f"need phi_lo < phi_c < phi_hi, got {phi_lo!r}, {params.phi_c!r}, {phi_hi!r}"
        )
    if n_samples < 3:
        raise ValueError(f"n_samples must be >= 3, got {n_samples!r}")
    if n_samples > 10**6:
        raise ValueError(f"n_samples must be <= 1000000, got {n_samples!r}")
    if not ode_step > 0.0:
        raise ValueError(f"ode_step must be > 0, got {ode_step!r}")
    tol_per_unit = quad_tol / (phi_hi - phi_lo)  # 0 when the width overflows
    if not tol_per_unit > 0.0:
        raise ValueError(f"quad_tol / (phi_hi - phi_lo) must be > 0, got {tol_per_unit!r}")
    # Both ends of each side's march, in the order the march reaches them.
    _check_step_moves(params.phi_c, phi_lo, ode_step)
    _check_step_moves(params.phi_c, phi_hi, ode_step)
    s_mid = 0.5 * (params.alpha + params.beta)  # both marches start here, where the rate peaks
    rate = params.gamma * (s_mid - params.alpha) * (params.beta - s_mid)
    if not math.isfinite(rate):
        raise ValueError(f"the slope ODE's rate {rate!r} at s = {s_mid!r} leaves the double range")
    grid = _sample_grid(phi_lo, phi_hi, n_samples, params.phi_c)
    value_fn = model.value_beta_linear if use_beta_linear else model.value
    deviations = _outward_deviations(params, grid, ode_step, tol_per_unit, value_fn)
    slope_deviation, value_deviation = zip(*deviations)
    worst = partial(max, key=lambda d: (math.isnan(d), d))  # NaN wins, as in ndarray.max
    return VerificationReport(worst(slope_deviation), worst(value_deviation), grid)
