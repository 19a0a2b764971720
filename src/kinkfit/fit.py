"""Parameter estimation for the transition model.

Two stages: a least-squares fit of the sharp (hinge) limit over every
breakpoint candidate, which needs no starting guess, and a
Levenberg-Marquardt refinement of the smooth model seeded from it, on array
residuals and Jacobian.  The hinge scan scores every candidate in closed
form from long-double prefix sums in O(n log n), coefficients included;
candidates within a stated tolerance of the best sse tie, and the smallest
breakpoint wins.  The sharpness gamma is optimized on a log scale with a
fixed upper cap of 1e8 standing in for the sharp limit, because the data
stop being informative about gamma once the transition is narrower than the
sample spacing; hitting the cap is reported via ``gamma_at_bound``.
Both stages take an ``io.DataSet``; only ``fit`` and ``plot --overlay-fit``
import this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConcaveKink, DegenerateDesign, InsufficientData, SingularNormalMatrix
from .io import DataSet, _distinct, _two_product
from .model import TransitionParams

_N_PARAMS = 5
# Levenberg-Marquardt recipe: iteration cap, relative step / sse convergence
# thresholds, Marquardt's (1963) multiplicative damping schedule, and the
# cap on gamma that stands in for the sharp limit gamma -> infinity.
_MAX_ITERATIONS = 200
_STEP_TOL = 1e-10
_SSE_TOL = 1e-12
_LAMBDA0 = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 0.1
_LAMBDA_GIVE_UP = 1e12
_GAMMA_MAX = 1e8


@dataclass(frozen=True)
class PiecewiseFit:
    """Best continuous hinge fit: slopes alpha/beta on either side of the
    breakpoint phi_c, value f_c at the breakpoint.

    Unlike :class:`TransitionParams` the slopes are *not* reordered: alpha
    is always the left slope and beta the right one.
    """

    alpha: float
    beta: float
    phi_c: float
    f_c: float
    sse: float
    candidate_count: int


@dataclass(frozen=True)
class FitResult:
    """Outcome of the smooth-model refinement.

    ``std_errors`` are Gauss-Newton standard errors for
    (alpha, beta, gamma, phi_c, f_c), or None when there are no spare
    degrees of freedom (dof <= 0), J^T J is not finite, cond(J^T J) > 1/eps,
    ``inv`` raises, or a variance is negative or not finite.  ``gamma_at_bound``
    flags a fit that ran into the gamma cap, i.e. the transition is
    effectively piecewise-linear at the data's resolution.
    """

    params: TransitionParams
    sse: float
    iterations: int
    converged: bool
    gamma_at_bound: bool
    std_errors: tuple[float, float, float, float, float] | None


def _closed_form_fits(
    phi: np.ndarray, y: np.ndarray, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each candidate breakpoint's hinge fit in closed form, in long double:
    its sse, its value at the breakpoint and its left and right slopes, for
    y = f - mean f in long double.

    A continuous hinge at c is a line on each side of c (a point at c, where
    a midpoint rounds onto a phi value, lies on both and counts left), the
    two meeting at c.  With a side's count m, V = sum((x - mean x)^2),
    C = sum((x - mean x)(y - mean y)), d = mean(x) - c, its free line's
    value at c, v = mean(y) - d C / V, and spread = 1 / m + d^2 / V:
    sse = sum_sides (sum((y - mean y)^2) - C^2 / V)
          + (v_L - v_R)^2 / sum_sides spread.
    Every term is a sum of squares, so a nearly singular candidate (tight
    clusters far from c) loses no more digits than another.  The joined
    value is v* = sum_sides (v / spread) / sum_sides (1 / spread), and each
    side's slope s = (C + m d (mean y - v*)) / (V + m d^2) (Hudson 1966).
    The sums run inward from each end, on x = phi - phi[0] left of c and
    phi - phi[-1] right of it.
    """
    ld = np.longdouble
    with np.errstate(all="ignore"):
        # Row 0: the left side (phi <= c); row 1: the right side, reversed.
        left = np.searchsorted(phi, candidates, side="right")
        count = np.stack((left, phi.size - left))
        phi, candidates = phi.astype(ld), candidates.astype(ld)
        x = np.stack((phi - phi[0], (phi - phi[-1])[::-1]))
        y = np.stack((y, y[::-1]))

        def head(terms: np.ndarray) -> np.ndarray:
            sums = np.concatenate((np.zeros((2, 1), ld), np.cumsum(terms, axis=1)), axis=1)
            return np.take_along_axis(sums, count, axis=1)

        m, s_x, s_y = count.astype(ld), head(x), head(y)
        x_bar, y_bar = s_x / m, s_y / m
        v_xx = head(x * x) - s_x * x_bar
        c_xy = head(x * y) - s_x * y_bar
        slope = c_xy / v_xx
        sse = np.sum(head(y * y) - s_y * y_bar - slope * c_xy, axis=0)
        del x, y, s_x, s_y  # lowers the scan's peak memory by four (2, n) arrays
        d = x_bar - np.stack((candidates - phi[0], candidates - phi[-1]))
        level = y_bar - slope * d
        spread = 1 / m + d * d / v_xx
        sse += (level[0] - level[1]) ** 2 / np.sum(spread, axis=0)
        joined = np.sum(level / spread, axis=0) / np.sum(1 / spread, axis=0)
        slopes = (c_xy + m * d * (y_bar - joined)) / (v_xx + m * d * d)
        return sse, joined, slopes[0], slopes[1]


def _offset(joined, slope, x_bar, c, r_bar):
    """joined + slope (x_bar - c) - r_bar, rounded once from twice long double's
    precision: TwoSum and TwoProduct, then Sum2 (Ogita et al. 2005)."""
    def two_sum(a, b):
        s = a + b
        t = s - a
        return s, (a - (s - t)) + (b - t)
    d, d_err = two_sum(x_bar, -c)
    p, p_err = _two_product(slope, d)
    total, e1 = two_sum(joined, -r_bar)
    total, e2 = two_sum(total, p)
    return total + (e1 + e2 + p_err + slope * d_err)


def fit_piecewise(data: DataSet) -> PiecewiseFit:
    """Least-squares hinge fit over every breakpoint candidate, in
    O(n log n) time.

    Candidates are the midpoints between consecutive distinct phi values
    with at least two distinct phi values strictly on each side; each is a
    3-parameter linear problem (level at the breakpoint plus one slope per
    side), solved in closed form in ``np.longdouble``
    (:func:`_closed_form_fits`).  A candidate whose sse, f_c, alpha or beta
    is not finite in double ranks last.  Every other candidate whose sse is
    within tau = 64 n eps sum((f - mean f)^2) of the smallest ties, eps
    being long double's machine epsilon, and the smallest breakpoint wins;
    its reported sse is one long-double pass over its residuals, about each
    side's own means.  Where long double is plain double (MSVC, macOS on
    arm64), tau is about 2000 times wider.  Raises InsufficientData when no
    candidate has enough support, DegenerateDesign when no candidate is
    finite in double or the winner's residual sse is not.
    """
    phi = data.phi
    f = data.f
    distinct = _distinct(phi)
    if distinct.size < 4:
        raise InsufficientData(
            f"hinge fit needs >= 4 points with >= 4 distinct phi values, "
            f"got {len(data)} points / {distinct.size} distinct"
        )
    midpoints = 0.5 * distinct[:-1] + 0.5 * distinct[1:]  # a + b may overflow
    n_below = np.searchsorted(distinct, midpoints, side="left")
    n_above = distinct.size - np.searchsorted(distinct, midpoints, side="right")
    candidates = midpoints[(n_below >= 2) & (n_above >= 2)]
    if candidates.size == 0:
        raise InsufficientData(
            "no breakpoint candidate has two distinct phi values on each side"
        )

    mean = np.mean(f.astype(np.longdouble))
    y = f - mean
    scores, joined, alpha, beta = _closed_form_fits(phi, y, candidates)
    with np.errstate(over="ignore", invalid="ignore"):
        fields = np.stack((scores, joined + mean, alpha, beta)).astype(np.float64)
        finite = np.all(np.isfinite(fields), axis=0)
        if not finite.any():
            raise DegenerateDesign(
                "every candidate breakpoint's sse or coefficients overflow the double range"
            )
        tau = 64 * phi.size * np.finfo(np.longdouble).eps * np.sum(y * y)
        i = int(np.argmax(finite & (scores <= np.min(scores[finite]) + tau)))
        c, sse = candidates[i], 0.0
        k = np.searchsorted(phi, c, side="right")  # a point at c counts left, as in the scan
        for x, r, slope in ((phi[:k], y[:k], alpha[i]), (phi[k:], y[k:], beta[i])):
            # About the side's own means: only the offset sums large terms, exactly.
            x_bar, r_bar = np.mean(x, dtype=np.longdouble), np.mean(r)
            resid = (r - r_bar) - slope * (x - x_bar) - _offset(joined[i], slope, x_bar, c, r_bar)
            sse += resid @ resid
    if not math.isfinite(sse):  # its score rounded to just below the double range
        raise DegenerateDesign("the winning breakpoint's sse overflows the double range")
    return PiecewiseFit(
        alpha=float(fields[2, i]),
        beta=float(fields[3, i]),
        phi_c=float(candidates[i]),
        f_c=float(fields[1, i]),
        sse=float(sse),
        candidate_count=candidates.size,
    )


def init_smooth(pw: PiecewiseFit, data: DataSet) -> TransitionParams:
    """Smooth-model starting point from a hinge fit.

    Copies (alpha, beta, phi_c, f_c) and sets gamma so the transition width
    1/(|beta - alpha| * gamma) is 1% of the data span, kept within the
    positive finite doubles; gamma falls back to 1 when the hinge has equal
    slopes.
    """
    phi = data.phi
    span = float(phi[-1]) - float(phi[0]) if len(data) else 0.0  # may be inf
    if span <= 0.0:
        raise ValueError("data must span a positive phi range")
    width = abs(pw.beta - pw.alpha)
    gamma0 = 1.0 if width == 0.0 else 10.0 / (width * 0.1 * span)
    gamma0 = min(max(gamma0, sys.float_info.min), sys.float_info.max)  # not 0 or inf
    return TransitionParams(pw.alpha, pw.beta, gamma0, pw.phi_c, pw.f_c)


def fit_two_stage(data: DataSet) -> tuple[PiecewiseFit, FitResult]:
    """The two-stage fit: :func:`fit_piecewise`, then :func:`fit_smooth`
    started from :func:`init_smooth` of the hinge.  Returns both fits and
    raises whatever either stage raises, or ConcaveKink when the hinge's
    left slope exceeds its right one."""
    pw = fit_piecewise(data)
    if pw.alpha > pw.beta:
        raise ConcaveKink(
            f"hinge slopes {pw.alpha!r} (left) > {pw.beta!r} (right): the smooth "
            "model only fits a convex kink"
        )
    return pw, fit_smooth(data, init_smooth(pw, data))


def residual_sse(data: DataSet, params: TransitionParams) -> float:
    """Sum of squared residuals of the smooth model over the data
    (0 for an empty dataset), summed exactly with ``math.fsum``."""
    return math.fsum(((model.value(data.phi, params) - data.f) ** 2).tolist())


def _unpack(theta: np.ndarray) -> TransitionParams:
    return TransitionParams(
        theta[0], theta[1], math.exp(theta[2]), theta[3], theta[4]
    )


def _evaluate_trial(
    phi: np.ndarray, f: np.ndarray, theta: np.ndarray, sse_to_beat: float = math.inf
) -> tuple | None:
    """(theta, sse, J^T J, J^T r) at a trial theta = (alpha, beta, log gamma,
    phi_c, f_c), with residuals r = F(phi) - f and J = dr/dtheta, or None
    where LM rejects it: gamma**2 underflows to 0 (and gamma with it), sse is
    not finite or not below ``sse_to_beat``, or J^T J is not finite (as it is
    not wherever J is not).  J^T J and then J^T r are formed only for a trial
    that passes the tests before them.  The returned theta has its slopes in
    the order TransitionParams stores them, which the objective cannot tell
    apart: the model is exactly symmetric under swapping alpha and beta."""
    gamma = math.exp(theta[2])
    if gamma * gamma == 0.0:
        return None
    params = TransitionParams(theta[0], theta[1], gamma, theta[3], theta[4])
    values, jac = model.value_and_gradient(phi, params)
    jac[:, 2] *= gamma  # chain rule for the log-gamma coordinate
    r = values - f
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(r @ r)
        if not (math.isfinite(sse) and sse < sse_to_beat):
            return None
        normal = jac.T @ jac
    if not np.all(np.isfinite(normal)):
        return None
    theta = np.array([params.alpha, params.beta, theta[2], params.phi_c, params.f_c])
    return theta, sse, normal, jac.T @ r


def _damped_step(
    normal: np.ndarray, lam: float, scaling: np.ndarray, grad: np.ndarray
) -> np.ndarray | None:
    """The solution of (normal + lam * scaling) @ step = -grad, or None when
    the system is singular or overflows, or the step is not finite."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.linalg.solve(normal + lam * scaling, -grad)
    except np.linalg.LinAlgError:
        return None
    return step if np.all(np.isfinite(step)) else None


def _std_errors(
    phi: np.ndarray, theta: np.ndarray, sse: float
) -> tuple[float, float, float, float, float] | None:
    """Gauss-Newton standard errors in the natural parameters, or None in
    the cases :class:`FitResult` lists."""
    dof = phi.size - _N_PARAMS
    if dof <= 0:
        return None
    _, jac = model.value_and_gradient(phi, _unpack(theta))
    with np.errstate(over="ignore", invalid="ignore"):
        normal = jac.T @ jac
    if not np.all(np.isfinite(normal)):
        return None
    if np.linalg.cond(normal) > 1.0 / np.finfo(float).eps:
        return None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            cov = np.linalg.inv(normal) * (sse / dof)
    except np.linalg.LinAlgError:
        return None
    diag = np.diag(cov)
    if not np.all(np.isfinite(diag)) or np.any(diag < 0.0):
        return None
    return tuple(float(math.sqrt(d)) for d in diag)


def fit_smooth(data: DataSet, init: TransitionParams) -> FitResult:
    """Levenberg-Marquardt refinement of the smooth model.

    Damped normal equations with Marquardt diagonal scaling; gamma is
    optimized as log(gamma) and clamped at 1e8.  The starting point, and
    every step before it is accepted, must keep gamma**2 above 0 and give a
    finite sse, Jacobian and normal matrix J^T J; a step must also strictly
    reduce the sse, so the accepted-sse sequence is non-increasing and a
    straight line, which drives gamma toward 0, ends in a result.
    Terminates on a relative step below 1e-10 or a relative sse decrease
    below 1e-12 (converged=True), after 200 iterations (converged=False), or
    when no descent step exists even at maximum damping (converged reflects
    whether the last attempted step was already below the step threshold).
    A fit that ends below the gamma cap but fits the data no better than the
    capped model (with f_c re-profiled) is snapped onto the cap, so
    transitions sharper than the sample spacing report gamma_at_bound
    instead of an arbitrary stall point on the flat sse ridge.
    Raises InsufficientData for fewer than 5 distinct phi values and
    SingularNormalMatrix when the starting point fails those checks (its
    normal equations overflow) or the damped system stays unsolvable.
    """
    phi = data.phi
    f = data.f
    distinct = _distinct(phi).size
    if distinct < _N_PARAMS:
        raise InsufficientData(
            f"smooth fit needs >= {_N_PARAMS} distinct phi values, got {distinct}"
        )
    g_cap = math.log(_GAMMA_MAX)
    theta = np.array(  # a TransitionParams stores its slopes in order
        [init.alpha, init.beta, min(math.log(init.gamma), g_cap), init.phi_c, init.f_c]
    )
    start = _evaluate_trial(phi, f, theta)
    if start is None:
        raise SingularNormalMatrix(
            "normal equations overflow at the starting point "
            "(sse, J or J^T J not finite, or gamma**2 underflows)"
        )
    theta, sse, normal, grad = start
    lam = _LAMBDA0
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        diag = np.diag(normal)
        scaling = np.diag(np.maximum(diag, 1e-12 * max(float(diag.max()), 1.0)))
        while lam <= _LAMBDA_GIVE_UP:
            step = _damped_step(normal, lam, scaling, grad)
            if step is not None:
                trial = theta + step
                trial[2] = min(trial[2], g_cap)
                step_rel = float(np.max(np.abs(trial - theta) / np.maximum(1.0, np.abs(theta))))
                evaluated = _evaluate_trial(phi, f, trial, sse)
                if evaluated is not None:
                    improvement = sse - evaluated[1]
                    theta, sse, normal, grad = evaluated
                    lam *= _LAMBDA_DOWN
                    converged = (
                        step_rel <= _STEP_TOL or improvement <= _SSE_TOL * (sse + improvement)
                    )
                    break
            lam *= _LAMBDA_UP
        else:  # lam enters at most _LAMBDA_GIVE_UP (it falls on success), so step is set
            if step is None:
                raise SingularNormalMatrix("damped normal equations unsolvable at maximum damping")
            # No strictly descending step exists: we are at a numerical
            # minimum.  Converged if the final attempt was already tiny.
            converged = step_rel <= _STEP_TOL
            break
        if converged:
            break

    if theta[2] < g_cap:
        # Once the transition is sharper than the sample spacing the sse is
        # flat along gamma (growing gamma shifts the residuals by a constant
        # -log(2)/gamma that f_c absorbs), so descent stalls at an arbitrary
        # point of that ridge.  Snap onto the cap, with f_c re-profiled to its
        # closed-form optimum, when that fits no worse; the accepted-sse
        # sequence stays non-increasing.
        capped = theta.copy()
        capped[2] = g_cap
        r = model.value(phi, _unpack(capped)) - f
        shift = float(np.mean(r))  # f_c enters the residuals with coefficient 1
        capped[4] -= shift
        r = r - shift
        capped_sse = float(r @ r)
        if math.isfinite(capped_sse) and capped_sse <= sse:
            theta, sse = capped, capped_sse
    gamma_at_bound = bool(theta[2] >= g_cap - 1e-12)
    return FitResult(
        params=_unpack(theta),
        sse=sse,
        iterations=iterations,
        converged=converged,
        gamma_at_bound=gamma_at_bound,
        std_errors=_std_errors(phi, theta, sse),
    )
