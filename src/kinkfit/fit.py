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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ConcaveKink, DegenerateDesign, InsufficientData, SingularNormalMatrix
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


@dataclass(frozen=True, eq=False)
class DataSet:
    """Observations as two read-only float64 arrays, non-decreasing in phi.

    Build one with :meth:`from_points`, which sorts stably by phi (ties keep
    their input order).  Direct construction copies the arrays and checks
    that they are 1-D, of equal length, finite and already sorted by phi.
    Iterating yields ``(phi, f)`` pairs of Python floats.
    """

    phi: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=np.float64)
        f = np.array(self.f, dtype=np.float64)
        if phi.ndim != 1 or phi.shape != f.shape:
            raise ValueError(
                f"phi and f must be 1-D and of equal length, got shapes "
                f"{phi.shape} and {f.shape}"
            )
        bad = np.flatnonzero(~(np.isfinite(phi) & np.isfinite(f)))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"non-finite observation ({float(phi[i])!r}, {float(f[i])!r})"
            )
        if np.any(phi[1:] < phi[:-1]):
            raise ValueError("points must be sorted by phi; use from_points()")
        for name, arr in (("phi", phi), ("f", f)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_points(cls, pairs) -> "DataSet":
        """A DataSet from an iterable of (phi, f) pairs, sorted stably by phi."""
        coerced = np.array(list(pairs), dtype=np.float64)
        if not coerced.size:
            coerced = coerced.reshape(0, 2)
        if coerced.ndim != 2 or coerced.shape[1] != 2:
            raise ValueError(f"expected (phi, f) pairs, got shape {coerced.shape}")
        order = np.argsort(coerced[:, 0], kind="stable")
        return cls(coerced[order, 0], coerced[order, 1])

    def __len__(self) -> int:
        return self.phi.size

    def __iter__(self):
        return zip(self.phi.tolist(), self.f.tolist())


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
    (alpha, beta, gamma, phi_c, f_c), or None when the normal matrix is
    singular or there are no spare degrees of freedom.  ``gamma_at_bound``
    flags a fit that ran into the gamma cap, i.e. the transition is
    effectively piecewise-linear at the data's resolution.
    """

    params: TransitionParams
    sse: float
    iterations: int
    converged: bool
    gamma_at_bound: bool
    std_errors: tuple[float, float, float, float, float] | None


def _try_snap_to_gamma_cap(
    phi: np.ndarray, f: np.ndarray, theta: np.ndarray, sse: float, g_cap: float
) -> tuple[np.ndarray, float]:
    """Move a fit onto the gamma cap when the data cannot tell the difference.

    Once the transition is sharper than the sample spacing the sse surface is
    flat along gamma (the residual change from growing gamma is a constant
    -log(2)/gamma shift that the level f_c absorbs), so descent steps stall at
    an arbitrary point of that ridge.  This evaluates the capped-gamma
    representative with f_c re-profiled to its closed-form optimum and adopts
    it only when its sse is no worse, keeping the accepted-sse sequence
    non-increasing.
    """
    candidate = theta.copy()
    candidate[2] = g_cap
    r, _ = _residuals_jacobian(phi, f, candidate)
    shift = float(np.mean(r))  # f_c enters residuals linearly with coefficient 1
    candidate[4] -= shift
    r = r - shift
    candidate_sse = float(r @ r)
    if math.isfinite(candidate_sse) and candidate_sse <= sse:
        return candidate, candidate_sse
    return theta, sse


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
        d = x_bar - np.stack((candidates - phi[0], candidates - phi[-1]))
        level = y_bar - slope * d
        spread = 1 / m + d * d / v_xx
        sse = np.sum(head(y * y) - s_y * y_bar - slope * c_xy, axis=0)
        sse += (level[0] - level[1]) ** 2 / np.sum(spread, axis=0)
        joined = np.sum(level / spread, axis=0) / np.sum(1 / spread, axis=0)
        slopes = (c_xy + m * d * (y_bar - joined)) / (v_xx + m * d * d)
        return sse, joined, slopes[0], slopes[1]


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
    its reported sse is one long-double pass over its residuals.  Where
    long double is plain double (MSVC, macOS on arm64), tau is about 2000
    times wider.  Raises InsufficientData when no candidate has enough
    support, DegenerateDesign when no candidate is finite in double or the
    winner's residual sse is not.
    """
    phi = data.phi
    f = data.f
    distinct = np.unique(phi)
    if len(data) < 4 or distinct.size < 4:
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
        delta = phi - np.longdouble(candidates[i])
        resid = y - joined[i] - alpha[i] * np.minimum(delta, 0) - beta[i] * np.maximum(delta, 0)
        sse = float(resid @ resid)
    if not math.isfinite(sse):  # its score rounded to just below the double range
        raise DegenerateDesign("the winning breakpoint's sse overflows the double range")
    return PiecewiseFit(
        alpha=float(fields[2, i]),
        beta=float(fields[3, i]),
        phi_c=float(candidates[i]),
        f_c=float(fields[1, i]),
        sse=sse,
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


def _canonical(theta: np.ndarray) -> np.ndarray:
    """Order the slope entries; a no-op for the objective because the model
    is exactly symmetric under swapping alpha and beta."""
    if theta[0] > theta[1]:
        theta = theta.copy()
        theta[0], theta[1] = theta[1], theta[0]
    return theta


def _unpack(theta: np.ndarray) -> TransitionParams:
    return TransitionParams(
        theta[0], theta[1], math.exp(theta[2]), theta[3], theta[4]
    )


def _residuals_jacobian(
    phi: np.ndarray, f: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals r = F(phi) - f and Jacobian dr/dtheta for
    theta = (alpha, beta, log gamma, phi_c, f_c)."""
    params = _unpack(theta)
    values, jac = model.value_and_gradient(phi, params)
    jac[:, 2] *= params.gamma  # chain rule for log-gamma coordinate
    return values - f, jac


def _evaluate_trial(
    phi: np.ndarray, f: np.ndarray, theta: np.ndarray, sse_to_beat: float = math.inf
) -> tuple | None:
    """(r, J, sse, J^T J) at a trial theta, or None where LM rejects it:
    gamma**2 underflows to 0 (and gamma with it), sse is not finite or not
    below ``sse_to_beat``, or J^T J is not finite (as it is not wherever J is
    not).  J^T J is formed only for a trial that passes the other tests."""
    gamma = math.exp(theta[2])
    if gamma * gamma == 0.0:
        return None
    r, jac = _residuals_jacobian(phi, f, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(r @ r)
        if not (math.isfinite(sse) and sse < sse_to_beat):
            return None
        normal = jac.T @ jac
    return (r, jac, sse, normal) if np.all(np.isfinite(normal)) else None


def _std_errors(
    phi: np.ndarray, theta: np.ndarray, sse: float
) -> tuple[float, float, float, float, float] | None:
    """Gauss-Newton standard errors in the natural parameters, or None when
    the normal matrix is (numerically) singular or dof <= 0."""
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
    if np.unique(phi).size < _N_PARAMS:
        raise InsufficientData(
            f"smooth fit needs >= {_N_PARAMS} distinct phi values, "
            f"got {np.unique(phi).size}"
        )
    g_cap = math.log(_GAMMA_MAX)
    theta = _canonical(
        np.array(
            [init.alpha, init.beta, min(math.log(init.gamma), g_cap), init.phi_c, init.f_c]
        )
    )
    start = _evaluate_trial(phi, f, theta)
    if start is None:
        raise SingularNormalMatrix(
            "normal equations overflow at the starting point "
            "(sse, J or J^T J not finite, or gamma**2 underflows)"
        )
    r, jac, sse, normal = start
    lam = _LAMBDA0
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        grad = jac.T @ r
        diag = np.diag(normal).copy()
        diag = np.maximum(diag, 1e-12 * max(float(diag.max()), 1.0))
        accepted = False
        last_step_rel = None
        while True:
            delta = None
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    step = np.linalg.solve(normal + lam * np.diag(diag), -grad)
                if np.all(np.isfinite(step)):
                    delta = step
            except np.linalg.LinAlgError:
                pass
            if delta is not None:
                trial = theta + delta
                trial[2] = min(trial[2], g_cap)
                last_step_rel = float(
                    max(
                        abs(trial[j] - theta[j]) / max(1.0, abs(theta[j]))
                        for j in range(_N_PARAMS)
                    )
                )
                trial = _canonical(trial)
                evaluated = _evaluate_trial(phi, f, trial, sse)
                if evaluated is not None:
                    improvement = sse - evaluated[2]
                    theta = trial
                    r, jac, sse, normal = evaluated
                    lam *= _LAMBDA_DOWN
                    accepted = True
                    if (
                        last_step_rel <= _STEP_TOL
                        or improvement <= _SSE_TOL * (sse + improvement)
                    ):
                        converged = True
                    break
            lam *= _LAMBDA_UP
            if lam > _LAMBDA_GIVE_UP:
                if delta is None:
                    raise SingularNormalMatrix(
                        "damped normal equations unsolvable at maximum damping"
                    )
                # No strictly descending step exists: we are at a numerical
                # minimum.  Converged if the final attempt was already tiny.
                converged = last_step_rel is not None and last_step_rel <= _STEP_TOL
                break
        if converged or not accepted:
            break

    if theta[2] < g_cap:
        theta, sse = _try_snap_to_gamma_cap(phi, f, theta, sse, g_cap)
    gamma_at_bound = bool(theta[2] >= g_cap - 1e-12)
    return FitResult(
        params=_unpack(theta),
        sse=sse,
        iterations=iterations,
        converged=converged,
        gamma_at_bound=gamma_at_bound,
        std_errors=_std_errors(phi, theta, sse),
    )
