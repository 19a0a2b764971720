"""Parameter estimation for the transition model.

Two stages: an exhaustive-breakpoint least-squares fit of the sharp
(hinge) limit, which needs no starting guess, and a Levenberg-Marquardt
refinement of the smooth model seeded from it.  The sharpness gamma is
optimized on a log scale with an upper cap, because the data stop being
informative about gamma once the transition is narrower than the sample
spacing; hitting the cap is reported via ``gamma_at_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DegenerateDesign, InsufficientData, SingularNormalMatrix
from .model import TransitionParams

_N_PARAMS = 5
_LAMBDA_GIVE_UP = 1e12


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
        coerced = np.array(
            [(float(p), float(f)) for p, f in pairs], dtype=np.float64
        ).reshape(-1, 2)
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
class FitConfig:
    """Knobs for both fitting stages.

    ``breakpoint_grid``: number of uniformly spaced breakpoint candidates
    for the hinge scan; None (default) scans midpoints between consecutive
    distinct data phi values, which is exact for data whose kink falls
    between samples.  The rest configure Levenberg-Marquardt: iteration cap,
    relative step / sse convergence thresholds, damping schedule, and the
    cap on gamma.
    """

    max_iterations: int = 200
    step_tol: float = 1e-10
    sse_tol: float = 1e-12
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    gamma_max: float = 1e8
    breakpoint_grid: int | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("step_tol", "sse_tol", "lambda0", "lambda_up", "lambda_down"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.lambda_up <= 1.0 or not 0.0 < self.lambda_down < 1.0:
            raise ValueError("need lambda_up > 1 and 0 < lambda_down < 1")
        if self.gamma_max <= 1.0:
            raise ValueError("gamma_max must be > 1")
        if self.breakpoint_grid is not None and self.breakpoint_grid < 1:
            raise ValueError("breakpoint_grid must be >= 1 when given")


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


def _hinge_design(phi: np.ndarray, breakpoint: float) -> np.ndarray:
    delta = phi - breakpoint
    return np.column_stack(
        (np.ones_like(phi), np.minimum(delta, 0.0), np.maximum(delta, 0.0))
    )


def fit_piecewise(data: DataSet, config: FitConfig = FitConfig()) -> PiecewiseFit:
    """Least-squares hinge fit with an exhaustive scan over breakpoint
    candidates.

    Every candidate with at least two distinct phi values strictly on each
    side is solved as a 3-parameter linear problem (level at the breakpoint
    plus one slope per side); the candidate with the smallest sse wins, ties
    going to the smallest breakpoint.  Raises InsufficientData when no
    candidate has enough support, DegenerateDesign when every candidate's
    system is singular.
    """
    phi = data.phi
    f = data.f
    distinct = np.unique(phi)
    if len(data) < 4 or distinct.size < 4:
        raise InsufficientData(
            f"hinge fit needs >= 4 points with >= 4 distinct phi values, "
            f"got {len(data)} points / {distinct.size} distinct"
        )
    if config.breakpoint_grid is None:
        candidates = 0.5 * (distinct[:-1] + distinct[1:])
    else:
        candidates = np.linspace(
            distinct[0], distinct[-1], config.breakpoint_grid + 2
        )[1:-1]

    best: tuple[float, float, np.ndarray] | None = None  # (sse, breakpoint, coeffs)
    scanned = 0
    all_singular = True
    for c in candidates:
        c = float(c)
        if (distinct < c).sum() < 2 or (distinct > c).sum() < 2:
            continue
        scanned += 1
        design = _hinge_design(phi, c)
        coeffs, _, rank, _ = np.linalg.lstsq(design, f, rcond=None)
        if rank < 3:
            continue
        all_singular = False
        resid = design @ coeffs - f
        sse = float(resid @ resid)
        if best is None or sse < best[0]:
            best = (sse, c, coeffs)

    if scanned == 0:
        raise InsufficientData(
            "no breakpoint candidate has two distinct phi values on each side"
        )
    if best is None:
        assert all_singular
        raise DegenerateDesign("every candidate breakpoint gave a singular system")
    sse, breakpoint, coeffs = best
    return PiecewiseFit(
        alpha=float(coeffs[1]),
        beta=float(coeffs[2]),
        phi_c=breakpoint,
        f_c=float(coeffs[0]),
        sse=sse,
        candidate_count=scanned,
    )


def init_smooth(pw: PiecewiseFit, data: DataSet) -> TransitionParams:
    """Smooth-model starting point from a hinge fit.

    Copies (alpha, beta, phi_c, f_c) and sets gamma so the transition width
    1/(|beta - alpha| * gamma) is 1% of the data span; gamma falls back to
    1 when the hinge has equal slopes.
    """
    phi = data.phi
    span = float(phi[-1] - phi[0]) if len(data) else 0.0
    if span <= 0.0:
        raise ValueError("data must span a positive phi range")
    width = abs(pw.beta - pw.alpha)
    gamma0 = 1.0 if width == 0.0 else 10.0 / (width * 0.1 * span)
    return TransitionParams(pw.alpha, pw.beta, gamma0, pw.phi_c, pw.f_c)


def fit_two_stage(
    data: DataSet, config: FitConfig = FitConfig()
) -> tuple[PiecewiseFit, FitResult]:
    """The two-stage fit: :func:`fit_piecewise`, then :func:`fit_smooth`
    started from :func:`init_smooth` of the hinge.  Returns both fits and
    raises whatever either stage raises."""
    pw = fit_piecewise(data, config)
    return pw, fit_smooth(data, init_smooth(pw, data), config)


def residual_sse(data: DataSet, params: TransitionParams) -> float:
    """Sum of squared residuals of the smooth model over the data
    (0 for an empty dataset)."""
    return math.fsum((model.value(p, params) - f) ** 2 for p, f in data)


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
    n = phi.size
    r = np.empty(n)
    jac = np.empty((n, _N_PARAMS))
    for i in range(n):
        x = float(phi[i])
        r[i] = model.value(x, params) - f[i]
        d_a, d_b, d_g, d_pc, d_fc = model.value_gradient(x, params)
        jac[i, 0] = d_a
        jac[i, 1] = d_b
        jac[i, 2] = d_g * params.gamma  # chain rule for log-gamma coordinate
        jac[i, 3] = d_pc
        jac[i, 4] = d_fc
    return r, jac


def _std_errors(
    phi: np.ndarray, f: np.ndarray, theta: np.ndarray, sse: float
) -> tuple[float, float, float, float, float] | None:
    """Gauss-Newton standard errors in the natural parameters, or None when
    the normal matrix is (numerically) singular or dof <= 0."""
    dof = phi.size - _N_PARAMS
    if dof <= 0:
        return None
    params = _unpack(theta)
    _, jac = _residuals_jacobian(phi, f, theta)
    jac[:, 2] /= params.gamma  # back to d/dgamma
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


def fit_smooth(
    data: DataSet, init: TransitionParams, config: FitConfig = FitConfig()
) -> FitResult:
    """Levenberg-Marquardt refinement of the smooth model.

    Damped normal equations with Marquardt diagonal scaling; gamma is
    optimized as log(gamma) and clamped at config.gamma_max.  Steps are
    accepted only when they strictly reduce the sse, so the accepted-sse
    sequence is non-increasing.  Terminates on the relative step or sse
    thresholds (converged=True), on the iteration cap (converged=False), or
    when no descent step exists even at maximum damping (converged reflects
    whether the last attempted step was already below the step threshold).
    A fit that ends below the gamma cap but fits the data no better than the
    capped model (with f_c re-profiled) is snapped onto the cap, so
    transitions sharper than the sample spacing report gamma_at_bound
    instead of an arbitrary stall point on the flat sse ridge.
    Raises InsufficientData for fewer than 5 distinct phi values and
    SingularNormalMatrix when the damped system stays unsolvable.
    """
    phi = data.phi
    f = data.f
    if np.unique(phi).size < _N_PARAMS:
        raise InsufficientData(
            f"smooth fit needs >= {_N_PARAMS} distinct phi values, "
            f"got {np.unique(phi).size}"
        )
    g_cap = math.log(config.gamma_max)
    theta = _canonical(
        np.array(
            [init.alpha, init.beta, min(math.log(init.gamma), g_cap), init.phi_c, init.f_c]
        )
    )
    r, jac = _residuals_jacobian(phi, f, theta)
    sse = float(r @ r)
    lam = config.lambda0
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iterations + 1):
        normal = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(normal).copy()
        diag = np.maximum(diag, 1e-12 * max(float(diag.max()), 1.0))
        accepted = False
        last_step_rel = None
        while True:
            delta = None
            try:
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
                trial_r, trial_jac = _residuals_jacobian(phi, f, trial)
                trial_sse = float(trial_r @ trial_r)
                if math.isfinite(trial_sse) and trial_sse < sse:
                    improvement = sse - trial_sse
                    theta, r, jac, sse = trial, trial_r, trial_jac, trial_sse
                    lam *= config.lambda_down
                    accepted = True
                    if (
                        last_step_rel <= config.step_tol
                        or improvement <= config.sse_tol * (sse + improvement)
                    ):
                        converged = True
                    break
            lam *= config.lambda_up
            if lam > _LAMBDA_GIVE_UP:
                if delta is None:
                    raise SingularNormalMatrix(
                        "damped normal equations unsolvable at maximum damping"
                    )
                # No strictly descending step exists: we are at a numerical
                # minimum.  Converged if the final attempt was already tiny.
                converged = (
                    last_step_rel is not None and last_step_rel <= config.step_tol
                )
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
        std_errors=_std_errors(phi, f, theta, sse),
    )
