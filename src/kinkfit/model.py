"""Closed forms for a smooth transition between two linear regimes.

The slope of an observable F(phi) crosses over from a lower value ``alpha``
to an upper value ``beta`` around a location ``phi_c``::

    s(phi) = alpha + (beta - alpha) * sigmoid(z),
    z      = (beta - alpha) * gamma * (phi - phi_c),

which is the unique solution of the quadratic ODE

    ds/dphi = gamma * (s - alpha) * (beta - s)

that passes through the midpoint (alpha + beta)/2 at phi_c.  Integrating the
slope once more gives the observable itself::

    F(phi) = f_c + alpha * (phi - phi_c)
                 + (softplus(z) - log 2) / gamma,

anchored so that F(phi_c) = f_c exactly.  The sharpness ``gamma`` controls
the transition width, which scales as 1 / ((beta - alpha) * gamma); sending
gamma to infinity collapses both forms onto a piecewise-linear kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComplexRoots, DegenerateQuadratic, NonPositiveGamma

_LOG2 = math.log1p(1.0)

_FIELDS = ("alpha", "beta", "gamma", "phi_c", "f_c")


def sigmoid(z: float) -> float:
    """Logistic function 1 / (1 + e^-z), evaluated without overflow for any z."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class TransitionParams:
    """Parameters of the smooth slope-transition family.

    ``alpha`` and ``beta`` are the limiting slopes of F (stored with
    alpha <= beta; the family is exactly symmetric under swapping them, so
    the constructor canonicalizes the order), ``gamma`` > 0 sets the
    sharpness, ``phi_c`` locates the transition and ``f_c`` = F(phi_c).
    """

    alpha: float
    beta: float
    gamma: float
    phi_c: float
    f_c: float

    def __post_init__(self):
        for name in _FIELDS:
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma!r}")
        if self.alpha > self.beta:
            lo, hi = self.beta, self.alpha
            object.__setattr__(self, "alpha", lo)
            object.__setattr__(self, "beta", hi)


@dataclass(frozen=True)
class TaylorCoeffs:
    """Quadratic expansion of ds/dphi about a slope value s0:

    ds/dphi = f0 + f1 * (s - s0) + (f2 / 2) * (s - s0)**2.
    """

    s0: float
    f0: float
    f1: float
    f2: float

    def __post_init__(self):
        for name in ("s0", "f0", "f1", "f2"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)


def taylor_to_params(coeffs: TaylorCoeffs) -> tuple[float, float, float]:
    """Rewrite a quadratic slope expansion in the factored form
    gamma * (s - alpha) * (beta - s).

    Returns ``(alpha, beta, gamma)`` with alpha <= beta such that the
    factored form reproduces the expansion identically.  The roots are
    computed with the cancellation-free quadratic formula (divide the
    constant term by the large root rather than subtracting near-equal
    quantities).

    Raises DegenerateQuadratic when f2 == 0, NonPositiveGamma when f2 > 0
    (the factored form would need gamma <= 0), and ComplexRoots when the
    discriminant f1**2 - 2 * f0 * f2 is negative.
    """
    f0, f1, f2 = coeffs.f0, coeffs.f1, coeffs.f2
    if f2 == 0.0:
        raise DegenerateQuadratic("f2 == 0: expansion has no quadratic term")
    if f2 > 0.0:
        raise NonPositiveGamma(f"f2 = {f2!r} > 0 implies gamma = -f2/2 <= 0")
    gamma = -0.5 * f2
    disc = f1 * f1 - 2.0 * f0 * f2
    if disc < 0.0:
        raise ComplexRoots(f"discriminant {disc!r} < 0: no real slope roots")
    sq = math.sqrt(disc)
    # Roots in t = s - s0 of (f2/2) t^2 + f1 t + f0 = 0.
    q = -0.5 * (f1 + sq) if f1 >= 0.0 else -0.5 * (f1 - sq)
    if q != 0.0:
        t1 = q / (0.5 * f2)
        t2 = f0 / q
    else:
        t1 = t2 = 0.0  # f1 == 0 and disc == 0: double root at s0
    r1 = coeffs.s0 + t1
    r2 = coeffs.s0 + t2
    if r1 > r2:
        r1, r2 = r2, r1
    return r1, r2, gamma


def riccati_rhs(s: float, params: TransitionParams) -> float:
    """Right-hand side gamma * (s - alpha) * (beta - s) of the slope ODE."""
    return params.gamma * (s - params.alpha) * (params.beta - s)


def _z(params, delta: float) -> float:
    """z = (beta - alpha) * gamma * delta for any params with alpha, beta
    and gamma, exactly 0 at delta == 0 even where (beta - alpha) * gamma
    overflows (inf * 0 would be NaN)."""
    return (params.beta - params.alpha) * params.gamma * delta if delta else 0.0


def slope(phi: float, params: TransitionParams) -> float:
    """Slope s(phi) = alpha + (beta - alpha) * sigmoid(z).

    Strictly inside (alpha, beta) and strictly increasing for alpha < beta;
    identically alpha when alpha == beta.
    """
    z = _z(params, phi - params.phi_c)
    return params.alpha + (params.beta - params.alpha) * sigmoid(z)


def value(phi: float, params: TransitionParams) -> float:
    """Integrated observable F(phi) = f_c + alpha * (phi - phi_c)
    + (softplus(z) - log 2) / gamma.

    The softplus term is split as max(z, 0)/gamma + log1p(e^-|z|)/gamma so
    the result stays finite even when z itself overflows, and F(phi_c)
    returns f_c exactly, also when (beta - alpha) * gamma overflows.
    dF/dphi equals slope(phi) analytically.
    """
    delta = phi - params.phi_c
    width = params.beta - params.alpha
    tail = math.log1p(math.exp(-abs(_z(params, delta)))) - _LOG2
    return (
        params.f_c
        + params.alpha * delta
        + width * max(delta, 0.0)
        + tail / params.gamma
    )


def value_beta_linear(phi: float, params: TransitionParams) -> float:
    """Variant of :func:`value` whose linear term uses ``beta`` in place of
    ``alpha``.

    This is *not* an antiderivative of :func:`slope` unless alpha == beta:
    it differs from :func:`value` by exactly (beta - alpha) * (phi - phi_c).
    It is kept purely as a diagnostic for the quadrature cross-check, which
    it fails whenever alpha != beta (see ``kinkfit check --use-literal-eq4``).
    """
    return value(phi, params) + (params.beta - params.alpha) * (phi - params.phi_c)


def piecewise_limit(phi: float, params: TransitionParams) -> float:
    """Sharp-transition limit of F: a continuous hinge with slopes alpha
    below phi_c and beta above, equal to f_c at phi_c.

    Pointwise limit of :func:`value` as gamma -> infinity; the deviation is
    bounded by log(2)/gamma, with equality approached far from phi_c on the
    alpha side of the kink.
    """
    delta = phi - params.phi_c
    s = params.alpha if delta <= 0.0 else params.beta
    return params.f_c + s * delta


def slope_limit(phi: float, params: TransitionParams) -> float:
    """Sharp-transition limit of the slope: alpha below phi_c, beta above,
    and the midpoint (alpha + beta)/2 exactly at phi_c."""
    if phi < params.phi_c:
        return params.alpha
    if phi > params.phi_c:
        return params.beta
    return 0.5 * (params.alpha + params.beta)


def _gamma_sensitivity(z: float) -> float:
    """z * sigmoid(z) - softplus(z) + log 2; even in z, -> log 2 as |z| -> inf
    and -> 0 as z -> 0."""
    t = math.exp(-abs(z))
    if t == 0.0:
        return _LOG2
    return _LOG2 - abs(z) * t / (1.0 + t) - math.log1p(t)


def value_gradient(
    phi: float, params: TransitionParams
) -> tuple[float, float, float, float, float]:
    """Analytic gradient of :func:`value` with respect to
    (alpha, beta, gamma, phi_c, f_c), in that order.

    The components are::

        dF/dalpha = (phi - phi_c) * sigmoid(-z)
        dF/dbeta  = (phi - phi_c) * sigmoid(z)
        dF/dgamma = (z * sigmoid(z) - softplus(z) + log 2) / gamma**2
        dF/dphi_c = -slope(phi)
        dF/df_c   = 1
    """
    delta = phi - params.phi_c
    z = _z(params, delta)
    sig = sigmoid(z)
    d_alpha = delta * sigmoid(-z)
    d_beta = delta * sig
    d_gamma = _gamma_sensitivity(z) / (params.gamma * params.gamma)
    d_phi_c = -(params.alpha + (params.beta - params.alpha) * sig)
    return (d_alpha, d_beta, d_gamma, d_phi_c, 1.0)


def value_and_gradient(
    phi: np.ndarray, params: TransitionParams
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`value` and :func:`value_gradient` over an array of phi: F of
    the shape of ``phi`` and J with a trailing axis of the 5 components.

    Each element repeats the scalar operations, sharing one ``exp(-|z|)``,
    so it agrees with them to the rounding of ``exp``/``log1p`` (a few ulp)
    and F(phi_c) == f_c exactly.  As in the scalar forms, z overflowing and
    ``exp(-|z|)`` underflowing are silent and the gamma sensitivity is
    log 2 where ``exp(-|z|) == 0``, so finite inputs give no NaN.
    """
    width = params.beta - params.alpha
    with np.errstate(over="ignore", under="ignore"):
        delta = np.asarray(phi, dtype=np.float64) - params.phi_c
        z = np.multiply(  # 0 at phi_c, where width * gamma may be inf
            width * params.gamma, delta, out=np.zeros_like(delta), where=delta != 0.0
        )
        t = np.exp(-np.abs(z))
        near, far = 1.0 / (1.0 + t), t / (1.0 + t)  # sigmoid(|z|), sigmoid(-|z|)
        sig = np.where(z >= 0.0, near, far)
        log1p_t = np.log1p(t)
        tail = (log1p_t - _LOG2) / params.gamma
        values = params.f_c + params.alpha * delta + width * np.maximum(delta, 0.0) + tail
        abs_z = np.where(t == 0.0, 0.0, np.abs(z))  # |z| = inf would make |z| * t NaN
        sensitivity = _LOG2 - abs_z * t / (1.0 + t) - log1p_t
        jac = np.empty(delta.shape + (5,))
        jac[..., 0] = delta * np.where(z <= 0.0, near, far)
        jac[..., 1] = delta * sig
        jac[..., 2] = sensitivity / (params.gamma * params.gamma)
        jac[..., 3] = -(params.alpha + width * sig)
        jac[..., 4] = 1.0
    return values, jac
