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

Each closed form takes a float or an array of phi and is written once, over
three operations that differ between the two (see ``_Ops``); ``exp`` and
``log1p`` go through libm on both paths, so an array result equals the
float results point for point, bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

from .errors import ComplexRoots, DegenerateQuadratic, NonPositiveGamma

_LOG2 = math.log1p(1.0)

_FIELDS = ("alpha", "beta", "gamma", "phi_c", "f_c")


def _store_finite(obj, names) -> None:
    """Store the named fields of the frozen dataclass ``obj`` as floats;
    ValueError for the first that is not finite."""
    for name in names:
        v = float(getattr(obj, name))
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
        object.__setattr__(obj, name, v)


def _check_transition(obj) -> None:
    """Require gamma > 0 and a finite beta - alpha, and store the slopes with
    alpha <= beta; the family is exactly symmetric under swapping them."""
    if not math.isfinite(obj.beta - obj.alpha):
        raise ValueError(f"beta - alpha must be finite, got {obj.alpha!r}, {obj.beta!r}")
    if obj.gamma <= 0.0:
        raise ValueError(f"gamma must be > 0, got {obj.gamma!r}")
    if obj.alpha > obj.beta:
        lo, hi = obj.beta, obj.alpha
        object.__setattr__(obj, "alpha", lo)
        object.__setattr__(obj, "beta", hi)


@dataclass(frozen=True)
class TransitionParams:
    """Parameters of the smooth slope-transition family.

    ``alpha`` and ``beta`` are the limiting slopes of F (stored with
    alpha <= beta; the family is exactly symmetric under swapping them, so
    the constructor canonicalizes the order), ``gamma`` > 0 sets the
    sharpness, ``phi_c`` locates the transition and ``f_c`` = F(phi_c).
    Every field and the width beta - alpha must be finite (ValueError).
    """

    alpha: float
    beta: float
    gamma: float
    phi_c: float
    f_c: float

    def __post_init__(self):
        _store_finite(self, _FIELDS)
        _check_transition(self)


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
        _store_finite(self, ("s0", "f0", "f1", "f2"))


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


# exp(x) is exactly 0.0 for every x <= -746, in libm as in numpy: the
# smallest subnormal is exp(-744.44) and exp rounds to 0.0 below -745.14.
_EXP_ZERO_AT = -746.0


_LIBM_BLOCK = 4096  # values per slice in _array_libm


def _array_libm(fn, x, zero_at: float):
    """``fn`` through libm at the points of ``x`` above ``zero_at`` only: at
    the rest fn(x) is exactly 0.0, and far from the transition that is most
    of them.  The input goes ``_LIBM_BLOCK`` values at a time, each slice's
    live values through Python floats, so beside the output only one
    slice's mask, index and list are held; no result changes."""
    import numpy as np
    flat = np.ravel(x)
    out = np.zeros_like(flat)
    for start in range(0, flat.size, _LIBM_BLOCK):
        part = flat[start : start + _LIBM_BLOCK]
        at = start + np.flatnonzero(~(part <= zero_at))  # NaN stays live, maps to NaN
        out[at] = np.fromiter(map(fn, flat[at].tolist()), np.float64, at.size)
    return out.reshape(np.shape(x))


# The three operations in which float and array evaluation differ; every
# closed form below is written once over them.  The rest is + - * / and abs,
# which floats and numpy arrays both round correctly, and exp and log1p go
# through libm on both paths, so an array result equals the float results
# bit for bit.  libm(fn, x, zero_at) is fn(x), known to be 0.0 wherever
# x <= zero_at; times(a, b) is a * b, but exactly 0.0 where b == 0.0 even if
# a is inf; select(x, a, b) is a where x >= 0.0, else b (x = -0.0 picks a).
_Ops = namedtuple("_Ops", "libm times select")

_FLOAT_OPS = _Ops(
    libm=lambda fn, x, zero_at: fn(x),
    times=lambda a, b: a * b if b else 0.0,
    select=lambda x, a, b: a if x >= 0.0 else b,
)


@functools.cache
def _array_ops() -> _Ops:
    """The array operations; float evaluation never imports numpy."""
    import numpy as np
    return _Ops(
        libm=_array_libm,
        times=lambda a, b: np.multiply(a, b, out=np.zeros_like(b), where=b != 0.0),
        select=lambda x, a, b: np.where(x >= 0.0, a, b),
    )


def _evaluate(form, x, origin: float, params):
    """``form(ops, x - origin, params)``, with the float operations (and so
    Python floats back) for any 0-d x and the array operations otherwise.
    Arrays overflow, underflow and turn inf - inf into NaN as silently as
    Python floats do."""
    if not isinstance(x, (float, int)):
        import numpy as np
        if np.ndim(x):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                return form(_array_ops(), np.asarray(x, dtype=np.float64) - origin, params)
    return form(_FLOAT_OPS, float(x) - origin, params)


def _z_and_t(ops: _Ops, delta, params):
    """z = (beta - alpha) * gamma * delta, exactly 0 at delta == 0 even where
    (beta - alpha) * gamma overflows (inf * 0 would be NaN), and
    t = exp(-|z|), which never overflows."""
    z = ops.times((params.beta - params.alpha) * params.gamma, delta)
    return z, ops.libm(math.exp, -abs(z), _EXP_ZERO_AT)


def _slope(ops: _Ops, delta, params):
    z, t = _z_and_t(ops, delta, params)
    return params.alpha + (params.beta - params.alpha) * ops.select(
        z, 1.0 / (1.0 + t), t / (1.0 + t)
    )


def _observable(ops: _Ops, delta, params, log1p_t):
    """F from delta and log1p(exp(-|z|)); max(z, 0)/gamma is written as
    (beta - alpha) * max(delta, 0)."""
    return (
        params.f_c
        + params.alpha * delta
        + (params.beta - params.alpha) * ops.select(delta, delta, 0.0)
        + (log1p_t - _LOG2) / params.gamma
    )


def _value(ops: _Ops, delta, params):
    # No name holds z or t, so neither outlives the log1p call.
    return _observable(
        ops, delta, params, ops.libm(math.log1p, _z_and_t(ops, delta, params)[1], 0.0)
    )


def _value_and_gradient(ops: _Ops, delta, params):
    z, t = _z_and_t(ops, delta, params)
    log1p_t = ops.libm(math.log1p, t, 0.0)
    near, far = 1.0 / (1.0 + t), t / (1.0 + t)  # sigmoid(|z|), sigmoid(-|z|)
    sig = ops.select(z, near, far)
    # z * sigmoid(z) - softplus(z) + log 2, even in z; |z| * t is 0, not
    # inf * 0, once t has underflowed.
    sensitivity = _LOG2 - ops.times(abs(z), t) / (1.0 + t) - log1p_t
    gradient = (
        delta * ops.select(-z, near, far),
        delta * sig,
        sensitivity / (params.gamma * params.gamma),
        -(params.alpha + (params.beta - params.alpha) * sig),
        1.0,
    )
    return _observable(ops, delta, params, log1p_t), gradient


def _hinge(ops: _Ops, delta, params):
    return params.f_c + ops.select(-delta, params.alpha, params.beta) * delta


def slope(phi, params: TransitionParams):
    """Slope s(phi) = alpha + (beta - alpha) * sigmoid(z), for a float or an
    array of phi.

    Strictly inside (alpha, beta) and strictly increasing for alpha < beta;
    identically alpha when alpha == beta.
    """
    return _evaluate(_slope, phi, params.phi_c, params)


def value(phi, params: TransitionParams):
    """Integrated observable F(phi) = f_c + alpha * (phi - phi_c)
    + (softplus(z) - log 2) / gamma, for a float or an array of phi.

    The softplus term is split as max(z, 0)/gamma + log1p(e^-|z|)/gamma so
    the result stays finite even when z itself overflows, and F(phi_c)
    returns f_c exactly, also when (beta - alpha) * gamma overflows.
    dF/dphi equals slope(phi) analytically.
    """
    return _evaluate(_value, phi, params.phi_c, params)


def value_beta_linear(phi, params: TransitionParams):
    """Variant of :func:`value` whose linear term uses ``beta`` in place of
    ``alpha``, for a float or an array of phi.

    This is *not* an antiderivative of :func:`slope` unless alpha == beta:
    it differs from :func:`value` by exactly (beta - alpha) * (phi - phi_c).
    It is kept purely as a diagnostic for the quadrature cross-check, which
    it fails whenever alpha != beta (see ``kinkfit check --use-literal-eq4``).
    """
    return value(phi, params) + (params.beta - params.alpha) * (phi - params.phi_c)


def piecewise_limit(phi, params):
    """Sharp-transition limit of F, for a float or an array of phi: a
    continuous hinge with slope alpha up to phi_c and beta above, equal to
    f_c at phi_c.

    Reads only ``alpha``, ``beta``, ``phi_c`` and ``f_c``, so a hinge fit
    with a steeper left slope draws as it is.  Pointwise limit of
    :func:`value` as gamma -> infinity; the deviation is bounded by
    log(2)/gamma, with equality approached far from phi_c on the alpha side
    of the kink.
    """
    return _evaluate(_hinge, phi, params.phi_c, params)


def slope_limit(phi: float, params: TransitionParams) -> float:
    """Sharp-transition limit of the slope: alpha below phi_c, beta above,
    and the midpoint (alpha + beta)/2 exactly at phi_c."""
    if phi < params.phi_c:
        return params.alpha
    if phi > params.phi_c:
        return params.beta
    return 0.5 * (params.alpha + params.beta)


def value_and_gradient(phi, params: TransitionParams):
    """:func:`value` and its analytic gradient with respect to
    (alpha, beta, gamma, phi_c, f_c), in that order.

    The gradient components are::

        dF/dalpha = (phi - phi_c) * sigmoid(-z)
        dF/dbeta  = (phi - phi_c) * sigmoid(z)
        dF/dgamma = (z * sigmoid(z) - softplus(z) + log 2) / gamma**2
        dF/dphi_c = -slope(phi)
        dF/df_c   = 1

    A float phi gives F and a tuple of the 5 components, an array gives F
    of its shape and J with a trailing axis of 5.  F is :func:`value` bit
    for bit, and finite inputs give no NaN.
    """
    values, gradient = _evaluate(_value_and_gradient, phi, params.phi_c, params)
    if isinstance(values, float):
        return values, gradient
    import numpy as np
    return values, np.stack(np.broadcast_arrays(*gradient), axis=-1)


def value_gradient(phi, params: TransitionParams):
    """The gradient half of :func:`value_and_gradient`: a tuple of 5 floats
    for a float phi, an array with a trailing axis of 5 otherwise."""
    return value_and_gradient(phi, params)[1]
