"""Velocity profiles whose log-log slope crosses over between two exponents.

The local exponent ("shear") follows the same logistic transition as the
slope model, but in the wall distance y:

    n(y) = alpha + (beta - alpha) * sigmoid((beta - alpha) * gamma * (y - y_c)),

so the velocity tends to A * y**alpha for y << y_c and to
B * y**beta for y >> y_c, with B fixed by continuity of the matched
power laws at y_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveY
from .model import _z, sigmoid
from .quadrature import adaptive_simpson


@dataclass(frozen=True)
class PowerLawParams:
    """Parameters of the matched power-law profile.

    ``a_coef`` is the amplitude of the lower power law; the upper amplitude
    follows from continuity at ``y_c`` (property :attr:`b_coef`).  Exponents
    are stored with alpha <= beta, mirroring the slope model's exact swap
    symmetry.
    """

    a_coef: float
    alpha: float
    beta: float
    gamma: float
    y_c: float

    def __post_init__(self):
        for name in ("a_coef", "alpha", "beta", "gamma", "y_c"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.a_coef <= 0.0:
            raise ValueError(f"a_coef must be > 0, got {self.a_coef!r}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma!r}")
        if self.y_c <= 0.0:
            raise ValueError(f"y_c must be > 0, got {self.y_c!r}")
        if self.alpha > self.beta:
            lo, hi = self.beta, self.alpha
            object.__setattr__(self, "alpha", lo)
            object.__setattr__(self, "beta", hi)

    @property
    def b_coef(self) -> float:
        """Upper power-law amplitude A * y_c**(alpha - beta), chosen so the
        two pure power laws agree at y_c."""
        return self.a_coef * self.y_c ** (self.alpha - self.beta)


def _require_positive(y: float) -> float:
    y = float(y)
    if not y > 0.0:
        raise NonPositiveY(f"y must be > 0, got {y!r}")
    return y


def shear(y: float, params: PowerLawParams) -> float:
    """Local log-log slope exponent at wall distance y; rises smoothly from
    alpha to beta around y_c; exactly (alpha + beta) / 2 at y_c, also when
    (beta - alpha) * gamma overflows."""
    y = _require_positive(y)
    z = _z(params, y - params.y_c)
    return params.alpha + (params.beta - params.alpha) * sigmoid(z)


def velocity_limit(y: float, params: PowerLawParams) -> float:
    """Matched pure power laws: A * y**alpha below y_c, B * y**beta above,
    continuous at y_c."""
    y = _require_positive(y)
    if y <= params.y_c:
        return params.a_coef * y**params.alpha
    return params.b_coef * y**params.beta


def velocity_smooth(y: float, params: PowerLawParams, tol: float = 1e-10) -> float:
    """Velocity with the smoothly varying exponent:

    u(y) = A * y_c**alpha * exp( integral_{y_c}^{y} shear(t)/t dt ),

    evaluated by adaptive Simpson quadrature to absolute tolerance ``tol``
    on the exponent.  Equals the anchor A * y_c**alpha exactly at y == y_c
    and reduces to the pure power law when alpha == beta.
    """
    y = _require_positive(y)
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    anchor = params.a_coef * params.y_c**params.alpha
    if y == params.y_c:
        return anchor
    exponent = adaptive_simpson(
        lambda t: shear(t, params) / t, params.y_c, y, tol
    )
    return anchor * math.exp(exponent)


def loglog_slope(
    y: float, params: PowerLawParams, h: float, tol: float = 1e-10
) -> float:
    """Central-difference log-log slope of :func:`velocity_smooth`:

    [log u(y(1+h)) - log u(y(1-h))] / [log(1+h) - log(1-h)].

    Tends to alpha well below y_c and beta well above; ``tol`` is passed to
    the velocity quadrature.
    """
    y = _require_positive(y)
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must be in (0, 1), got {h!r}")
    upper = velocity_smooth(y * (1.0 + h), params, tol)
    lower = velocity_smooth(y * (1.0 - h), params, tol)
    return (math.log(upper) - math.log(lower)) / (math.log1p(h) - math.log1p(-h))
