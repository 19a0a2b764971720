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
from .model import _check_transition, _evaluate, _slope, _store_finite
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
        _store_finite(self, ("a_coef", "alpha", "beta", "gamma", "y_c"))
        if self.a_coef <= 0.0:
            raise ValueError(f"a_coef must be > 0, got {self.a_coef!r}")
        if self.y_c <= 0.0:
            raise ValueError(f"y_c must be > 0, got {self.y_c!r}")
        _check_transition(self)

    @property
    def b_coef(self) -> float:
        """Upper power-law amplitude A * y_c**(alpha - beta), chosen so the
        two pure power laws agree at y_c.  Raises ValueError, naming the
        power or the product, where either leaves the double range."""
        power = _power("y_c**(alpha - beta)", self.y_c, self.alpha - self.beta)
        return _finite("B = A * y_c**(alpha - beta)", self.a_coef * power)


def _power(name: str, base: float, exponent: float) -> float:
    """base**exponent, or a ValueError naming ``name`` where float ``**``
    overflows."""
    try:
        return base**exponent
    except OverflowError:
        raise ValueError(f"{name} leaves the double range") from None


def _finite(name: str, x: float) -> float:
    """x, or a ValueError naming ``name`` where x is infinite, as a product
    that rounds past the double range is."""
    if math.isinf(x):
        raise ValueError(f"{name} leaves the double range")
    return x


def _require_positive(y: float) -> float:
    y = float(y)
    if not y > 0.0:
        raise NonPositiveY(f"y must be > 0, got {y!r}")
    return y


def shear(y: float, params: PowerLawParams) -> float:
    """Local log-log slope exponent at wall distance y; rises smoothly from
    alpha to beta around y_c; exactly (alpha + beta) / 2 at y_c, also when
    (beta - alpha) * gamma overflows."""
    return _evaluate(_slope, _require_positive(y), params.y_c, params)


def velocity_limit(y: float, params: PowerLawParams) -> float:
    """Matched pure power laws: A * y**alpha below y_c, B * y**beta above,
    continuous at y_c.  Raises ValueError naming the power, B or the
    product that leaves the double range."""
    y = _require_positive(y)
    if y <= params.y_c:
        return _finite("A * y**alpha", params.a_coef * _power("y**alpha", y, params.alpha))
    return _finite("B * y**beta", params.b_coef * _power("y**beta", y, params.beta))


def velocity_smooth(y: float, params: PowerLawParams, tol: float = 1e-10) -> float:
    """Velocity with the smoothly varying exponent:

    u(y) = A * y_c**alpha * exp( integral_{y_c}^{y} shear(t)/t dt ),

    evaluated by adaptive Simpson quadrature to absolute tolerance ``tol``
    on the exponent.  Equals the anchor A * y_c**alpha exactly at y == y_c
    and reduces to the pure power law when alpha == beta.  Raises ValueError
    naming y_c**alpha, the anchor, exp(exponent) or u(y) where it leaves the
    double range, even where u(y) itself would fit.
    """
    y = _require_positive(y)
    exponent = adaptive_simpson(
        lambda t: shear(t, params) / t, params.y_c, y, tol
    )
    power = _power("y_c**alpha", params.y_c, params.alpha)
    anchor = _finite("A * y_c**alpha", params.a_coef * power)
    try:
        growth = math.exp(exponent)
    except OverflowError:
        growth = math.inf
    return _finite("u(y)", anchor * _finite("exp(exponent)", growth))


def loglog_slope(
    y: float, params: PowerLawParams, h: float, tol: float = 1e-10
) -> float:
    """Central-difference log-log slope of :func:`velocity_smooth`:

    [log u(y(1+h)) - log u(y(1-h))] / [log(1+h) - log(1-h)].

    Tends to alpha well below y_c and beta well above.  The numerator is
    one adaptive Simpson integral of shear(t)/t over [y(1-h), y(1+h)], and
    ``tol`` bounds its absolute error, so the slope's quadrature error is
    at most tol / (log(1+h) - log(1-h)), about tol / (2h).
    """
    y = _require_positive(y)
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must be in (0, 1), got {h!r}")
    rise = adaptive_simpson(lambda t: shear(t, params) / t, y * (1.0 - h), y * (1.0 + h), tol)
    return rise / (math.log1p(h) - math.log1p(-h))
