"""Adaptive Simpson integration with Richardson error control."""

from __future__ import annotations

import sys
from typing import Callable

from .errors import MaxDepthExceeded

_EPS = sys.float_info.epsilon


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_depth: int = 60,
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Interval-halving Simpson with the standard (S_fine - S_coarse)/15
    Richardson estimate; the returned value includes the Richardson
    correction.  The acceptance test carries a 4x safety factor because the
    1/15 estimate underestimates the true error just outside the asymptotic
    regime (e.g. on intervals straddling a near-kink), so the result honours
    ``tol`` rather than only the estimate honouring it.  Integrating
    right-to-left flips the sign.  Raises MaxDepthExceeded once an interval
    has been halved ``max_depth`` times without meeting its tolerance share,
    or as soon as an interval misses a share smaller than the rounding level
    eps * (|left| + |right|) of its own Simpson sums: halving scales the
    share and the sums alike, so below that level a subinterval would meet
    its share only where rounding makes the estimate vanish, near the
    bottom of a tree of up to 2**max_depth intervals.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return sign * _simpson_halve(f, a, b, fa, fm, fb, whole, 0.25 * tol, max_depth)


def _simpson_halve(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = (left + right - whole) / 15.0
    if abs(err) <= tol:
        return left + right + err
    rounding = _EPS * (abs(left) + abs(right))
    if tol < rounding:
        raise MaxDepthExceeded(
            f"interval [{a!r}, {b!r}]: tolerance share {tol!r} is below the "
            f"rounding level {rounding!r} of its Simpson sums"
        )
    if depth <= 0:
        raise MaxDepthExceeded(
            f"interval [{a!r}, {b!r}] still above tolerance after maximum halvings"
        )
    half = 0.5 * tol
    return _simpson_halve(
        f, a, m, fa, flm, fm, left, half, depth - 1
    ) + _simpson_halve(f, m, b, fm, frm, fb, right, half, depth - 1)
