"""Dataset CSV I/O, reproducible synthetic data, and a minimal SVG renderer.

The CSV dialect is a mandatory ``phi,F`` header followed by two decimal
numbers per line (optional exponent); blank lines and ``#`` comments are
skipped.  Values are written with 17 significant digits so that
write -> read round-trips are bit-exact.  Reading parses the body in bulk
with ``np.loadtxt``; the line-by-line parser runs only when that fails or
reads a non-finite value, to name the first bad line.  Writing, here and
in ``eval``, formats a block of rows per ``%`` call.

Synthetic noise is fully documented and reproducible: a numpy PCG64 stream
seeded from the SyntheticSpec supplies uniforms (used directly for random
phi sampling, drawn before sorting) and standard normals via the Box-Muller
transform on consecutive uniform pairs.

Plots are written, as text straight from the float64 arrays of each
series (a block of points per ``%`` call), in a small SVG 1.1 subset --
svg, g, polyline, circle, line, text only -- with the resolved data ranges
and margins embedded as ``data-*`` attributes on the root element, so
coordinates can be mapped back to data space textually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterator, Sequence, Union
from xml.etree import ElementTree as ET

import numpy as np

from .errors import (
    EmptyPlot,
    MalformedHeader,
    MalformedRecord,
    NonFiniteSample,
    NonFiniteValue,
)
from .fit import DataSet
from .model import TransitionParams, piecewise_limit, value

_HEADER = "phi,F"

_BLOCK_ROWS = 4096  # rows per ``%`` call in _format_rows

SERIES_ROLES = ("model-curve", "data-points", "limit-curve")

_SVG_NS = "http://www.w3.org/2000/svg"

# Plot margins in pixels, left/right/top/bottom.
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64.0, 20.0, 20.0, 48.0

_STYLE = {
    "model-curve": {"stroke": "#1f77b4"},
    "limit-curve": {"stroke": "#d62728", "stroke-dasharray": "6,3"},
}


def read_dataset(source: Union[bytes, str, IO[bytes]]) -> DataSet:
    """Parse ``phi,F`` CSV (UTF-8 bytes, text, or a binary stream) into a
    DataSet sorted by phi.

    Raises MalformedHeader when the first significant line is not exactly
    ``phi,F``, MalformedRecord / NonFiniteValue (each carrying the 1-based
    line number) for bad records.  The body is parsed in one
    ``np.loadtxt`` call; on any input that call rejects or reads as
    non-finite, the line-by-line parser decides the result instead, so the
    accepted inputs and the error raised are those of :func:`_read_lines`.
    """
    raw = source.read() if hasattr(source, "read") else source
    text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
    # numpy skips U+001F around a field as whitespace; float() rejects it.
    if lines[:1] != [_HEADER] or "\x1f" in text:
        return _read_lines(text)
    table = np.empty((0, 2))
    try:
        if len(lines) > 1:  # loadtxt warns on an empty body
            table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return _read_lines(text)
    if table.shape[1] != 2 or not np.isfinite(table).all():
        return _read_lines(text)
    order = np.argsort(table[:, 0], kind="stable")
    return DataSet(table[order, 0], table[order, 1])


def _read_lines(text: str) -> DataSet:
    """The line-by-line parser: each field goes through ``float``, and the
    first bad line is named in the error."""
    pairs = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not header_seen:
            if stripped != _HEADER:
                raise MalformedHeader(
                    f"line {lineno}: expected header {_HEADER!r}, got {stripped!r}"
                )
            header_seen = True
            continue
        fields = stripped.split(",")
        if len(fields) != 2:
            raise MalformedRecord(
                lineno, f"expected 2 comma-separated fields, got {len(fields)}"
            )
        try:
            phi = float(fields[0])
            f = float(fields[1])
        except ValueError:
            raise MalformedRecord(lineno, f"unparseable number in {stripped!r}") from None
        if not (math.isfinite(phi) and math.isfinite(f)):
            raise NonFiniteValue(lineno, f"non-finite value in {stripped!r}")
        pairs.append((phi, f))
    if not header_seen:
        raise MalformedHeader("missing 'phi,F' header")
    return DataSet.from_points(pairs)


def _format_rows(template: str, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """``template % row`` for every row of the equal-length float64
    ``columns``, a block of rows per ``%`` call, so that no more than one
    block is held as Python floats at a time."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns])
        yield (template * len(block)) % tuple(block.ravel().tolist())


def write_dataset(data: DataSet) -> bytes:
    """Serialize a DataSet in the CSV dialect with 17 significant digits
    (enough for an exact float64 round-trip)."""
    rows = _format_rows("%.17g,%.17g\n", (data.phi, data.f))
    return (_HEADER + "\n" + "".join(rows)).encode("utf-8")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a reproducible synthetic dataset.

    ``sampling``: "grid" for n uniform phi values spanning [phi_lo, phi_hi]
    (a single point degenerates to phi_lo), "random" for n uniform draws,
    sorted ascending.  ``model``: "smooth" evaluates the smooth observable,
    "piecewise" its sharp limit.  Gaussian noise of standard deviation
    ``noise_sigma`` is added after sorting, one draw per point in phi order,
    using Box-Muller on the same PCG64 stream; equal specs therefore yield
    byte-identical datasets.
    """

    params: TransitionParams
    n: int
    phi_lo: float
    phi_hi: float
    noise_sigma: float = 0.0
    seed: int = 0
    sampling: str = "grid"
    model: str = "smooth"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        if not self.phi_lo < self.phi_hi:
            raise ValueError(
                f"need phi_lo < phi_hi, got {self.phi_lo!r}, {self.phi_hi!r}"
            )
        if self.noise_sigma < 0.0 or not math.isfinite(self.noise_sigma):
            raise ValueError(f"noise_sigma must be finite and >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer")
        if self.sampling not in ("grid", "random"):
            raise ValueError(f"sampling must be 'grid' or 'random', got {self.sampling!r}")
        if self.model not in ("smooth", "piecewise"):
            raise ValueError(f"model must be 'smooth' or 'piecewise', got {self.model!r}")


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on consecutive uniform pairs."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)  # in (0, 1], keeps the log finite
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    z = np.empty(2 * m)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


def generate_synthetic(spec: SyntheticSpec) -> DataSet:
    """Deterministically generate the dataset described by ``spec``."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.sampling == "grid":
        phis = np.linspace(spec.phi_lo, spec.phi_hi, spec.n)
    else:
        phis = np.sort(
            spec.phi_lo + (spec.phi_hi - spec.phi_lo) * rng.random(spec.n)
        )
    f = (value if spec.model == "smooth" else piecewise_limit)(phis, spec.params)
    if spec.noise_sigma > 0.0:
        f = f + spec.noise_sigma * _standard_normals(rng, spec.n)
    return DataSet(phis, f)


@dataclass(frozen=True, eq=False)
class Series:
    """One plot series: a role and two read-only float64 arrays of equal,
    non-zero length.  The arrays are copies of what was passed (any
    sequence of numbers).  Role "data-points" renders as circles; the curve
    roles ("model-curve", "limit-curve") render as one polyline each."""

    role: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.role not in SERIES_ROLES:
            raise ValueError(f"role must be one of {SERIES_ROLES}, got {self.role!r}")
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError(f"x and y must be 1-D, got shapes {x.shape} and {y.shape}")
        if x.size != y.size:
            raise ValueError("x and y must have equal length")
        if not x.size:
            raise ValueError("series must contain at least one point")
        for name, arr in (("x", x), ("y", y)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PlotSpec:
    """The series to draw and the figure size in pixels.  The margins are
    fixed (64 left, 20 right, 20 top, 48 bottom), so ``width`` must exceed
    84 and ``height`` 68; each axis spans the data envelope padded by 5%
    of its extent (by max(0.5, |lo|/2) when that 5% is 0, as when all
    values equal lo)."""

    series: tuple[Series, ...]
    width: float = 640.0
    height: float = 480.0

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        if self.width <= _MARGIN_LEFT + _MARGIN_RIGHT:
            raise ValueError("width must exceed the horizontal margins")
        if self.height <= _MARGIN_TOP + _MARGIN_BOTTOM:
            raise ValueError("height must exceed the vertical margins")


@dataclass(frozen=True)
class PlotGeometry:
    """Affine map between data space and pixel space, as embedded in the
    root element of rendered SVG documents."""

    width: float
    height: float
    margin_left: float
    margin_right: float
    margin_top: float
    margin_bottom: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def to_pixel(self, x, y):
        """Pixel coordinates of data point(s); elementwise on arrays."""
        px = self.margin_left + (x - self.x_min) / (self.x_max - self.x_min) * (
            self.width - self.margin_left - self.margin_right
        )
        py = self.height - self.margin_bottom - (y - self.y_min) / (
            self.y_max - self.y_min
        ) * (self.height - self.margin_top - self.margin_bottom)
        return px, py

    def to_data(self, px: float, py: float) -> tuple[float, float]:
        x = self.x_min + (px - self.margin_left) / (
            self.width - self.margin_left - self.margin_right
        ) * (self.x_max - self.x_min)
        y = self.y_min + (self.height - self.margin_bottom - py) / (
            self.height - self.margin_top - self.margin_bottom
        ) * (self.y_max - self.y_min)
        return x, y


def _padded_range(axis: str, arrays: list[np.ndarray]) -> tuple[float, float]:
    """The envelope of ``arrays`` padded by 5% of its extent (by
    max(0.5, |lo|/2) when that 5% is 0: all values are equal, or the extent
    is so small that 5% of it underflows); NonFiniteSample when the padded
    range overflows."""
    lo = min(float(a.min()) for a in arrays)
    hi = max(float(a.max()) for a in arrays)
    pad = 0.05 * (hi - lo)
    if pad == 0.0:  # all values equal, or 5% of a subnormal extent underflows
        pad = max(0.5, abs(lo) * 0.5)
    lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise NonFiniteSample(f"{axis} axis: padded data range [{lo!r}, {hi!r}] overflows")
    return lo, hi


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round-number tick positions (1/2/5 times a power of ten) within
    [lo, hi]."""
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    k0 = math.ceil(lo / step - 1e-9)
    k1 = math.floor(hi / step + 1e-9)
    return [k * step for k in range(k0, k1 + 1)]


def _px(v: float) -> str:
    return f"{v:.2f}"


def svg_geometry(doc: bytes) -> PlotGeometry:
    """Recover the data<->pixel mapping from a rendered SVG document."""
    root = ET.fromstring(doc)
    return PlotGeometry(
        width=float(root.get("width")),
        height=float(root.get("height")),
        margin_left=float(root.get("data-margin-left")),
        margin_right=float(root.get("data-margin-right")),
        margin_top=float(root.get("data-margin-top")),
        margin_bottom=float(root.get("data-margin-bottom")),
        x_min=float(root.get("data-x-min")),
        x_max=float(root.get("data-x-max")),
        y_min=float(root.get("data-y-min")),
        y_max=float(root.get("data-y-max")),
    )


def _tag(name: str, attrs: dict[str, str], body: str = "") -> str:
    """One element as text, laid out as ElementTree serialises it."""
    opening = name + "".join(f' {k}="{v}"' for k, v in attrs.items())
    return f"<{opening}>{body}</{name}>" if body else f"<{opening} />"


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return _tag("line", {"x1": _px(x1), "y1": _px(y1), "x2": _px(x2), "y2": _px(y2)})


def render_svg(spec: PlotSpec) -> bytes:
    """Render a PlotSpec to a deterministic, well-formed SVG document.

    Only svg, g, polyline, circle, line and text elements are emitted.
    Pixel coordinates carry two decimals; the root element carries the
    resolved axis ranges and margins (full precision) for textual read-back
    via :func:`svg_geometry`.  Each series is mapped to pixels in one array
    operation and the document is written directly as text.  Raises
    EmptyPlot without series and NonFiniteSample on non-finite coordinates
    or an axis range that overflows.
    """
    if not spec.series:
        raise EmptyPlot("plot spec contains no series")
    for s in spec.series:
        values = np.concatenate((s.x, s.y))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteSample(f"series {s.role!r} contains {float(values[bad[0]])!r}")
    x_min, x_max = _padded_range("x", [s.x for s in spec.series])
    y_min, y_max = _padded_range("y", [s.y for s in spec.series])
    geom = PlotGeometry(
        spec.width, spec.height, _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM,
        x_min, x_max, y_min, y_max,
    )

    # Written as text without XML escaping: every attribute value and text
    # node below is a formatted number, a fixed colour or style string, or
    # a role from SERIES_ROLES, none of which contains &, <, > or a quote.
    x0_px, y0_px = geom.to_pixel(x_min, y_min)
    x1_px, y1_px = geom.to_pixel(x_max, y_max)
    axes = [_line(x0_px, y0_px, x1_px, y0_px), _line(x0_px, y0_px, x0_px, y1_px)]
    for axis, lo, hi in (("x", x_min, x_max), ("y", y_min, y_max)):
        for tick in _nice_ticks(lo, hi):
            if axis == "x":  # below the axis, centred
                px, _ = geom.to_pixel(tick, y_min)
                axes.append(_line(px, y0_px, px, y0_px + 5.0))
                label_x, label_y, anchor = px, y0_px + 18.0, "middle"
            else:  # left of the axis, right-aligned
                _, py = geom.to_pixel(x_min, tick)
                axes.append(_line(x0_px - 5.0, py, x0_px, py))
                label_x, label_y, anchor = x0_px - 8.0, py + 4.0, "end"
            label = {
                "x": _px(label_x),
                "y": _px(label_y),
                "text-anchor": anchor,
                "font-size": "11",
                "stroke": "none",
                "fill": "#000000",
            }
            axes.append(_tag("text", label, f"{tick:g}"))

    chart = []
    for s in spec.series:
        pixels = geom.to_pixel(s.x, s.y)
        if s.role == "data-points":
            circles = "".join(_format_rows('<circle cx="%.2f" cy="%.2f" r="3" />', pixels))
            style = {"class": s.role, "fill": "#555555", "fill-opacity": "0.7"}
            chart.append(_tag("g", style, circles))
        else:
            attrs = {
                "class": s.role,
                "fill": "none",
                "stroke-width": "1.5",
                "points": "".join(_format_rows("%.2f,%.2f ", pixels))[:-1],
                **_STYLE[s.role],
            }
            chart.append(_tag("polyline", attrs))

    root = {
        "xmlns": _SVG_NS,
        "version": "1.1",
        "width": f"{spec.width:.17g}",
        "height": f"{spec.height:.17g}",
        "viewBox": f"0 0 {spec.width:.17g} {spec.height:.17g}",
        "data-margin-left": f"{_MARGIN_LEFT:.17g}",
        "data-margin-right": f"{_MARGIN_RIGHT:.17g}",
        "data-margin-top": f"{_MARGIN_TOP:.17g}",
        "data-margin-bottom": f"{_MARGIN_BOTTOM:.17g}",
        "data-x-min": f"{x_min:.17g}",
        "data-x-max": f"{x_max:.17g}",
        "data-y-min": f"{y_min:.17g}",
        "data-y-max": f"{y_max:.17g}",
    }
    body = _tag("g", {"id": "axes", "stroke": "#000000"}, "".join(axes)) + _tag(
        "g", {"id": "series"}, "".join(chart)
    )
    return ("<?xml version='1.0' encoding='utf-8'?>\n" + _tag("svg", root, body)).encode()
