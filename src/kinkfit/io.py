"""DataSet, its CSV I/O, reproducible synthetic data, and a minimal SVG renderer.

:class:`DataSet` is the one in-memory form of observations: sorted by phi,
finite, read-only float64.  This module imports only ``model`` and
``errors``, so the commands that load it load ``fit`` only to fit.

The CSV dialect is a mandatory ``phi,F`` header followed by two decimal
numbers per line (optional exponent); blank lines and ``#`` comments are
skipped.  Values are written with 17 significant digits so that
write -> read round-trips are bit-exact.  Reading runs ``np.loadtxt`` on
newline-cut slices of about 128 KiB, one at a time; the line-by-line parser
reads the whole input only when a slice fails or reads a non-finite value,
to name the first bad line.  Writing, here and in ``eval``, formats and
emits a block of rows at a time: ``%.17g`` row tables exactly in numpy
(``%`` splices in values outside [1e-4, 1e17)), other templates with ``%``.

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

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EmptyPlot,
    MalformedHeader,
    MalformedRecord,
    NonFiniteSample,
    NonFiniteValue,
)
from .model import TransitionParams, piecewise_limit, value

_HEADER = "phi,F"

_BLOCK_ROWS = 4096  # rows per block in _format_rows
_READ_BLOCK = 1 << 17  # bytes per slice in read_dataset
_TICKS = 5  # most tick intervals per axis in _nice_ticks

_POW10 = 10.0 ** np.arange(21)  # 10**k is an exact double for k <= 22
# 1e-4 ... 1e17; the double nearest each negative power of ten lies above it,
# so 10**x <= |v| < 10**(x + 1) holds exactly for v between two of them.
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 18)])
# A fixed-notation %.17g field is drawn from at most 39 columns: "-", "0",
# ".", three zeros, then the 17 digits with a "." slot after each of the
# first 16.  _SOURCE[c] is column c's byte in a value's 20-byte record
# ("-.0" and the digits).
_SOURCE = np.array([0, 2, 1, 2, 2, 2] + [c for j in range(3, 20) for c in (j, 1)][:-1])


@functools.cache  # built on first use: importing for plot, fit or check skips it
def _fixed17_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each i < 10**4 as four ASCII digits packed in a uint32, then "-.0d"
    for each leading digit d at 10**4 + d; and whether column c is printed
    at [code, c], for code = ((x + 4) * 17 + s - 1) * 2 + negative, where x
    in [-4, 16] is the decimal exponent and s the significant digits."""
    digits = np.vstack([
        np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + 48,
        np.c_[np.tile([45, 46, 48], (10, 1)), 48:58],
    ]).astype(np.uint8).view(np.uint32).ravel()
    grid = np.meshgrid(np.arange(-4, 17), np.arange(1, 18), [False, True], indexing="ij")
    x, s, negative = (v.reshape(-1, 1) for v in grid)
    printed = np.maximum(s, x + 1)  # digits: the significant ones and all before the point
    keep = np.empty((len(x), 39), bool)
    keep[:, :1], keep[:, 1:3], keep[:, 3:6] = negative, x < 0, np.arange(1, 4) < -x
    keep[:, 6::2] = np.arange(17) < printed
    keep[:, 7::2] = (np.arange(16) == x) & (printed > np.arange(1, 17))
    return digits, keep


SERIES_ROLES = ("model-curve", "data-points", "limit-curve")

_SVG_NS = "http://www.w3.org/2000/svg"

# Plot margins in pixels, left/right/top/bottom.
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64.0, 20.0, 20.0, 48.0

_STYLE = {
    "model-curve": {"stroke": "#1f77b4"},
    "limit-curve": {"stroke": "#d62728", "stroke-dasharray": "6,3"},
}


def _read_only_pair(obj, a: str, b: str) -> tuple[np.ndarray, np.ndarray]:
    """Replace the fields ``a`` and ``b`` of the frozen dataclass ``obj`` by
    read-only float64 copies, which must be 1-D and of equal length."""
    u, v = (np.array(getattr(obj, name), dtype=np.float64) for name in (a, b))
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(
            f"{a} and {b} must be 1-D and of equal length, got shapes {u.shape} and {v.shape}"
        )
    for name, arr in ((a, u), (b, v)):
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)
    return u, v


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
        phi, f = _read_only_pair(self, "phi", "f")
        bad = np.flatnonzero(~(np.isfinite(phi) & np.isfinite(f)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"non-finite observation ({float(phi[i])!r}, {float(f[i])!r})")
        if np.any(phi[1:] < phi[:-1]):
            raise ValueError("points must be sorted by phi; use from_points()")

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


def _distinct(x: np.ndarray) -> np.ndarray:
    """``np.unique`` of a sorted array, without sorting again or loading numpy.ma."""
    return np.concatenate((x[:1], x[1:][x[1:] != x[:-1]]))


def read_dataset(raw: bytes) -> DataSet:
    """Parse ``phi,F`` CSV, given as UTF-8 bytes, into a DataSet sorted by
    phi.

    Raises MalformedHeader when the first significant line is not exactly
    ``phi,F``, MalformedRecord / NonFiniteValue (each carrying the 1-based
    line number) for bad records.  Slices of about ``_READ_BLOCK`` bytes,
    cut after a newline, are decoded and parsed by ``np.loadtxt`` one at a
    time; if one fails to decode, or loadtxt rejects it or reads a
    non-finite value, :func:`_read_lines` decides the result from the whole
    input, so the accepted inputs and errors are the line parser's.  The
    parsed table is reordered only when phi decreases somewhere.
    """
    start, tables, header_seen = 0, [np.empty((0, 2))], False
    try:
        while start < len(raw):
            # Cut after a "\n": "\r\n" and UTF-8 sequences stay whole, lines unchanged.
            end = raw.find(b"\n", start + _READ_BLOCK - 1) + 1 or len(raw)
            text = raw[start:end].decode("utf-8")
            start, lines = end, text.splitlines()
            # loadtxt would take a comment for a field, and raises on a blank line.
            if "#" in text or any(map(str.isspace, lines)):
                lines = [s for s in map(str.strip, lines) if s and not s.startswith("#")]
            if not header_seen and any(lines):  # the first significant line
                head = next(i for i, s in enumerate(lines) if s)
                if lines[head].strip() != _HEADER:
                    raise ValueError("header")
                header_seen, lines = True, lines[head + 1 :]
            if any(lines):  # loadtxt warns on an empty body
                table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
                # numpy skips U+001F around a field as whitespace; float() rejects it.
                if table.shape[1] != 2 or not np.isfinite(table).all() or "\x1f" in text:
                    raise ValueError("records")
                tables.append(table)
        if not header_seen:
            raise ValueError("header")
    except ValueError:  # including UnicodeDecodeError
        return _read_lines(raw.decode("utf-8"))
    table = np.concatenate(tables)
    del tables  # sorted input now peaks at two copies of the table: this one and DataSet's
    if np.any(table[1:, 0] < table[:-1, 0]):  # a stable sort of sorted keys is the identity
        table = table[np.argsort(table[:, 0], kind="stable")]
    return DataSet(table[:, 0], table[:, 1])


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


def _two_product(a, b):
    """Dekker's TwoProduct: p + err == a * b exactly, for arrays or scalars
    of one float type, from Veltkamp's split of each factor into halves."""
    split = a.dtype.type(2 ** ((np.finfo(a.dtype).nmant + 2) // 2) + 1)
    (a1, a2), (b1, b2) = ((hi := v * split - (v * split - v), v - hi) for v in (a, b))
    p = a * b
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _round_scaled(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a * 10**(16 - x)`` rounded half to even, exactly: Dekker's
    TwoProduct gives ``p + err`` equal to the product, and p is an even
    integer once it reaches 2**53, so rounding err rounds the sum."""
    p, err = _two_product(a, _POW10[16 - x])
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _format_fixed17(literals: list[str], block: np.ndarray) -> str:
    """``"%.17g".join(literals) % row`` for every row of the float64
    ``block``, in numpy; a value outside [1e-4, 1e17) in magnitude, where
    ``%.17g`` may print zero or an exponent, is formatted by ``%`` alone."""
    a = np.abs(block)
    x = np.searchsorted(_DECADES, a, side="right") - 5  # decimal exponent; nan sorts last
    odd = (x < -4) | (x > 16)
    a, x = np.where(odd, 1.0, a), np.where(odd, 0, x)
    d = _round_scaled(a, x)  # the 17 significant digits
    odd |= (d < 10**16) | (d >= 10**17)  # as when rounding carries to 10**(x + 1)
    d[odd] = 10**16
    texts = np.array(_percent("%.17g ", block[odd][:, None]).encode().split(), "S")
    spliced = np.zeros(block.shape + (texts.itemsize,), np.uint8)  # each odd value's text
    spliced[odd] = texts.view(np.uint8).reshape(len(texts), texts.itemsize)
    high, low = (half.astype(np.uint32) for half in np.divmod(d, 10**8))
    groups = np.empty(block.shape + (5,), np.intp)  # the lead, then four digits each
    groups[..., 0] = high // 10**8 + 10**4
    groups[..., 1], groups[..., 2] = np.divmod(high % 10**8, 10**4)
    groups[..., 3], groups[..., 4] = np.divmod(low, 10**4)
    digits, table = _fixed17_tables()
    record = np.take(digits, groups).view(np.uint8)
    zeros = np.argmax(record[..., :2:-1] != 48, axis=-1)  # trailing zero digits
    m, k = block.shape
    code = ((x + 4) * 17 + 16 - zeros) * 2 + (block < 0)
    chars, keep = [], []
    for j, literal in enumerate(literals):
        lit = np.frombuffer(literal.encode(), np.uint8)
        chars.append(np.broadcast_to(lit, (m, lit.size)))
        keep.append(np.broadcast_to(True, (m, lit.size)))
        if j < k:  # the columns some value of the block prints, or the spliced text
            seen = np.bincount(code[:, j], minlength=len(table)) > 0
            cols = np.flatnonzero(table[seen].any(axis=0))
            chars += [record[:, j][:, _SOURCE[cols]], spliced[:, j]]
            kept = np.take(table[:, cols], code[:, j], axis=0) & ~odd[:, j, None]
            keep += [kept, spliced[:, j] != 0]
    text = np.concatenate(chars, axis=1)[np.concatenate(keep, axis=1)]
    return text.tobytes().decode("ascii")


def _percent(template: str, block: np.ndarray) -> str:
    """``template % row`` for every row of ``block``, in one ``%`` call."""
    return (template * len(block)) % tuple(block.ravel().tolist())


def _format_rows(template: str, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """``template % row`` for every row of the equal-length float64
    ``columns``, a block of rows at a time, so that no more than one block
    is held as Python floats at a time.  A template of ``%.17g``
    conversions and ASCII text goes to the exact numpy kernel
    :func:`_format_fixed17`; other templates take one ``%`` call per block,
    the kernel's test oracle."""
    literals = template.split("%.17g")  # the kernel's template: each "%" begins a %.17g
    exact = len(literals) - 1 == template.count("%") == len(columns) and template.isascii()
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns])
        yield _format_fixed17(literals, block) if exact else _percent(template, block)


def _dataset_chunks(data: DataSet) -> Iterator[bytes]:
    """The CSV of ``data``, encoded: the header, then a block of rows each."""
    yield (_HEADER + "\n").encode()
    yield from map(str.encode, _format_rows("%.17g,%.17g\n", (data.phi, data.f)))


def write_dataset(data: DataSet) -> bytes:
    """Serialize a DataSet in the CSV dialect with 17 significant digits
    (enough for an exact float64 round-trip): :func:`_dataset_chunks`, joined."""
    return b"".join(_dataset_chunks(data))


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
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.sampling not in ("grid", "random"):
            raise ValueError(f"sampling must be 'grid' or 'random', got {self.sampling!r}")
        if self.model not in ("smooth", "piecewise"):
            raise ValueError(f"model must be 'smooth' or 'piecewise', got {self.model!r}")


def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via Box-Muller on consecutive uniform pairs.  The
    radius is finished before the angle's uniforms are drawn, and the cos
    and sin products go straight into the even and odd slots of the
    result, so no uniform array is held beside the radius and the angle."""
    m = (n + 1) // 2
    radius = np.sqrt(-2.0 * np.log(1.0 - rng.random(m)))  # 1 - u1 in (0, 1]: finite log
    angle = 2.0 * math.pi * rng.random(m)
    z = np.empty(2 * m)
    np.multiply(radius, np.cos(angle), out=z[0::2])
    np.multiply(radius, np.sin(angle), out=z[1::2])
    return z[:n]


def generate_synthetic(spec: SyntheticSpec) -> DataSet:
    """Deterministically generate the dataset described by ``spec``.  The
    random phi are sorted in place, so no second n-long copy is made."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.sampling == "grid":
        phis = np.linspace(spec.phi_lo, spec.phi_hi, spec.n)
    else:
        phis = spec.phi_lo + (spec.phi_hi - spec.phi_lo) * rng.random(spec.n)
        phis.sort()
    f = (value if spec.model == "smooth" else piecewise_limit)(phis, spec.params)
    if spec.noise_sigma > 0.0:
        f = f + spec.noise_sigma * _standard_normals(rng, spec.n)
    return DataSet(phis, f)


@dataclass(frozen=True, eq=False)
class Series:
    """One plot series: a role and two read-only, finite float64 arrays of
    equal, non-zero length, copied from any sequence of numbers (the first
    non-finite x, else y, raises NonFiniteSample).  Role "data-points"
    renders as circles; the curve roles render as one polyline each."""

    role: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.role not in SERIES_ROLES:
            raise ValueError(f"role must be one of {SERIES_ROLES}, got {self.role!r}")
        x, y = _read_only_pair(self, "x", "y")
        if not x.size:
            raise ValueError("series must contain at least one point")
        for values in (x, y):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise NonFiniteSample(f"series {self.role!r} contains {float(values[bad[0]])!r}")


@dataclass(frozen=True)
class PlotSpec:
    """The series to draw, the figure size in pixels, and the ``geometry``
    they resolve to.  The margins are fixed (64 left, 20 right, 20 top, 48
    bottom), so ``width`` must be finite and exceed 84 and ``height`` finite
    and exceed 68.  Each axis spans the data envelope padded by 5% of its
    extent (by max(0.5, |lo|/2) when that 5% is 0, as when all values equal
    lo).  Raises EmptyPlot without series, NonFiniteSample if a range overflows."""

    series: tuple[Series, ...]
    width: float = 640.0
    height: float = 480.0
    geometry: PlotGeometry = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        if not _MARGIN_LEFT + _MARGIN_RIGHT < self.width < math.inf:  # nan fails too
            raise ValueError(f"width must be finite and exceed the margins, got {self.width!r}")
        if not _MARGIN_TOP + _MARGIN_BOTTOM < self.height < math.inf:
            raise ValueError(f"height must be finite and exceed the margins, got {self.height!r}")
        if not self.series:
            raise EmptyPlot("plot spec contains no series")
        object.__setattr__(self, "geometry", PlotGeometry(
            self.width, self.height, _MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM,
            *_padded_range("x", [s.x for s in self.series]),
            *_padded_range("y", [s.y for s in self.series]),
        ))


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


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round-number tick positions (1/2/5 times a power of ten) within
    [lo, hi]: the finest such step with at most ``_TICKS`` intervals."""
    span = hi - lo
    mag = 10.0 ** math.floor(math.log10(span / _TICKS))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * mag) <= _TICKS:
            step = mult * mag
            break
    k0 = math.ceil(lo / step - 1e-9)
    k1 = math.floor(hi / step + 1e-9)
    return [k * step for k in range(k0, k1 + 1)]


def _px(v: float) -> str:
    return f"{v:.2f}"


def _root_attr(name: str) -> str:
    """The root attribute that carries the PlotGeometry field ``name``."""
    return name if name in ("width", "height") else "data-" + name.replace("_", "-")


def svg_geometry(doc: bytes) -> PlotGeometry:
    """Recover the data<->pixel mapping from a rendered SVG document."""
    from xml.etree import ElementTree as ET  # only the tests and benchmarks read SVG back
    root = ET.fromstring(doc)
    return PlotGeometry(*(float(root.get(_root_attr(f.name))) for f in fields(PlotGeometry)))


def _tag(name: str, attrs: dict[str, str], body: str | None = "") -> str:
    """One element as text, laid out as ElementTree serialises it; only
    its start tag when ``body`` is None."""
    opening = name + "".join(f' {k}="{v}"' for k, v in attrs.items())
    if body is None:
        return f"<{opening}>"
    return f"<{opening}>{body}</{name}>" if body else f"<{opening} />"


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return _tag("line", {"x1": _px(x1), "y1": _px(y1), "x2": _px(x2), "y2": _px(y2)})


def render_svg(spec: PlotSpec) -> bytes:
    """Render a PlotSpec to a deterministic, well-formed SVG document.

    Only svg, g, polyline, circle, line and text elements are emitted.
    Pixel coordinates carry two decimals; the root element carries the
    spec's geometry, its axis ranges and margins in full precision, for
    textual read-back via :func:`svg_geometry`.  Each series is mapped to
    pixels in one array operation; the document is :func:`_svg_chunks`,
    joined.  A spec is checked when it is built, so rendering refuses none.
    """
    return b"".join(_svg_chunks(spec))


def _svg_chunks(spec: PlotSpec) -> Iterator[bytes]:
    """:func:`render_svg`'s document as encoded text: the head, each curve's
    polyline, a scatter's tags and its circles a block at a time, the tail."""
    geom = spec.geometry
    # Written as text without XML escaping: every attribute value and text
    # node below is a formatted number, a fixed colour or style string, or
    # a role from SERIES_ROLES, none of which contains &, <, > or a quote.
    x0_px, y0_px = geom.to_pixel(geom.x_min, geom.y_min)
    x1_px, y1_px = geom.to_pixel(geom.x_max, geom.y_max)
    axes = [_line(x0_px, y0_px, x1_px, y0_px), _line(x0_px, y0_px, x0_px, y1_px)]
    for axis, lo, hi in (("x", geom.x_min, geom.x_max), ("y", geom.y_min, geom.y_max)):
        for tick in _nice_ticks(lo, hi):
            if axis == "x":  # below the axis, centred
                px, _ = geom.to_pixel(tick, geom.y_min)
                axes.append(_line(px, y0_px, px, y0_px + 5.0))
                label_x, label_y, anchor = px, y0_px + 18.0, "middle"
            else:  # left of the axis, right-aligned
                _, py = geom.to_pixel(geom.x_min, tick)
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

    root = {
        "xmlns": _SVG_NS,
        "version": "1.1",
        "width": f"{spec.width:.17g}",
        "height": f"{spec.height:.17g}",
        "viewBox": f"0 0 {spec.width:.17g} {spec.height:.17g}",
        **{_root_attr(k): f"{v:.17g}" for k, v in list(vars(geom).items())[2:]},  # margins, ranges
    }
    axes = _tag("g", {"id": "axes", "stroke": "#000000"}, "".join(axes))
    yield ("<?xml version='1.0' encoding='utf-8'?>\n" + _tag("svg", root, None) + axes
           + '<g id="series">').encode()
    for s in spec.series:
        pixels = geom.to_pixel(s.x, s.y)
        if s.role == "data-points":
            style = {"class": s.role, "fill": "#555555", "fill-opacity": "0.7"}
            yield _tag("g", style, None).encode()
            circles = _format_rows('<circle cx="%.2f" cy="%.2f" r="3" />', pixels)
            yield from map(str.encode, circles)
            yield b"</g>"
        else:
            attrs = {
                "class": s.role,
                "fill": "none",
                "stroke-width": "1.5",
                "points": "".join(_format_rows("%.2f,%.2f ", pixels))[:-1],
                **_STYLE[s.role],
            }
            yield _tag("polyline", attrs).encode()
    yield b"</g></svg>"
