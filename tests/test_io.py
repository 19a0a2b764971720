"""CSV round-trips, documented-PRNG synthetic data, and SVG structure tests.

The SVG checks never trust the renderer's own numbers: they re-read the
emitted document with a strict XML parser and invert the affine transform
stored in the root attributes, so every geometric assertion is against the
bytes a consumer would actually see.
"""

from __future__ import annotations

import io as stdio
import math
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinkfit.io as kio
from kinkfit import (
    DataSet,
    PlotGeometry,
    PlotSpec,
    Series,
    SyntheticSpec,
    TransitionParams,
    generate_synthetic,
    piecewise_limit,
    read_dataset,
    render_svg,
    svg_geometry,
    value,
    write_dataset,
)
from kinkfit.io import SERIES_ROLES
from kinkfit.errors import (
    EmptyPlot,
    MalformedHeader,
    MalformedRecord,
    NonFiniteSample,
    NonFiniteValue,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def polyline_points(element: ET.Element) -> list[tuple[float, float]]:
    return [
        tuple(float(c) for c in pair.split(","))
        for pair in element.get("points").split()
    ]


def element_tree_render_svg(spec: PlotSpec) -> bytes:
    """Reference renderer: one ElementTree element and one scalar
    ``to_pixel`` call per point, as :func:`render_svg` worked before it
    wrote the document as text from arrays."""
    xs = [v for s in spec.series for v in s.x.tolist()]
    ys = [v for s in spec.series for v in s.y.tolist()]

    def padded(values):
        lo, hi = min(values), max(values)
        pad = 0.05 * (hi - lo)
        if pad == 0.0:
            pad = max(0.5, abs(lo) * 0.5)
        return lo - pad, hi + pad

    (x_min, x_max), (y_min, y_max) = padded(xs), padded(ys)
    margins = (kio._MARGIN_LEFT, kio._MARGIN_RIGHT, kio._MARGIN_TOP, kio._MARGIN_BOTTOM)
    geom = PlotGeometry(spec.width, spec.height, *margins, x_min, x_max, y_min, y_max)
    px = kio._px
    names = ("left", "right", "top", "bottom")
    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg", "version": "1.1",
        "width": f"{spec.width:.17g}", "height": f"{spec.height:.17g}",
        "viewBox": f"0 0 {spec.width:.17g} {spec.height:.17g}",
        **{f"data-margin-{n}": f"{m:.17g}" for n, m in zip(names, margins)},
        "data-x-min": f"{x_min:.17g}", "data-x-max": f"{x_max:.17g}",
        "data-y-min": f"{y_min:.17g}", "data-y-max": f"{y_max:.17g}",
    })
    axes = ET.SubElement(root, "g", {"id": "axes", "stroke": "#000000"})
    x0, y0 = geom.to_pixel(x_min, y_min)
    x1, y1 = geom.to_pixel(x_max, y_max)

    def line(a, b, c, d):
        ET.SubElement(axes, "line", {"x1": px(a), "y1": px(b), "x2": px(c), "y2": px(d)})

    def label(x, y, anchor, tick):
        ET.SubElement(axes, "text", {
            "x": px(x), "y": px(y), "text-anchor": anchor, "font-size": "11",
            "stroke": "none", "fill": "#000000",
        }).text = f"{tick:g}"

    line(x0, y0, x1, y0)
    line(x0, y0, x0, y1)
    for tick in kio._nice_ticks(x_min, x_max):
        tx, _ = geom.to_pixel(tick, y_min)
        line(tx, y0, tx, y0 + 5.0)
        label(tx, y0 + 18.0, "middle", tick)
    for tick in kio._nice_ticks(y_min, y_max):
        _, ty = geom.to_pixel(x_min, tick)
        line(x0 - 5.0, ty, x0, ty)
        label(x0 - 8.0, ty + 4.0, "end", tick)
    chart = ET.SubElement(root, "g", {"id": "series"})
    for s in spec.series:
        pixels = [geom.to_pixel(x, y) for x, y in zip(s.x.tolist(), s.y.tolist())]
        if s.role == "data-points":
            group = ET.SubElement(
                chart, "g", {"class": s.role, "fill": "#555555", "fill-opacity": "0.7"}
            )
            for cx, cy in pixels:
                ET.SubElement(group, "circle", {"cx": px(cx), "cy": px(cy), "r": "3"})
        else:
            points = " ".join(f"{px(a)},{px(b)}" for a, b in pixels)
            ET.SubElement(chart, "polyline", {
                "class": s.role, "fill": "none", "stroke-width": "1.5",
                "points": points, **kio._STYLE[s.role],
            })
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def plot_specs():
    """PlotSpecs of 1-3 series on a few value scales, duplicates and
    negative zero included, at sizes from just above the margins."""
    scale = st.sampled_from((1e-3, 1.0, 1e6, 1e300))
    unit = st.floats(-1.0, 1.0) | st.sampled_from((0.0, -0.0, 1.0))

    @st.composite
    def series(draw):
        n = draw(st.integers(1, 30))
        k = draw(scale)
        x = draw(st.lists(unit, min_size=n, max_size=n))
        y = draw(st.lists(unit, min_size=n, max_size=n))
        role = draw(st.sampled_from(SERIES_ROLES))
        return Series(role, [k * v for v in x], [draw(scale) * v for v in y])

    return st.builds(
        PlotSpec,
        series=st.lists(series(), min_size=1, max_size=3),
        width=st.floats(84.5, 2000.0),
        height=st.floats(68.5, 2000.0),
    )


class TestReadDataset:
    def test_records_are_sorted_by_phi(self):
        data = read_dataset(b"phi,F\n0.58,0.3\n0.57,0.2\n")
        assert list(data) == [(0.57, 0.2), (0.58, 0.3)]

    def test_header_only_gives_empty_dataset(self):
        assert len(read_dataset(b"phi,F\n")) == 0

    def test_swapped_header_rejected(self):
        with pytest.raises(MalformedHeader):
            read_dataset(b"F,phi\n0.57,0.2\n")

    def test_missing_header_rejected(self):
        with pytest.raises(MalformedHeader):
            read_dataset(b"0.57,0.2\n")

    def test_empty_input_rejected(self):
        with pytest.raises(MalformedHeader):
            read_dataset(b"")

    def test_comments_and_blank_lines_skipped(self):
        text = b"# generated\n\nphi,F\n# block\n0.5,1.0\n\n0.6,2.0\n"
        assert list(read_dataset(text)) == [(0.5, 1.0), (0.6, 2.0)]

    def test_exponent_notation_accepted(self):
        data = read_dataset(b"phi,F\n5.7e-1,1e2\n")
        assert list(data) == [(0.57, 100.0)]

    @pytest.mark.parametrize(
        "line", [b"0.5", b"0.5,1.0,2.0", b"0.5,abc", b"a,b", b"0.5;1.0"]
    )
    def test_bad_record_carries_line_number(self, line):
        with pytest.raises(MalformedRecord) as info:
            read_dataset(b"phi,F\n0.4,0.0\n" + line + b"\n")
        assert info.value.line_number == 3

    @pytest.mark.parametrize("token", [b"nan", b"inf", b"-inf", b"1e999"])
    def test_non_finite_value_carries_line_number(self, token):
        with pytest.raises(NonFiniteValue) as info:
            read_dataset(b"phi,F\n0.5," + token + b"\n")
        assert info.value.line_number == 2

    def test_accepts_text_and_binary_stream_sources(self):
        assert list(read_dataset("phi,F\n0.5,1.0\n")) == [(0.5, 1.0)]
        stream = stdio.BytesIO(b"phi,F\n0.5,1.0\n")
        assert list(read_dataset(stream)) == [(0.5, 1.0)]


def parse_outcome(parse, text: str):
    """The DataSet's bits, or the exception's type and message."""
    try:
        data = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return data.phi.tobytes(), data.f.tobytes()


def padded(text: str):
    return st.tuples(
        st.sampled_from(["", " ", "\t", "\u2003"]), st.sampled_from(["", " ", "\t"])
    ).map(lambda pad: pad[0] + text + pad[1])


number_text = st.one_of(
    finite_floats.map(repr),
    finite_floats.map(lambda x: f"{x:.17g}"),
    st.integers(-(10**20), 10**20).map(str),
)
odd_field = st.sampled_from(
    ["1_0", "\u0661", "0x10", "inf", "-inf", "nan", "1e400", "-1e400", "", "abc",
     "1e", ".", "+", "\x1f1", "1\x1f", "1 2", "#1", "1d5", "phi", "F"]
)
data_line = st.tuples(number_text, number_text).flatmap(
    lambda pair: padded(pair[0] + "," + pair[1])
)
odd_line = st.one_of(
    st.sampled_from(["", "   ", "# note", "#", "phi,F", " phi,F ", "1", "1,2,3", "1,", ",2"]),
    st.tuples(st.one_of(number_text, odd_field), odd_field)
    .flatmap(st.permutations)
    .flatmap(lambda pair: padded(",".join(pair))),
    st.lists(st.one_of(number_text, odd_field), min_size=1, max_size=3).map(",".join),
)


@st.composite
def csv_texts(draw) -> str:
    """A header (usually the right one), data lines, and up to two odd
    lines at random places, joined by LF or CRLF."""
    lines = draw(st.lists(data_line, max_size=12))
    for line in draw(st.lists(odd_line, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    header = draw(
        st.one_of(
            st.just("phi,F"),
            st.sampled_from([" phi,F\t", "# c\nphi,F", "F,phi", "phi, F", ""]),
        )
    )
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))


NAMED_CASES = [
    "phi,F\n1_0,2\n",
    "phi,F\n\u0661,2\n",
    "phi,F\n0x10,1\n",
    "phi,F\n1e400,1\n",
    "phi,F\n1,nan\n",
    "phi,F\n1\x1f,2\n",
    "phi,F\n1\n2\n",
    "phi,F\n1,2,3\n",
    "phi,F\n1,2\nphi,F\n",
    "F,phi\n1,2\n",
    "phi,F\n",
    "phi,F\r\n\r\n  0.5 , 1 \r\n# c\r\n0.25,2\r\n",
    # A whitespace-only line sends its slice to the strip pass.
    "phi,F\n0.5,1\n   \n0.25,2\n",
    "phi,F\n\t\n",
    "phi,F\n\n\n",
    "\u3000\n\tphi,F\n0.5,1\n",
    "phi,F\n\t0.5,1\t\n0.25\t,\t2\n",
    "phi,F\n0.5,1\x0c0.25,2\x0c\x0c\n",
    "phi,F\n\u30000.5,1\u3000\n\u3000\n",
    # Leading blank and comment runs longer than a few-byte slice.
    "\n\n  \n\t\n\n# c\r\n\r\n \r\nphi,F\r\n0.5,1\r\n",
    "\n\n\n\n\n\n\n\nF,phi\n1,2\n",
    "\n \n\t\n# phi,F\n",
]


class TestBulkRead:
    """The bulk parse (``np.loadtxt`` over newline-cut slices) against the
    line-by-line parser it falls back to: the same DataSet bits, or the same
    exception type and message."""

    @given(csv_texts())
    def test_matches_line_parser(self, text):
        assert parse_outcome(read_dataset, text) == parse_outcome(kio._read_lines, text)

    @pytest.mark.parametrize("text", NAMED_CASES)
    def test_named_cases_match_line_parser(self, text):
        assert parse_outcome(read_dataset, text) == parse_outcome(kio._read_lines, text)

    @given(csv_texts(), st.sampled_from([1, 2, 5, 11]))
    def test_few_byte_slices_match_line_parser(self, text, block):
        """Slices of a few bytes or characters: the cut targets fall inside
        headers, CRLF pairs, comments and blank runs."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kio, "_READ_BLOCK", block)
            for source in (text, text.encode()):
                assert parse_outcome(read_dataset, source) == parse_outcome(kio._read_lines, text)

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_named_cases_in_few_byte_slices(self, block, monkeypatch):
        monkeypatch.setattr(kio, "_READ_BLOCK", block)
        for text in NAMED_CASES:
            for source in (text, text.encode()):
                assert parse_outcome(read_dataset, source) == parse_outcome(kio._read_lines, text)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blank_and_comment_lines_stay_on_the_bulk_path(self, block, monkeypatch):
        """A whitespace-only line and a comment in later slices take each
        slice's strip pass, and no cut splits a line: the line parser,
        which would mask either, never runs."""

        def line_parser_ran(text):
            raise AssertionError("the line-by-line parser ran")

        monkeypatch.setattr(kio, "_read_lines", line_parser_ran)
        monkeypatch.setattr(kio, "_READ_BLOCK", block)
        rows = [f"{i / 7!r},{i * 0.5!r}" for i in range(40)]
        text = "\n".join(["phi,F", *rows[:20], "  ", *rows[20:30], "# c", *rows[30:]]) + "\n"
        assert text.index("  \n") > 2 * block
        for source in (text, text.encode()):
            data = read_dataset(source)
            assert data.phi.tolist() == [i / 7 for i in range(40)]
            assert data.f.tolist() == [i * 0.5 for i in range(40)]

    def test_invalid_utf8_in_a_later_slice_raises_as_decode_does(self, monkeypatch):
        monkeypatch.setattr(kio, "_READ_BLOCK", 16)
        raw = b"phi,F\n" + "0.5,\u00e9\n".encode() * 30 + b"0.5,\xe2\x28\n0.25,2\n"
        with pytest.raises(UnicodeDecodeError) as expected:
            raw.decode("utf-8")
        with pytest.raises(UnicodeDecodeError) as got:
            read_dataset(raw)
        assert str(got.value) == str(expected.value)
        assert got.value.start == expected.value.start > 16


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
def test_format_rows_equals_per_row_format(n):
    rng = np.random.default_rng(n)
    phi = rng.standard_normal(n)
    columns = (phi, np.exp(rng.uniform(-700.0, 700.0, n)), -phi)
    template = "%.17g,%16.8g|%.2f\n"
    reference = "".join(template % row for row in zip(*(c.tolist() for c in columns)))
    assert "".join(kio._format_rows(template, columns)) == reference


def percent_rows(template: str, columns) -> str:
    """The ``%`` reference: every row in one ``template % row`` call."""
    return (template * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())


@st.composite
def float_columns(draw):
    """1-3 equal-length float64 columns of a few rows, or of one to two
    blocks and a row.  The bulk comes from a seeded generator: random bit
    patterns (any float64), random mantissas over a span of binary
    exponents in and around [1e-4, 1e17), dyadic rationals (short
    decimals, trailing zeros) or exact 17-digit ties.  A few values drawn
    by Hypothesis (zeros, infinities, nan, subnormals, the ends of the
    range) replace some."""
    k = draw(st.integers(1, 3))
    rows = st.integers(1, 50) | st.integers(kio._BLOCK_ROWS - 1, 2 * kio._BLOCK_ROWS + 1)
    size = k * draw(rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bits", "binades", "dyadic", "ties"]))
    if kind == "bits":  # random signs already; arithmetic on a signalling nan warns
        values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    elif kind == "binades":
        lo = draw(st.integers(-20, 60))
        exponents = rng.integers(lo, lo + draw(st.integers(1, 20)), size)
        values = np.ldexp(rng.integers(2**52, 2**53, size).astype(float), exponents - 52)
    elif kind == "dyadic":
        values = rng.integers(1, 10**7, size) / 2.0 ** rng.integers(0, 24, size)
    else:  # an 18th significant digit of 5, exactly: 17-digit rounding ties
        whole = rng.integers(10**14, 2**50, size)
        odd = rng.choice([1, 3, 5, 7], size)
        values = whole + np.where(whole < 10**15, odd, 2 * (odd % 4)) / 8
    if kind != "bits":
        values = values * rng.choice([-1.0, 1.0], size)
    replaced = st.tuples(st.integers(0, size - 1), st.floats(width=64))
    for i, v in draw(st.lists(replaced, max_size=3)):
        values[i] = v
    return list(values.reshape(k, -1))


class TestFormatRows:
    """The numpy kernel for ``%.17g`` row tables against ``%``: the same
    text for every template and block, whichever path formats it."""

    @settings(max_examples=300)
    @given(float_columns(), st.data())
    def test_equals_percent(self, columns, data):
        literal = st.sampled_from(["", ",", "\n", " | ", "x=", ",\t", "%%", "\u00e9"])
        n = len(columns) + 1
        template = "%.17g".join(data.draw(st.lists(literal, min_size=n, max_size=n)))
        got = "".join(kio._format_rows(template, columns))
        assert got == percent_rows(template, columns)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-5, 18)
        below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
        values = np.concatenate(
            [powers, below, np.nextafter(below, 0.0), above, np.nextafter(above, np.inf)]
        )
        values = np.concatenate([values, -values])
        inside = values[(abs(values) >= 1e-4) & (abs(values) < 1e17)]
        reference = percent_rows("%.17g\n", [inside])
        assert kio._format_fixed17(["", "\n"], inside[:, None]) == reference
        got = "".join(kio._format_rows("%.17g\n", [values]))
        assert got == percent_rows("%.17g\n", [values])

    def test_ties_round_half_to_even(self):
        values = np.array([1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, -(1e14 + 0.375)])
        text = kio._format_fixed17(["", "\n"], values[:, None])
        assert text.split() == [
            "1000000000000000.2",
            "1000000000000000.8",
            "100000000000000.12",
            "-100000000000000.38",
        ]
        assert text == percent_rows("%.17g\n", [values])

    @pytest.mark.parametrize("odd", [0.0, -0.0, 5e-5, 1e17, np.nan])
    def test_one_value_sends_only_its_block_to_percent(self, odd, monkeypatch):
        """A value the kernel cannot lay out goes through ``%`` alone, not
        its row or its block, and is spliced into the kernel's text."""
        rng = np.random.default_rng(1)
        n = 3 * kio._BLOCK_ROWS
        columns = [rng.uniform(0.5, 0.7, n), rng.uniform(-3.0, 3.0, n)]
        columns[1][kio._BLOCK_ROWS + 7] = odd
        percent, calls = kio._percent, []
        monkeypatch.setattr(kio, "_percent", lambda t, b: calls.append(b.tobytes()) or percent(t, b))
        template = "%.17g,%.17g\n"
        got = "".join(kio._format_rows(template, columns))
        assert [c for c in calls if c] == [np.float64(odd).tobytes()]
        assert got == percent_rows(template, columns)


class TestWriteDataset:
    def test_empty_dataset_is_header_only(self):
        assert write_dataset(DataSet.from_points([])) == b"phi,F\n"

    def test_seventeen_digit_output(self):
        doc = write_dataset(DataSet.from_points([(0.1, 1.0 / 3.0)]))
        assert b"0.10000000000000001" in doc
        assert b"0.33333333333333331" in doc

    def test_dot_decimal_separator(self):
        doc = write_dataset(DataSet.from_points([(0.5, 1.5)]))
        body = doc.decode("utf-8").splitlines()[1]
        assert body.count(",") == 1  # commas delimit fields, never decimals
        assert list(read_dataset(doc)) == [(0.5, 1.5)]

    def test_round_trip_of_fixed_values_is_identity(self):
        points = [(0.57, 0.2004), (0.598, 0.5), (math.pi, -1.0 / 7.0)]
        data = DataSet.from_points(points)
        assert list(read_dataset(write_dataset(data))) == list(data)

    @given(st.lists(st.tuples(finite_floats, finite_floats), max_size=30))
    def test_round_trip_is_identity(self, points):
        """Writing then reading reproduces every float64 bit-exactly."""
        data = DataSet.from_points(points)
        again = read_dataset(write_dataset(data))
        assert list(again) == list(data)


class TestGenerateSynthetic:
    def test_zero_noise_grid_lies_on_sharp_limit(self, demo_params):
        spec = SyntheticSpec(
            demo_params, 21, 0.57, 0.63, noise_sigma=0.0, model="piecewise"
        )
        data = generate_synthetic(spec)
        assert len(data) == 21
        for phi, f in data:
            assert f == piecewise_limit(phi, demo_params)

    def test_identical_specs_give_identical_bytes(self, demo_params):
        spec = SyntheticSpec(
            demo_params, 50, 0.57, 0.63, noise_sigma=0.01, seed=7, sampling="random"
        )
        assert write_dataset(generate_synthetic(spec)) == write_dataset(
            generate_synthetic(spec)
        )

    def test_residual_spread_matches_requested_sigma(self, demo_params):
        spec = SyntheticSpec(demo_params, 200, 0.57, 0.63, noise_sigma=0.005, seed=42)
        data = generate_synthetic(spec)
        residuals = np.array([f - value(phi, demo_params) for phi, f in data])
        assert 0.004 <= np.std(residuals, ddof=1) <= 0.006

    def test_grid_noise_follows_documented_transform(self, demo_params):
        """The noise stream is exactly Box-Muller over consecutive uniform
        pairs from PCG64(seed), applied in phi order."""
        n, sigma, seed = 200, 0.005, 42
        data = generate_synthetic(
            SyntheticSpec(demo_params, n, 0.57, 0.63, noise_sigma=sigma, seed=seed)
        )
        rng = np.random.Generator(np.random.PCG64(seed))
        m = (n + 1) // 2
        u1 = 1.0 - rng.random(m)
        u2 = rng.random(m)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        z = np.empty(2 * m)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        phis = np.linspace(0.57, 0.63, n)
        expected = np.array([value(float(p), demo_params) for p in phis])
        expected = expected + sigma * z[:n]
        assert np.array_equal(np.array([f for _, f in data]), expected)

    def test_random_sampling_draws_phi_before_noise(self, demo_params):
        """Random mode consumes the stream as documented: n uniforms for phi
        (then sorted), then the Box-Muller pairs."""
        n, sigma, seed = 37, 0.003, 9
        data = generate_synthetic(
            SyntheticSpec(
                demo_params,
                n,
                0.57,
                0.63,
                noise_sigma=sigma,
                seed=seed,
                sampling="random",
                model="piecewise",
            )
        )
        rng = np.random.Generator(np.random.PCG64(seed))
        phis = np.sort(0.57 + (0.63 - 0.57) * rng.random(n))
        m = (n + 1) // 2
        u1 = 1.0 - rng.random(m)
        u2 = rng.random(m)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * math.pi * u2
        z = np.empty(2 * m)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        expected = np.array([piecewise_limit(float(p), demo_params) for p in phis])
        expected = expected + sigma * z[:n]
        assert np.array_equal(np.array([p for p, _ in data]), phis)
        assert np.array_equal(np.array([f for _, f in data]), expected)
        assert all(0.57 <= p <= 0.63 for p, _ in data)

    def test_single_point_grid_degenerates_to_phi_lo(self, demo_params):
        data = generate_synthetic(SyntheticSpec(demo_params, 1, 0.57, 0.63))
        assert list(data) == [(0.57, value(0.57, demo_params))]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"phi_lo": 0.63, "phi_hi": 0.57},
            {"phi_lo": 0.6, "phi_hi": 0.6},
            {"noise_sigma": -0.1},
            {"noise_sigma": math.inf},
            {"seed": -1},
            {"seed": 2**64},
            {"sampling": "sobol"},
            {"model": "cubic"},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs, demo_params):
        base = dict(params=demo_params, n=10, phi_lo=0.57, phi_hi=0.63)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SyntheticSpec(**base)


class TestRenderSvg:
    def test_two_point_curve_gives_one_polyline_with_two_pairs(self):
        doc = render_svg(
            PlotSpec(series=(Series("model-curve", (0.0, 1.0), (0.0, 2.0)),))
        )
        root = ET.fromstring(doc)
        polylines = [e for e in root.iter() if local_name(e.tag) == "polyline"]
        assert len(polylines) == 1
        assert len(polyline_points(polylines[0])) == 2

    @given(plot_specs())
    def test_equals_element_tree_reference(self, spec):
        """Byte for byte the document the per-point ElementTree renderer
        writes."""
        assert render_svg(spec) == element_tree_render_svg(spec)

    def test_multi_block_series_equal_element_tree_reference(self):
        """Series of several ``_format_rows`` blocks: the scatter is written
        a block of circles at a time, the polyline whole."""
        rng = np.random.default_rng(3)
        n = 2 * kio._BLOCK_ROWS + 5
        x = np.sort(rng.uniform(0.57, 0.63, n))
        spec = PlotSpec(
            series=(
                Series("data-points", x, rng.normal(0.5, 0.3, n)),
                Series("limit-curve", x, np.abs(x - 0.6)),
            )
        )
        assert render_svg(spec) == element_tree_render_svg(spec)

    @pytest.mark.parametrize("extent", [5e-324, 1e-322, 2e-321])
    def test_subnormal_extent_is_drawn(self, extent):
        """5% of a subnormal extent underflows to 0; the axis is then padded
        like a constant one instead of taking log10(0) for its ticks."""
        spec = PlotSpec(series=(Series("data-points", (0.0, extent), (0.0, 1.0)),))
        doc = render_svg(spec)
        assert doc == element_tree_render_svg(spec)
        geom = svg_geometry(doc)
        assert geom.x_min < 0.0 < extent < geom.x_max

    def test_zero_series_rejected(self):
        with pytest.raises(EmptyPlot):
            render_svg(PlotSpec(series=()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, bad):
        spec = PlotSpec(series=(Series("model-curve", (0.0, 1.0), (0.0, bad)),))
        with pytest.raises(NonFiniteSample):
            render_svg(spec)

    def test_document_is_strict_xml_with_declared_subset(self, demo_params):
        phis = np.linspace(0.57, 0.63, 51)
        doc = render_svg(
            PlotSpec(
                series=(
                    Series(
                        "model-curve",
                        tuple(phis),
                        tuple(value(float(p), demo_params) for p in phis),
                    ),
                    Series("data-points", (0.58, 0.60), (0.3, 0.7)),
                )
            )
        )
        root = ET.fromstring(doc)
        assert local_name(root.tag) == "svg"
        tags = {local_name(e.tag) for e in root.iter()}
        assert tags <= {"svg", "g", "polyline", "circle", "line", "text"}

    def test_scatter_series_renders_one_circle_per_point(self):
        doc = render_svg(
            PlotSpec(series=(Series("data-points", (0.1, 0.2, 0.3), (1.0, 2.0, 3.0)),))
        )
        root = ET.fromstring(doc)
        circles = [e for e in root.iter() if local_name(e.tag) == "circle"]
        assert len(circles) == 3

    def test_identical_specs_give_identical_bytes(self):
        spec = PlotSpec(
            series=(
                Series("limit-curve", (0.0, 0.5, 1.0), (1.0, 1.5, 4.0)),
                Series("data-points", (0.25,), (1.2,)),
            )
        )
        assert render_svg(spec) == render_svg(spec)

    def test_geometry_round_trip(self):
        """The axes span the data envelope padded by 5% of its extent, inside
        the fixed margins."""
        spec = PlotSpec(series=(Series("model-curve", (0.0, 2.0), (-3.0, 5.0)),))
        geom = svg_geometry(render_svg(spec))
        assert (geom.width, geom.height) == (640.0, 480.0)
        margins = (geom.margin_left, geom.margin_right, geom.margin_top, geom.margin_bottom)
        assert margins == (64.0, 20.0, 20.0, 48.0)
        assert (geom.x_min, geom.x_max) == (-0.1, 2.1)
        assert (geom.y_min, geom.y_max) == (-3.4, 5.4)
        for x, y in [(-0.1, -3.4), (0.0, -3.0), (0.3, 0.7), (2.1, 5.4)]:
            px, py = geom.to_pixel(x, y)
            back = geom.to_data(px, py)
            assert back == pytest.approx((x, y), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "axis, low, high",
        [
            ("x", -1e308, 1e308),  # the padded bounds overflow
            ("y", -1e308, 1e308),
            ("x", -8.9e307, 8.9e307),  # finite bounds, the extent overflows
            ("y", -8.9e307, 8.9e307),
        ],
    )
    def test_overflowing_axis_range_is_a_non_finite_sample(self, axis, low, high):
        wide, unit = (low, high), (0.0, 1.0)
        x, y = (wide, unit) if axis == "x" else (unit, wide)
        spec = PlotSpec(series=(Series("data-points", x, y),))
        with pytest.raises(NonFiniteSample, match=f"^{axis} axis"):
            render_svg(spec)

    def test_sharp_limit_curve_shows_the_kink(self, demo_params):
        """Decoding the emitted polyline through the stored axis transform
        recovers the two slopes: the secants on either side of the sharpest
        vertex differ by the slope ratio beta/alpha."""
        phis = np.linspace(0.57, 0.63, 601)
        doc = render_svg(
            PlotSpec(
                series=(
                    Series(
                        "limit-curve",
                        tuple(phis),
                        tuple(piecewise_limit(float(p), demo_params) for p in phis),
                    ),
                )
            )
        )
        geom = svg_geometry(doc)
        root = ET.fromstring(doc)
        polyline = next(e for e in root.iter() if local_name(e.tag) == "polyline")
        data = [geom.to_data(px, py) for px, py in polyline_points(polyline)]
        slopes = [
            (y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(data, data[1:])
        ]
        kink = max(range(1, len(slopes)), key=lambda i: abs(slopes[i] - slopes[i - 1]))
        x0, y0 = data[0]
        xk, yk = data[kink]
        x1, y1 = data[-1]
        left = (yk - y0) / (xk - x0)
        right = (y1 - yk) / (x1 - xk)
        assert xk == pytest.approx(demo_params.phi_c, abs=1e-3)
        assert right / left == pytest.approx(
            demo_params.beta / demo_params.alpha, rel=1e-3
        )


class TestPlotSpecValidation:
    def test_width_must_exceed_margins(self):
        """The horizontal margins are 64 + 20 pixels."""
        series = (Series("model-curve", (0.0,), (0.0,)),)
        with pytest.raises(ValueError):
            PlotSpec(series=series, width=84.0)
        geom = svg_geometry(render_svg(PlotSpec(series=series, width=84.5)))
        assert (geom.width, geom.margin_left, geom.margin_right) == (84.5, 64.0, 20.0)

    def test_height_must_exceed_margins(self):
        """The vertical margins are 20 + 48 pixels."""
        series = (Series("model-curve", (0.0,), (0.0,)),)
        with pytest.raises(ValueError):
            PlotSpec(series=series, height=68.0)
        geom = svg_geometry(render_svg(PlotSpec(series=series, height=68.5)))
        assert (geom.height, geom.margin_top, geom.margin_bottom) == (68.5, 20.0, 48.0)

    def test_series_role_is_checked(self):
        with pytest.raises(ValueError):
            Series("spline-curve", (0.0,), (0.0,))

    def test_series_lengths_must_match(self):
        with pytest.raises(ValueError):
            Series("model-curve", (0.0, 1.0), (0.0,))

    def test_series_holds_read_only_copies_of_any_sequence(self):
        caller = np.array([0.0, 1.0])
        for x in ((0.0, 1.0), [0.0, 1], caller):
            s = Series("model-curve", x, [2.0, 3.0])
            assert s.x.dtype == s.y.dtype == np.float64
            assert s.x.tolist() == [0.0, 1.0] and s.y.tolist() == [2.0, 3.0]
            with pytest.raises(ValueError):
                s.x[0] = 5.0
            with pytest.raises(ValueError):
                s.y[0] = 5.0
        caller[0] = 9.0  # the caller's array stays writable and is not shared
        assert s.x[0] == 0.0

    def test_series_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            Series("model-curve", [[0.0, 1.0]], [[0.0, 1.0]])

    def test_series_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Series("model-curve", (), ())
