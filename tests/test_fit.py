"""Fitting-pipeline tests: hinge scan, smooth refinement, and their
invariances.

Recovery tests generate their own data from the model (generator-recovery),
so every expected parameter is known exactly; equivariance tests transform a
fixed-seed noisy dataset and compare the two fits.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import kinkfit.fit
from kinkfit import (
    DataSet,
    PiecewiseFit,
    SyntheticSpec,
    TransitionParams,
    fit_piecewise,
    fit_smooth,
    fit_two_stage,
    generate_synthetic,
    init_smooth,
    piecewise_limit,
    residual_sse,
    value,
)
from kinkfit.errors import (
    DegenerateDesign,
    InsufficientData,
    KinkfitError,
    SingularNormalMatrix,
)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def hinge_data(params: TransitionParams, phis) -> DataSet:
    return DataSet.from_points((float(p), piecewise_limit(float(p), params)) for p in phis)


def smooth_data(params: TransitionParams, phis) -> DataSet:
    return DataSet.from_points((float(p), value(float(p), params)) for p in phis)


def _det3(m) -> Fraction:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def exact_fit(data: DataSet, c: float) -> tuple[Fraction, list[Fraction]]:
    """Exact least-squares sse and (f_c, alpha, beta) of the hinge at
    breakpoint c, in rational arithmetic by Cramer's rule on exact
    phi - c (two distinct phi on each side keep the normal matrix regular)."""
    f = [Fraction(v) for v in data.f.tolist()]
    deltas = [Fraction(p) - Fraction(c) for p in data.phi.tolist()]
    rows = [(1, min(d, 0), max(d, 0)) for d in deltas]
    normal = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    rhs = [sum(r[i] * y for r, y in zip(rows, f)) for i in range(3)]
    det = _det3(normal)
    coeffs = [
        _det3([[rhs[i] if j == k else normal[i][j] for j in range(3)] for i in range(3)]) / det
        for k in range(3)
    ]
    return sum(y * y for y in f) - sum(b * r for b, r in zip(coeffs, rhs)), coeffs


def exact_scan(data: DataSet) -> tuple[list[float], list[Fraction], list[list[Fraction]]]:
    """Reference hinge scan: every breakpoint candidate with its
    :func:`exact_fit` sse and coefficients.  Raises InsufficientData where
    fit_piecewise must."""
    distinct = np.unique(data.phi)
    if len(data) < 4 or distinct.size < 4:
        raise InsufficientData("fewer than 4 distinct phi")
    candidates, sses, coeffs = [], [], []
    for c in (0.5 * distinct[:-1] + 0.5 * distinct[1:]).tolist():  # as fit_piecewise
        if (distinct < c).sum() < 2 or (distinct > c).sum() < 2:
            continue
        sse, fit = exact_fit(data, c)
        candidates.append(c)
        sses.append(sse)
        coeffs.append(fit)
    if not candidates:
        raise InsufficientData("no candidate with support")
    return candidates, sses, coeffs


def assert_matches_exact(pw: PiecewiseFit, data: DataSet, sse: Fraction, coeffs: list[Fraction]):
    """The hinge fit against the exact one at its breakpoint.  f_c,
    alpha * span and beta * span are within 1e-12 s + 1e-300 of the exact
    values, s = max(|f|, |alpha| span, |beta| span); the absolute term
    covers subnormal f.  The sse is never negative and within two ulps plus
    (2 sqrt(sse) + b) b of the exact one, as for a residual
    vector off by b = 64 n eps s_c + 1e-300 in norm, eps of long double and
    s_c = max(|f - mean f|, |f_c - mean f|, |alpha| span, |beta| span), the
    largest centred term of the residual pass."""
    f = [Fraction(v) for v in data.f.tolist()]
    mean = sum(f) / len(f)
    span = Fraction(float(data.phi[-1])) - Fraction(float(data.phi[0]))
    f_c, alpha, beta = coeffs
    slopes = max(abs(alpha), abs(beta)) * span
    bound = Fraction(1e-12) * max(max(map(abs, f)), slopes) + Fraction(1e-300)
    assert abs(Fraction(pw.f_c) - f_c) <= bound
    assert abs(Fraction(pw.alpha) - alpha) * span <= bound
    assert abs(Fraction(pw.beta) - beta) * span <= bound
    s_c = max(max(abs(y - mean) for y in f), abs(f_c - mean), slopes)
    b = 64 * len(f) * Fraction(float(np.finfo(np.longdouble).eps)) * s_c + Fraction(1e-300)
    exact = float(sse)
    assert pw.sse >= 0.0
    assert abs(pw.sse - exact) <= 2 * math.ulp(exact) + float((2 * Fraction(math.sqrt(exact)) + b) * b)


# Half of a mirror-symmetric dataset on f ~ 1e8: two candidates tie exactly
# up to the rounding of 1 - phi.
MIRROR_TIE = [(0.161, 99999999.843), (0.487, 99999998.802), (0.66, 100000001.12),
              (0.66, 100000001.27), (0.721, 99999998.049)]


def two_clusters(n: int, width: float) -> DataSet:
    """Noisy line sampled in two clusters ``width`` wide around phi = 0 and
    1: the candidate between them has a nearly singular design."""
    rng = np.random.default_rng(1)
    phi = np.concatenate((width * rng.uniform(0.0, 1.0, n // 2),
                          1.0 + width * rng.uniform(0.0, 1.0, n - n // 2)))
    return DataSet.from_points(zip(phi.tolist(), (3.0 * phi + rng.normal(0.0, 1.0, n)).tolist()))


@st.composite
def scan_datasets(draw) -> DataSet:
    """Hinge-scan inputs of up to 40 points, so the rational reference
    stays quick: noisy and noiseless hinges, exactly linear and constant
    data (every candidate ties), heavily duplicated phi, large offsets
    (phi ~ 1e6, f ~ 1e8), mirror-symmetric noise on f ~ 1e8 (candidate
    pairs tied up to the rounding of 1 - phi) and phi a few ulp apart
    (designs singular in double precision)."""
    kind = draw(
        st.sampled_from(
            ("noisy", "noiseless", "linear", "flat", "duplicated", "offset", "mirror", "ulp")
        )
    )
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kink = draw(st.floats(0.1, 0.9))
    left, right = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    phi = rng.uniform(0.0, 1.0, n)
    noise = 0.0
    if kind == "noisy":
        noise = draw(st.floats(1e-6, 1.0))
    elif kind == "noiseless":
        phi = np.linspace(0.0, 1.0, n)
    elif kind == "linear":
        right = left
    elif kind == "flat":
        left = right = 0.0
    elif kind == "mirror":
        half = np.sort(phi[: n // 2])
        phi = np.concatenate((half, 1.0 - half[::-1]))
        noise = rng.normal(0.0, 1.0, half.size)
        f = np.concatenate((noise, noise[::-1])) + draw(st.sampled_from((1e8, 1e9, 1e10)))
        return DataSet.from_points(zip(phi.tolist(), f.tolist()))
    elif kind == "duplicated":
        phi = rng.integers(0, draw(st.integers(4, 12)), n) / 10.0
        noise = draw(st.sampled_from((0.0, 0.1)))
    elif kind == "ulp":
        base = draw(st.floats(-1e3, 1e3))
        phi = base + np.arange(n) * abs(np.spacing(base)) * rng.integers(1, 4, n)
        noise = 1.0
    f = left * phi + (right - left) * np.maximum(phi - kink, 0.0)
    f = f + rng.normal(0.0, 1.0, n) * noise
    if kind == "offset":
        phi, f = phi + 1e6, f + 1e8
    return DataSet.from_points(zip(phi.tolist(), f.tolist()))


@pytest.fixture
def noisy_data(demo_params) -> DataSet:
    spec = SyntheticSpec(
        params=demo_params,
        n=120,
        phi_lo=0.57,
        phi_hi=0.63,
        noise_sigma=0.004,
        seed=7,
        sampling="random",
        model="smooth",
    )
    return generate_synthetic(spec)


class TestDataSet:
    def test_from_points_sorts_by_phi(self):
        d = DataSet.from_points([(0.3, 1.0), (0.1, 2.0), (0.2, 3.0)])
        assert d.phi.tolist() == [0.1, 0.2, 0.3]
        assert d.f.tolist() == [2.0, 3.0, 1.0]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0.3, -0.1, 0.2, 0.0)),  # few values: many ties
                st.floats(allow_nan=False, allow_infinity=False),
            )
        )
    )
    @example([(0.2, 9.0), (0.1, 1.0), (0.2, 8.0)])
    def test_ties_keep_input_order(self, pairs):
        """Same order as Python's stable sort on phi."""
        d = DataSet.from_points(pairs)
        expected = sorted(pairs, key=lambda pair: pair[0])
        assert d.phi.tolist() == [phi for phi, _ in expected]
        assert d.f.tolist() == [f for _, f in expected]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DataSet.from_points([(0.1, math.nan)])

    def test_direct_construction_requires_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            DataSet(np.array([0.2, 0.1]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "phi, f", [([0.1, 0.2], [1.0]), ([[0.1, 0.2]], [[1.0, 2.0]])]
    )
    def test_direct_construction_requires_equal_length_1d(self, phi, f):
        with pytest.raises(ValueError, match="1-D"):
            DataSet(np.array(phi), np.array(f))

    def test_arrays_are_stored_once_and_read_only(self):
        phi = np.array([0.1, 0.2])
        d = DataSet(phi, np.array([1.0, 2.0]))
        assert d.phi is d.phi and d.f is d.f
        assert d.phi.dtype == np.float64
        with pytest.raises(ValueError):
            d.phi[0] = 5.0
        with pytest.raises(ValueError):
            d.f[0] = 5.0
        phi[0] = 0.0  # the caller's array stays writable and is not shared
        assert d.phi[0] == 0.1
        assert [type(v) for pair in d for v in pair] == [float] * 4

    @pytest.mark.parametrize(
        "pairs", [[(0.1, 1.0, 2.0)], [(0.1, 1.0, 2.0), (0.2, 3.0, 4.0)], [0.1, 1.0]]
    )
    def test_from_points_rejects_anything_but_pairs(self, pairs):
        """Triples are not reshaped into pairs, flat numbers not paired up."""
        with pytest.raises(ValueError, match="pairs"):
            DataSet.from_points(pairs)

    def test_from_points_accepts_any_iterable_of_pairs(self):
        pairs = [(0.2, 1.0), (0.1, 2.0)]
        sources = (pairs, tuple(pairs), iter(pairs), np.array(pairs), [[0.2, 1], [0.1, 2]])
        for source in sources:
            d = DataSet.from_points(source)
            assert d.phi.tolist() == [0.1, 0.2] and d.f.tolist() == [2.0, 1.0]

    def test_empty_is_fine(self):
        d = DataSet.from_points([])
        assert len(d) == 0 and d.phi.size == 0


class TestFitPiecewise:
    def test_recovers_exact_hinge_data(self, demo_params):
        """20 samples of the sharp limit with a candidate midpoint landing
        exactly on the kink: the scan must find it with ~zero residual."""
        phis = 0.598 + (np.arange(20) - 9.5) * 0.0028  # spans [0.5714, 0.6246]
        pw = fit_piecewise(hinge_data(demo_params, phis))
        spacing = 0.0028
        assert abs(pw.phi_c - 0.598) <= spacing / 2
        assert rel_diff(pw.alpha, 10.7) < 1e-12
        assert rel_diff(pw.beta, 80.0) < 1e-12
        assert rel_diff(pw.f_c, 0.5) < 1e-12
        assert pw.sse <= 1e-20
        assert pw.candidate_count == 17  # midpoints with >= 2 distinct phi per side

    def test_linear_data_ties_break_to_smallest_breakpoint(self):
        grid = np.linspace(0.0, 1.0, 6)
        pw = fit_piecewise(DataSet.from_points((x, 2.0 * x + 1.0) for x in grid))
        assert pw.alpha == pytest.approx(2.0, rel=1e-12)
        assert pw.beta == pytest.approx(2.0, rel=1e-12)
        assert pw.sse <= 1e-20
        assert pw.candidate_count == 3
        # Every candidate fits equally well; the first (smallest) one wins.
        assert pw.phi_c == 0.5 * (grid[1] + grid[2])

    def test_three_points_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_piecewise(DataSet.from_points([(0.0, 0.0), (0.5, 1.0), (1.0, 2.0)]))

    def test_duplicated_phi_does_not_count_as_support(self):
        points = [(0.0, 0.0), (0.0, 0.1), (1.0, 1.0), (1.0, 1.1), (2.0, 2.0)]
        with pytest.raises(InsufficientData):
            fit_piecewise(DataSet.from_points(points))

    def test_noise_free_left_right_slopes_keep_orientation(self):
        """The hinge fit reports the left and right slopes as fitted, without
        reordering; a falling-then-rising profile keeps alpha > beta."""
        p = TransitionParams(2.0, 30.0, 40.0, 0.5, 1.0)
        phis = 0.5 + (np.arange(20) - 9.5) * 0.05  # midpoint candidate at the kink
        mirrored = DataSet.from_points(
            (float(x), piecewise_limit(float(1.0 - x), p)) for x in phis
        )
        pw = fit_piecewise(mirrored)
        assert pw.alpha == pytest.approx(-30.0, rel=1e-9)
        assert pw.beta == pytest.approx(-2.0, rel=1e-9)

    def test_singular_candidate_system_is_solved_exactly(self):
        """Each side's two phi values are 1e-300 or one ulp apart: the design
        of the only candidate, c = 2, is singular in double precision, yet
        the long-double closed form gives its exact coefficients."""
        data = DataSet.from_points(
            [(0.0, 1.0), (1e-300, 2.0), (4.0, 3.0), (math.nextafter(4.0, 5.0), 4.0)]
        )
        pw = fit_piecewise(data)
        (c,), (sse,), (exact,) = exact_scan(data)
        assert pw.phi_c == c == 2.0
        assert_matches_exact(pw, data, sse, exact)
        assert pw.alpha == pytest.approx(-1125899906842623.2, rel=1e-15)

    @given(scan_datasets())
    @example(DataSet.from_points(MIRROR_TIE + [(1.0 - p, f) for p, f in MIRROR_TIE]))
    @example(two_clusters(40, 1e-8))
    @example(DataSet(np.array([0.0, 1e-9, 1.0, 1.0 + 1e-9]), np.array([1.0, 2.0, 0.0, 5.0])))
    def test_within_the_tie_width_of_the_exact_scan(self, data):
        """The returned breakpoint's exact sse is within 2 tau of the exact
        minimum, and every smaller breakpoint's exceeds it by more than
        tau / 2, tau = 64 n eps sum((f - mean f)^2) with eps of long double.
        Candidates whose exact slopes overflow the double range (phi a few
        subnormals apart) rank last, and DegenerateDesign is raised when
        every candidate's do.  The winner matches the exact fit
        (:func:`assert_matches_exact`).  The examples include two clusters
        1e-8 wide and a lone candidate between two pairs 1e-9 apart, whose
        designs are nearly singular."""
        try:
            candidates, sses, coeffs = exact_scan(data)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                fit_piecewise(data)
            return
        finite = [max(map(abs, fit)) <= sys.float_info.max for fit in coeffs]
        if not any(finite):
            with pytest.raises(DegenerateDesign):
                fit_piecewise(data)
            return
        f = [Fraction(v) for v in data.f.tolist()]
        mean = sum(f) / len(f)
        eps = Fraction(float(np.finfo(np.longdouble).eps))
        tau = 64 * len(f) * eps * sum((y - mean) ** 2 for y in f)
        best = min(v for v, k in zip(sses, finite) if k)
        pw = fit_piecewise(data)
        i = candidates.index(pw.phi_c)
        assert finite[i] and sses[i] <= best + 2 * tau
        assert all(v > best + tau / 2 for v, k in zip(sses[:i], finite) if k)
        assert_matches_exact(pw, data, sses[i], coeffs[i])

    @pytest.mark.parametrize(
        "data",
        [
            two_clusters(80, 1e-9),
            DataSet(np.array([0.0, 1.0, 2.0, math.nextafter(2.0, 3.0), 3.0, 4.0]),
                    np.array([0.0, 1.0, 3.0, -2.0, 5.0, 1.0])),
        ],
        ids=["near-singular", "midpoint-on-a-phi"],
    )
    def test_closed_form_is_within_a_quarter_tie_width(self, data):
        """Every candidate's closed-form sse is within tau / 4 of the exact
        one: between two clusters 1e-9 wide, 1 apart, where the design is
        nearly singular, and where the midpoint of 2 and the next double
        rounds onto 2 itself, so a point sits at the breakpoint."""
        candidates, sses, _ = exact_scan(data)
        y = data.f - np.mean(data.f.astype(np.longdouble))
        scores, _, _, _ = kinkfit.fit._closed_form_fits(data.phi, y, np.array(candidates))
        syy = np.sum(y * y)
        tau = Fraction(*(64 * len(data) * np.finfo(np.longdouble).eps * syy).as_integer_ratio())
        for score, exact in zip(scores, sses):
            assert abs(Fraction(*score.as_integer_ratio()) - exact) <= tau / 4

    def test_large_offset_sse_is_exact(self):
        """The mirror-tie data on f ~ 1e10: the sse comes from the centred
        residuals, so no digit is lost to the offset."""
        data = DataSet.from_points(
            [(p, f + 99e8) for p, f in MIRROR_TIE] + [(1.0 - p, f + 99e8) for p, f in MIRROR_TIE]
        )
        pw = fit_piecewise(data)
        sse, exact = exact_fit(data, pw.phi_c)
        assert rel_diff(pw.sse, float(sse)) <= 1e-15
        assert_matches_exact(pw, data, sse, exact)

    def test_ulp_spaced_phi_is_fast_and_exact(self):
        """2e4 phi spaced 1-3 ulp above 1.0: every design is singular in
        double precision, and the closed form still solves the winner."""
        rng = np.random.default_rng(0)
        phi = 1.0 + np.cumsum(rng.integers(1, 4, 20_000)) * np.spacing(1.0)
        data = DataSet(phi, rng.standard_normal(phi.size))
        start = time.perf_counter()
        pw = fit_piecewise(data)
        assert time.perf_counter() - start < 1.0
        sse, exact = exact_fit(data, pw.phi_c)
        assert_matches_exact(pw, data, sse, exact)
        assert rel_diff(pw.sse, float(sse)) <= 1e-15

    def test_readme_seed_42_hinge_is_correctly_rounded(self, demo_params):
        """The README's `simulate --n 200 --sigma 0.005 --seed 42 --sampling
        random` data: f_c, alpha, beta and sse are the exact values rounded
        to double."""
        data = generate_synthetic(
            SyntheticSpec(demo_params, 200, 0.57, 0.63, 0.005, 42, "random", "smooth")
        )
        pw = fit_piecewise(data)
        sse, (f_c, alpha, beta) = exact_fit(data, pw.phi_c)
        assert pw.phi_c == 0.5980883044500853
        assert pw.f_c == float(f_c) == 0.48766375484591346
        assert (pw.alpha, pw.beta, pw.sse) == (float(alpha), float(beta), float(sse))


class TestScanWorstCase:
    """Kink-free data tie or nearly tie every candidate; the scan still
    makes one closed-form pass."""

    def test_exactly_linear_data_takes_the_smallest_breakpoint(self):
        phi = np.linspace(0.0, 1.0, 20_000)
        pw = fit_piecewise(DataSet(phi, 2.0 * phi + 1.0))
        assert pw.phi_c == 0.5 * (phi[1] + phi[2])

    def test_noisy_line_scans_every_candidate(self):
        pw = fit_piecewise(noisy_line(1, 200_000, 2.0, 1e-2))
        assert pw.candidate_count == 200_000 - 3


class TestInitSmooth:
    def test_width_is_ten_percent_of_span(self, demo_params):
        phis = np.linspace(0.57, 0.63, 20)
        data = hinge_data(demo_params, phis)
        pw = PiecewiseFit(
            alpha=10.7, beta=80.0, phi_c=0.598, f_c=0.5, sse=0.0, candidate_count=1
        )
        init = init_smooth(pw, data)
        # 10 / (69.3 * 0.1 * 0.06)
        assert init.gamma == pytest.approx(10.0 / (69.3 * 0.1 * 0.06), rel=1e-12)
        assert init.gamma == pytest.approx(24.05, abs=0.01)
        assert (init.alpha, init.beta) == pytest.approx((pw.alpha, pw.beta), rel=1e-12)

    def test_equal_slopes_fall_back_to_unit_gamma(self):
        grid = np.linspace(0.0, 1.0, 8)
        data = DataSet.from_points((x, 2.0 * x + 1.0) for x in grid)
        pw = PiecewiseFit(
            alpha=2.0, beta=2.0, phi_c=0.5, f_c=2.0, sse=0.0, candidate_count=1
        )
        init = init_smooth(pw, data)
        assert init.gamma == 1.0

    def test_near_equal_fitted_slopes_stay_usable_downstream(self):
        """Fitted slopes on linear data differ only at rounding level, giving a
        huge initial gamma; the smooth fit clamps it and still converges."""
        grid = np.linspace(0.0, 1.0, 8)
        data = DataSet.from_points((x, 2.0 * x + 1.0) for x in grid)
        pw = fit_piecewise(data)
        init = init_smooth(pw, data)
        assert math.isfinite(init.gamma)
        result = fit_smooth(data, init)
        assert result.params.alpha == pytest.approx(2.0, abs=1e-8)
        assert result.params.beta == pytest.approx(2.0, abs=1e-8)
        assert result.sse <= 1e-20


class TestResidualSse:
    def test_empty_data_is_zero(self, demo_params):
        assert residual_sse(DataSet.from_points([]), demo_params) == 0.0

    def test_exact_data_is_zero_to_rounding(self, demo_params):
        data = smooth_data(demo_params, np.linspace(0.57, 0.63, 30))
        assert residual_sse(data, demo_params) <= 1e-20 * len(data)

    def test_unit_residual_at_anchor(self, demo_params):
        data = DataSet.from_points([(demo_params.phi_c, demo_params.f_c + 1.0)])
        assert residual_sse(data, demo_params) == 1.0


class TestFitSmooth:
    def test_recovers_noiseless_generator(self, demo_params):
        data = smooth_data(demo_params, np.linspace(0.57, 0.63, 50))
        pw = fit_piecewise(data)
        result = fit_smooth(data, init_smooth(pw, data))
        assert result.converged
        for name in ("alpha", "beta", "gamma", "phi_c", "f_c"):
            assert rel_diff(getattr(result.params, name), getattr(demo_params, name)) < 1e-6
        assert result.iterations <= kinkfit.fit._MAX_ITERATIONS

    def test_sharp_data_reports_gamma_at_bound(self, demo_params):
        """Data from the sharp limit: gamma is unidentifiable above the
        sample spacing, so the fit must land on the cap and say so."""
        data = hinge_data(demo_params, np.linspace(0.57, 0.63, 50))
        result = fit_smooth(data, init_smooth(fit_piecewise(data), data))
        assert result.gamma_at_bound
        assert result.params.gamma == pytest.approx(1e8, rel=1e-9)
        assert rel_diff(result.params.alpha, 10.7) < 1e-3
        assert rel_diff(result.params.beta, 80.0) < 1e-3

    def test_two_stage_is_hinge_then_seeded_lm(self, noisy_data):
        pw, result = fit_two_stage(noisy_data)
        assert pw == fit_piecewise(noisy_data)
        assert result == fit_smooth(noisy_data, init_smooth(pw, noisy_data))

    def test_no_descent_exit_reports_a_plain_bool(self, demo_params):
        """Started at the generator on noiseless data no step descends, so LM
        ends on its no-descent path; the report must still serialise."""
        data = generate_synthetic(SyntheticSpec(demo_params, 41, 0.57, 0.63))
        result = fit_smooth(data, demo_params)
        assert result.iterations == 1
        assert type(result.converged) is bool
        assert json.dumps(result.converged) == "true"

    def test_smooth_data_does_not_hit_bound(self, demo_params):
        data = smooth_data(demo_params, np.linspace(0.57, 0.63, 50))
        result = fit_smooth(data, init_smooth(fit_piecewise(data), data))
        assert not result.gamma_at_bound

    def test_four_distinct_phi_insufficient(self, demo_params):
        points = [(p, value(p, demo_params)) for p in (0.57, 0.59, 0.61, 0.63)]
        points += [(0.59, 0.1), (0.61, 0.2)]  # duplicates add no support
        with pytest.raises(InsufficientData):
            fit_smooth(DataSet.from_points(points), demo_params)

    def test_final_sse_never_exceeds_initial(self, noisy_data, demo_params):
        init = init_smooth(fit_piecewise(noisy_data), noisy_data)
        result = fit_smooth(noisy_data, init)
        assert result.sse <= residual_sse(noisy_data, init)

    def test_refit_from_solution_is_stable(self, noisy_data):
        first = fit_smooth(noisy_data, init_smooth(fit_piecewise(noisy_data), noisy_data))
        again = fit_smooth(noisy_data, first.params)
        for name in ("alpha", "beta", "gamma", "phi_c", "f_c"):
            a = getattr(first.params, name)
            b = getattr(again.params, name)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
        assert again.sse <= first.sse

    def test_affine_equivariance(self, noisy_data):
        """f -> a f + b maps (alpha, beta, f_c) -> (a alpha, a beta,
        a f_c + b), scales gamma by 1/a and leaves phi_c unchanged."""
        a, b = 2.5, -1.2
        scaled = DataSet.from_points((p, a * f + b) for p, f in noisy_data)
        r0 = fit_smooth(noisy_data, init_smooth(fit_piecewise(noisy_data), noisy_data))
        r1 = fit_smooth(scaled, init_smooth(fit_piecewise(scaled), scaled))
        assert abs(r1.params.phi_c - r0.params.phi_c) <= 1e-8
        assert rel_diff(r1.params.alpha, a * r0.params.alpha) <= 1e-8
        assert rel_diff(r1.params.beta, a * r0.params.beta) <= 1e-8
        assert rel_diff(r1.params.f_c, a * r0.params.f_c + b) <= 1e-8
        assert rel_diff(r1.params.gamma, r0.params.gamma / a) <= 1e-8

    def test_shift_equivariance(self, noisy_data):
        c = 0.25
        shifted = DataSet.from_points((p + c, f) for p, f in noisy_data)
        r0 = fit_smooth(noisy_data, init_smooth(fit_piecewise(noisy_data), noisy_data))
        r2 = fit_smooth(shifted, init_smooth(fit_piecewise(shifted), shifted))
        assert abs(r2.params.phi_c - (r0.params.phi_c + c)) <= 1e-8
        for name in ("alpha", "beta", "gamma", "f_c"):
            assert rel_diff(getattr(r2.params, name), getattr(r0.params, name)) <= 1e-8

    def test_beats_the_capped_hinge_model(self, noisy_data):
        pw = fit_piecewise(noisy_data)
        result = fit_smooth(noisy_data, init_smooth(pw, noisy_data))
        capped = TransitionParams(pw.alpha, pw.beta, 1e8, pw.phi_c, pw.f_c)
        assert result.sse <= residual_sse(noisy_data, capped) + 1e-12

    def test_standard_errors_present_and_positive(self, noisy_data):
        result = fit_smooth(noisy_data, init_smooth(fit_piecewise(noisy_data), noisy_data))
        assert result.std_errors is not None
        assert len(result.std_errors) == 5
        assert all(math.isfinite(e) and e > 0 for e in result.std_errors)

    def test_standard_errors_absent_without_spare_dof(self, demo_params):
        data = smooth_data(demo_params, np.linspace(0.57, 0.63, 5))
        result = fit_smooth(data, demo_params)
        assert result.std_errors is None

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_overflowing_start_raises_before_any_warning(self, scale):
        """f = scale max(phi - 0.5, 0): the hinge fit is exact, but J^T J
        overflows at the LM starting point (the log-gamma column is
        ~scale), and at 1e160 so does the sse.  The start is checked like a
        trial, so this raises SingularNormalMatrix without the overflow
        warnings that the test configuration turns into errors."""
        phi = np.linspace(0.0, 1.0, 50)
        data = DataSet(phi, scale * np.maximum(phi - 0.5, 0.0))
        with pytest.raises(SingularNormalMatrix, match="overflow at the starting point"):
            fit_two_stage(data)

    def test_iteration_cap_reports_non_convergence(self, noisy_data, monkeypatch):
        monkeypatch.setattr(kinkfit.fit, "_MAX_ITERATIONS", 1)
        init = init_smooth(fit_piecewise(noisy_data), noisy_data)
        result = fit_smooth(noisy_data, init)
        assert result.iterations == 1
        assert not result.converged


def noisy_line(seed: int, n: int, slope: float, sigma: float) -> DataSet:
    """n sorted uniform phi on [0, 1] and f = slope * phi + sigma * N(0, 1)."""
    rng = np.random.default_rng(seed)
    phi = np.sort(rng.random(n))
    return DataSet(phi, slope * phi + sigma * rng.standard_normal(n))


extreme_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from((1.7976931348623157e308, -1e308, 1e154, -3e154, 5e-324, 2.2e-308, 0.0)),
    st.floats(-10.0, 10.0),
)


class TestKinkFreeLines:
    """A straight line has no transition: LM drives log gamma down until
    gamma**2 underflows.  Such trials are rejected like a non-finite sse,
    so the fit ends with a result or a typed error, never the ValueError
    that TransitionParams raises for gamma == 0.  The same holds for any
    valid DataSet, down to values at the ends of the double range."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 200),
        slope=st.sampled_from((-2.0, 0.0, 2.0, 50.0)),
        sigma=st.sampled_from((1e-3, 1e-2, 1e-1)),
    )
    def test_fit_returns_or_raises_a_kinkfit_error(self, seed, n, slope, sigma):
        data = noisy_line(seed, n, slope, sigma)
        try:
            _, result = fit_two_stage(data)
        except KinkfitError:
            return
        assert result.params.gamma > 0.0 and math.isfinite(result.sse)

    @given(st.lists(st.tuples(extreme_floats, extreme_floats), max_size=40))
    @example([(0.0, 5.446277327241812e154), (1.0, 0.0), (2.0, 0.0), (0.5, 0.0), (3.0, 1.0)])
    @example([(0.0, 0.0), (1.0, 0.0), (2.99e292, 0.0), (1.7976931348623155e308, 0.0)])
    @example([(-1.7976931348623157e308, 0.0), (0.0, 1.0), (1.0, 3.0), (2.0, 2.0),
              (1.7976931348623157e308, 0.0)])
    @example([(2.2e-308 * k, 1e10 * (k % 3)) for k in range(8)])
    @example([(float(k), (-1) ** k * 1e308) for k in range(5)])
    def test_any_dataset_returns_or_raises_a_kinkfit_error(self, points):
        """The hinge fit too: every field finite, or a KinkfitError."""
        data = DataSet.from_points(points)
        try:
            pw = fit_piecewise(data)
        except KinkfitError:
            return
        assert all(math.isfinite(v) for v in dataclasses.astuple(pw))
        try:
            _, result = fit_two_stage(data)
        except KinkfitError:
            return
        assert result.params.gamma > 0.0 and math.isfinite(result.sse)
