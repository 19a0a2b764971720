"""Command-line interface tests.

Each subcommand is exercised in-process through ``main(argv)`` so stdout,
stderr and exit codes can be asserted cheaply; one subprocess test covers
the ``python -m kinkfit`` entry point end to end.
"""

from __future__ import annotations

import hashlib
import io as stdio
import json
import subprocess
import sys
import tracemalloc
from xml.etree import ElementTree as ET

import numpy as np
import pytest

import kinkfit.fit
from kinkfit import (
    DataSet,
    SyntheticSpec,
    generate_synthetic,
    piecewise_limit,
    read_dataset,
    svg_geometry,
    value,
    write_dataset,
)
from kinkfit.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def stderr_provenance(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


def local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def decoded_polyline(doc: bytes) -> list[tuple[float, float]]:
    geom = svg_geometry(doc)
    root = ET.fromstring(doc)
    polyline = next(e for e in root.iter() if local_name(e.tag) == "polyline")
    return [
        geom.to_data(*map(float, pair.split(",")))
        for pair in polyline.get("points").split()
    ]


class TestEval:
    def test_midpoint_row_in_csv_mode(self, capsys):
        rc, out, err = run_cli(
            capsys,
            "eval",
            "--alpha", "10.7", "--beta", "80", "--gamma", "40",
            "--phi-c", "0.598", "--f-c", "0.5",
            "--phi", "0.598", "--csv",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,s,F,F_limit"
        phi, s, f, f_limit = (float(v) for v in lines[1].split(","))
        assert phi == 0.598
        assert s == pytest.approx(0.5 * (10.7 + 80.0), rel=1e-15)
        assert f == 0.5
        assert f_limit == 0.5

    def test_table_mode_has_header_and_one_row(self, capsys):
        rc, out, _ = run_cli(capsys, "eval", "--phi", "0.6")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["phi", "slope", "value", "piecewise_limit"]
        assert [float(v) for v in lines[1].split()][0] == 0.6

    def test_phi_range_is_inclusive(self, capsys):
        rc, out, _ = run_cli(
            capsys, "eval", "--phi-range", "0.57:0.63:7", "--csv"
        )
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 7
        phis = [float(r.split(",")[0]) for r in rows]
        assert phis[0] == 0.57
        assert phis[-1] == pytest.approx(0.63, rel=1e-12)
        assert phis == sorted(phis)

    def test_zero_gamma_is_a_usage_error_naming_the_constraint(self, capsys):
        rc, _, err = run_cli(capsys, "eval", "--gamma", "0", "--phi", "0.6")
        assert rc == 2
        assert "gamma" in err

    def test_no_evaluation_points_is_a_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "eval")
        assert rc == 2

    @pytest.mark.parametrize("bad", ["0.57:0.63", "a:b:3", "0.5:0.6:0"])
    def test_malformed_phi_range_is_a_usage_error(self, capsys, bad):
        rc, _, _ = run_cli(capsys, "eval", "--phi-range", bad)
        assert rc == 2

    def test_flags_echo_into_provenance(self, capsys):
        rc, _, err = run_cli(
            capsys, "eval", "--gamma", "12.5", "--phi", "0.6", "--csv"
        )
        assert rc == 0
        record = stderr_provenance(err)
        assert record["command"] == "eval"
        assert record["gamma"] == 12.5
        assert record["phi"] == [0.6]
        assert record["csv"] is True


class TestCheck:
    def test_default_parameters_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "check")
        assert rc == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["max_slope_deviation"] <= report["settings"]["slope_tol"]
        assert report["max_value_deviation"] <= report["settings"]["value_tol"]
        assert report["settings"]["ode_step"] == 2e-6
        assert report["settings"]["use_literal_eq4"] is False

    def test_literal_variant_fails_when_slopes_differ(self, capsys):
        rc, out, _ = run_cli(capsys, "check", "--use-literal-eq4")
        assert rc == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["max_value_deviation"] >= 0.9
        assert report["settings"]["use_literal_eq4"] is True

    def test_failed_slope_check_prints_report_and_exits_1(self, capsys):
        """A 10x coarser RK4 step misses the slope bound (~2.7e-8 > 1e-9)."""
        rc, out, _ = run_cli(capsys, "check", "--ode-step", "2e-5")
        assert rc == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["max_slope_deviation"] > report["settings"]["slope_tol"]

    def test_literal_variant_passes_when_slopes_equal(self, capsys):
        rc, out, _ = run_cli(
            capsys, "check", "--use-literal-eq4", "--alpha", "5", "--beta", "5"
        )
        assert rc == 0
        assert json.loads(out)["passed"] is True

    def test_step_below_resolution_is_a_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "check", "--ode-step", "1e-300")
        assert rc == 2 and out == ""
        assert "step 1e-300 is below floating-point resolution at phi = 0.598" in err

    def test_unreachable_quadrature_tolerance_exits_1(self, capsys):
        """1e-16 is below the rounding level of the Simpson sums; the
        quadrature stops at the first interval instead of halving on."""
        rc, out, err = run_cli(capsys, "check", "--quad-tol", "1e-16")
        assert rc == 1 and out == ""
        assert "MaxDepthExceeded" in err and "below the rounding level" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--samples", "2"),
            ("--ode-step", "0"),
            ("--quad-tol", "-1"),
            ("--phi-lo", "0.60", "--phi-hi", "0.61"),  # phi_c left outside
        ],
    )
    def test_bad_settings_are_usage_errors(self, capsys, flags):
        rc, _, _ = run_cli(capsys, "check", *flags)
        assert rc == 2


class TestSimulate:
    def test_identical_invocations_write_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("simulate", "--seed", "42", "--n", "200", "--sigma", "0.005")
        assert run_cli(capsys, *argv, "-o", str(a))[0] == 0
        assert run_cli(capsys, *argv, "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_noise_piecewise_rows_lie_on_the_limit(
        self, capsys, tmp_path, demo_params
    ):
        path = tmp_path / "pw.csv"
        rc, _, _ = run_cli(
            capsys, "simulate", "--sigma", "0", "--model", "piecewise",
            "--n", "21", "-o", str(path),
        )
        assert rc == 0
        for phi, f in read_dataset(path.read_bytes()):
            assert f == piecewise_limit(phi, demo_params)

    def test_zero_points_is_a_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, "simulate", "--n", "0")
        assert rc == 2

    def test_spec_echoes_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        rc, _, err = run_cli(
            capsys, "simulate", "--seed", "7", "--sigma", "0.01",
            "--sampling", "random", "-o", str(path),
        )
        assert rc == 0
        record = stderr_provenance(err)
        assert record["command"] == "simulate"
        assert record["seed"] == 7
        assert record["sigma"] == 0.01
        assert record["sampling"] == "random"
        assert record["output"] == str(path)


class TestFit:
    def test_recovers_generator_parameters(self, capsys, tmp_path):
        path = tmp_path / "smooth.csv"
        run_cli(capsys, "simulate", "--sigma", "0", "--n", "50", "-o", str(path))
        rc, out, _ = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 0
        report = json.loads(out)
        smooth = report["smooth"]
        assert smooth["converged"] is True
        for key, want in [
            ("alpha", 10.7), ("beta", 80.0), ("gamma", 40.0),
            ("phi_c", 0.598), ("f_c", 0.5),
        ]:
            assert smooth[key] == pytest.approx(want, rel=1e-6)
        assert report["piecewise"]["sse"] >= 0.0
        assert report["settings"]["input"] == str(path)

    def test_reads_standard_input_with_dash(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "smooth.csv"
        run_cli(capsys, "simulate", "--sigma", "0", "--n", "50", "-o", str(path))
        fake = stdio.TextIOWrapper(stdio.BytesIO(path.read_bytes()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", fake)
        rc, out, _ = run_cli(capsys, "fit", "-i", "-")
        assert rc == 0
        assert json.loads(out)["smooth"]["converged"] is True

    def test_three_rows_exit_2_naming_insufficient_data(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_bytes(b"phi,F\n0.1,0.2\n0.2,0.4\n0.3,0.9\n")
        rc, _, err = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 2
        assert "InsufficientData" in err

    def test_malformed_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"F,phi\n0.1,0.2\n")
        rc, _, err = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 2
        assert "MalformedHeader" in err

    def test_sharp_input_reports_gamma_at_bound(self, capsys, tmp_path):
        """Hinge-shaped data pushes gamma onto its ridge: the report flags
        the bound and the non-converged exit code is 1, report included."""
        path = tmp_path / "pw.csv"
        run_cli(
            capsys, "simulate", "--sigma", "0", "--model", "piecewise",
            "--n", "60", "-o", str(path),
        )
        rc, out, _ = run_cli(capsys, "fit", "-i", str(path))
        report = json.loads(out)
        assert report["smooth"]["gamma_at_bound"] is True
        assert rc == (0 if report["smooth"]["converged"] else 1)
        assert report["smooth"]["alpha"] == pytest.approx(10.7, rel=1e-3)
        assert report["smooth"]["beta"] == pytest.approx(80.0, rel=1e-3)

    def test_iteration_starved_fit_exits_1_with_report(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "smooth.csv"
        run_cli(capsys, "simulate", "--sigma", "0", "--n", "50", "-o", str(path))
        monkeypatch.setattr(kinkfit.fit, "_MAX_ITERATIONS", 1)
        rc, out, _ = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 1
        assert json.loads(out)["smooth"]["converged"] is False

    def test_no_descent_fit_prints_its_report(self, capsys, tmp_path):
        """On this noisy draw LM ends because no step descends; the report's
        ``converged`` flag must still be a JSON boolean."""
        path = tmp_path / "noisy.csv"
        run_cli(
            capsys, "simulate", "--n", "120", "--sigma", "0.05", "--seed", "0",
            "--sampling", "random", "-o", str(path),
        )
        rc, out, _ = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 0
        assert json.loads(out)["smooth"]["converged"] is True

    def test_noisy_straight_line_prints_its_report(self, capsys, tmp_path):
        """The ninth default_rng(5) draw of f = 2 phi + 0.01 N(0, 1) (n = 200)
        drove gamma**2, then gamma, to 0, which used to end in
        ``gamma must be > 0`` and exit 2.  Its hinge is concave, so it now
        stops at ConcaveKink before LM; its reflection f -> -f has a convex
        hinge, goes through LM and prints its report."""
        rng = np.random.default_rng(5)
        for _ in range(9):
            phi = np.sort(rng.random(200))
            f = 2.0 * phi + 0.01 * rng.standard_normal(200)
        path = tmp_path / "line.csv"
        path.write_bytes(write_dataset(DataSet(phi, f)))
        rc, out, err = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("kinkfit: error: ConcaveKink: ")
        path.write_bytes(write_dataset(DataSet(phi, -f)))
        rc, out, err = run_cli(capsys, "fit", "-i", str(path))
        assert rc in (0, 1)
        assert rc == (0 if json.loads(out)["smooth"]["converged"] else 1)
        assert "gamma must be" not in err

    def test_overflowing_normal_equations_exit_1_in_one_line(self, capsys, tmp_path):
        """f = 1e160 max(phi - 0.5, 0): the hinge fit is exact, but J^T J
        overflows at the LM starting point."""
        phi = np.linspace(0.0, 1.0, 50)
        path = tmp_path / "steep.csv"
        path.write_bytes(write_dataset(DataSet(phi, 1e160 * np.maximum(phi - 0.5, 0.0))))
        rc, out, err = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 1 and out == ""
        assert err.startswith("kinkfit: error: SingularNormalMatrix: normal equations overflow")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_header_only_input_prints_one_stderr_line(self, tmp_path):
        """Run as a process, so that a warning would show on stderr."""
        path = tmp_path / "empty.csv"
        path.write_bytes(b"phi,F\n")
        for command in ("fit", "plot"):
            run = subprocess.run(
                [sys.executable, "-m", "kinkfit", command, "-i", str(path)],
                capture_output=True, text=True, timeout=60,
            )
            assert run.returncode == 2 and run.stdout == ""
            assert len(run.stderr.splitlines()) == 1, run.stderr

    def test_missing_input_file_exits_1(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "fit", "-i", str(tmp_path / "missing.csv"))
        assert rc == 1
        assert "No such file" in err

    def test_bad_config_flag_value_is_a_usage_error(self, capsys, tmp_path):
        """The LM settings are fixed: each former tuning flag is now an
        unknown flag, which exits 2, and ``settings`` holds only ``input``."""
        path = tmp_path / "d.csv"
        run_cli(capsys, "simulate", "--sigma", "0", "-o", str(path))
        for flag, value in [
            ("--max-iterations", "1"), ("--step-tol", "1e-10"),
            ("--sse-tol", "1e-12"), ("--lambda0", "1e-3"), ("--lambda-up", "10"),
            ("--lambda-down", "0.1"), ("--gamma-max", "1e8"),
        ]:
            with pytest.raises(SystemExit) as info:
                main(["fit", "-i", str(path), flag, value])
            assert info.value.code == 2
        rc, out, _ = run_cli(capsys, "fit", "-i", str(path))
        assert rc == 0
        assert json.loads(out)["settings"] == {"input": str(path)}


def negated_csv(path, data: DataSet, every: int = 1) -> str:
    path.write_bytes(write_dataset(DataSet(data.phi[::every], -data.f[::every])))
    return str(path)


class TestConcaveKink:
    """The smooth model only has a convex kink (alpha <= beta).  Data whose
    hinge slopes fall from left to right exit 2 in one line naming both
    slopes, instead of a confident wrong fit or an unexplained stall."""

    @staticmethod
    def benchmark_smooth(demo_params) -> DataSet:
        """The fit benchmark's smooth.csv at seed 1: n = 4000 random phi on
        [0.57, 0.63], F plus N(0, 0.005^2) noise."""
        rng = np.random.default_rng(1)
        phi = np.sort(0.57 + 0.06 * rng.random(4000))
        return DataSet(phi, value(phi, demo_params) + 0.005 * rng.standard_normal(4000))

    @staticmethod
    def simulated(params, n: int, seed: int) -> DataSet:
        spec = SyntheticSpec(
            params, n, 0.57, 0.63, noise_sigma=0.005, seed=seed, sampling="random"
        )
        return generate_synthetic(spec)

    def assert_concave_kink(self, capsys, *argv) -> str:
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("kinkfit: error: ConcaveKink: hinge slopes ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        return err

    def test_negated_benchmark_smooth_csv(self, capsys, tmp_path, demo_params):
        data = self.benchmark_smooth(demo_params)
        path = negated_csv(tmp_path / "neg.csv", data)
        err = self.assert_concave_kink(capsys, "fit", "-i", path)
        pw = kinkfit.fit.fit_piecewise(DataSet(data.phi, -data.f))
        assert f"{pw.alpha!r} (left) > {pw.beta!r} (right)" in err
        self.assert_concave_kink(capsys, "plot", "-i", path, "--overlay-fit")

    def test_negated_readme_sample(self, capsys, tmp_path, demo_params):
        path = negated_csv(tmp_path / "neg.csv", self.simulated(demo_params, 200, 42))
        self.assert_concave_kink(capsys, "fit", "-i", path)

    def test_every_fiftieth_row_of_negated_tabulate_input(
        self, capsys, tmp_path, demo_params
    ):
        data = self.simulated(demo_params, 200_000, 11)
        self.assert_concave_kink(capsys, "fit", "-i", negated_csv(tmp_path / "n.csv", data, 50))


class TestPlot:
    def test_figure1_kink_position_and_slopes(self, capsys, tmp_path):
        path = tmp_path / "fig1.svg"
        rc, _, _ = run_cli(capsys, "plot", "--figure1", "-o", str(path))
        assert rc == 0
        data = decoded_polyline(path.read_bytes())
        slopes = [
            (y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(data, data[1:])
        ]
        kink = max(range(1, len(slopes)), key=lambda i: abs(slopes[i] - slopes[i - 1]))
        xk, yk = data[kink]
        assert xk == pytest.approx(0.598, abs=1e-3)
        x0, y0 = data[0]
        x1, y1 = data[-1]
        assert (yk - y0) / (xk - x0) == pytest.approx(10.7, rel=5e-3)
        assert (y1 - yk) / (x1 - xk) == pytest.approx(80.0, rel=5e-3)

    def test_no_source_is_a_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, "plot")
        assert rc == 2
        assert "nothing to plot" in err

    def test_figure1_conflicts_with_parameters(self, capsys):
        rc, _, _ = run_cli(capsys, "plot", "--figure1", "--alpha", "1")
        assert rc == 2

    def test_figure1_conflicts_with_input(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"phi,F\n0.5,1.0\n")
        rc, _, _ = run_cli(capsys, "plot", "--figure1", "--input", str(path))
        assert rc == 2

    def test_overlay_requires_input(self, capsys):
        rc, _, _ = run_cli(capsys, "plot", "--overlay-fit")
        assert rc == 2

    def test_overflowing_plot_range_is_a_typed_error(self, capsys, monkeypatch):
        """The padded x range of +-1e308 overflows: after the provenance
        record, one error line naming the axis, and exit 1."""
        fake = stdio.TextIOWrapper(stdio.BytesIO(b"phi,F\n-1e308,0\n1e308,1\n"))
        monkeypatch.setattr(sys, "stdin", fake)
        rc, out, err = run_cli(capsys, "plot", "-i", "-")
        assert rc == 1 and out == ""
        provenance, error = err.splitlines()
        assert stderr_provenance(provenance)["input"] == "-"
        assert error.startswith("kinkfit: error: NonFiniteSample: x axis: padded data range")

    def test_subnormal_extent_plots(self, capsysbinary, monkeypatch):
        """An x extent of 5e-324 used to end in ``math domain error``."""
        fake = stdio.TextIOWrapper(stdio.BytesIO(b"phi,F\n0,0\n5e-324,1\n"))
        monkeypatch.setattr(sys, "stdin", fake)
        rc = main(["plot", "-i", "-"])
        captured = capsysbinary.readouterr()
        assert rc == 0
        root = ET.fromstring(captured.out)
        assert [local_name(e.tag) for e in root.iter()].count("circle") == 2

    def test_overlay_renders_scatter_plus_both_fits(self, capsys, tmp_path):
        data_path = tmp_path / "noisy.csv"
        run_cli(
            capsys, "simulate", "--sigma", "0.005", "--seed", "42", "--n", "40",
            "--sampling", "random", "-o", str(data_path),
        )
        svg_path = tmp_path / "overlay.svg"
        rc, _, _ = run_cli(
            capsys, "plot", "--input", str(data_path), "--overlay-fit",
            "-o", str(svg_path),
        )
        assert rc == 0
        root = ET.parse(svg_path).getroot()
        tags = [local_name(e.tag) for e in root.iter()]
        assert tags.count("polyline") == 2
        assert tags.count("circle") == 40

    def test_partial_parameters_use_documented_defaults(self, capsys, tmp_path):
        path = tmp_path / "curve.svg"
        rc, _, err = run_cli(capsys, "plot", "--gamma", "1000", "-o", str(path))
        assert rc == 0
        record = stderr_provenance(err)
        assert record["gamma"] == 1000.0
        assert record["alpha"] is None  # unset flags echo as parsed
        root = ET.parse(path).getroot()
        assert [local_name(e.tag) for e in root.iter()].count("polyline") == 1

    def test_stdout_output_is_well_formed_svg(self, capsysbinary):
        rc = main(["plot", "--figure1", "--samples", "11"])
        captured = capsysbinary.readouterr()
        assert rc == 0
        root = ET.fromstring(captured.out)
        assert local_name(root.tag) == "svg"


class TestByteIdentity:
    """The documented output contract: these README commands write exactly
    these bytes.  Digests recorded on x86-64 Linux, Python 3.11.7, numpy
    2.4.6; a change that moves any digit of the output fails here."""

    SHA256 = {
        "data.csv": "291300b3a36173014dc9f58776b9d189fe6a8c166c76cc13f7b34805dfebdcb7",
        "figure1.svg": "a1a0822a8c48cd262dbaaf059c07f4ddd8dd4a54d4b4c19c8474b81cfe150200",
        "overlay.svg": "f1c7b3ad2cb5c6286a0240d72ac9bb54c1720920c2f54d34c090723a0d266917",
        "gamma1000.svg": "a0757df44c493df7540534de8f09363044de7a880b855571c64042838f452ff2",
        "scatter.svg": "77b0353c70f56e1e3391569f1c5aeb761084589aa67c9a6d29ce893a1b2cde48",
        "concave.svg": "3b6c4bb8e04736c4742e022dcbbd88b39214d27c331712143e90ed0ad7122b4b",
    }

    def test_readme_simulate_and_plots(self, capsys, tmp_path):
        data = str(tmp_path / "data.csv")
        for argv in (
            ("simulate", "--n", "200", "--sigma", "0.005", "--seed", "42",
             "--sampling", "random", "-o", data),
            ("plot", "--figure1", "-o", str(tmp_path / "figure1.svg")),
            ("plot", "-i", data, "--overlay-fit", "-o", str(tmp_path / "overlay.svg")),
            ("plot", "--gamma", "1000", "-o", str(tmp_path / "gamma1000.svg")),
            ("plot", "-i", data, "-o", str(tmp_path / "scatter.svg")),
            ("plot", "--alpha", "80", "--beta", "10", "--width", "300", "--height", "200",
             "--samples", "7", "-o", str(tmp_path / "concave.svg")),
        ):
            assert run_cli(capsys, *argv)[0] == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.SHA256
        }
        assert digests == self.SHA256

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("eval", "--phi-range", "0.57:0.63:2001", "--csv"),
             "345ee80c079ee9d0ed2487f13ede38507ba0a668d072314d40b03e69bb47761f"),
            (("eval", "--phi", "0.598", "--phi-range=-3:3:999"),
             "11346fa946dc7a8c9b01f64b0763853e3156bd5e02ac93d490c814e3d55e70e0"),
            (("simulate", "--n", "5000", "--sampling", "random", "--sigma", "0.005",
              "--seed", "7"),
             "a133b130ce0892690dcd90514d70cecce703bab09bff6c231358955670c2b317"),
            (("simulate", "--sigma", "0", "--model", "piecewise", "--n", "21"),
             "12ccfe0f438b1b0ccf69cc6a0924ca9cb7ba24f230dbf0033c279821a22885e5"),
            # 10 000 rows span several blocks of the bulk row formatter.
            (("simulate", "--n", "10000", "--sampling", "random", "--sigma", "0.005",
              "--seed", "3"),
             "b193f23957c498e6c2cb8755b338244ec2aa4187190f1fb78b634fab73a627d2"),
            (("eval", "--phi-range", "0.57:0.63:10000", "--csv"),
             "53aa13e929d4629a17f3d43502a1aef94458fbfb226d2e3afb38d4729bbbeb78"),
            (("eval", "--phi-range", "0.57:0.63:10000"),
             "81ffa2c0593217e55878665302784de648c16a3e7c46fcaadd2e6dee23d28059"),
        ],
    )
    def test_eval_and_simulate_stdout(self, capsys, argv, digest):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_multi_block_scatter(self, capsys, tmp_path):
        data = str(tmp_path / "data.csv")
        svg = tmp_path / "scatter.svg"
        for argv in (
            ("simulate", "--n", "10000", "--sampling", "random", "--sigma", "0.005",
             "--seed", "3", "-o", data),
            ("plot", "-i", data, "-o", str(svg)),
        ):
            assert run_cli(capsys, *argv)[0] == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "efd67ea14d4800cee564c5935300481892a6dae7bc09c64babbbe576966909b3"
        )


def test_plot_input_peak_memory_is_bounded(capsys, tmp_path):
    """``plot -i`` holds the file's bytes, one slice of text and one block
    of circles at a time, and writes the document without joining it: the
    traced peak stays below 5 times the SVG's size (about 6.7 times when
    the read held the whole text and the document was joined)."""
    data, svg = tmp_path / "data.csv", tmp_path / "out.svg"
    argv = ("simulate", "--n", "20000", "--sampling", "random", "--sigma", "0.005")
    assert run_cli(capsys, *argv, "-o", str(data))[0] == 0
    tracemalloc.start()
    try:
        rc = main(["plot", "-i", str(data), "-o", str(svg)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 5 * svg.stat().st_size


class TestEntryPoints:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--no-such-flag"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_module_invocation_round_trips(self, tmp_path):
        out = tmp_path / "d.csv"
        run = subprocess.run(
            [
                sys.executable, "-m", "kinkfit", "simulate",
                "--sigma", "0", "--n", "5", "-o", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert run.returncode == 0
        data = read_dataset(out.read_bytes())
        assert len(data) == 5
        record = json.loads(run.stderr.strip().splitlines()[-1])
        assert record["command"] == "simulate"
