"""Command-line interface tests.

Each subcommand is exercised in-process through ``main(argv)`` so stdout,
stderr and exit codes can be asserted cheaply.  ``CONTRACT`` states each
case whose exit code, stdout digest and stderr pin the contract once, as a
row; the tests below it read or write files, or parse a report.  A few
subprocess tests cover the ``python -m kinkfit`` entry point end to end.
"""

from __future__ import annotations

import faulthandler
import hashlib
import io as stdio
import json
import os
import re
import subprocess
import sys
import tracemalloc
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kinkfit.cli
import kinkfit.errors
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


def echo(command: str) -> str:
    """The stderr of a command that ran: its parsed flags, one JSON line."""
    return rf'\{{"command": "{command}", .*\}}\n'


def error(message: str) -> str:
    """The stderr of a refusal: one ``kinkfit: error:`` line, ``message`` a regex."""
    return f"kinkfit: error: {message}\n"


def lo_hi_n(text: str) -> str:
    return error(f"argument --phi-range: must be lo:hi:n with finite lo and hi, got '{text}'")


def not_finite(flag: str, text: str) -> str:
    return error(f"argument {flag}: must be finite, got '{text}'")


BAD_SHARE = r"quad_tol / \(phi_hi - phi_lo\) must be > 0, got "

# The CLI contract, one row per case: (argv, stdin bytes or None, exit code,
# sha256 of stdout or "" for an empty stdout, regex that the whole of stderr
# must match).  TestByteIdentity.test_eval_and_simulate_stdout runs the rows
# that exit 0, test_contract every other row, each through run_row().
# Digests recorded on x86-64 Linux, Python 3.11.7, numpy 2.4.6; a change that
# moves any digit of the output fails here.
CONTRACT = [
    ("eval --phi-range 0.57:0.63:2001 --csv", None, 0,
     "345ee80c079ee9d0ed2487f13ede38507ba0a668d072314d40b03e69bb47761f", echo("eval")),
    ("eval --phi 0.598 --phi-range=-3:3:999", None, 0,
     "11346fa946dc7a8c9b01f64b0763853e3156bd5e02ac93d490c814e3d55e70e0", echo("eval")),
    ("simulate --n 5000 --sampling random --sigma 0.005 --seed 7", None, 0,
     "a133b130ce0892690dcd90514d70cecce703bab09bff6c231358955670c2b317", echo("simulate")),
    ("simulate --sigma 0 --model piecewise --n 21", None, 0,
     "12ccfe0f438b1b0ccf69cc6a0924ca9cb7ba24f230dbf0033c279821a22885e5", echo("simulate")),
    # 10 000 rows span several blocks of the bulk row formatter.
    ("simulate --n 10000 --sampling random --sigma 0.005 --seed 3", None, 0,
     "b193f23957c498e6c2cb8755b338244ec2aa4187190f1fb78b634fab73a627d2", echo("simulate")),
    ("eval --phi-range 0.57:0.63:10000 --csv", None, 0,
     "53aa13e929d4629a17f3d43502a1aef94458fbfb226d2e3afb38d4729bbbeb78", echo("eval")),
    ("eval --phi-range 0.57:0.63:10000", None, 0,
     "81ffa2c0593217e55878665302784de648c16a3e7c46fcaadd2e6dee23d28059", echo("eval")),
    # The check reports hold every bit of the RK4 and Simpson deviations.
    ("check", None, 0, "f22c3911e4ecaa6b786ff0fb22339ec9f9f5f5eebaac54f2f20dc667f06fb9f0", ""),
    ("check --alpha 1 --beta 3 --gamma 2 --phi-c 0 --f-c 0 --phi-lo -1 --phi-hi 1", None, 0,
     "fe10cae4718907887fdb93ca32c3746931e9d229cb08d86eeb1dc92625c04e3c", ""),
    ("check --samples 401 --quad-tol 1e-12", None, 0,
     "7270e1ccd09389843fb6aeba0f9af97e7df3d1652fc6f978f51e47f9733d06b7", ""),
    # An odd n drops the sin half of the last Box-Muller pair.
    ("simulate --n 4999 --sampling random --sigma 0.005 --seed 7", None, 0,
     "3e22eef83f17fc577d353a0bd219a7bcc76cf21be23a689a1f71b68c3cb1c1eb", echo("simulate")),
    ("eval --gamma 0 --phi 0.6", None, 2, "", error(r"gamma must be > 0, got 0\.0")),
    ("eval", None, 2, "", error("provide at least one --phi or a --phi-range")),
    ("eval --phi-range 0.57:0.63", None, 2, "", lo_hi_n(r"0\.57:0\.63")),
    ("eval --phi-range a:b:3", None, 2, "", lo_hi_n("a:b:3")),
    ("eval --phi-range 0.5:0.6:0", None, 2, "",
     error("argument --phi-range: count must be >= 1, got 0")),
    # Text that is not a finite number is refused while the flags are parsed,
    # so no NaN or Infinity reaches the stderr record or a report.
    ("eval --phi nan", None, 2, "", not_finite("--phi", "nan")),
    ("eval --phi-range 0:inf:3", None, 2, "", lo_hi_n("0:inf:3")),
    ("eval --phi-range nan:1:3", None, 2, "", lo_hi_n("nan:1:3")),
    ("eval --phi 0.6 --gamma inf", None, 2, "", not_finite("--gamma", "inf")),
    ("check --slope-tol inf", None, 2, "", not_finite("--slope-tol", "inf")),
    ("check --phi-hi=-inf", None, 2, "", not_finite("--phi-hi", "-inf")),
    ("simulate --phi-lo nan", None, 2, "", not_finite("--phi-lo", "nan")),
    ("simulate --sigma infinity", None, 2, "", not_finite("--sigma", "infinity")),
    ("plot --gamma 100 --phi-lo nan", None, 2, "", not_finite("--phi-lo", "nan")),
    ("plot --figure1 --width 1e999", None, 2, "", not_finite("--width", "1e999")),
    ("eval --phi 0.6x", None, 2, "", error(r"argument --phi: must be a number, got '0\.6x'")),
    # The span overflows; then only 2 * span does, at the grid's last point.
    *[(f"eval --phi-range={text} --csv", None, 2, "",
       error(f"argument --phi-range: must be a grid of finite points, got '{text}'"))
      for text in ("-1e308:1e308:3", "-8e307:9e307:3")],
    # Above 2**53, n - 1 and the grid's length are no longer exact doubles:
    # np.arange would size the grid wrongly, return nothing, or fail naming
    # no flag.  The count is refused before the grid's last point is formed,
    # where 10**400 - 1 would not convert to a double at all.
    *[(f"eval --phi-range 0:1:{n}", None, 2, "",
       error(f"argument --phi-range: count must be at most {2**53}, got {n}"))
      for n in (2**53 + 1, 2**60 - 64, 2**60 - 1, 2**60, 2**63 - 1, 2**63, 10**400)],
    # A width beta - alpha that overflows is refused alike by every command.
    *[(f"{command} --alpha=-1e308 --beta 1e308 --gamma 1", None, 2, "",
       error(r"beta - alpha must be finite, got -1e\+308, 1e\+308"))
      for command in ("eval --phi 0.5", "simulate", "plot", "check")],
    # Coarser RK4 steps: at 1e-4 and 1e-3 the check misses its tolerance and
    # prints its report; at 1e-2 a stage leaves the band, with no report.
    ("check --ode-step 1e-4", None, 1,
     "125cb53d6e5cca6612ec9640692a35900fa37ea221772b7a2b9e117bb87c95e2", ""),
    ("check --ode-step 1e-3", None, 1,
     "59d86634b3292dd534050471fe41641beaa0d17f1568eac7722c52719de3085f", ""),
    ("check --ode-step 1e-2", None, 1, "",
     error(r"StepTooLarge: stage value .* near phi = 0\.598; reduce the step below 0\.01")),
    # 1e-16 is below the rounding level of the Simpson sums: the quadrature
    # stops at the first interval instead of halving on.
    ("check --quad-tol 1e-16", None, 1, "",
     error(r"MaxDepthExceeded: interval .* is below the rounding level .* Simpson sums")),
    # Settings refused before any march, not failed after it.
    ("check --samples 2", None, 2, "", error("n_samples must be >= 3, got 2")),
    ("check --samples 1000001", None, 2, "", error("n_samples must be <= 1000000, got 1000001")),
    ("check --ode-step 0", None, 2, "", error(r"ode_step must be > 0, got 0\.0")),
    ("check --quad-tol -1", None, 2, "", error(BAD_SHARE + r"-\S+")),
    # The width overflows, so no interval gets a share of the tolerance.
    ("check --phi-lo=-1e308 --phi-hi=1e308", None, 2, "", error(BAD_SHARE + r"0\.0")),
    ("check --phi-lo 0.60 --phi-hi 0.61", None, 2, "",  # phi_c left outside
     error(r"need phi_lo < phi_c < phi_hi, got 0\.6, 0\.598, 0\.61")),
    ("check --slope-tol nan", None, 2, "", not_finite("--slope-tol", "nan")),
    ("check --value-tol nan", None, 2, "", not_finite("--value-tol", "nan")),
    *[(argv, None, 2, "", error("--slope-tol and --value-tol must be > 0"))
      for argv in ("check --slope-tol 0", "check --value-tol=-1")],
    # Steps that cannot move phi at phi_c, at a window end or right of phi_c.
    ("check --ode-step 1e-300", None, 2, "",
     error(r"step 1e-300 is below floating-point resolution at phi = 0\.598")),
    ("check --ode-step 1e-300 --alpha 1 --beta 3 --gamma 2 --phi-c 0 --f-c 0 --phi-lo -1 "
     "--phi-hi 1", None, 2, "",
     error(r"step 1e-300 is below floating-point resolution at phi = -1\.0")),
    ("check --ode-step 4e-17 --phi-c 0.5 --phi-lo 0.47 --phi-hi 0.53", None, 2, "",
     error(r"step 4e-17 is below floating-point resolution at phi = 0\.5")),
    # The rate gamma (s - alpha)(beta - s) is inf where both marches start.
    ("check --alpha=-1e200 --beta 1e200 --gamma 1 --phi-c 0 --phi-lo=-1e-199 --phi-hi 1e-199 "
     "--ode-step 1e-201", None, 2, "",
     error(r"the slope ODE's rate inf at s = 0\.0 leaves the double range")),
    ("simulate --n 0", None, 2, "", error("n must be >= 1, got 0")),
    ("simulate --sigma -1", None, 2, "", error(r"noise_sigma must be finite and >= 0, got -1\.0")),
    ("simulate --seed -1", None, 2, "", error("seed must be a 64-bit unsigned integer, got -1")),
    ("plot", None, 2, "", error("nothing to plot: give --figure1, model parameters, or --input")),
    ("plot --figure1 --alpha 1", None, 2, "",
     error("--figure1 cannot be combined with explicit parameters or --input")),
    ("plot --figure1 --samples 1", None, 2, "", error("--samples must be >= 2")),
    ("plot --figure1 --width nan", None, 2, "", not_finite("--width", "nan")),
    ("plot --figure1 --height inf", None, 2, "", not_finite("--height", "inf")),
    ("plot --overlay-fit", None, 2, "", error("--overlay-fit requires --input")),
    # The padded x range of +-1e308 overflows: one error line naming the
    # axis, before the flags are echoed.
    ("plot -i -", b"phi,F\n-1e308,0\n1e308,1\n", 1, "",
     error(r"NonFiniteSample: x axis: padded data range \[-inf, inf\] overflows")),
    # alpha (phi - phi_c) overflows while beta - alpha is 0: eval names the
    # first column and phi that are not finite, and plot the curve's first
    # value, each before any output.
    ("eval --alpha 1e308 --beta 1e308 --phi 0.5 --phi 10", None, 2, "",
     error(r"value is not finite at phi = 10\.0")),
    ("plot --alpha 1e308 --beta 1e308 --phi-lo 9 --phi-hi 10", None, 1, "",
     error("NonFiniteSample: series 'model-curve' contains inf")),
]
ROW = {argv: row for argv, *row in CONTRACT}


def run_row(capsysbinary, monkeypatch, argv: str) -> str:
    """Runs a row in process, checks its exit code and stderr, and returns
    its stdout digest.  A row that runs for 20 s ends the test run with a
    traceback, so a refusal that regressed into a march fails fast."""
    stdin, code, _, stderr = ROW[argv]
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", stdio.TextIOWrapper(stdio.BytesIO(stdin)))
    with capsysbinary.disabled():  # the traceback goes to the terminal, not the capture
        terminal = os.dup(2)
    try:
        faulthandler.dump_traceback_later(20, exit=True, file=terminal)
        rc = main(argv.split())
    finally:
        faulthandler.cancel_dump_traceback_later()
        os.close(terminal)
    out, err = capsysbinary.readouterr()
    assert rc == code
    assert re.fullmatch(stderr, err.decode()), err
    return hashlib.sha256(out).hexdigest() if out else ""


@pytest.mark.parametrize("argv", [argv for argv, _, code, *_ in CONTRACT if code],
                         ids=lambda argv: argv if len(argv) <= 100 else argv[:40] + "...")
def test_contract(capsysbinary, monkeypatch, argv):
    assert run_row(capsysbinary, monkeypatch, argv) == ROW[argv][2]


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

    def test_figure1_conflicts_with_input(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"phi,F\n0.5,1.0\n")
        rc, _, _ = run_cli(capsys, "plot", "--figure1", "--input", str(path))
        assert rc == 2

    def test_header_only_input_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"phi,F\n")
        rc, out, err = run_cli(capsys, "plot", "-i", str(path))
        assert rc == 2 and out == ""
        assert err == f"kinkfit: error: {str(path)!r} contains no data rows\n"

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
        [(tuple(argv.split()), stdout) for argv, _, code, stdout, _ in CONTRACT if not code],
    )
    def test_eval_and_simulate_stdout(self, capsysbinary, monkeypatch, argv, digest):
        """The rows of ``CONTRACT`` that exit 0: each writes these bytes."""
        assert run_row(capsysbinary, monkeypatch, " ".join(argv)) == digest

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


# Runs each argument list of argv[1] (JSON) as ``python -m kinkfit`` does,
# in one process, then lists the kinkfit modules that process imported and
# which of numpy, numpy.ma and xml.etree.ElementTree it loaded.
_FOOTPRINT = """
import json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["kinkfit", *argv]
    try:
        runpy.run_module("kinkfit", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
watched = ("numpy", "numpy.ma", "xml.etree.ElementTree")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("kinkfit") or m in watched)),
      file=sys.stderr)
"""

_PACKAGE = """
import json, sys
import kinkfit
loaded = sorted(m for m in sys.modules if m.startswith("kinkfit."))
reader = kinkfit.io.read_dataset
star = {}
exec("from kinkfit import *", star)
try:
    kinkfit.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded_by_import": loaded,
    "reader": f"{reader.__module__}.{reader.__name__}",
    "unbound": [n for n in kinkfit.__all__ if n not in star],
    "same_objects": all(star[n] is getattr(kinkfit, n) for n in kinkfit.__all__),
    "dir": dir(kinkfit),
    "unknown": unknown,
}))
"""


def run_python(code: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    run = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=60, env=env
    )
    assert run.returncode == 0, run.stderr
    return run


class TestImportFootprint:
    """Submodules load on first use: ``check`` and ``--version`` never
    import the fit, I/O or power-law layers, only ``fit`` and
    ``plot --overlay-fit`` import the fit layer, and the package still binds
    every export and submodule it always did."""

    def footprint(self, *argvs: list[str]) -> tuple[subprocess.CompletedProcess, set[str]]:
        run = run_python(_FOOTPRINT, json.dumps(argvs))
        return run, set(json.loads(run.stderr.strip().splitlines()[-1]))

    @pytest.mark.parametrize(
        "argv, loads_fit",
        [
            (["eval", "--phi", "0.598"], False),
            (["simulate", "--n", "20"], False),
            (["plot", "-i", "DATA"], False),
            (["plot", "--figure1", "--samples", "5"], False),
            (["fit", "-i", "DATA"], True),
            (["plot", "-i", "DATA", "--overlay-fit"], True),
        ],
    )
    def test_only_the_fitting_commands_load_fit(self, tmp_path, demo_params, argv, loads_fit):
        """Each command in its own process: ``DataSet`` lives in the I/O
        layer, so reading, writing and plotting data never import ``fit``."""
        data = tmp_path / "d.csv"
        spec = SyntheticSpec(demo_params, 200, 0.57, 0.63, 0.005, 1, "random")
        data.write_bytes(write_dataset(generate_synthetic(spec)))
        run, loaded = self.footprint([str(data) if a == "DATA" else a for a in argv])
        assert "kinkfit.io" in loaded
        assert ("kinkfit.fit" in loaded) is loads_fit

    def test_check_and_version_skip_fit_io_and_powerlaw(self):
        run, loaded = self.footprint(["--version"], ["check"])
        assert run.stdout.startswith("kinkfit 0.1.0\n")
        assert json.loads(run.stdout.split("\n", 1)[1])["passed"] is True
        assert "kinkfit.oracle" in loaded
        assert not {"kinkfit.io", "kinkfit.fit", "kinkfit.powerlaw", "numpy"} & loaded

    def test_other_commands_skip_numpy_ma_and_elementtree(self, tmp_path):
        """``np.unique`` loads numpy.ma, and ElementTree is only needed to
        read an SVG back (``svg_geometry``)."""
        data = tmp_path / "d.csv"
        svg = str(tmp_path / "out.svg")
        run, loaded = self.footprint(
            ["simulate", "--n", "200", "--sigma", "0.005", "--seed", "1", "-o", str(data)],
            ["fit", "-i", str(data)],
            ["plot", "-i", str(data), "--overlay-fit", "-o", svg],
            ["plot", "--figure1", "-o", svg],
            ["eval", "--phi-range", "0.57:0.63:5"],
        )
        assert json.loads(run.stdout.split("\n}\n", 1)[0] + "}")["smooth"]["converged"]
        assert {"numpy", "kinkfit.fit", "kinkfit.io"} <= loaded
        assert not {"numpy.ma", "xml.etree.ElementTree"} & loaded

    def test_check_and_version_run_without_numpy(self):
        """With every numpy import failing, ``--version`` runs and the default
        and README checks write their ``CONTRACT`` digests."""
        code = 'import sys; sys.modules["numpy"] = None; from kinkfit.cli import main; sys.exit(main())'
        readme = "check --alpha 1 --beta 3 --gamma 2 --phi-c 0 --f-c 0 --phi-lo -1 --phi-hi 1"
        digest = {argv: stdout for argv, _, _, stdout, _ in CONTRACT}
        digest["--version"] = hashlib.sha256(b"kinkfit 0.1.0\n").hexdigest()
        for argv in ("--version", "check", readme):
            run = subprocess.run(
                [sys.executable, "-c", code, *argv.split()], capture_output=True, timeout=60
            )
            assert run.returncode == 0, run.stderr
            assert hashlib.sha256(run.stdout).hexdigest() == digest[argv]

    def test_dataset_is_one_class(self):
        assert kinkfit.DataSet is kinkfit.io.DataSet is kinkfit.fit.DataSet is DataSet

    def test_exports_and_submodules_resolve_on_demand(self):
        report = json.loads(run_python(_PACKAGE).stdout)
        assert report["loaded_by_import"] == []
        assert report["reader"] == "kinkfit.io.read_dataset"
        assert report["unbound"] == [] and report["same_objects"]
        submodules = {"errors", "fit", "io", "model", "oracle", "powerlaw", "quadrature"}
        assert set(kinkfit.__all__) | submodules <= set(report["dir"])
        assert not [n for n in report["dir"] if n.startswith("_") and not n.startswith("__")]
        assert report["unknown"] == "module 'kinkfit' has no attribute 'no_such_name'"


# Calls main() on argv[1:] in a fresh process, then prints on stderr how
# many OS threads that process has (null without /proc) and its
# OPENBLAS_NUM_THREADS.
_THREADS = """
import json, os, sys
from kinkfit.cli import main
main(sys.argv[1:])
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([threads, os.environ.get("OPENBLAS_NUM_THREADS")]), file=sys.stderr)
"""

_LIBRARY_FIT = """
import os
before = dict(os.environ)
import kinkfit
spec = kinkfit.SyntheticSpec(kinkfit.TransitionParams(10.7, 80.0, 40.0, 0.598, 0.5),
                             200, 0.57, 0.63, 0.005, 1, "random", "smooth")
assert kinkfit.fit_two_stage(kinkfit.generate_synthetic(spec))[1].converged
assert dict(os.environ) == before
"""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def env_without_blas_threads(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return {**env, **extra}


class TestBlasThreads:
    """``main`` runs OpenBLAS on one thread, whatever the caller set;
    ``import kinkfit`` and the library leave the environment alone."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    @pytest.mark.parametrize(
        "argv, setting", [(["eval", "--phi", "0.598"], "1"), (["check"], None)]
    )
    def test_cli_process_runs_one_thread(self, argv, setting):
        """An array command sets the variable; ``check``, which imports no
        numpy, leaves the environment alone."""
        run = run_python(_THREADS, *argv, env=env_without_blas_threads())
        assert json.loads(run.stderr.strip().splitlines()[-1]) == [1, setting]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_count_is_one_whatever_the_caller_set(self):
        """OPENBLAS_NUM_THREADS=1 outranks each variable OpenBLAS reads."""
        for name in BLAS_THREAD_VARS:
            env = env_without_blas_threads(**{name: "2"})
            run = run_python(_THREADS, "eval", "--phi", "0.598", env=env)
            assert json.loads(run.stderr.strip().splitlines()[-1]) == [1, "1"], name

    def test_main_after_numpy_leaves_environment_alone(self, capsys, monkeypatch):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        assert run_cli(capsys, "eval", "--phi", "0.598")[0] == 0
        assert dict(os.environ) == before

    def test_library_fit_leaves_environment_alone(self):
        run_python(_LIBRARY_FIT, env=env_without_blas_threads())

    def test_fit_output_does_not_depend_on_the_thread_default(self, capsys, tmp_path):
        """Above 1e4 points OpenBLAS splits the sse dot product between its
        threads: with the default pool on 2 cores, or a count of 2 set by
        the caller, this n = 2e4 fit printed another last digit of sse and
        of four standard errors."""
        data = str(tmp_path / "d.csv")
        argv = ("simulate", "--n", "20000", "--sampling", "random", "--sigma", "0.005",
                "--seed", "1", "-o", data)
        assert run_cli(capsys, *argv)[0] == 0
        runs = [
            subprocess.run([sys.executable, "-m", "kinkfit", "fit", "-i", data],
                           capture_output=True, timeout=60, env=env)
            for env in (env_without_blas_threads(),
                        env_without_blas_threads(OPENBLAS_NUM_THREADS="1"),
                        env_without_blas_threads(OPENBLAS_NUM_THREADS="2"),
                        env_without_blas_threads(OMP_NUM_THREADS="2"),
                        env_without_blas_threads(GOTO_NUM_THREADS="2"))
        ]
        assert [run.returncode for run in runs] == [0] * 5
        assert all(run.stdout == runs[0].stdout for run in runs)


def strict_json(text: str):
    """``json.loads`` that refuses the NaN and Infinity tokens, as RFC 8259 does."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=refuse)


# Finite doubles, with the zeros, the subnormal and normal edges and the
# largest doubles drawn often.
EDGE_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e308, -1e308,
                1.7976931348623157e308, -1.7976931348623157e308)
finite_doubles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_DOUBLES)


class TestNumberFlags:
    """Every float flag and the --phi-range bounds parse through one argparse
    type: text that is not a finite number is a usage error, found before
    the command runs (rows of ``CONTRACT``), so no NaN or Infinity reaches
    the JSON output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--phi", "0.598", "--phi-range", "0.57:0.63:3"),
            ("simulate", "--n", "3"),
            ("plot", "--figure1", "--samples", "3"),
            ("check",),
        ],
    )
    def test_reports_are_strict_json(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 0
        report = out if argv[0] == "check" else err.splitlines()[-1]
        assert isinstance(strict_json(report), dict)

    # 200 examples of three commands each take about 2 s.  run_cli drains
    # capsys after each command, so the fixture can serve every example.
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow,
                                                       HealthCheck.function_scoped_fixture])
    @given(finite_doubles, st.tuples(*[finite_doubles] * 5))
    @example(10.0, (1e308, 1e308, 1.0, 0.598, 0.5))  # alpha (phi - phi_c) overflows
    def test_every_outcome_has_one_shape(self, capsys, phi, params):
        """Whatever finite flags ``eval``, ``simulate`` and ``plot`` get,
        they exit 0, 1 or 2.  A refusal writes nothing to stdout and one
        ``kinkfit: error:`` line to stderr; a success prints no nan or inf
        and echoes its flags as one strict-JSON line.  Each flag is written
        ``--alpha=<repr>``, as argparse takes ``-1e308`` alone for a flag."""
        flags = [f"--{name}={v!r}" for name, v in zip(("alpha", "beta", "gamma", "phi-c", "f-c"),
                                                       params)]
        for argv in (["eval", f"--phi={phi!r}", *flags], ["simulate", "--n", "5", *flags],
                     ["plot", "--samples", "5", *flags]):
            rc, out, err = run_cli(capsys, *argv)
            assert rc in (0, 1, 2), argv
            if rc:
                assert out == "" and re.fullmatch(r"kinkfit: error: [^\n]*\n", err), argv
            else:
                assert not re.search(r"(?i)\b(nan|inf(inity)?)\b", out), argv
                assert err.count("\n") == 1 and isinstance(strict_json(err), dict), argv

    def test_count_2_to_the_53_parses(self):
        assert kinkfit.cli._parse_phi_range(f"0:1:{2**53}") == (0.0, 1.0, 2**53)

    def test_negative_exponent_value_parses_after_equals(self, capsys):
        """argparse takes ``--phi -1e-3`` for two options, as it reads only
        values like -1 or -1.5 as negative numbers; ``--phi=-1e-3`` parses."""
        rc, _, err = run_cli(capsys, "eval", "--phi=-1e-3")
        assert rc == 0 and stderr_provenance(err)["phi"] == [-1e-3]
        rc, out, _ = run_cli(capsys, "check", "--phi-lo=-1e-3", "--phi-hi", "1", "--phi-c", "0")
        assert rc == 0 and json.loads(out)["settings"]["phi_lo"] == -1e-3


class TestEntryPoints:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--no-such-flag"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "message, shown",
        [("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"), ("", "MemoryError")],
    )
    def test_memory_error_is_a_one_line_runtime_failure(
        self, capsys, monkeypatch, message, shown
    ):
        def allocate(args):
            raise MemoryError(message)

        monkeypatch.setattr(kinkfit.cli, "cmd_simulate", allocate)
        assert run_cli(capsys, "simulate") == (1, "", f"kinkfit: error: {shown}\n")

    @pytest.mark.parametrize(
        "error",
        [
            e for e in vars(kinkfit.errors).values()
            if isinstance(e, type) and issubclass(e, kinkfit.errors.KinkfitError)
        ],
        ids=lambda e: e.__name__,
    )
    def test_exit_2_exactly_for_input_errors(self, capsys, monkeypatch, error):
        """Malformed input, and input the model cannot represent, exit 2 like
        bad usage; every other KinkfitError is a runtime failure."""
        def fail(args):
            if issubclass(error, kinkfit.errors._LineError):
                raise error(3, "detail")
            raise error("detail")

        monkeypatch.setattr(kinkfit.cli, "cmd_simulate", fail)
        rc, out, err = run_cli(capsys, "simulate")
        exit_2 = {"MalformedHeader", "MalformedRecord", "NonFiniteValue", "InsufficientData",
                  "ConcaveKink", "InputError", "_LineError"}  # the five and their bases
        assert rc == (2 if error.__name__ in exit_2 else 1)
        assert issubclass(error, kinkfit.errors.InputError) == (rc == 2)
        assert out == "" and err.startswith(f"kinkfit: error: {error.__name__}: ")

    def test_oversized_simulate_exits_1_in_one_line(self):
        """8 TB of points under a 2 GiB address-space limit, set in the child
        only: the allocation fails at once, whatever the overcommit policy."""
        resource = pytest.importorskip("resource")

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        run = subprocess.run(
            [sys.executable, "-m", "kinkfit", "simulate", "--n", "1000000000000"],
            capture_output=True, text=True, timeout=60, preexec_fn=limit_address_space,
        )
        assert run.returncode == 1 and run.stdout == ""
        assert run.stderr.startswith("kinkfit: error: Unable to allocate ")
        assert len(run.stderr.splitlines()) == 1, run.stderr

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
