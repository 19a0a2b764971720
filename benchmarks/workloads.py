"""Benchmark workloads: inputs built from the seed, CLI invocations, output checks.

Each workload is a list of ``kinkfit`` invocations run in order (one pass).
Inputs are written by :meth:`Workload.prepare` before any timing, with the
benchmark's own NumPy code, so the program under test only ever receives
generated files.  Every invocation names one primary output file; its check
returns the problems found (an empty list means the output is correct) and
the quality values it read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from xml.etree import ElementTree as ET

import numpy as np

# The demonstration transition the CLI defaults to (see README).
ALPHA, BETA, GAMMA, PHI_C, F_C = 10.7, 80.0, 40.0, 0.598, 0.5
PHI_LO, PHI_HI = 0.57, 0.63

FIT_KEYS = {
    "piecewise": {"alpha", "beta", "phi_c", "f_c", "sse", "candidate_count"},
    "smooth": {
        "alpha", "beta", "gamma", "phi_c", "f_c", "sse", "iterations",
        "converged", "gamma_at_bound", "std_errors",
    },
}
PHI_C_TOL = 1e-3
SVG_NS = "{http://www.w3.org/2000/svg}"


def demo_value(phi: np.ndarray) -> np.ndarray:
    """The smooth observable F at the demo parameters (README closed form)."""
    delta = phi - PHI_C
    width = BETA - ALPHA
    z = width * GAMMA * delta
    tail = np.log1p(np.exp(-np.abs(z))) - math.log(2.0)
    return F_C + ALPHA * delta + width * np.maximum(delta, 0.0) + tail / GAMMA


def demo_slope(phi: np.ndarray) -> np.ndarray:
    z = (BETA - ALPHA) * GAMMA * (phi - PHI_C)
    return ALPHA + (BETA - ALPHA) / (1.0 + np.exp(-z))


def demo_hinge(phi: np.ndarray) -> np.ndarray:
    delta = phi - PHI_C
    return F_C + np.where(delta <= 0.0, ALPHA, BETA) * delta


def write_csv(path: Path, phi: np.ndarray, f: np.ndarray) -> None:
    """Write the CLI's ``phi,F`` dialect with 17 significant digits."""
    rows = "".join(f"{p:.17g},{v:.17g}\n" for p, v in zip(phi.tolist(), f.tolist()))
    path.write_bytes(("phi,F\n" + rows).encode())


@dataclass(frozen=True)
class Result:
    """What a check found: problems (empty when correct) and quality values."""

    problems: list[str]
    values: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``output`` is the file holding its primary output;
    ``None`` means its standard output."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes, dict], Result]
    output: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[Path, int], dict]
    invocations: tuple[Invocation, ...]


def _json(doc: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(doc), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def _svg(doc: bytes) -> tuple[ET.Element | None, list[str]]:
    try:
        return ET.fromstring(doc), []
    except ET.ParseError as exc:
        return None, [f"output is not well-formed SVG: {exc}"]


# --------------------------------------------------------------------- fit

def check_fit(gamma_at_bound: bool | None, sse_reference: str | None = None):
    """Documented report keys, phi_c near the generating 0.598, and the
    expected ``gamma_at_bound``.  With ``sse_reference`` (a context key
    holding the generating curve's SSE) also report ``fit_sse_ratio``."""

    def check(doc: bytes, context: dict) -> Result:
        report, problems = _json(doc)
        if report is None:
            return Result(problems)
        for block, keys in FIT_KEYS.items():
            missing = keys - set(report.get(block, {}))
            if missing:
                return Result([f"{block} lacks keys {sorted(missing)}"])
        if "settings" not in report:
            return Result(["report lacks settings"])
        for block in FIT_KEYS:
            phi_c = report[block]["phi_c"]
            if not abs(phi_c - PHI_C) <= PHI_C_TOL:
                problems.append(f"{block} phi_c {phi_c!r} not within {PHI_C_TOL} of {PHI_C}")
        smooth = report["smooth"]
        if gamma_at_bound is not None and smooth["gamma_at_bound"] is not gamma_at_bound:
            problems.append(f"gamma_at_bound is {smooth['gamma_at_bound']}, expected {gamma_at_bound}")
        values = {"iterations": smooth["iterations"], "converged": smooth["converged"]}
        if sse_reference is not None:
            values["fit_sse_ratio"] = smooth["sse"] / context[sse_reference]
        return Result(problems, values)

    return check


def check_svg_scatter(rows: int, polylines: int):
    def check(doc: bytes, context: dict) -> Result:
        root, problems = _svg(doc)
        if root is None:
            return Result(problems)
        circles = sum(1 for _ in root.iter(SVG_NS + "circle"))
        lines = sum(1 for _ in root.iter(SVG_NS + "polyline"))
        if circles != rows:
            problems.append(f"{circles} circles, expected {rows}")
        if lines != polylines:
            problems.append(f"{lines} polylines, expected {polylines}")
        return Result(problems)

    return check


def fit_workload() -> Workload:
    """The only workload that fits: the hinge scan leads on smooth data, the
    LM loop on hinge data, and the n = 21 README hinge shows the LM stall."""
    n = 4000

    def prepare(work: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        phi = np.sort(PHI_LO + (PHI_HI - PHI_LO) * rng.random(n))
        truth = demo_value(phi)
        f = truth + 0.005 * rng.standard_normal(n)
        write_csv(work / "smooth.csv", phi, f)
        grid = np.linspace(PHI_LO, PHI_HI, n)
        write_csv(work / "hinge.csv", grid, demo_hinge(grid))
        grid21 = np.linspace(PHI_LO, PHI_HI, 21)
        write_csv(work / "hinge21.csv", grid21, demo_hinge(grid21))
        return {"smooth_generating_sse": float(np.sum((f - truth) ** 2))}

    return Workload(
        "fit",
        prepare,
        (
            Invocation("fit-smooth", ("fit", "-i", "smooth.csv"),
                       check_fit(False, "smooth_generating_sse")),
            Invocation("fit-hinge", ("fit", "-i", "hinge.csv"), check_fit(True)),
            Invocation("fit-hinge21", ("fit", "-i", "hinge21.csv"), check_fit(None)),
            Invocation("plot-overlay",
                       ("plot", "-i", "smooth.csv", "--overlay-fit", "-o", "overlay.svg"),
                       check_svg_scatter(n, 2), "overlay.svg"),
        ),
    )


# ---------------------------------------------------------------- tabulate

def check_simulate(n: int):
    """Reads back to n rows and re-serialises byte-identically."""

    def check(doc: bytes, context: dict) -> Result:
        io = context["kinkfit_io"]
        data = io.read_dataset(doc)
        problems = []
        if len(data) != n:
            problems.append(f"{len(data)} rows, expected {n}")
        if io.write_dataset(data) != doc:
            problems.append("write_dataset(read_dataset(output)) differs from the output")
        return Result(problems)

    return check


def check_eval(n: int, samples: int = 256):
    """n + 1 lines under the header; sampled rows match the closed forms."""

    def check(doc: bytes, context: dict) -> Result:
        lines = doc.decode().splitlines()
        if lines[:1] != ["phi,s,F,F_limit"]:
            return Result([f"header {lines[:1]!r}, expected ['phi,s,F,F_limit']"])
        if len(lines) != n + 1:
            return Result([f"{len(lines)} lines, expected {n + 1}"])
        idx = np.unique(np.linspace(0, n - 1, samples).astype(int))
        table = np.array([[float(v) for v in lines[i + 1].split(",")] for i in idx])
        phi = PHI_LO + idx * (PHI_HI - PHI_LO) / (n - 1)
        expected = np.column_stack((phi, demo_slope(phi), demo_value(phi), demo_hinge(phi)))
        worst = float(np.max(np.abs(table - expected)))
        return Result([] if worst <= 1e-9 else [f"sampled rows deviate by {worst!r}"])

    return check


def check_plot_rows(n: int, samples: int = 2000):
    """n circles, and sampled circles map back to their CSV rows to within
    half a pixel through the geometry embedded in the document."""

    def check(doc: bytes, context: dict) -> Result:
        root, problems = _svg(doc)
        if root is None:
            return Result(problems)
        circles = list(root.iter(SVG_NS + "circle"))
        if len(circles) != n:
            return Result([f"{len(circles)} circles, expected {n}"])
        geom = context["kinkfit_io"].svg_geometry(doc)
        rows = np.loadtxt(context["work"] / "data.csv", delimiter=",", skiprows=1, ndmin=2)
        rng = np.random.default_rng(context["seed"])
        worst = 0.0
        for i in rng.choice(n, size=min(samples, n), replace=False):
            px, py = geom.to_pixel(*rows[i])
            cx, cy = float(circles[i].get("cx")), float(circles[i].get("cy"))
            worst = max(worst, abs(px - cx), abs(py - cy))
        return Result([] if worst <= 0.5 else [f"circle off its row by {worst!r} px"])

    return check


def tabulate_workload(n: int = 200_000) -> Workload:
    """CSV write and read, scalar closed forms and the SVG render; no fit or
    oracle call, so changes to the scan, LM or oracle should not move it."""
    return Workload(
        "tabulate",
        lambda work, seed: {},
        (
            Invocation("simulate",
                       ("simulate", "--n", str(n), "--sigma", "0.005", "--sampling", "random",
                        "--seed", "{seed}", "-o", "data.csv"),
                       check_simulate(n), "data.csv"),
            Invocation("eval", ("eval", "--phi-range", f"{PHI_LO}:{PHI_HI}:{n}", "--csv"),
                       check_eval(n)),
            Invocation("plot", ("plot", "-i", "data.csv", "-o", "out.svg"),
                       check_plot_rows(n), "out.svg"),
        ),
    )


# ------------------------------------------------------------------ verify

def check_verify(doc: bytes, context: dict) -> Result:
    report, problems = _json(doc)
    if report is None:
        return Result(problems)
    if report.get("passed") is not True:
        problems.append(f"passed is {report.get('passed')!r}")
    return Result(problems, {
        "verify_slope_dev": report["max_slope_deviation"],
        "verify_value_dev": report["max_value_deviation"],
    })


def verify_workload() -> Workload:
    """The only oracle and quadrature workload: the README check is nearly
    all RK4, the fine-grid check mostly adaptive Simpson; no fit, CSV or SVG."""
    return Workload(
        "verify",
        lambda work, seed: {},
        (
            Invocation("check-readme",
                       ("check", "--alpha", "1", "--beta", "3", "--gamma", "2", "--phi-c", "0",
                        "--f-c", "0", "--phi-lo", "-1", "--phi-hi", "1"),
                       check_verify),
            Invocation("check-fine", ("check", "--samples", "401", "--quad-tol", "1e-12"),
                       check_verify),
        ),
    )


WORKLOADS = {"fit": fit_workload, "tabulate": tabulate_workload, "verify": verify_workload}
