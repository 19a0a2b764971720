#!/usr/bin/env python3
"""Self-check of the benchmark (about forty seconds).

Usage, from the root of a checkout:  python3 benchmarks/selfcheck.py

Runs every workload once untraced and once traced (``tabulate`` at
n = 2000, the others at full size) and checks
that the output checks pass, that only the known LM stall (``hinge21.csv``)
fails, that a must-fail invocation counts in the error rate, that traced and
untraced outputs are byte-identical, that span self times add up to
``cli.main``, and that the hinge-scan candidate and RK4 step counters match
the counts implied by the inputs.  Prints one PASS/FAIL line per check and
exits 1 if any fails.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from workloads import (
    PHI_C, Invocation, Workload, check_fit, fit_workload,
    tabulate_workload, verify_workload,
)

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def runner_for(workload: Workload, work: Path, spawner: run.Spawner) -> run.Runner:
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(workload, 7, work, spawner)
    runner.prepare()
    return runner


def distinct_phi(path: Path) -> int:
    return np.unique(np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]).size


def implied_rk4_steps(lo: float, hi: float, samples: int, phi_c: float, step: float) -> int:
    """Steps of one RK4 march per side of phi_c through the check grid,
    replaying the fixed-step rule: full steps, the last one shortened to
    land on each grid point."""
    grid = np.unique(np.append(np.linspace(lo, hi, samples), phi_c)).tolist()
    steps = 0
    for targets, direction in (([g for g in reversed(grid) if g < phi_c], -1.0),
                               ([g for g in grid if g > phi_c], 1.0)):
        phi = phi_c
        for target in targets:
            while (remaining := (target - phi) * direction) > 0.0:
                phi = target if remaining <= step else phi + direction * step
                steps += 1
    return steps


def check_workload(workload: Workload, work: Path, spawner: run.Spawner,
                   expected_failures: set[str]) -> dict:
    runner = runner_for(workload, work, spawner)
    plain = runner.run_pass()
    traced = runner.run_pass(traced=True)
    for p, label in ((plain, "untraced"), (traced, "traced")):
        problems = {n: r["problems"] for n, r in p["invocations"].items() if r["problems"]}
        expect(not problems, f"{workload.name} {label}: every output check passes {problems or ''}")
        failed = {n for n, r in p["invocations"].items() if r["failed"]}
        expect(failed == expected_failures,
               f"{workload.name} {label}: failed invocations {sorted(failed)} "
               f"== {sorted(expected_failures)}")
    for name, rec in traced["invocations"].items():
        expect(rec["sha256"] == plain["invocations"][name]["sha256"],
               f"{workload.name} {name}: traced output sha256 equals untraced")
        numbers, self_s = run.layer_numbers(rec["trace"], rec["launch"])
        accounted = sum(self_s.values())
        expect(abs(accounted - numbers["cli.main_s"]) <= 1e-9 * max(1.0, accounted),
               f"{workload.name} {name}: self times sum to cli.main_s ({accounted:.4f} s)")
        rest = rec["wall_s"] - numbers["trace.process_start_s"] - accounted
        expect(0.0 <= rest < 0.5,
               f"{workload.name} {name}: wall - process start - self times = {rest:.4f} s "
               f"(interpreter exit)")
    return traced


def checks(work: Path, spawner: run.Spawner) -> None:
    # fit at full size, with the LM stall on the README hinge as the one failure
    traced = check_workload(fit_workload(), work / "fit", spawner, {"fit-hinge21"})
    for name, expected in (("fit-smooth", 3997), ("fit-hinge", 3997), ("fit-hinge21", 18)):
        candidates = traced["invocations"][name]["trace"]["counts"]["fit.fit_piecewise.candidates"]
        distinct = distinct_phi(work / "fit" / f"{name[4:]}.csv")
        expect(candidates == distinct - 3 == expected,
               f"{name}: candidates {candidates} == distinct phi - 3 = {distinct - 3}")
    stall = traced["invocations"]["fit-hinge21"]
    expect(stall["exit"] == 1 and stall["values"]["converged"] is False,
           "fit-hinge21 exits 1 with converged: false")

    # a must-fail invocation counts in the error rate
    three = Workload("must-fail", lambda w, s: {}, (
        Invocation("fit-three-rows", ("fit", "-i", "three.csv"), check_fit(None)),))
    runner = runner_for(three, work / "three", spawner)
    (work / "three" / "three.csv").write_text("phi,F\n0.1,1\n0.2,2\n0.3,3\n")
    p = runner.run_pass()
    rec = p["invocations"]["fit-three-rows"]
    err = (work / "three" / "fit-three-rows.err").read_text()
    expect(rec["exit"] == 2 and "InsufficientData" in err and run.error_rate([p]) == 1.0
           and not rec["wrong"],
           "fit on a 3-row CSV exits 2 with InsufficientData and counts as failed, not wrong")

    # peak RSS is the child's own, however large the runner has grown
    ballast = bytearray(256 * 2**20)
    rss = runner.setup_probe_record()["rss_mb"]
    del ballast
    expect(rss < 128, f"--version peaks at {rss:.0f} MB while the runner holds 256 MB")

    check_workload(tabulate_workload(n=2000), work / "tabulate", spawner, set())

    step = 2e-6  # the CLI's default --ode-step
    traced = check_workload(verify_workload(), work / "verify", spawner, set())
    windows = {"check-readme": (-1.0, 1.0, 25, 0.0),
               "check-fine": (PHI_C - 0.03, PHI_C + 0.03, 401, PHI_C)}
    for name, (lo, hi, samples, phi_c) in windows.items():
        steps = traced["invocations"][name]["trace"]["counts"]["oracle.rk4_steps"]
        implied = implied_rk4_steps(lo, hi, samples, phi_c, step)
        expect(steps == implied, f"{name}: rk4_steps {steps} == implied {implied}")


def main() -> int:
    if not (run.SRC / "kinkfit" / "__init__.py").is_file():
        print(f"selfcheck: no kinkfit sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=build))
    try:
        with run.Spawner() as spawner:
            checks(work, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
