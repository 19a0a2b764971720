#!/usr/bin/env python3
"""kinkfit benchmark: CLI invocations timed end to end, plus a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {fit,tabulate,verify} --seed N \
        --seconds S --trace {0,1}

Each invocation is one fresh ``python -m kinkfit`` subprocess, run one at a
time from this process: a closed loop with a single client.  Inputs are
written from the seed before timing starts.  Passes over the workload's
invocations repeat until the next one would overrun ``--seconds``.

``--trace 0`` times untraced passes, with ``python -m kinkfit --version``
probes interleaved (set-up time), and reports the end-to-end metrics.
``--trace 1`` alternates untraced passes with passes run through
``benchmarks/traced.py`` and reports the per-layer metrics.  Either way every
output is checked; the last line of standard output is the result object and
the lines before it hold the header and the full report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_PROBES_PER_PASS = 2
INVOCATION_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics and their units; times in seconds unless noted.
LAYER_UNITS = {
    "fit.fit_piecewise_s": "s", "fit.fit_piecewise.candidates": "count",
    "fit.init_smooth_s": "s", "fit.fit_smooth_s": "s",
    "fit.fit_smooth.iterations": "count", "fit.fit_smooth.s_per_iteration": "s",
    **{f"model.{f}{suffix}": unit
       for f in ("value", "value_gradient", "slope", "piecewise_limit")
       for suffix, unit in (("_s", "s"), (".calls", "count"), (".points", "count"))},
    "io.read_dataset_s": "s", "io.read_dataset.rows": "count", "io.read_dataset.bytes": "bytes",
    "io.write_dataset_s": "s", "io.write_dataset.rows": "count", "io.write_dataset.bytes": "bytes",
    "io.generate_synthetic_s": "s", "io.generate_synthetic.points": "count",
    "io.render_svg_s": "s", "io.render_svg.points": "count", "io.render_svg.bytes": "bytes",
    "oracle.verify_closed_forms_s": "s", "oracle.verify_closed_forms.self_s": "s",
    "oracle.rk4_steps": "count",
    "oracle.integrate_value_quadrature_s": "s", "oracle.integrate_value_quadrature.calls": "count",
    "quadrature.adaptive_simpson_s": "s", "quadrature.adaptive_simpson.self_s": "s",
    "quadrature.integrand_evals": "count", "quadrature.evals_per_call": "count",
    "cli.main_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.process_start_s": "s",
    "error_rate": "ratio", "fit_sse_ratio": "ratio",
    "verify_slope_dev": "1", "verify_value_dev": "1",
}
QUALITY = ("fit_sse_ratio", "verify_slope_dev", "verify_value_dev")

from workloads import WORKLOADS, Invocation, Workload


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Spawner:
    """Client of ``spawner.py``, which runs each subprocess and reports its
    own wall time, CPU time, peak RSS and exit code."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), text=True)

    def launch(self, argv: list[str], work: Path, stdout: Path) -> dict:
        request = {"argv": argv, "cwd": str(work), "stdout": str(stdout),
                   "stderr": str(stdout.with_suffix(".err")), "timeout": INVOCATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=INVOCATION_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path, spawner: Spawner) -> None:
        self.workload = workload
        self.spawner = spawner
        self.seed = seed
        self.work = work
        self.context: dict = {}
        self.checked: dict[tuple[str, str], dict] = {}

    def prepare(self) -> None:
        import kinkfit.io

        self.context = self.workload.prepare(self.work, self.seed)
        self.context.update(work=self.work, seed=self.seed, kinkfit_io=kinkfit.io)

    def argv(self, inv: Invocation) -> list[str]:
        return [a.replace("{seed}", str(self.seed)) for a in inv.argv]

    def invoke(self, inv: Invocation, trace_path: Path | None = None) -> dict:
        if trace_path is None:
            cmd = [sys.executable, "-m", "kinkfit", *self.argv(inv)]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(trace_path), inv.name,
                   *self.argv(inv)]
        record = self.spawner.launch(cmd, self.work, self.work / f"{inv.name}.out")
        output = self.work / (inv.output or f"{inv.name}.out")
        doc = output.read_bytes() if output.exists() else b""
        record["sha256"] = hashlib.sha256(doc).hexdigest()
        key = (inv.name, record["sha256"])
        if record["exit"] != 0 and not doc:
            # A failure without output claims no result: it counts as failed
            # but leaves `correct` alone.  Output that is there must be right.
            stderr = (self.work / f"{inv.name}.err").read_text(errors="replace").strip()
            last = stderr.splitlines()[-1] if stderr else ""
            self.checked[key] = {"problems": [f"exited {record['exit']} without output: {last}"],
                                 "values": {}, "wrong": False}
        elif key not in self.checked:
            try:
                result = inv.check(doc, self.context)
                problems, values = result.problems, result.values
            except Exception as exc:  # a malformed output must not stop the run
                problems, values = [f"check raised {exc!r}"], {}
            self.checked[key] = {"problems": problems, "values": values, "wrong": bool(problems)}
        record.update(self.checked[key])
        if trace_path is not None:
            record["trace"] = json.loads(trace_path.read_text()) if trace_path.exists() else None
            if record["trace"] is None:
                record["problems"] = record["problems"] + ["the traced run wrote no spans"]
                record["wrong"] = True
        record["failed"] = record["exit"] != 0 or bool(record["problems"])
        return record

    def run_pass(self, traced: bool = False) -> dict:
        invocations = {}
        for inv in self.workload.invocations:
            trace_path = self.work / f"{inv.name}.spans.json" if traced else None
            if trace_path is not None and trace_path.exists():
                trace_path.unlink()
            invocations[inv.name] = self.invoke(inv, trace_path)
        return {
            "wall_s": sum(r["wall_s"] for r in invocations.values()),
            "cpu_s": sum(r["cpu_s"] for r in invocations.values()),
            "peak_rss_mb": max(r["rss_mb"] for r in invocations.values()),
            "invocations": invocations,
        }

    def setup_probe_record(self) -> dict:
        return self.spawner.launch([sys.executable, "-m", "kinkfit", "--version"], self.work,
                                   self.work / "version.out")

    def setup_probe(self) -> float:
        return self.setup_probe_record()["wall_s"]


# ---------------------------------------------------------------- layers

def layer_numbers(trace: dict, launched: float) -> tuple[dict, dict]:
    """Layer metrics of one traced invocation, and the self time of each
    span name and model timer (these sum to ``cli.main_s``)."""
    out: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span in trace["spans"]:
        name, total = span["name"], span["end"] - span["start"]
        for key, value in ((f"{name}_s", total), (f"{name}.self_s", total - span["child_s"]),
                           (f"{name}.calls", 1)):
            out[key] = out.get(key, 0) + value
        self_s[name] = self_s.get(name, 0.0) + total - span["child_s"]
    for name, (seconds, calls, points) in trace["model"].items():
        out.update({f"{name}_s": seconds, f"{name}.calls": calls, f"{name}.points": points})
        self_s[name] = seconds
    out.update(trace["counts"])
    out["cli.self_s"] = out["cli.main.self_s"]
    main = next(s for s in trace["spans"] if s["name"] == "cli.main")
    out["trace.process_start_s"] = main["start"] - launched
    return out, self_s


def pass_layers(traced_pass: dict) -> tuple[dict, list]:
    """Layer metrics summed over one traced pass, and each invocation's
    breakdown of its wall time into process start, self times and the rest
    (interpreter exit)."""
    row: dict[str, float] = {}
    breakdown = []
    for name, rec in traced_pass["invocations"].items():
        if rec["trace"] is None:
            continue
        numbers, self_s = layer_numbers(rec["trace"], rec["launch"])
        for key, value in numbers.items():
            row[key] = row.get(key, 0) + value
        start = numbers["trace.process_start_s"]
        breakdown.append({
            "invocation": name,
            "wall_s": rec["wall_s"],
            "process_start_s": start,
            "self_s": dict(sorted(self_s.items())),
            "process_exit_s": rec["wall_s"] - start - sum(self_s.values()),
        })
    iterations = row.get("fit.fit_smooth.iterations", 0)
    row["fit.fit_smooth.s_per_iteration"] = row.get("fit.fit_smooth_s", 0.0) / iterations if iterations else 0.0
    calls = row.get("quadrature.adaptive_simpson.calls", 0)
    row["quadrature.evals_per_call"] = row.get("quadrature.integrand_evals", 0) / calls if calls else 0.0
    return row, breakdown


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list]:
    """Median per-pass layer metrics over the traced passes, the tracing
    overhead, and the first traced pass's breakdown."""
    rows, breakdowns = zip(*(pass_layers(p) for p in traced))
    metrics = {name: statistics.median(r.get(name, 0) for r in rows) for name in LAYER_UNITS}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    metrics["error_rate"] = error_rate(untraced + traced)
    metrics.update(quality(untraced))
    return metrics, breakdowns[0]


# --------------------------------------------------------------- results

def error_rate(passes: list[dict]) -> float:
    records = [r for p in passes for r in p["invocations"].values()]
    return sum(r["failed"] for r in records) / len(records)


def quality(passes: list[dict]) -> dict:
    """Worst quality value over the first pass's checks; 0 where the
    workload runs no such invocation."""
    out = {name: 0.0 for name in QUALITY}
    for rec in passes[0]["invocations"].values():
        for name in QUALITY:
            if name in rec["values"]:
                out[name] = max(out[name], rec["values"][name])
    return out


def tail(values: list[float]) -> dict:
    """Highest percentile of ``values`` that has at least ten samples beyond
    it; ``None`` when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    k = n - 11
    return {"value": ordered[k], "percentile": 100.0 * k / (n - 1), "samples": n}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the machine from /proc/stat, or (0, 0)
    where it cannot be read.  Steal is time a virtual machine's host ran
    something else on its virtual CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def header(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
    }


def run(workload: Workload, seed: int, seconds: int, trace: bool, work: Path,
        spawner: Spawner) -> tuple[dict, dict]:
    runner = Runner(workload, seed, work, spawner)
    runner.prepare()
    steal0, total0 = cpu_ticks()
    runner.setup_probe()  # warm-up: byte-compiles the package, fills the page cache
    start = time.perf_counter()
    untraced: list[dict] = []
    traced: list[dict] = []
    setup: list[float] = []
    while True:
        if trace:
            untraced.append(runner.run_pass())
            traced.append(runner.run_pass(traced=True))
            cycle = untraced[-1]["wall_s"] + traced[-1]["wall_s"]
        else:
            setup.extend(runner.setup_probe() for _ in range(SETUP_PROBES_PER_PASS))
            untraced.append(runner.run_pass())
            cycle = untraced[-1]["wall_s"] + sum(setup[-SETUP_PROBES_PER_PASS:])
        if time.perf_counter() - start + cycle > seconds:
            break

    steal1, total1 = cpu_ticks()
    passes = untraced + traced
    report: dict = {
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else None,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "error_rate": error_rate(passes),
        "wall_s_tail": tail([p["wall_s"] for p in untraced]),
        "wall_s_passes": [p["wall_s"] for p in untraced],
        "invocation_wall_s": {name: [p["invocations"][name]["wall_s"] for p in untraced]
                              for name in untraced[0]["invocations"]},
        "invocations": {
            name: {k: rec[k] for k in ("exit", "sha256", "problems", "values")}
            for name, rec in untraced[0]["invocations"].items()
        },
        **quality(untraced),
    }
    if trace:
        metrics, breakdown = per_layer(traced, untraced)
        report["traced_sha256_match"] = all(
            t["invocations"][n]["sha256"] == u["invocations"][n]["sha256"]
            for t, u in zip(traced, untraced) for n in t["invocations"])
        report["layer_breakdown"] = breakdown
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": statistics.median(setup),
        }
        report["setup_s_probes"] = len(setup)
        units = END_TO_END_UNITS
    records = [r for p in passes for r in p["invocations"].values()]
    correct = not any(r["wrong"] for r in records) and report.get("traced_sha256_match", True)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kinkfit" / "__init__.py").is_file():
        print(f"benchmark: no kinkfit sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    print(json.dumps({"header": header(args.workload, args.seed, args.seconds, args.trace)}))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    try:
        with Spawner() as spawner:
            report, result = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                                 bool(args.trace), work, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
