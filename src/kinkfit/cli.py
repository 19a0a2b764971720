"""Command-line interface.

Subcommands: ``eval`` (tabulate the closed forms), ``check`` (numerically
cross-verify them), ``simulate`` (reproducible synthetic CSV), ``fit``
(two-stage parameter estimation from CSV), ``plot`` (SVG rendering).
Exit codes: 0 success, 1 runtime failure (verification failed,
non-convergence, I/O failure), 2 bad usage or malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__, fit, io, model, oracle
from .errors import (
    ConcaveKink,
    InsufficientData,
    KinkfitError,
    MalformedHeader,
    MalformedRecord,
    NonFiniteValue,
)
from .model import _FIELDS, TransitionParams

# Default demonstration parameters: the transition used throughout the docs,
# with gamma = 40 as a representative mid-sharpness choice.
DEMO_ALPHA = 10.7
DEMO_BETA = 80.0
DEMO_GAMMA = 40.0
DEMO_PHI_C = 0.598
DEMO_F_C = 0.5
DEMO_PHI_LO = 0.57
DEMO_PHI_HI = 0.63
_DEMO = TransitionParams(DEMO_ALPHA, DEMO_BETA, DEMO_GAMMA, DEMO_PHI_C, DEMO_F_C)


def _add_param_flags(parser: argparse.ArgumentParser, with_defaults: bool) -> None:
    defaults = dataclasses.astuple(_DEMO) if with_defaults else (None,) * len(_FIELDS)
    helps = (
        "lower slope", "upper slope", "transition sharpness (> 0)", "transition location",
        "observable value at phi-c",
    )
    for name, default, text in zip(_FIELDS, defaults, helps):
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=float, default=default, help=text)


def _params_from_args(args: argparse.Namespace) -> TransitionParams:
    return TransitionParams(args.alpha, args.beta, args.gamma, args.phi_c, args.f_c)


def _parsed_flags(args: argparse.Namespace, *omit: str) -> dict:
    """The parsed command line as a report dict, in parser order: the
    subcommand name and every flag of that subcommand, minus ``omit``."""
    return {k: v for k, v in vars(args).items() if k not in ("handler", *omit)}


def _echo_stderr(record: dict) -> None:
    print(json.dumps(record), file=sys.stderr)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str, chunks: Iterable[bytes]) -> None:
    if path == "-":
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def _expand_phi_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--phi-range must be lo:hi:n, got {text!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        n = int(parts[2])
    except ValueError:
        raise ValueError(f"--phi-range must be lo:hi:n, got {text!r}") from None
    if n < 1:
        raise ValueError(f"--phi-range count must be >= 1, got {n}")
    if n == 1:
        return np.array([lo])
    return lo + np.arange(n) * (hi - lo) / (n - 1)


def cmd_eval(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    phi = np.array(args.phi or [], dtype=np.float64)
    if args.phi_range:
        phi = np.concatenate((phi, _expand_phi_range(args.phi_range)))
    if not phi.size:
        raise ValueError("provide at least one --phi or a --phi-range")
    _echo_stderr(_parsed_flags(args))
    forms = (model.slope, model.value, model.piecewise_limit)
    columns = [phi, *(form(phi, params) for form in forms)]
    if args.csv:
        print("phi,s,F,F_limit")
        row = "%.17g,%.17g,%.17g,%.17g\n"
    else:
        print(f"{'phi':>16} {'slope':>16} {'value':>16} {'piecewise_limit':>16}")
        row = "%16.8g %16.8g %16.8g %16.8g\n"
    # A block of rows per write: a joined document would hold every row at once.
    sys.stdout.writelines(io._format_rows(row, columns))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    phi_lo = args.phi_lo if args.phi_lo is not None else params.phi_c - 0.03
    phi_hi = args.phi_hi if args.phi_hi is not None else params.phi_c + 0.03
    if args.slope_tol <= 0 or args.value_tol <= 0:
        raise ValueError("--slope-tol and --value-tol must be > 0")
    report = oracle.verify_closed_forms(
        params,
        phi_lo,
        phi_hi,
        n_samples=args.samples,
        ode_step=args.ode_step,
        quad_tol=args.quad_tol,
        use_beta_linear=args.use_literal_eq4,
    )
    passed = (
        report.max_slope_deviation <= args.slope_tol
        and report.max_value_deviation <= args.value_tol
    )
    payload = {
        "passed": passed,
        "max_slope_deviation": report.max_slope_deviation,
        "max_value_deviation": report.max_value_deviation,
        "settings": {
            **_parsed_flags(args, "command"),
            **dataclasses.asdict(params),
            "phi_lo": phi_lo,
            "phi_hi": phi_hi,
        },
    }
    print(json.dumps(payload, indent=2))
    return 0 if passed else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    spec = io.SyntheticSpec(
        params=params,
        n=args.n,
        phi_lo=args.phi_lo,
        phi_hi=args.phi_hi,
        noise_sigma=args.sigma,
        seed=args.seed,
        sampling=args.sampling,
        model=args.model,
    )
    data = io.generate_synthetic(spec)
    _write_output(args.output, io._dataset_chunks(data))
    _echo_stderr(_parsed_flags(args))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    data = io.read_dataset(_read_input(args.input))
    pw, result = fit.fit_two_stage(data)
    payload = {
        "piecewise": dataclasses.asdict(pw),
        "smooth": {
            **dataclasses.asdict(result.params),
            "sse": result.sse,
            "iterations": result.iterations,
            "converged": result.converged,
            "gamma_at_bound": result.gamma_at_bound,
            "std_errors": list(result.std_errors) if result.std_errors else None,
        },
        "settings": _parsed_flags(args, "command"),
    }
    print(json.dumps(payload, indent=2))
    return 0 if result.converged else 1


def _curve_series(role: str, form, params, lo: float, hi: float, n: int) -> io.Series:
    """The closed form ``form(x, params)`` at n points spanning [lo, hi],
    plus ``params.phi_c`` when it lies inside (duplicates dropped)."""
    x = np.linspace(lo, hi, n)
    if lo < params.phi_c < hi:
        x = np.union1d(x, params.phi_c)
    return io.Series(role, x, form(x, params))


def cmd_plot(args: argparse.Namespace) -> int:
    given = {k: getattr(args, k) for k in _FIELDS if getattr(args, k) is not None}
    if args.figure1 and (given or args.input):
        raise ValueError("--figure1 cannot be combined with explicit parameters or --input")
    if args.overlay_fit and not args.input:
        raise ValueError("--overlay-fit requires --input")
    if not (args.figure1 or given or args.input):
        raise ValueError("nothing to plot: give --figure1, model parameters, or --input")
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")

    series: list[io.Series] = []
    if args.figure1:
        series.append(
            _curve_series(
                "limit-curve", model.piecewise_limit, _DEMO, DEMO_PHI_LO, DEMO_PHI_HI,
                args.samples,
            )
        )
    elif given:
        params = dataclasses.replace(_DEMO, **given)
        series.append(
            _curve_series(
                "model-curve", model.value, params, args.phi_lo, args.phi_hi, args.samples
            )
        )

    if args.input:
        data = io.read_dataset(_read_input(args.input))
        if not len(data):
            raise ValueError(f"{args.input!r} contains no data rows")
        series.append(io.Series(role="data-points", x=data.phi, y=data.f))
        if args.overlay_fit:
            pw, result = fit.fit_two_stage(data)
            lo, hi, n = float(data.phi[0]), float(data.phi[-1]), args.samples
            series.append(_curve_series("limit-curve", model.piecewise_limit, pw, lo, hi, n))
            series.append(_curve_series("model-curve", model.value, result.params, lo, hi, n))

    _echo_stderr(_parsed_flags(args))
    plot_spec = io.PlotSpec(series=tuple(series), width=args.width, height=args.height)
    _write_output(args.output, io._svg_chunks(plot_spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinkfit",
        description="Evaluate, verify, simulate, fit and plot smooth two-slope transition curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="tabulate slope, value and the sharp limit")
    _add_param_flags(p_eval, with_defaults=True)
    p_eval.add_argument(
        "--phi", type=float, action="append", help="evaluation point (repeatable)"
    )
    p_eval.add_argument(
        "--phi-range", help="lo:hi:n uniform evaluation points (inclusive)"
    )
    p_eval.add_argument(
        "--csv", action="store_true", help="emit CSV (phi,s,F,F_limit) instead of a table"
    )
    p_eval.set_defaults(handler=cmd_eval)

    p_check = sub.add_parser(
        "check", help="re-integrate the model numerically and compare to the closed forms"
    )
    _add_param_flags(p_check, with_defaults=True)
    p_check.add_argument(
        "--phi-lo", type=float, default=None, help="window start (default phi_c - 0.03)"
    )
    p_check.add_argument(
        "--phi-hi", type=float, default=None, help="window end (default phi_c + 0.03)"
    )
    p_check.add_argument("--samples", type=int, default=25, help="grid size")
    p_check.add_argument("--ode-step", type=float, default=2e-6, help="RK4 step")
    p_check.add_argument(
        "--quad-tol", type=float, default=1e-10, help="quadrature absolute tolerance"
    )
    p_check.add_argument(
        "--slope-tol", type=float, default=1e-9, help="pass bound on slope deviation"
    )
    p_check.add_argument(
        "--value-tol", type=float, default=1e-8, help="pass bound on value deviation"
    )
    p_check.add_argument(
        "--use-literal-eq4",
        action="store_true",
        help="check the diagnostic observable variant whose linear term uses beta; "
        "it fails the quadrature comparison whenever alpha != beta",
    )
    p_check.set_defaults(handler=cmd_check)

    p_sim = sub.add_parser("simulate", help="write a reproducible synthetic dataset")
    _add_param_flags(p_sim, with_defaults=True)
    p_sim.add_argument("--n", type=int, default=50, help="number of points")
    p_sim.add_argument("--phi-lo", type=float, default=DEMO_PHI_LO)
    p_sim.add_argument("--phi-hi", type=float, default=DEMO_PHI_HI)
    p_sim.add_argument("--sigma", type=float, default=0.0, help="noise std deviation")
    p_sim.add_argument("--seed", type=int, default=0, help="PCG64 seed")
    p_sim.add_argument("--sampling", choices=("grid", "random"), default="grid")
    p_sim.add_argument("--model", choices=("smooth", "piecewise"), default="smooth")
    p_sim.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    p_sim.set_defaults(handler=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit the hinge and smooth models to a CSV dataset")
    p_fit.add_argument("-i", "--input", default="-", help="input path ('-' = stdin)")
    p_fit.set_defaults(handler=cmd_fit)

    p_plot = sub.add_parser("plot", help="render curves and/or data to SVG")
    _add_param_flags(p_plot, with_defaults=False)
    p_plot.add_argument(
        "--figure1",
        action="store_true",
        help="plot the sharp-limit transition with the default demonstration parameters",
    )
    p_plot.add_argument("-i", "--input", default=None, help="CSV dataset to scatter")
    p_plot.add_argument(
        "--overlay-fit",
        action="store_true",
        help="fit the input data and overlay both fitted curves",
    )
    p_plot.add_argument("--phi-lo", type=float, default=DEMO_PHI_LO)
    p_plot.add_argument("--phi-hi", type=float, default=DEMO_PHI_HI)
    p_plot.add_argument("--samples", type=int, default=601, help="curve sample count")
    p_plot.add_argument("--width", type=float, default=640.0)
    p_plot.add_argument("--height", type=float, default=480.0)
    p_plot.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    p_plot.set_defaults(handler=cmd_plot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        MalformedHeader, MalformedRecord, NonFiniteValue, InsufficientData, ConcaveKink
    ) as exc:
        print(f"kinkfit: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KinkfitError as exc:
        print(f"kinkfit: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"kinkfit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"kinkfit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
