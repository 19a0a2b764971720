"""Command-line interface.

Subcommands: ``eval`` (tabulate the closed forms), ``check`` (numerically
cross-verify them), ``simulate`` (reproducible synthetic CSV), ``fit``
(two-stage parameter estimation from CSV), ``plot`` (SVG rendering).
Exit codes: 0 success, 1 runtime failure (verification failed,
non-convergence, I/O or allocation failure), 2 bad usage or malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

# fit, io, oracle and numpy are imported where they are used: `check` and
# `--version` load none of fit, io and numpy, only `fit` and `plot --overlay-fit`
# load fit, and no command but `check` loads the oracle.
from . import __version__, model
from .errors import InputError, KinkfitError
from .model import _FIELDS, TransitionParams

if TYPE_CHECKING:
    from . import io

# Default demonstration parameters: the transition used throughout the docs,
# with gamma = 40 as a representative mid-sharpness choice, and its window.
_DEMO = TransitionParams(alpha=10.7, beta=80.0, gamma=40.0, phi_c=0.598, f_c=0.5)
DEMO_PHI_LO = 0.57
DEMO_PHI_HI = 0.63


def _finite(text: str) -> float:
    """The argparse type of every float flag and of the --phi-range bounds:
    text that is not a finite number is a usage error, so no ``nan`` or
    ``inf`` reaches a command or its JSON output."""
    try:
        number = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return number


def _add_param_flags(parser: argparse.ArgumentParser, with_defaults: bool) -> None:
    defaults = dataclasses.astuple(_DEMO) if with_defaults else (None,) * len(_FIELDS)
    helps = (
        "lower slope", "upper slope", "transition sharpness (> 0)", "transition location",
        "observable value at phi-c",
    )
    for name, default, text in zip(_FIELDS, defaults, helps):
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=_finite, default=default, help=text)


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


def _parse_phi_range(text: str) -> tuple[float, float, int]:
    """``lo:hi:n`` as finite bounds and a count from 1 to 2**53."""
    try:
        lo, hi, n = text.split(":")  # a ValueError unless there are three parts
        lo, hi, n = _finite(lo), _finite(hi), int(n)
    except (ValueError, argparse.ArgumentTypeError):
        message = f"must be lo:hi:n with finite lo and hi, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"count must be >= 1, got {n}")
    if n > 2**53:  # so that n - 1 and the grid's length are exact doubles
        raise argparse.ArgumentTypeError(f"count must be at most {2**53}, got {n}")
    # cmd_eval's grid is monotonic, so its last point is the one that can
    # overflow; this is its formula on floats, as numpy is not yet imported.
    last = lo + (n - 1) * (hi - lo) / (n - 1) if n > 1 else lo
    if not math.isfinite(last):
        raise argparse.ArgumentTypeError(f"must be a grid of finite points, got {text!r}")
    return lo, hi, n


def cmd_eval(args: argparse.Namespace) -> int:
    import numpy as np

    from . import io

    params = _params_from_args(args)
    phi = np.array(args.phi or [], dtype=np.float64)
    if args.phi_range:
        lo, hi, n = _parse_phi_range(args.phi_range)
        phi = np.concatenate((phi, lo + np.arange(n) * (hi - lo) / (n - 1) if n > 1 else [lo]))
    if not phi.size:
        raise ValueError("provide at least one --phi or a --phi-range")
    forms = (model.slope, model.value, model.piecewise_limit)
    columns = [phi, *(form(phi, params) for form in forms)]
    for name, column in zip(("slope", "value", "piecewise_limit"), columns[1:]):
        if not (np.isfinite(column.min()) and np.isfinite(column.max())):  # no n-long temporary
            i = np.flatnonzero(~np.isfinite(column))[0]
            raise ValueError(f"{name} is not finite at phi = {float(phi[i])!r}")
    _echo_stderr(_parsed_flags(args))
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
    from . import oracle

    params = _params_from_args(args)
    phi_lo = args.phi_lo if args.phi_lo is not None else params.phi_c - 0.03
    phi_hi = args.phi_hi if args.phi_hi is not None else params.phi_c + 0.03
    if not (args.slope_tol > 0 and args.value_tol > 0):
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
    from . import io

    spec = io.SyntheticSpec(
        _params_from_args(args), args.n, args.phi_lo, args.phi_hi, noise_sigma=args.sigma,
        seed=args.seed, sampling=args.sampling, model=args.model,
    )
    data = io.generate_synthetic(spec)
    _write_output(args.output, io._dataset_chunks(data))
    _echo_stderr(_parsed_flags(args))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from . import fit, io

    data = io.read_dataset(_read_input(args.input))
    pw, result = fit.fit_two_stage(data)
    smooth = dataclasses.asdict(result)
    payload = {
        "piecewise": dataclasses.asdict(pw),
        "smooth": {**smooth.pop("params"), **smooth},  # the params first, flattened
        "settings": _parsed_flags(args, "command"),
    }
    print(json.dumps(payload, indent=2))
    return 0 if result.converged else 1


def _curve_series(role: str, form, params, lo: float, hi: float, n: int) -> io.Series:
    """The closed form ``form(x, params)`` at n points spanning [lo, hi],
    plus ``params.phi_c`` when it lies inside (duplicates dropped)."""
    import numpy as np

    from . import io

    x = np.linspace(lo, hi, n)
    if lo < params.phi_c < hi:
        x = io._distinct(np.insert(x, np.searchsorted(x, params.phi_c, "right"), params.phi_c))
    return io.Series(role, x, form(x, params))


def cmd_plot(args: argparse.Namespace) -> int:
    from . import io

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
            from . import fit

            pw, result = fit.fit_two_stage(data)
            lo, hi, n = float(data.phi[0]), float(data.phi[-1]), args.samples
            series.append(_curve_series("limit-curve", model.piecewise_limit, pw, lo, hi, n))
            series.append(_curve_series("model-curve", model.value, result.params, lo, hi, n))

    plot_spec = io.PlotSpec(series=tuple(series), width=args.width, height=args.height)
    _echo_stderr(_parsed_flags(args))
    _write_output(args.output, io._svg_chunks(plot_spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # A flag value that its type or choices reject raises ArgumentError, which
    # main() reports as a usage error; an unknown flag still exits in parse_args.
    parser_class = functools.partial(argparse.ArgumentParser, exit_on_error=False)
    parser = parser_class(
        prog="kinkfit",
        description="Evaluate, verify, simulate, fit and plot smooth two-slope transition curves.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    p_eval = sub.add_parser("eval", help="tabulate slope, value and the sharp limit")
    _add_param_flags(p_eval, with_defaults=True)
    p_eval.add_argument(
        "--phi", type=_finite, action="append", help="evaluation point (repeatable)"
    )
    p_eval.add_argument(  # checked here, kept as text for the provenance record
        "--phi-range", type=lambda text: _parse_phi_range(text) and text,
        help="lo:hi:n uniform evaluation points (inclusive)",
    )
    p_eval.add_argument(
        "--csv", action="store_true", help="emit CSV (phi,s,F,F_limit) instead of a table"
    )
    p_eval.set_defaults(handler=cmd_eval)

    p_check = sub.add_parser(
        "check", help="re-integrate the model numerically and compare to the closed forms"
    )
    _add_param_flags(p_check, with_defaults=True)
    p_check.add_argument("--phi-lo", type=_finite, help="window start (default phi_c - 0.03)")
    p_check.add_argument("--phi-hi", type=_finite, help="window end (default phi_c + 0.03)")
    p_check.add_argument("--samples", type=int, default=25, help="grid size")
    p_check.add_argument("--ode-step", type=_finite, default=2e-6, help="RK4 step")
    p_check.add_argument(
        "--quad-tol", type=_finite, default=1e-10, help="quadrature absolute tolerance"
    )
    p_check.add_argument(
        "--slope-tol", type=_finite, default=1e-9, help="pass bound on slope deviation"
    )
    p_check.add_argument(
        "--value-tol", type=_finite, default=1e-8, help="pass bound on value deviation"
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
    p_sim.add_argument("--phi-lo", type=_finite, default=DEMO_PHI_LO)
    p_sim.add_argument("--phi-hi", type=_finite, default=DEMO_PHI_HI)
    p_sim.add_argument("--sigma", type=_finite, default=0.0, help="noise std deviation")
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
    p_plot.add_argument("--phi-lo", type=_finite, default=DEMO_PHI_LO)
    p_plot.add_argument("--phi-hi", type=_finite, default=DEMO_PHI_HI)
    p_plot.add_argument("--samples", type=int, default=601, help="curve sample count")
    p_plot.add_argument("--width", type=_finite, default=640.0)
    p_plot.add_argument("--height", type=_finite, default=480.0)
    p_plot.add_argument("-o", "--output", default="-", help="output path ('-' = stdout)")
    p_plot.set_defaults(handler=cmd_plot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # OpenBLAS splits a dot product of over 1e4 terms between its threads,
        # so its rounding varies with the thread count.  kinkfit's largest
        # product is n x 5: the commands that import numpy run one thread,
        # whatever the caller set (OPENBLAS_NUM_THREADS outranks GOTO_ and
        # OMP_NUM_THREADS); `check` and `--version` import no numpy.
        if args.handler is not cmd_check and "numpy" not in sys.modules:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        return args.handler(args)
    except KinkfitError as exc:
        print(f"kinkfit: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    # ArgumentError comes from parse_args; numpy's MemoryError from an allocation.
    except (ValueError, argparse.ArgumentError, OSError, MemoryError) as exc:
        print(f"kinkfit: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1 if isinstance(exc, (OSError, MemoryError)) else 2


if __name__ == "__main__":
    sys.exit(main())
