"""kinkfit: smooth transitions between two linear regimes.

Closed forms for a logistic slope crossover and its integrated observable,
numerical cross-verification (fixed-step RK4 and adaptive quadrature),
two-stage least-squares fitting, a matched power-law profile variant, and
CSV/SVG I/O with a command-line front end.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The submodules and the names each one exports.  Both resolve on
# first access (PEP 562), so a command that never touches the fit or I/O
# layers never compiles or imports them.
_EXPORTS = {
    "errors": ("KinkfitError",),
    "fit": (
        "FitResult", "PiecewiseFit", "fit_piecewise", "fit_smooth", "fit_two_stage",
        "init_smooth", "residual_sse",
    ),
    "io": (
        "DataSet", "PlotGeometry", "PlotSpec", "Series", "SyntheticSpec",
        "generate_synthetic", "read_dataset", "render_svg", "svg_geometry", "write_dataset",
    ),
    "model": (
        "TaylorCoeffs", "TransitionParams", "piecewise_limit", "riccati_rhs", "slope",
        "slope_limit", "taylor_to_params", "value", "value_beta_linear",
        "value_and_gradient", "value_gradient",
    ),
    "oracle": (
        "OdeRun", "Trajectory", "VerificationReport", "integrate_slope_ode",
        "integrate_value_quadrature", "verify_closed_forms",
    ),
    "powerlaw": ("PowerLawParams", "loglog_slope", "shear", "velocity_limit", "velocity_smooth"),
    "quadrature": ("adaptive_simpson",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # binds it here too
    if name in _ORIGIN:
        value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    bound = {n for n in globals() if not n.startswith("_") or n.startswith("__")}
    return sorted((bound - {"__getattr__", "__dir__"}) | {*__all__, *_EXPORTS})
