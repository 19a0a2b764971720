"""kinkfit: smooth transitions between two linear regimes.

Closed forms for a logistic slope crossover and its integrated observable,
numerical cross-verification (fixed-step RK4 and adaptive quadrature),
two-stage least-squares fitting, a matched power-law profile variant, and
CSV/SVG I/O with a command-line front end.
"""

from .errors import KinkfitError
from .fit import DataSet, FitResult, PiecewiseFit, fit_piecewise, fit_smooth, fit_two_stage, init_smooth, residual_sse
from .io import (
    PlotGeometry,
    PlotSpec,
    Series,
    SyntheticSpec,
    generate_synthetic,
    read_dataset,
    render_svg,
    svg_geometry,
    write_dataset,
)
from .model import (
    TaylorCoeffs,
    TransitionParams,
    piecewise_limit,
    riccati_rhs,
    slope,
    slope_limit,
    taylor_to_params,
    value,
    value_beta_linear,
    value_and_gradient,
    value_gradient,
)
from .oracle import OdeRun, Trajectory, VerificationReport, integrate_slope_ode, integrate_value_quadrature, verify_closed_forms
from .powerlaw import PowerLawParams, loglog_slope, shear, velocity_limit, velocity_smooth
from .quadrature import adaptive_simpson

__version__ = "0.1.0"

__all__ = [
    "KinkfitError",
    "TransitionParams",
    "TaylorCoeffs",
    "taylor_to_params",
    "riccati_rhs",
    "slope",
    "value",
    "value_beta_linear",
    "value_gradient",
    "value_and_gradient",
    "piecewise_limit",
    "slope_limit",
    "OdeRun",
    "Trajectory",
    "VerificationReport",
    "integrate_slope_ode",
    "integrate_value_quadrature",
    "verify_closed_forms",
    "adaptive_simpson",
    "DataSet",
    "FitResult",
    "PiecewiseFit",
    "fit_piecewise",
    "init_smooth",
    "fit_smooth",
    "fit_two_stage",
    "residual_sse",
    "PowerLawParams",
    "shear",
    "velocity_limit",
    "velocity_smooth",
    "loglog_slope",
    "SyntheticSpec",
    "generate_synthetic",
    "read_dataset",
    "write_dataset",
    "Series",
    "PlotSpec",
    "PlotGeometry",
    "render_svg",
    "svg_geometry",
    "__version__",
]
