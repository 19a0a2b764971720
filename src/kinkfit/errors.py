"""Exception types raised across the package."""


class KinkfitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KinkfitError):
    """Malformed input, or input the model cannot represent: the CLI exits 2."""


class DegenerateQuadratic(KinkfitError):
    """The expansion has no quadratic term, so the two-root form is undefined."""


class ComplexRoots(KinkfitError):
    """The expansion's quadratic has no real roots."""


class NonPositiveGamma(KinkfitError):
    """The expansion implies a non-positive sharpness coefficient."""


class StepTooLarge(KinkfitError):
    """An ODE stage value left the trust region; the fixed step is too coarse."""


class MaxDepthExceeded(KinkfitError):
    """Adaptive quadrature hit its recursion depth limit, or a tolerance
    share below the rounding level of its sums, before converging."""


class InsufficientData(InputError):
    """Too few (or too few distinct) observations for the requested fit."""


class DegenerateDesign(KinkfitError):
    """No candidate breakpoint's hinge fit is finite in double precision:
    its sse or a coefficient overflows the double range."""


class ConcaveKink(InputError):
    """The hinge fit's left slope exceeds its right one; the smooth model
    (alpha <= beta) only represents a convex kink."""


class SingularNormalMatrix(KinkfitError):
    """The damped normal equations stayed unsolvable at maximum damping."""


class NonPositiveY(KinkfitError):
    """Wall distances in the power-law profile must be positive."""


class MalformedHeader(InputError):
    """CSV input does not start with the required 'phi,F' header line."""


class _LineError(InputError):
    """A record-level CSV error; carries the 1-based line number."""

    def __init__(self, line_number: int, detail: str):
        super().__init__(f"line {line_number}: {detail}")
        self.line_number = line_number


class MalformedRecord(_LineError):
    """A CSV data line could not be parsed as two comma-separated numbers."""


class NonFiniteValue(_LineError):
    """A CSV data line parsed to NaN or infinity."""


class EmptyPlot(KinkfitError):
    """A plot needs at least one series."""


class NonFiniteSample(KinkfitError):
    """Plot series contain non-finite coordinates."""
