"""Exception taxonomy shared by every module.

Each guard that a public operation promises is represented by its own
exception class, so callers can react to a specific failure (for example a
truncation budget blowing up) without string matching.
"""


class OrthokleisError(Exception):
    """Base class for every error raised by this package."""


class NotSymmetric(OrthokleisError):
    """Input matrix is not symmetric."""


class NotEven(OrthokleisError):
    """A diagonal entry of the quadratic form is odd.

    The offending index is stored in ``index``.
    """

    def __init__(self, index: int, value):
        self.index = index
        self.value = value
        super().__init__(f"diagonal entry {value} at index {index} is odd")


class NotPositiveDefinite(OrthokleisError):
    """A leading principal minor is not positive.

    ``minor_index`` is the 1-based size of the failing minor.
    """

    def __init__(self, minor_index: int):
        self.minor_index = minor_index
        super().__init__(f"leading principal minor of size {minor_index} is not positive")


class DomainExit(OrthokleisError):
    """A group element mapped a point outside the positivity cone."""


class IsotropicReflectionVector(OrthokleisError):
    """Reflection requested in a vector of zero norm."""


class TransportFailure(OrthokleisError):
    """The constructed transport element missed its target point."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"transport residual {residual:.3e} exceeds tolerance")


class BudgetExceeded(OrthokleisError):
    """An enumeration passed its configured candidate cap."""

    def __init__(self, message: str, count=None, cap=None):
        self.count = count
        self.cap = cap
        super().__init__(message)


class ConvergenceGuard(OrthokleisError):
    """Series evaluation requested outside its half-plane of convergence."""


class RankDeficient(OrthokleisError):
    """Matrix does not have the full rank the operation requires."""


class XDependentInput(OrthokleisError):
    """Operator defined only on functions of Y received an X-dependent term."""


class SingularDenominator(OrthokleisError):
    """Fractional-linear action has a non-invertible denominator."""


class NonIntegralEmbed(OrthokleisError):
    """Embedding into the integral group asked for with non-integral data."""


class PoleAt(OrthokleisError):
    """Evaluation requested at a pole; carries location and residue."""

    def __init__(self, location, residue=None, label: str = ""):
        self.location = location
        self.residue = residue
        self.label = label
        msg = f"pole at s = {location}"
        if label:
            msg = f"{label}: {msg}"
        if residue is not None:
            msg += f" (residue {residue})"
        super().__init__(msg)


class QuadratureBudget(OrthokleisError):
    """A certified quadrature could not reach the requested tolerance.

    Raised by ``p2_integral_check`` when, at the finest rule of its fixed
    ladder, the certificate (gap between successive rules, plus the tail
    bound, plus the summation rounding bound) still exceeds
    ``rel_tol * |closed|``, or when the closed form is outside double
    range.
    """
