"""Exception types shared across the package."""


class HmtError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(HmtError, ValueError):
    """Ambient dimension must be an integer >= 2."""


class GridConfigError(HmtError, ValueError):
    """Grid construction parameters violate their contract."""


class NumericError(HmtError, ArithmeticError):
    """Non-finite data reached a quadrature or functional."""


class DomainError(HmtError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(HmtError, RuntimeError):
    """Fixed-point solve did not reach tolerance within max_iter."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class PotentialInstabilityError(HmtError, RuntimeError):
    """No positive Green function: the flux vanishes before the pole, or the mass overflows."""


class CorruptTableError(HmtError, ValueError):
    """A Green table violates its structural invariants."""


class PreconditionError(HmtError, ValueError):
    """Operation called with inputs outside its stated precondition."""


class DegenerateProfileError(HmtError, ValueError):
    """Profile has non-positive deficit energy and cannot be normalized."""


class DiscretizationFailureError(HmtError, RuntimeError):
    """A quantity with a guaranteed sign came out with the wrong sign."""
