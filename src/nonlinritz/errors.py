"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures with 3.  Certificate failures are reported, not raised.
"""


class NonlinRitzError(Exception):
    """Base class for package errors."""


class ConfigError(NonlinRitzError):
    """Invalid configuration: bad schema, missing constants, bad expression."""


class NumericalError(NonlinRitzError):
    """Numerical failure during evaluation or optimisation."""


class NonFiniteValueError(NumericalError):
    """An evaluation produced NaN or infinity."""


class DomainViolationError(NumericalError):
    """A parameter point lies outside the admissible nonlinear domain."""


class SpdViolationError(NumericalError):
    """A matrix expected to be symmetric positive (semi)definite is not."""


class DerivativeUnavailableError(NumericalError):
    """A weak derivative was requested from a field that only lives in L2."""
