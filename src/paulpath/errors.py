"""Exception types shared across the package.

Numerical failures are split from configuration failures so that callers
(most importantly the command line front end) can map them to distinct
exit codes: bad input is recoverable by editing a file, a conjugate point
or a singular elimination pivot is a property of the requested physics.
"""

from __future__ import annotations


class PaulpathError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PaulpathError):
    """A scenario or parameter value is malformed or out of domain.

    ``field`` names the offending entry so front ends can point at it;
    ``reason`` is the message without it.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        self.reason = message
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class OutOfRangeError(ConfigError):
    """A numeric argument lies outside its documented domain."""


class ZeroQError(PaulpathError):
    """The drive coefficient vanishes, so the cosine-series route
    (whose coefficients carry 1/q powers) is undefined.  The ODE route
    does not share this restriction."""


class NumericalError(PaulpathError):
    """Base class for failures of the numerics rather than the input."""


class ToleranceNotMetError(NumericalError):
    """A numerical method could not reach the accuracy its result needs:
    the adaptive integrator's step fell below the float spacing or spans
    too much phase, the missed endpoint of a trajectory, the Hill series
    or Floquet exponent did not converge or its pair is near degenerate,
    the periodic response or the free particle has no Floquet pair, or
    the periodic oracle's solutions grow past what it resolves."""


class ConjugatePointError(NumericalError):
    """The endpoint of the window is (numerically) conjugate to the start:
    the boundary value problem loses uniqueness and the fluctuation
    determinant vanishes."""


class CausticOnWindowError(NumericalError):
    """A reference solution f(t) used by the endpoint-product prefactor
    formula vanishes inside the window, so 1/f**2 is not integrable
    along the real axis."""


class SingularSliceError(NumericalError):
    """An elimination pivot of the discretized path integral underflowed
    (a discrete caustic)."""


class BadGridError(ConfigError):
    """A sampled record does not live on a strictly uniform, finite grid."""


class RecordWindowError(ConfigError):
    """A measurement record does not span the measurement window it is
    being used with."""


class PhaseBudgetError(NumericalError):
    """The window carries more oscillation phase than the configured
    budget, which the sliced oracle of ``paulpath validate`` could resolve
    only at unbounded cost.  Raised by that front-end guard, never by the
    core library."""
