"""Exception hierarchy and the residual status rule shared by all quatreg
modules."""

import numpy as np


class QuatRegError(Exception):
    """Base class for all quatreg errors."""


class OnRealAxis(QuatRegError):
    """Operation needs a nonzero imaginary part, but the point sits on the real axis."""


class ZeroDivisor(QuatRegError):
    """Multiplicative inverse of a (numerically) zero quaternion."""


class DegenerateChart(QuatRegError):
    """Spherical chart is singular here (sin beta below the configured floor)."""


class DomainError(QuatRegError):
    """Point lies outside the domain of the function being evaluated."""


class OrderTooHigh(QuatRegError):
    """Requested jet order exceeds the supported maximum."""


class BasisMismatch(QuatRegError):
    """Jet operands do not share the same order/variable basis."""


class IndexTooDeep(QuatRegError):
    """Multi-index exceeds the jet's truncation order."""


class TouchesRealAxis(QuatRegError):
    """A surface or its interior meets the real axis; raised while the
    surface is built."""


class UnknownFunction(QuatRegError):
    """Catalog lookup with an unrecognized function name."""


class BadParams(QuatRegError):
    """Catalog lookup with malformed parameters."""


class EmptyDomain(QuatRegError):
    """A sample domain is invalid or admits too few points to fill a request."""


class ConfigError(QuatRegError):
    """Suite configuration could not be parsed or validated."""


#: The errors evaluating a member raises at run time.  The suite runners
#: record them against the member that raised them and go on.
#: TouchesRealAxis is not among them: only building a surface raises it,
#: and the CLI turns that into a configuration error.
RUNTIME_ERRORS = (DomainError, OnRealAxis, DegenerateChart, ZeroDivisor)


def residual_status(residuals, bound) -> str:
    """'pass' when every residual is below bound, 'fail' when one is not,
    'error' when any residual is NaN or infinite.

    A non-finite residual measured nothing, so it must never read as a
    failure, which a control expects.  bound may be an array matching
    the residuals.
    """
    r = np.asarray(residuals, dtype=float)
    if not np.all(np.isfinite(r)):
        return "error"
    return "pass" if np.all(r < bound) else "fail"
