"""Numerical verification toolkit for Cullen-regular quaternionic functions.

The package provides exact quaternion arithmetic with batched numpy
components, truncated Taylor jets for derivative-free differentiation, the
left Fueter and Cullen operators in Cartesian and spherical form, a catalog
of test functions with known regularity status, slice decompositions and
residual checkers for the structure theorems, and hypersurface quadrature
for the integral characterization.  The ``quatreg`` command line wraps it
all into reproducible batch suites.

The package's own arithmetic calls no BLAS routine.  QUATREG_THREADS caps
the BLAS thread pools before numpy is first imported by this package.
"""

import os as _os

_threads = _os.environ.get("QUATREG_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .errors import (QuatRegError, OnRealAxis, ZeroDivisor, DegenerateChart,
                     DomainError, OrderTooHigh, BasisMismatch, IndexTooDeep,
                     TouchesRealAxis, UnknownFunction, BadParams, EmptyDomain,
                     ConfigError)
from .quaternion import (Quaternion, SampleDomain, iota_of, to_spherical,
                         from_spherical)
from .jets import RJet, QJet
from .operators import (spherical_frame, fueter_left, fueter_left_spherical,
                        cullen_left, angular_derivative, laplacian,
                        fueter_laplacian)
from .catalog import (QFunction, catalog_get, from_string, default_inventory,
                      product, iota_times, over_r2, parse_quaternion_literal)
from .regularity import (slice_parts, lemma1_residual, theorem1_residuals,
                         hyperholomorphy_report)
from .integral import (sphere3, surface_integral_left, volume_integral,
                       gauss_report, minus_two_v_over_r, theorem2_report,
                       generalized_regularity_test, parse_surface,
                       standard_family)
from .cli import SuiteConfig, run_suite, list_catalog

__version__ = "0.1.0"

# The names the README and the tests use; result types and helpers stay
# importable from their modules.
__all__ = [
    "QuatRegError", "OnRealAxis", "ZeroDivisor", "DegenerateChart",
    "DomainError", "OrderTooHigh", "BasisMismatch", "IndexTooDeep",
    "TouchesRealAxis", "UnknownFunction", "BadParams", "EmptyDomain",
    "ConfigError",
    "Quaternion", "SampleDomain", "iota_of", "to_spherical", "from_spherical",
    "RJet", "QJet",
    "spherical_frame", "fueter_left", "fueter_left_spherical", "cullen_left",
    "angular_derivative", "laplacian", "fueter_laplacian",
    "QFunction", "catalog_get", "from_string", "default_inventory",
    "product", "iota_times", "over_r2", "parse_quaternion_literal",
    "slice_parts", "lemma1_residual", "theorem1_residuals",
    "hyperholomorphy_report",
    "sphere3", "surface_integral_left", "volume_integral", "gauss_report",
    "minus_two_v_over_r", "theorem2_report", "generalized_regularity_test",
    "parse_surface", "standard_family",
    "SuiteConfig", "run_suite", "list_catalog",
    "__version__",
]
