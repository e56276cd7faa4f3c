"""Volterra convolution operators in classical orthogonal-polynomial bases.

Build the almost-banded matrix representation of g -> integral of
f(x - t) g(t) dt for kernels expanded in Chebyshev, Legendre, Gegenbauer or
Jacobi series (weighted Laguerre on the half line), apply it to coefficient
vectors, solve second-kind convolution integral equations, and verify
everything against an independent quadrature oracle.
"""

import logging

from .bases import (BasisSpec, chebyshev, gegenbauer, jacobi, legendre,
                    weighted_laguerre)
from .convmat import (ConvMatrix, RecurrenceTables, apply, build,
                      build_chebyshev, build_chebyshev_naive, build_gegenbauer,
                      build_jacobi, build_legendre, jacobi_tables,
                      symmetry_ratio, to_dense)
from .errors import (ArgumentError, BasisParameterError, ConvergenceError,
                     DegenerateParameterError, DimensionError, DomainError,
                     DomainMismatchError, NarrowLongdoubleError, NonResolutionError,
                     OversizeError, RangeOverflowError, SingularSystemError,
                     UnsupportedBasisError, VoltconvError)
from .laguerre import (LaguerreConvMatrix, apply_laguerre, build_laguerre,
                       fit_laguerre, to_dense_laguerre)
from .oracle import (ErrorReport, compare_entrywise, conv_coeff_block,
                     conv_coeff_oracle, conv_point_oracle, report_to_csv,
                     sampled_value_errors)
from .prng import SplitMix64, random_kernel
from .quadrature import QuadRule, gauss_jacobi, gauss_laguerre, gauss_legendre
from .series import (ChopRule, PolySeries, evaluate, fit_chebyshev,
                     fit_fixed_chebyshev, indefinite_integral_cheb,
                     series_from_csv, series_from_json, series_to_csv,
                     series_to_json)
from .volterra import (VolterraProblem, convolve, problem_from_json,
                       problem_to_json, solve_second_kind, tailor_rhs,
                       truncate_square)

__version__ = "0.1.0"
logging.getLogger(__name__).addHandler(logging.NullHandler())   # no hot path logs
