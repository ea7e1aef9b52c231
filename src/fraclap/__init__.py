"""fraclap: potential theory for the fractional Laplacian at desk scale.

Explicit Poisson/Green kernels on balls, shifted balls and the half-space,
singular-integral quadrature, Dirichlet solvers via Green representation,
a semilinear Picard iterator with moving-plane diagnostics, and a suite of
quantitative verification checks.
"""

from .core import (
    CriticalExponents,
    FracParams,
    Regime,
    critical_exponents,
    dimension_reduction_ratio,
    getoor_constant,
    green_constant_k,
    incomplete_kernel_integral,
    normalization_a,
    poisson_constant_C,
)
from .kernels import (
    Ball,
    DiagonalSingularity,
    HalfSpace,
    green_ball,
    green_halfspace,
    green_shifted_ball,
    h_function,
    h_function_partials,
    poisson_ball,
    poisson_shifted_ball,
    reflect_point,
    regularized_poisson,
    riesz_potential,
)

__version__ = "0.1.0"
