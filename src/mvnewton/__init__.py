"""Multivariate Newton interpolation in downward-closed polynomial spaces
on non-tensorial unisolvent grids, with Leja-ordered nodes, fast evaluation
and differentiation, Lagrange-basis tools, Lebesgue-constant estimation,
and a convergence-rate benchmark harness.
"""

from .multi_index import MultiIndexSet, make_lp_set
from .grid import (
    Nodes1D,
    UnisolventGrid,
    axes_for,
    build_grid,
    chebyshev_lobatto,
    leja_order,
    leja_points,
    monomial_vandermonde,
    vandermonde_unisolvence_check,
)
from .newton import (
    DegenerateNodesError,
    LagrangeCoefficients,
    NewtonPolynomial,
    NonFiniteSampleError,
    divided_differences,
    eval_derivative,
    eval_iterative,
    eval_recursive,
    interpolate,
    lagrange_basis_in_newton,
    lagrange_newton_matrix,
    load_bundle,
    newton_basis_values,
    newton_to_lagrange,
    save_bundle,
)
from .analysis import (
    BenchmarkFunction,
    ConvergenceRecord,
    RateFit,
    benchmark_eval,
    chebyshev_lobatto_lebesgue_reference,
    convergence_run,
    fit_rate,
    lebesgue_estimate,
    make_benchmark,
    optimal_rho,
)

__version__ = "0.1.0"

__all__ = [
    "MultiIndexSet",
    "make_lp_set",
    "Nodes1D",
    "UnisolventGrid",
    "axes_for",
    "build_grid",
    "chebyshev_lobatto",
    "leja_order",
    "leja_points",
    "monomial_vandermonde",
    "vandermonde_unisolvence_check",
    "DegenerateNodesError",
    "LagrangeCoefficients",
    "NewtonPolynomial",
    "NonFiniteSampleError",
    "divided_differences",
    "eval_derivative",
    "eval_iterative",
    "eval_recursive",
    "interpolate",
    "lagrange_basis_in_newton",
    "lagrange_newton_matrix",
    "load_bundle",
    "newton_basis_values",
    "newton_to_lagrange",
    "save_bundle",
    "BenchmarkFunction",
    "ConvergenceRecord",
    "RateFit",
    "benchmark_eval",
    "chebyshev_lobatto_lebesgue_reference",
    "convergence_run",
    "fit_rate",
    "lebesgue_estimate",
    "make_benchmark",
    "optimal_rho",
]
