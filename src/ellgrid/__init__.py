"""Elliptic lattices on biquadratic curves and their difference calculus."""

from .curve import BiquadraticCurve, RootPair
from .diffops import (
    BasisFunction,
    BasisPair,
    diff_constant,
    divided_difference,
    divided_difference_rational,
    identity_samples,
    mean_poly_direct,
    mean_poly_value,
    mean_rational,
    mean_value,
    verify_diff_basis_identity,
)
from .lattice import (
    AskeyWilsonLattice,
    GeometricLattice,
    LatticePair,
    LatticeSpec,
    LinearLattice,
    generate,
)
from .poly import Polynomial, RationalFunction, solve_quadratic
from .solver import (
    ByIndex,
    DifferenceEquation,
    ExpansionSolution,
    Explicit,
    Nearest,
    SpecialPoints,
    build_lattices,
    closed_product_coefficient,
    evaluate_partial_sum,
    expansion_coefficients,
    expansion_coefficients_log,
    locate_special_points,
    residual,
    solution_to_json,
    solve,
    stepwise_oracle,
    verify_interpolation,
)
from .convergence import (
    RatePredictor,
    RateReport,
    detect_small_divisors,
    empirical_rate,
    path_integral,
    period_quadrature,
    rate_map,
    term_magnitudes,
    trace_lattice_locus,
    write_rate_map_csv,
)

__all__ = [
    "BiquadraticCurve", "RootPair",
    "BasisFunction", "BasisPair", "diff_constant", "divided_difference",
    "divided_difference_rational", "identity_samples", "mean_poly_direct",
    "mean_poly_value", "mean_rational", "mean_value", "verify_diff_basis_identity",
    "AskeyWilsonLattice", "GeometricLattice", "LatticePair", "LatticeSpec",
    "LinearLattice", "generate",
    "Polynomial", "RationalFunction", "solve_quadratic",
    "ByIndex", "DifferenceEquation", "ExpansionSolution", "Explicit", "Nearest",
    "SpecialPoints", "build_lattices", "closed_product_coefficient",
    "evaluate_partial_sum", "expansion_coefficients", "expansion_coefficients_log",
    "locate_special_points", "residual", "solution_to_json", "solve",
    "stepwise_oracle", "verify_interpolation",
    "RatePredictor", "RateReport", "detect_small_divisors", "empirical_rate",
    "path_integral", "period_quadrature", "rate_map", "term_magnitudes",
    "trace_lattice_locus", "write_rate_map_csv",
]
__version__ = "0.1.0"
