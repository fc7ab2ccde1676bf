"""Marginal multivariate Value-at-Risk under Archimedean copula dependence.

Analytical VaR through the generator-form conditional-expectation integral
for the Clayton, Frank, Gumbel-Hougaard, Joe and Ali-Mikhail-Haq families,
Kendall-tau calibration, exact seeded copula samplers, and a level-set
Monte Carlo estimator for validation studies.
"""
from .calibration import kendall_tau, tau_range, theta_from_tau
from .errors import (DomainError, EmptyLevelSetError, GeneratorInfinityError,
                     ParameterError, QuadratureError, RangeError, StudyError)
from .families import (CopulaSpec, FamilyId, beta_kernel, copula_cdf, phi,
                       phi_inverse, phi_prime)
from .margins import ConstantMargin, FunctionMargin, TabulatedMargin, UniformMargin
from .mc import McConfig, McStats, estimate_var_once, run_study, stats_table_rows
from .quadrature import QuadConfig, graded_breakpoints, integrate
from .rng import Seed
from .sampling import Sample, empirical_kendall_tau, sample_copula, sample_frailty, write_sample
from .var import VarResult, kernel_mass, var_for_spec, var_generic

__version__ = "1.0.0"

__all__ = [
    "CopulaSpec", "FamilyId", "phi", "phi_prime", "phi_inverse", "copula_cdf",
    "beta_kernel",
    "kendall_tau", "theta_from_tau", "tau_range",
    "QuadConfig", "integrate", "graded_breakpoints",
    "UniformMargin", "ConstantMargin", "TabulatedMargin", "FunctionMargin",
    "VarResult", "var_generic", "kernel_mass", "var_for_spec",
    "Seed", "Sample", "sample_copula", "sample_frailty",
    "empirical_kendall_tau", "write_sample",
    "McConfig", "McStats", "estimate_var_once", "run_study", "stats_table_rows",
    "ParameterError", "DomainError", "GeneratorInfinityError", "RangeError",
    "QuadratureError", "EmptyLevelSetError", "StudyError",
]
