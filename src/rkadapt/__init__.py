"""Adaptive embedded Runge-Kutta time integration toolkit.

Low-storage pairs with error-based PID step size control, CFL-based control,
step-size-control-stability analysis, controller-parameter search, and a
small discontinuous Galerkin spectral element problem suite.
"""

from .butcher import ButcherPair, InvariantViolation, order_residuals
from .catalog import (UnknownMethodError, catalog_get, catalog_names,
                      export_coefficients, load_coefficients)
from .control import (CflConfig, ControllerConfig, ControllerState,
                      accept_or_reject, cfl_dt, error_norm, initial_step,
                      pid_propose)
from .integrate import IntegrationAbort, RunReport, integrate
from .lowstorage import LowStorageScheme, ReconstructionError, to_butcher
from .problems import Problem, make_problem, search_suite
from .search import (EmptyStableSetError, SearchSpace, filter_stable, recommend,
                     run_search)
from .stability import (BoundaryTrace, ControlStabilityReport, StabilityPolynomials,
                        contains_region, control_jacobian, control_stability_scan,
                        stability_polynomials, trace_boundary)
from .stepping import StepResult, butcher_step, lowstorage_step, step

__all__ = [
    "ButcherPair", "LowStorageScheme", "StepResult", "RunReport",
    "ControllerConfig", "ControllerState", "CflConfig", "Problem",
    "SearchSpace", "StabilityPolynomials", "BoundaryTrace",
    "ControlStabilityReport", "InvariantViolation", "ReconstructionError",
    "UnknownMethodError", "IntegrationAbort", "EmptyStableSetError",
    "catalog_get", "catalog_names", "load_coefficients", "export_coefficients",
    "to_butcher", "order_residuals", "butcher_step", "lowstorage_step", "step",
    "integrate", "error_norm", "pid_propose", "accept_or_reject",
    "initial_step", "cfl_dt", "stability_polynomials", "trace_boundary",
    "contains_region", "control_jacobian", "control_stability_scan",
    "make_problem", "search_suite", "run_search", "filter_stable", "recommend",
]
