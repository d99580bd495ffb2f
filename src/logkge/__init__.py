"""Energy-preserving finite difference solvers for the regularized
logarithmic Klein-Gordon equation on 1D periodic domains."""

from .analysis import (
    ErrorReport,
    GaussonParams,
    energy_gap_bound,
    error_report,
    gausson,
    gausson_initial_data,
    observed_order,
    siefd_tau_bound,
    sigma_max,
)
from .grid import Grid1D
from .nonlinearity import NonlinearityParams
from .schemes import (
    InitialData,
    NonConvergenceError,
    Run,
    StabilityWarning,
    StepperConfig,
    discrete_energy,
    evolve,
    first_step,
)

__version__ = "0.1.0"

__all__ = [
    "ErrorReport",
    "GaussonParams",
    "Grid1D",
    "InitialData",
    "NonConvergenceError",
    "NonlinearityParams",
    "Run",
    "StabilityWarning",
    "StepperConfig",
    "discrete_energy",
    "energy_gap_bound",
    "error_report",
    "evolve",
    "first_step",
    "gausson",
    "gausson_initial_data",
    "observed_order",
    "siefd_tau_bound",
    "sigma_max",
]
