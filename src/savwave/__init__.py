"""Auxiliary-variable integrators for the 1-d stochastic wave equation."""

from .fem import assemble, initial_coefficients, l2_project, ritz_project
from .model import (
    Discretization,
    ModelViolationError,
    Problem,
    QuadratureGrid,
    make_problem,
    spectral_discretization,
    uniform_grid,
)
from .noise import (
    CovarianceSpec,
    RngStream,
    power_covariance,
    trace,
)
from .schemes import (
    BlowUpError,
    Integrator,
    SavState,
    StepDiagnostics,
    initial_state,
    modified_energy,
    pathwise_energy_residual,
    step_exponential_sav,
    step_midpoint_sav,
    substitution_residual,
)
from .spectral import (
    SpectralField,
    WaveGroupTable,
    eigenvalues,
    spectral_group_table,
    wave_group_table,
)

__version__ = "0.1.0"
