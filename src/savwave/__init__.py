"""Auxiliary-variable integrators for the 1-d stochastic wave equation."""

from .fem import FemSystem, assemble, initial_coefficients, l2_project, ritz_project
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
    NoiseIncrement,
    RngStream,
    coupled_path,
    power_covariance,
    sample_increment,
    trace,
)
from .schemes import (
    BlowUpError,
    Integrator,
    RunRecord,
    SavState,
    StepDiagnostics,
    initial_state,
    modified_energy,
    pathwise_energy_residual,
    run_trajectory,
    step_exponential_sav,
    step_midpoint_sav,
    substitution_residual,
)
from .spectral import (
    PairState,
    SpectralField,
    WaveGroupTable,
    eigenvalue,
    eigenvalues,
    group_step,
    sobolev_norm_sq,
    spectral_group_table,
    to_nodal,
    to_spectral,
    wave_group_table,
)

__version__ = "0.1.0"
