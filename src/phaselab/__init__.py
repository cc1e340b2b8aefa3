"""Phase-field interface laboratory.

Simulates the scalar phase-field equation du/dt = lap u - W'(u)/eps^2
against exact mean-curvature interface motion (planes and spheres) and
evaluates relative-entropy diagnostics: energy and dissipation, coercivity
controls, the entropy evolution identity, interface errors, and eps-sweep
convergence rates.
"""

__version__ = "0.1.0"

from .diagnostics import CSV_COLUMNS, coercivity_check, relative_entropy
from .experiments import (GronwallFit, RateFit, RateReport, SweepPlan,
                          check_identities, fit_rate, gronwall_fit,
                          initial_entropy_study, run_sweep)
from .geometry import (CutoffSpec, PlaneInterface, SphereInterface,
                       extended_fields, interface_distance, tau_truncation,
                       xi_pde_residuals)
from .grids import Grid, full_grid, radial_grid
from .potentials import ProfileTable, solve_profile
from .solver import (BlowUpError, ConfigError, RunResult, SimulationConfig,
                     initial_data, make_stepper, run, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
