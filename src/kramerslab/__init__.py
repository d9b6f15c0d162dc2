"""Numerical laboratory for the high-activation-energy limit of a double-well
drift-diffusion on a cylinder and its two-species reaction-diffusion limit."""

import os

# one BLAS thread unless the caller set one, before numpy loads (README)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .enthalpy import (EnthalpyProfile, from_coefficients, quartic_default,
                       validate)
from .gibbs import (EPS_CEIL, EPS_FLOOR, GibbsMeasure, laplace_i_shifted,
                    laplace_z, log_barrier_integral, log_laplace_i,
                    log_partition, log_tau)
from .grid_forms import (Field, FormMatrices, Grid, LimitField,
                         ModalLimitForms, assemble, assemble_limit,
                         assemble_limit_rates, b_form, build_grid,
                         graded_nodes, pair_limit, pair_measure)
from .transition import (k_eps, lift, limit_rate, q_eps, transition_mass,
                         transition_profile)
from .evolve_kramers import (LinearSolver, SolverError, Trajectory, solve,
                             solve_limit)
from .convergence import (Config, ConvergenceReport, cutoff_average,
                          cutoff_mass, gamma_limsup_check,
                          nonlinear_observable, nonlinear_observable_limit,
                          run_ladder_study, traces)

__version__ = "0.1.0"
