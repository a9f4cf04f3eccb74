"""Steering of semilinear measure-driven integrodifferential systems.

Mild solutions of

    d zeta(t) = [A(t) zeta + int_0^t G(t,s) zeta(s) ds + V u(t)] dt
              + delta(t, zeta(t)) dh(t),        zeta(0) + g(zeta) = zeta0,

in the Dirichlet sine eigenbasis, with minimal-norm controls steering to
zeta(a) + g(zeta) = zeta1, plus the sufficient smallness conditions.
"""

from .conditions import (ConditionConstants, ConditionReport, build_report,
                         check_cond1, check_cond2, check_example_conditions,
                         estimate_constants, pz_samples)
from .control import (ControlSignal, SteeringReport, SteerOutcome, gramians,
                      min_norm_inverse, steer, steering_residual,
                      synthesize_control, terminal_error)
from .errors import (ConfigError, ConvergenceError, DegenerateModeError,
                     DomainError, GridError, InstabilityError, SteeringError,
                     UsageError)
from .funcs import MemoryKernel, TimeFunction
from .measure import (JumpMeasure, RegulatedTrajectory, TimeGrid,
                      build_time_grid, constant_measure, density_on_grid,
                      jump_sizes_on_grid, lebesgue_measure, zeno_measure)
from .scenario import NonlinearityEval, NonlocalEval, Scenario, Tolerances
from .scenario_io import (parse_scenario, run_command, serialize_scenario,
                          write_control_csv, write_trajectory_csv)
from .solver import (PicardResult, apply_psi, discontinuity_count,
                     jump_consistency, picard_solve)
from .spectral import (AutonomyReport, LinearPart, PdeReport, ResolventTable,
                       SpectralBasis, check_autonomous_reduction, make_basis,
                       sample_resolvent, verify_resolvent_pde)

__version__ = "0.1.0"
