"""Iterative linear-quadratic solvers for discrete-time optimal control."""

from .core import (
    TrajectoryProblem,
    linear_dynamics,
    quadratic_cost,
    quadratic_state_cost,
)
from .oracles import (
    ORACLE_KINDS,
    ExpansionBundle,
    OracleDirection,
    forward,
    objective_value,
    oracle,
    oracle_step,
    rollout,
    run_backward,
)
from .dense import (
    dense_gauss_newton_matrix,
    dense_gradient,
    dense_hessian,
    smoothness_bounds,
    trajectory_jacobian,
)
from .linesearch import (
    STEP_RULES,
    LineSearchConfig,
    SolveTrace,
    StopCriteria,
    directional_search,
    regularized_search,
    solve,
    stationarity_residual,
)

__version__ = "0.1.0"
