"""Shared fixtures; instance builders live in trajopt._testing."""

from __future__ import annotations

import numpy as np
import pytest

from trajopt._testing import (  # noqa: F401  (re-exported for the test modules)
    concave_stage_problem,
    env_interior_point,
    fd_hessian,
    fd_jacobian,
    kkt_solve_lq,
    policy_scaling_deviation,
    random_lq_problem,
    random_smooth_problem,
    random_spd,
    stationarity_gap,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
