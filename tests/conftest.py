"""Shared fixtures; instance builders live in trajopt._testing."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from trajopt._testing import (  # noqa: F401  (re-exported for the test modules)
    concave_fixture,
    concave_stage_problem,
    env_interior_point,
    fd_hessian,
    fd_jacobian,
    kkt_solve_lq,
    oracle_equivalence_error,
    policy_scaling_deviation,
    random_lq_problem,
    random_smooth_problem,
    random_spd,
    stationarity_gap,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cholesky_spy(monkeypatch):
    """Outcomes ("ok" or "failed") of every scipy Cholesky factorization made."""
    outcomes = []
    real = scipy.linalg.cho_factor

    def spy(*args, **kwargs):
        try:
            factor = real(*args, **kwargs)
        except scipy.linalg.LinAlgError:
            outcomes.append("failed")
            raise
        outcomes.append("ok")
        return factor

    monkeypatch.setattr(scipy.linalg, "cho_factor", spy)
    return outcomes
