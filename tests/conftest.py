"""Shared fixtures; instance builders live in trajopt._testing."""

from __future__ import annotations

import numpy as np
import pytest

import trajopt.lqsolve
from trajopt.envs.build import ENV_DISCRETIZERS

from trajopt._testing import (  # noqa: F401  (re-exported for the test modules)
    acceptance_violations,
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


# every env with each discretizer it allows
ENV_SCHEMES = [(env, scheme) for env, schemes in ENV_DISCRETIZERS.items() for scheme in schemes]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cholesky_spy(monkeypatch):
    """Outcomes ("ok" or "failed") of every Cholesky factorization the stages make.

    The stages reach LAPACK through ``trajopt.lqsolve._lapack``; the spy
    replaces that accessor with one whose ``dpotrf`` records its outcome.
    """
    outcomes = []
    real, dpotrs = trajopt.lqsolve._lapack()

    def spy(*args, **kwargs):
        factor, info = real(*args, **kwargs)
        outcomes.append("failed" if info > 0 else "ok")
        return factor, info

    monkeypatch.setattr(trajopt.lqsolve, "_lapack", lambda: (spy, dpotrs))
    return outcomes
