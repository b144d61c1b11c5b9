"""Shared fixtures; instance builders live in trajopt._testing."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import trajopt.oracles
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


# Property tests draw the same examples on every run and keep no example
# database, so Tier-1 is deterministic.  Hypothesis still caches the
# constants it reads from the source; that cache goes to the temporary
# directory, so a run writes no .hypothesis/ folder into the checkout.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "trajopt-hypothesis")

# every env with each discretizer it allows
ENV_SCHEMES = [(env, scheme) for env, schemes in ENV_DISCRETIZERS.items() for scheme in schemes]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cholesky_spy(monkeypatch):
    """Outcomes ("ok" or "failed") of every Cholesky factorization the stages make.

    The stages reach LAPACK through ``trajopt.oracles._lapack``; the spy
    replaces that accessor with one whose ``dpotrf`` records its outcome.
    """
    outcomes = []
    real, dpotrs = trajopt.oracles._lapack()

    def spy(*args, **kwargs):
        factor, info = real(*args, **kwargs)
        outcomes.append("failed" if info > 0 else "ok")
        return factor, info

    monkeypatch.setattr(trajopt.oracles, "_lapack", lambda: (spy, dpotrs))
    return outcomes
