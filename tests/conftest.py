"""Shared fixtures and the model-counting wrapper; instance builders live in trajopt._testing."""

from __future__ import annotations

import collections
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import trajopt.oracles
from trajopt import autodiff
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


# derivative order of a model input's number type; a float or float array is order 0
_ORDERS = {autodiff.Dual: 1, autodiff.HyperDual: 2, autodiff._Trace: "trace"}


def counted_problem(problem):
    """The problem with each distinct model wrapped once, and the points the models evaluate.

    ``counts[part, order]`` sums the points of every call: ``part`` is
    "dynamics" or "cost" (the final cost included), ``order`` is 0 for
    floats or float arrays, 1 for :class:`~trajopt.autodiff.Dual`, 2 for
    :class:`~trajopt.autodiff.HyperDual` and "trace" for the tracer.  A
    block sweep's call counts its B points.  Stages that share a callable
    share its wrapper, so their runs still expand in blocks.
    """
    counts = collections.Counter()
    wrapped = {}

    def once(fn, part):
        def counted(x, *rest):
            first = x[0]
            counts[part, _ORDERS.get(type(first), 0)] += np.size(autodiff.value(first))
            return fn(x, *rest)

        return wrapped.setdefault(fn, counted)

    problem = dataclasses.replace(
        problem,
        dynamics=tuple(once(f, "dynamics") for f in problem.dynamics),
        running_costs=tuple(once(h, "cost") for h in problem.running_costs),
        final_cost=once(problem.final_cost, "cost"),
    )
    return problem, counts
