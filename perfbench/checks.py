"""Correctness checks made apart from the solver, and their self-test.

Each check compares a solver output with a computation the solver does
not make (a plain-float re-simulation of the controls through the
problem's models, central finite differences of that re-simulation) or
with a property the method must have (non-increasing trace costs, each
accepted step's acceptance inequality, descent along an oracle
direction).  Nothing is compared with stored output.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

# Relative agreement required between a trace's final cost and the
# re-simulated objective.
RESIM_RTOL = 1e-9

# Relative tie allowance of the step rules' acceptance tests.
ACCEPT_TIE_RTOL = 1e-12

# A converged point has an objective gradient max-norm within this
# relative level (the solver's own converged-residual level).
CONVERGED_RTOL = 1e-6

# Central-difference step for the gradient of the re-simulated objective.
FD_STEP = 1e-6

# Length, in max-norm, of the small step taken along an oracle direction.
DESCENT_STEP = 1e-4


def resimulate(problem, u) -> float:
    """Objective of controls ``u`` from plain Python floats through the models."""
    x = [float(v) for v in problem.x0]
    total = 0.0
    for t in range(problem.horizon):
        u_t = [float(v) for v in u[t]]
        total += float(problem.running_costs[t](x, u_t))
        x = [float(v) for v in problem.dynamics[t](x, u_t)]
    return total + float(problem.final_cost(x))


def fd_gradient(problem, u) -> np.ndarray:
    """Central finite-difference gradient of the re-simulated objective."""
    u = np.array(u, dtype=float)
    grad = np.zeros_like(u)
    for idx in np.ndindex(u.shape):
        base = u[idx]
        u[idx] = base + FD_STEP
        up = resimulate(problem, u)
        u[idx] = base - FD_STEP
        down = resimulate(problem, u)
        u[idx] = base
        grad[idx] = (up - down) / (2.0 * FD_STEP)
    return grad


def solve_checks(problem, u, trace, rule: str, gamma_min: float, converged: bool) -> dict:
    """Name -> passed, for one ``solve`` result ``(u, trace)``."""
    rows = trace.rows
    j_final = resimulate(problem, u)
    result = {
        "final-cost-resim": abs(rows[-1].cost - j_final) <= RESIM_RTOL * abs(j_final),
        "costs-non-increasing": all(b.cost <= a.cost for a, b in zip(rows, rows[1:])),
    }
    accepted = True
    for prev, row in zip(rows, rows[1:]):
        stalled = math.isnan(row.model_decrease) or row.stepsize < gamma_min
        if stalled:  # a stalled search keeps its best decreasing candidate
            bound = 0.0
        elif rule == "directional":
            bound = row.stepsize * row.model_decrease
        else:
            bound = row.model_decrease
        accepted &= row.cost - prev.cost <= bound + ACCEPT_TIE_RTOL * (1.0 + abs(prev.cost))
    result["acceptance-inequality"] = accepted
    if converged:
        result["status-converged"] = trace.status == "converged"
        level = CONVERGED_RTOL * (1.0 + abs(j_final))
        result["fd-gradient-stationary"] = float(np.max(np.abs(fd_gradient(problem, u)))) <= level
    return result


def oracle_checks(problem, u, direction: np.ndarray | None, feasible: bool) -> dict:
    """Name -> passed, for one ``oracle`` result at controls ``u``."""
    result = {"oracle-feasible": bool(feasible)}
    finite = direction is not None and bool(np.all(np.isfinite(direction)))
    result["direction-finite"] = finite
    if not finite or not np.any(direction):
        result["direction-descends"] = False
        return result
    step = DESCENT_STEP / float(np.max(np.abs(direction)))
    result["direction-descends"] = resimulate(problem, u + step * direction) < resimulate(problem, u)
    return result


def repeats(first, out) -> bool:
    """Whether solve result ``out`` repeats ``first`` exactly: controls, status, trace costs."""
    (u0, trace0), (u, trace) = first, out
    return (np.array_equal(u, u0) and trace.status == trace0.status
            and [r.cost for r in trace.rows] == [r.cost for r in trace0.rows])


def selftest(problem, u, trace, rule, gamma_min, converged, oracle_u, direction) -> dict:
    """Feed each check a perturbed copy of a real result; name -> caught.

    Every entry must read True: the named check failed on the perturbed
    result, so a fault of that kind in the program would be counted.
    """
    rows = list(trace.rows)
    caught = {}

    off = replace(trace, rows=rows[:-1] + [replace(rows[-1], cost=rows[-1].cost * (1.0 + 1e-6))])
    caught["final-cost-resim"] = not solve_checks(
        problem, u, off, rule, gamma_min, False)["final-cost-resim"]

    swapped = rows[:1] + [rows[2], rows[1]] + rows[3:]
    swapped_checks = solve_checks(problem, u, replace(trace, rows=swapped), rule, gamma_min, False)
    caught["costs-non-increasing"] = not swapped_checks["costs-non-increasing"]
    caught["acceptance-inequality"] = not swapped_checks["acceptance-inequality"]

    changed = np.array(u, dtype=float)
    changed.flat[-1] += 1e-12 * (1.0 + abs(changed.flat[-1]))
    caught["repeats-exactly"] = not repeats((u, trace), (changed, trace))

    caught["oracle-feasible"] = not oracle_checks(
        problem, oracle_u, direction, False)["oracle-feasible"]
    caught["direction-descends"] = not oracle_checks(
        problem, oracle_u, -direction, True)["direction-descends"]
    holed = np.array(direction, dtype=float)
    holed.flat[0] = np.nan
    caught["direction-finite"] = not oracle_checks(problem, oracle_u, holed, True)["direction-finite"]

    if converged:
        caught["status-converged"] = not solve_checks(
            problem, u, replace(trace, status="stalled"), rule, gamma_min, True)["status-converged"]
        nudged = np.array(u, dtype=float)
        nudged[0, 0] += 1e-2
        caught["fd-gradient-stationary"] = not solve_checks(
            problem, nudged, trace, rule, gamma_min, True)["fd-gradient-stationary"]
    return caught
