"""Per-layer tracing of a solve, installed from outside the package.

Each layer function is wrapped at the module attribute its callers look it
up by, so the package itself is unchanged.  Spans keep a stack: a layer's
self time is its span's duration minus the spans of the layers it called.
The untraced program runs with every original function back in place.
"""

from __future__ import annotations

from collections import defaultdict

import trajopt.autodiff
import trajopt.linesearch
import trajopt.oracles

# (module, attribute, layer).  ``linesearch`` imports the oracle functions
# into its own namespace, ``oracles`` imports the stage solvers, and the
# re-differentiation handles look ``autodiff.lambda_hessian`` up per call.
SPANS = (
    (trajopt.linesearch, "forward", "oracles.forward.expand"),
    (trajopt.oracles, "forward", "oracles.forward.expand"),
    (trajopt.linesearch, "objective_value", "oracles.objective_value"),
    (trajopt.linesearch, "run_backward", "oracles.run_backward"),
    (trajopt.oracles, "run_backward", "oracles.run_backward"),
    (trajopt.autodiff, "lambda_hessian", "autodiff.lambda_hessian"),
    (trajopt.oracles, "check_subproblem", "lqsolve.check_subproblem"),
    (trajopt.oracles, "lqbp", "lqsolve.stage"),
    (trajopt.oracles, "lbp", "lqsolve.stage"),
    (trajopt.linesearch, "rollout", "oracles.rollout"),
    (trajopt.oracles, "rollout", "oracles.rollout"),
)

# Calls counted without a span; their time stays with the caller.
COUNTS = ((trajopt.linesearch, "directional_search", "linesearch.directional_search"),)

SOLVE_LAYER = "linesearch.solve"


class LayerTracer:
    """Self time (s) and calls per layer, summed over the spans it records.

    ``clock`` reads the time spans are measured in; the benchmark passes
    one that stands still while its host-speed probe runs.
    """

    def __init__(self, clock):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.feasible = 0
        self._child_s = []  # per open span: time covered by its child spans
        self._saved = []

    def span(self, layer: str, fn, *args, **kwargs):
        self._child_s.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            children = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += elapsed
            self.self_s[layer] += elapsed - children
            self.calls[layer] += 1

    def _wrap(self, fn, layer: str):
        if layer == "oracles.forward.expand":
            def traced(problem, u, o_f=1, o_h=2):
                if o_f == 0 and o_h == 0:  # an order-0 trial forward: its caller's layer
                    return fn(problem, u, o_f=o_f, o_h=o_h)
                return self.span(layer, fn, problem, u, o_f=o_f, o_h=o_h)
        elif layer == "oracles.run_backward":
            def traced(*args, **kwargs):
                result = self.span(layer, fn, *args, **kwargs)
                self.feasible += bool(result.feasible)
                return result
        else:
            def traced(*args, **kwargs):
                return self.span(layer, fn, *args, **kwargs)
        return traced

    def _count(self, fn, name: str):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def __enter__(self):
        for module, attr, layer in SPANS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))
        for module, attr, name in COUNTS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._count(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def solve(self, solve_fn, *args, **kwargs):
        """Run one solve as the outermost span."""
        return self.span(SOLVE_LAYER, solve_fn, *args, **kwargs)
