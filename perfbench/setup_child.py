"""Set-up in a fresh interpreter: import trajopt and build one problem.

Run by run.py as ``python3 perfbench/setup_child.py ENV HORIZON DISCRETIZER``
with ``src`` on PYTHONPATH.  numpy is imported before timing starts (the
host sampler needs it), so set-up time is trajopt's own imports, scipy's
included, plus ``build_problem``.  Prints one JSON line of nominal seconds.
"""

import importlib
import json
import sys

from hostspeed import HostSampler


def _import_trajopt():
    trajopt = importlib.import_module("trajopt")
    importlib.import_module("trajopt.envs")
    return trajopt


def main() -> None:
    env, horizon, disc = sys.argv[1], int(sys.argv[2]), sys.argv[3] or None
    with HostSampler() as sampler:
        trajopt, _, import_s = sampler.timed(_import_trajopt, "import")
        _, _, build_s = sampler.timed(lambda: trajopt.envs.build_problem(env, horizon, disc), "build")
    print(json.dumps({"file": trajopt.__file__, "import_s": import_s, "build_s": build_s}))


if __name__ == "__main__":
    main()
