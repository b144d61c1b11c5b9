"""The benchmark's tracer wraps package functions by name; they must exist."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves_to_a_callable():
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = [(module, attr) for module, attr, _ in layers.SPANS + layers.COUNTS]
    assert names
    for module, attr in names:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
