"""The benchmark's tracer rebinds hadaquant functions by name.

A function renamed or removed here would break only the traced benchmark
run, so every name the tracer lists is checked against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "hqbench" / "tracer.py"


def test_traced_layers_resolve_to_functions():
    spec = importlib.util.spec_from_file_location("hqbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"hadaquant.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"hadaquant.{layer}.{name}"
