"""The names the benchmark's tracer wraps still exist in the package.

A renamed function otherwise shows up only as a `MissingTargetError` in a
traced benchmark run (`perfbench/run.py --trace 1`).
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", [*tracing.TARGETS, tracing.TENSOR_INIT],
                         ids=lambda t: f"{t[0]}.{t[1]}")
def test_traced_name_resolves(target):
    module_name, path = target[:2]
    assert module_name.startswith("sparse_memory_lab.")
    owner, attr, value = tracing._resolve(module_name, path)
    assert owner is not None and callable(value), f"{module_name}.{path} is gone"
