"""The names the benchmark's tracer wraps or reads still exist in the package.

A renamed function otherwise shows up only as a `MissingTargetError` in a
traced benchmark run (`perfbench/run.py --trace 1`), and a renamed lookup
class or a lost `lookup.n` only as a wrong or failed bucket count there.
"""

import importlib.util
from pathlib import Path

import pytest

from sparse_memory_lab import lookup
from sparse_memory_lab.config import ExperimentConfig, set_config_value
from sparse_memory_lab.model import LanguageModel

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


@pytest.mark.parametrize("class_name", list(tracing.LOOKUP_KINDS))
def test_traced_lookup_kind_is_a_lookup_class(class_name):
    assert isinstance(getattr(lookup, class_name, None), type), f"lookup.{class_name} is gone"


@pytest.mark.parametrize("kind", list(tracing.LOOKUP_KINDS.values()))
def test_built_lookups_expose_their_table_size(kind):
    # the tracer maps each routed lookup by its class name and reads lookup.n
    cfg = ExperimentConfig()
    set_config_value(cfg, "memory.lookup", kind)
    if kind != "token_id":  # whose table size is the vocabulary size
        set_config_value(cfg, "memory.buckets", "16")
    model = LanguageModel.build(cfg)
    for lk, table in zip(model.lookups, model.tables):
        assert tracing.LOOKUP_KINDS[type(lk).__name__] == kind
        assert type(lk.n) is int and lk.n == table.n
