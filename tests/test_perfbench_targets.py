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
from sparse_memory_lab.lshsim import collision_grid, estimate_collision
from sparse_memory_lab.model import LanguageModel
from sparse_memory_lab.train import Trainer

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


# the spans of a training step; a step that stops calling one of these
# names (an inlined call, a call through a local alias) drops its span
TRAINING_SPANS = ("altup.pcc", "nn.block_forward", "lookup.memory_forward",
                  "lookup.route", "nn.expert")
SMALL = {"model.d": "16", "model.vocab": "32", "model.seq_len": "8", "training.batch": "2",
         "training.corpus_length": "512", "training.eval_tokens": "64"}


@pytest.mark.parametrize("overrides, spans", [
    ({"memory.consumption": "altup", "altup.K": "2"}, {"altup.pcc", "nn.block_forward"}),
    ({"memory.lookup": "softmax", "memory.rank": "4", "memory.buckets": "16", "memory.k": "2"},
     {"nn.block_forward", "lookup.memory_forward", "lookup.route", "nn.expert"}),
], ids=["altup-K2", "softmax"])
def test_training_step_calls_each_traced_name(monkeypatch, overrides, spans):
    calls = dict.fromkeys(TRAINING_SPANS, 0)

    def counting(fn, span):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, path, span in tracing.TARGETS:
        if span in TRAINING_SPANS:
            owner, attr, fn = tracing._resolve(module_name, path)
            monkeypatch.setattr(owner, attr, counting(fn, span))
    cfg = ExperimentConfig()
    for key, value in {**SMALL, **overrides}.items():
        set_config_value(cfg, key, value)
    Trainer(cfg.validate()).step()
    assert {span for span, n in calls.items() if n} == spans, calls


def test_hyperplane_grid_calls_each_traced_lshsim_name(monkeypatch):
    # the lshsim workload's hyperplane spans: the width calibration and the
    # fold, each looked up in lshsim's own namespace, by both samplers
    calls = {}

    def counting(fn, path):
        def wrapper(*args, **kwargs):
            calls[path] = calls.get(path, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    paths = [path for module_name, path, _ in tracing.TARGETS
             if module_name == "sparse_memory_lab.lshsim"]
    for path in paths:
        owner, attr, fn = tracing._resolve("sparse_memory_lab.lshsim", path)
        monkeypatch.setattr(owner, attr, counting(fn, path))
    # width 55.3 at (d, l) = (64, 32) draws sparsely; width 2 draws every cell
    collision_grid(["hyperplane"], [0.5], [1024], 32, 64, 200, 0)
    assert sorted(calls) == sorted(paths) == ["fold_cells", "hyperplane_collision_width"]
    calls.clear()
    estimate_collision("hyperplane", 0.5, 16, 8, 8, 200, 0, width=2.0)
    assert calls == {"fold_cells": 1}
