"""Standard finite-difference battery over the shipped layer configurations.

Each scenario pairs a deterministic scalar loss with every trainable
parameter it touches; the checker compares backprop against central
differences coordinate by coordinate.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .config import AltUpConfig, ExperimentConfig, MemoryConfig, ModelConfig, TrainingConfig
from .lookup import MemoryTable, SoftmaxRouterParams, memory_augmented_forward
from .model import LanguageModel
from .nn import GradCheckReport, finite_diff_check

GRADCHECK_COLUMNS = ("check", "max_rel_error", "epsilon", "passed")

Scenario = tuple[str, Callable[[], Tensor], dict[str, Tensor]]

_MEMORY_SEED, _WINDOW_SEED = 7, 3  # of the memory scenario and of an LM scenario's window


def memory_softmax_scenario() -> Scenario:
    """Memory-augmented layer, softmax routing: 3 rows of d=8, n=4 experts of rank 2, k=2."""
    seq, d, n, rank, k = 3, 8, 4, 2, 2
    rng = np.random.default_rng(_MEMORY_SEED)
    x = Tensor(rng.standard_normal((seq, d)))
    layer_w = Tensor(rng.standard_normal((d, d)) / math.sqrt(d), requires_grad=True)
    router = SoftmaxRouterParams.init(n, d, k, _MEMORY_SEED + 1)
    table = MemoryTable.init(n, d, rank, _MEMORY_SEED + 2)
    params: dict[str, Tensor] = {"layer_w": layer_w, "router_W": router.W}
    params.update(table.parameters())

    def loss_fn() -> Tensor:
        y = x @ layer_w + memory_augmented_forward(x, None, router, table)
        return (y * y).sum()

    return "memory_augmented_softmax_seq3_d8_n4_rank2", loss_fn, params


def _lm_scenario(name: str, config: ExperimentConfig) -> Scenario:
    config.validate()
    model = LanguageModel.build(config)
    rng = np.random.default_rng(_WINDOW_SEED)
    window = rng.integers(0, config.model.vocab, size=config.model.seq_len + 1)
    params = model.parameters()

    def loss_fn() -> Tensor:
        return model.sequence_loss(window)

    return name, loss_fn, params


def _tiny_config(consumption: str, variant: str = "simplified", K: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(d=8, layers=2, heads=2, vocab=10, seq_len=4),
        memory=MemoryConfig(consumption=consumption),
        altup=AltUpConfig(K=K, variant=variant),
        training=TrainingConfig(seed=5),
    )


def altup_simplified_scenario() -> Scenario:
    return _lm_scenario("altup_simplified_stack_K2_d8_2layers",
                        _tiny_config("altup", "simplified", K=2))


def altup_full_scenario() -> Scenario:
    return _lm_scenario("altup_full_stack_K2_d8_2layers",
                        _tiny_config("altup", "full", K=2))


def sum_consumption_scenario() -> Scenario:
    return _lm_scenario("sum_consumption_d8_2layers", _tiny_config("sum"))


def standard_scenarios() -> list[Scenario]:
    return [
        memory_softmax_scenario(),
        altup_simplified_scenario(),
        altup_full_scenario(),
        sum_consumption_scenario(),
    ]


def run_gradcheck_battery(epsilon: float, tolerance: float) -> list[dict]:
    """One row per standard scenario: its worst relative error against
    central differences of step `epsilon`, and whether that is below `tolerance`."""
    rows = []
    for name, loss_fn, params in standard_scenarios():
        report: GradCheckReport = finite_diff_check(loss_fn, params,
                                                    epsilon=epsilon,
                                                    tolerance=tolerance)
        rows.append({
            "check": name,
            "max_rel_error": report.max_rel_error,
            "epsilon": epsilon,
            "passed": report.passed,
        })
    return rows
