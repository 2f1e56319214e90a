"""Gradient checks that compose the full model loss, beyond the CLI battery."""

import numpy as np
import pytest

from sparse_memory_lab.config import (
    AltUpConfig,
    ExperimentConfig,
    MemoryConfig,
    ModelConfig,
    TrainingConfig,
)
from sparse_memory_lab.gradcheck import GRADCHECK_COLUMNS, memory_softmax_scenario
from sparse_memory_lab.model import LanguageModel
from sparse_memory_lab.nn import finite_diff_check


def test_memory_scenario_shape():
    name, loss_fn, params = memory_softmax_scenario()
    assert "softmax" in name
    assert float(loss_fn().data) > 0
    assert set(GRADCHECK_COLUMNS) == {"check", "max_rel_error", "epsilon", "passed"}


def test_full_loss_gradcheck_with_block_and_partial_experts():
    # transformer blocks composed with per-layer routed experts, full LM loss
    cfg = ExperimentConfig(
        model=ModelConfig(d=8, layers=1, heads=2, vocab=10, seq_len=4),
        memory=MemoryConfig(lookup="softmax", rank=2, buckets=4, k=2),
        training=TrainingConfig(seed=11),
    )
    model = LanguageModel.build(cfg)
    window = np.random.default_rng(1).integers(0, 10, size=5)
    report = finite_diff_check(lambda: model.sequence_loss(window),
                               model.parameters(), epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report.per_param


def test_full_loss_gradcheck_token_id_constant_experts():
    cfg = ExperimentConfig(
        model=ModelConfig(d=8, layers=1, heads=2, vocab=8, seq_len=4),
        memory=MemoryConfig(lookup="token_id", rank=0, buckets=8),
        training=TrainingConfig(seed=12),
    )
    model = LanguageModel.build(cfg)
    window = np.random.default_rng(2).integers(0, 8, size=5)
    report = finite_diff_check(lambda: model.sequence_loss(window),
                               model.parameters(), epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report.per_param


@pytest.mark.parametrize("variant,head", [("simplified", "mean"), ("full", "proj")])
def test_divide_project_gradcheck(variant, head):
    # seed chosen away from ReLU kinks, where central differences are reliable
    cfg = ExperimentConfig(
        model=ModelConfig(d=8, layers=2, heads=2, vocab=8, seq_len=3),
        memory=MemoryConfig(consumption="altup"),
        altup=AltUpConfig(K=3, e=6, variant=variant, head=head),
        training=TrainingConfig(seed=14),
    )
    model = LanguageModel.build(cfg)
    window = np.random.default_rng(4).integers(0, 8, size=4)
    report = finite_diff_check(lambda: model.sequence_loss(window),
                               model.parameters(), epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report.per_param
