"""Separation experiment: oracle representability and degenerate cases."""

import numpy as np
import pytest

from sparse_memory_lab.embedding_depth import (
    GroundTruth,
    SeparationConfig,
    SeparationNet,
    make_dataset,
    run_separation_experiment,
    train_separation,
)
from sparse_memory_lab import embedding_depth
from sparse_memory_lab.train import DivergenceError


def test_per_layer_oracle_weights_reach_zero_mse():
    cfg = SeparationConfig(d=16, u_count=64, depth=2, width=16,
                           architecture="per_layer", seed=0)
    truth = GroundTruth.build(cfg.d, cfg.u_count, cfg.depth, cfg.seed)
    net = SeparationNet.build(cfg)
    net.copy_oracle(truth)
    u, q, y = make_dataset(truth, 512, cfg.d, cfg.u_count, seed=123)
    assert float(net.mse(u, q, y).data) < 1e-24


def test_oracle_requires_matching_width():
    cfg = SeparationConfig(d=16, width=32, architecture="per_layer")
    truth = GroundTruth.build(16, 64, 2, 0)
    with pytest.raises(ValueError):
        SeparationNet.build(cfg).copy_oracle(truth)
    cfg2 = SeparationConfig(d=16, width=16, architecture="input_only")
    with pytest.raises(ValueError):
        SeparationNet.build(cfg2).copy_oracle(truth)


def test_single_u_degenerates_to_fitting_the_transform():
    # with one categorical value there is no identity bottleneck: the task is
    # fitting the q-transform alone, and both widths succeed for both wirings
    for arch in ("input_only", "per_layer"):
        for width in (8, 16):
            r = train_separation(SeparationConfig(
                d=8, u_count=1, depth=1, width=width, architecture=arch,
                steps=1200, train_size=1024, test_size=256, seed=0))
            assert r["test_mse"] < 0.25 * r["target_variance"], (arch, width, r)


def test_ground_truth_deterministic():
    a = GroundTruth.build(8, 16, 2, seed=7)
    b = GroundTruth.build(8, 16, 2, seed=7)
    np.testing.assert_array_equal(a.table, b.table)
    q = np.random.default_rng(0).standard_normal((4, 8))
    np.testing.assert_array_equal(a.transform(q), b.transform(q))


def test_run_experiment_rows_sorted_and_complete(tmp_path):
    rows = run_separation_experiment(d=8, u_count=16, depth=1, seeds=(0,),
                                     steps=60, train_size=256,
                                     out_path=tmp_path / "sep.csv")
    assert len(rows) == 4  # 2 architectures x 2 widths x 1 seed
    keys = [(r["architecture"], r["width"], r["seed"]) for r in rows]
    assert keys == sorted(keys)
    header = (tmp_path / "sep.csv").read_text().splitlines()[0]
    assert header == "architecture,width,seed,train_mse,test_mse,target_variance"


def test_config_validation():
    with pytest.raises(ValueError):
        SeparationConfig(architecture="middle_only")
    with pytest.raises(ValueError):
        SeparationConfig(d=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_step_raises_before_the_optimizer_writes(monkeypatch):
    # every step's state is kept as it was before the step; the failing step
    # must leave its snapshot untouched
    snapshots = []
    real_step = embedding_depth.checked_step

    def snapshot_step(opt, loss_fn, step):
        snapshots.append((opt.flat.data.copy(), opt._m.copy(), opt._v.copy(), opt))
        return real_step(opt, loss_fn, step)

    monkeypatch.setattr(embedding_depth, "checked_step", snapshot_step)
    cfg = SeparationConfig(steps=20, learning_rate=1e100, train_size=256, test_size=64)
    with pytest.raises(DivergenceError, match=r"^training diverged at step 1: \w+ produced a "
                       r"non-finite value \(NaN or Inf\) in the forward pass"):
        train_separation(cfg)
    assert len(snapshots) == 2
    data, m, v, opt = snapshots[-1]
    assert np.isfinite(opt.flat.data).all()
    assert opt.flat.data.tobytes() == data.tobytes()
    assert opt._m.tobytes() == m.tobytes() and opt._v.tobytes() == v.tobytes()
    assert opt.t == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_readout_raises_instead_of_reporting_nan():
    # one step at this rate leaves finite weights whose readout overflows to NaN;
    # run_separation_experiment would otherwise write the NaN into separation.csv
    cfg = SeparationConfig(steps=1, learning_rate=1e100, train_size=64, test_size=64)
    with pytest.raises(DivergenceError, match=r"^training diverged: readout after step 1: "
                       r"train MSE nan, test MSE nan$"):
        train_separation(cfg)
