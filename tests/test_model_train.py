"""Model assembly, parameter accounting, and the training loop contracts."""

import ast
import inspect
import os
import platform
import re
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import numpy as np
import pytest

import sparse_memory_lab
from sparse_memory_lab.config import (
    AltUpConfig,
    ExperimentConfig,
    IoConfig,
    MemoryConfig,
    ModelConfig,
    TrainingConfig,
)
from sparse_memory_lab.autodiff import Tensor, no_grad
from sparse_memory_lab.model import LanguageModel, count_params
from sparse_memory_lab.nn import MemoryTable, apply_expert
from sparse_memory_lab.train import (
    METRICS_COLUMNS,
    AdamState,
    DivergenceError,
    Trainer,
    load_token_file,
    run_lookup_benchmark,
    train_model,
)


def tiny(d=16, layers=2, heads=2, vocab=32, seq=8, **kw):
    return ExperimentConfig(
        model=ModelConfig(d=d, layers=layers, heads=heads, vocab=vocab, seq_len=seq),
        training=TrainingConfig(steps=kw.pop("steps", 10), batch=kw.pop("batch", 4),
                                learning_rate=kw.pop("lr", 1e-2),
                                optimizer=kw.pop("optimizer", "adam"),
                                seed=kw.pop("seed", 0)),
        memory=kw.pop("memory", MemoryConfig()),
        altup=kw.pop("altup", AltUpConfig()),
        io=kw.pop("io", IoConfig()),
    )


# -- parameter accounting -----------------------------------------------------

def test_baseline_embedding_count_is_2vd():
    cfg = tiny(d=64, layers=2, heads=2, vocab=256)
    emb, _ = count_params(LanguageModel.build(cfg))
    assert emb == 2 * 256 * 64 == 32768


def test_altup_k2_proj_head_doubles_embedding_and_adds_pcc_scalars():
    base = tiny(d=64, layers=2, heads=2, vocab=256)
    emb0, non0 = count_params(LanguageModel.build(base))
    cfg = tiny(d=64, layers=2, heads=2, vocab=256,
               memory=MemoryConfig(consumption="altup"),
               altup=AltUpConfig(K=2, head="proj"))
    emb1, non1 = count_params(LanguageModel.build(cfg))
    assert emb1 == 2 * emb0
    assert non1 - non0 == 2 * (2 * 2 + 2)  # layers * (K^2 + K) scalars


def test_softmax_table_grows_non_embedding_by_formula():
    d = 16
    base = tiny(d=d)
    _, non0 = count_params(LanguageModel.build(base))
    cfg = tiny(d=d, memory=MemoryConfig(lookup="softmax", rank=4, buckets=32, k=2))
    _, non1 = count_params(LanguageModel.build(cfg))
    layers = 2
    assert non1 - non0 == layers * (2 * 4 * 32 * d + 32 * d)


def test_rank0_table_grows_by_constant_vectors():
    d = 16
    base = tiny(d=d)
    _, non0 = count_params(LanguageModel.build(base))
    cfg = tiny(d=d, memory=MemoryConfig(lookup="spherical", rank=0, buckets=8))
    _, non1 = count_params(LanguageModel.build(cfg))
    assert non1 - non0 == 2 * (8 * d)  # two layers of 8 constant d-vectors


def test_shared_token_id_table_counts_once():
    d, v = 16, 32
    cfg_shared = tiny(d=d, vocab=v,
                      memory=MemoryConfig(lookup="token_id", rank=1, buckets=v,
                                          share_table=True))
    cfg_split = tiny(d=d, vocab=v,
                     memory=MemoryConfig(lookup="token_id", rank=1, buckets=v))
    _, non_shared = count_params(LanguageModel.build(cfg_shared))
    _, non_split = count_params(LanguageModel.build(cfg_split))
    table = v * 2 * 1 * d
    assert non_split - non_shared == table  # second layer's table deduplicated


def test_count_closure_matches_checkpoint(tmp_path):
    from sparse_memory_lab.checkpoint import load_checkpoint, save_checkpoint
    cfg = tiny(memory=MemoryConfig(lookup="softmax", rank=2, buckets=4, k=2,
                                   consumption="sum"))
    model = LanguageModel.build(cfg)
    emb, non = count_params(model)
    path = tmp_path / "m.smlb"
    save_checkpoint(path, {k: t.data for k, t in model.parameters().items()})
    assert sum(a.size for a in load_checkpoint(path).values()) == emb + non


def test_divide_project_param_split():
    d, e, K, v = 16, 10, 3, 32
    cfg = tiny(d=d, vocab=v, memory=MemoryConfig(consumption="altup"),
               altup=AltUpConfig(K=K, e=e, head="block0"))
    model = LanguageModel.build(cfg)
    emb, non = count_params(model)
    assert emb == v * d + v * e + v * d  # primary + augmentation + output
    chunk = e // (K - 1)
    base_non = count_params(LanguageModel.build(tiny(d=d, vocab=v)))[1]
    assert non == base_non + (K - 1) * chunk * d + 2 * (K * K + K)


def graph_ops(root):
    """(op name, parents) of every op node reachable from `root`."""
    seen, stack, ops = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node._backward is not None:
            ops.append((node._backward.__qualname__.split(".<locals>")[0], node._parents))
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


def test_wide_input_is_one_take_and_no_concat():
    cfg = tiny(memory=MemoryConfig(consumption="altup"), altup=AltUpConfig(K=2))
    model = LanguageModel.build(cfg)
    windows = np.arange(2 * 9).reshape(2, 9) % cfg.model.vocab
    ops = graph_ops(model.sequence_loss(windows))
    tables = {id(t) for t in model.embedding_parameters().values()}
    takes = [name for name, parents in ops
             if name == "Tensor.take" and any(id(p) in tables for p in parents)]
    assert len(takes) == 1
    assert "concat" not in {name for name, _ in ops}


def test_wide_table_columns_are_the_seeded_block_draws():
    from sparse_memory_lab.nn import lecun_normal_init
    K, d, v, seed = 3, 16, 32, 4
    model = LanguageModel.build(tiny(d=d, vocab=v, seed=seed,
                                     memory=MemoryConfig(consumption="altup"),
                                     altup=AltUpConfig(K=K)))
    assert model.embed0.shape == (v, K * d)
    for k in range(K):
        draw = lecun_normal_init((v, d), np.random.SeedSequence(seed, spawn_key=(0, k)),
                                 fan_in=d)
        np.testing.assert_array_equal(model.embed0.data[:, k * d:(k + 1) * d], draw.data)


def test_stacked_projection_holds_the_seeded_chunk_draws():
    K, d, e, seed = 3, 16, 10, 4
    model = LanguageModel.build(tiny(d=d, seed=seed, memory=MemoryConfig(consumption="altup"),
                                     altup=AltUpConfig(K=K, e=e)))
    chunk = e // (K - 1)
    assert model.embed0.shape == (32, d)
    assert model.dp_proj.shape == (K - 1, chunk, d)
    seeds = np.random.SeedSequence(seed, spawn_key=(6,)).spawn(K - 1)
    for i, s in enumerate(seeds):
        draw = np.random.default_rng(s).standard_normal((chunk, d)) / np.sqrt(chunk)
        np.testing.assert_array_equal(model.dp_proj.data[i], draw)


# -- forward behavior ------------------------------------------------------------

def test_forward_shapes_and_determinism():
    cfg = tiny()
    model = LanguageModel.build(cfg)
    tokens = np.arange(8) % cfg.model.vocab
    a = model.forward(tokens).data
    b = model.forward(tokens).data
    assert a.shape == (8, cfg.model.vocab)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bad", [-1, 32, 1000])
@pytest.mark.parametrize("batched", [False, True])
def test_forward_rejects_token_ids_outside_the_vocabulary(bad, batched):
    # unchecked, -1 reads the last embedding row and fails only in the backward
    model = LanguageModel.build(tiny())
    tokens = np.arange(8) % 32
    tokens[3] = bad
    with pytest.raises(ValueError, match=rf"token id {bad} outside the vocabulary \[0, 32\)"):
        model.forward(np.stack([tokens, tokens]) if batched else tokens)


def test_sequence_loss_rejects_a_target_outside_the_vocabulary():
    model = LanguageModel.build(tiny())
    window = np.arange(9) % 32
    window[-1] = 32  # a target only, never an input token
    with pytest.raises(ValueError, match=r"target 32 outside \[0, 32\)"):
        model.sequence_loss(window)


def test_sequence_loss_of_an_empty_batch_names_it():
    # a forward of a (0, seq) batch succeeds; the mean over no targets used
    # to fail with a bare "float division by zero"
    model = LanguageModel.build(tiny())
    assert model.forward(np.zeros((0, 8), dtype=int)).shape[0] == 0
    with pytest.raises(ValueError, match="cross_entropy of an empty batch"):
        model.sequence_loss(np.zeros((0, 9), dtype=int))


CAUSAL_CELLS = {
    "baseline": {},
    "altup_k2_simplified": {"memory": MemoryConfig(consumption="altup"),
                            "altup": AltUpConfig(K=2)},
    "altup_k2_full": {"memory": MemoryConfig(consumption="altup"),
                      "altup": AltUpConfig(K=2, variant="full")},
    "altup_k3_e8_mean": {"memory": MemoryConfig(consumption="altup"),
                         "altup": AltUpConfig(K=3, e=8, head="mean")},
    "token_id": {"memory": MemoryConfig(lookup="token_id", rank=4)},
    "softmax_k2": {"memory": MemoryConfig(lookup="softmax", rank=4, buckets=64, k=2)},
    "hyperplane": {"memory": MemoryConfig(lookup="hyperplane", rank=4, buckets=64)},
    "spherical": {"memory": MemoryConfig(lookup="spherical", rank=4, buckets=64)},
}


@pytest.mark.parametrize("cell", CAUSAL_CELLS)
def test_logits_never_see_later_tokens(cell):
    # a next-token loss is only meaningful if position t reads tokens 0..t
    cfg = tiny(seq=16, **CAUSAL_CELLS[cell])
    model = LanguageModel.build(cfg)

    def logits(toks, jitter_seed):
        """Eval routing for None, else training's routing with seeded jitter."""
        jitter = None if jitter_seed is None else np.random.default_rng(jitter_seed)
        with no_grad():
            return model.forward(toks, rng=jitter).data

    rng = np.random.default_rng(0)
    tokens = rng.integers(0, cfg.model.vocab, (4, 16))
    for jitter_seed in (None, 1):
        base = logits(tokens, jitter_seed)
        for t in (0, 5, 14):
            redrawn = tokens.copy()
            redrawn[:, t + 1:] = rng.integers(0, cfg.model.vocab, (4, 15 - t))
            assert (redrawn[:, t + 1:] != tokens[:, t + 1:]).any()
            out = logits(redrawn, jitter_seed)
            assert out[:, :t + 1].tobytes() == base[:, :t + 1].tobytes(), (t, jitter_seed)


def test_same_seed_same_model():
    cfg = tiny(seed=5)
    m1 = LanguageModel.build(cfg)
    m2 = LanguageModel.build(tiny(seed=5))
    for (k1, t1), (k2, t2) in zip(m1.parameters().items(), m2.parameters().items()):
        assert k1 == k2
        np.testing.assert_array_equal(t1.data, t2.data)


def test_k1_altup_trains_identically_to_baseline():
    cfg_a = tiny(seed=3)
    cfg_b = tiny(seed=3, memory=MemoryConfig(consumption="altup"), altup=AltUpConfig(K=1))
    ta, tb = Trainer(cfg_a), Trainer(cfg_b)
    for _ in range(5):
        la, lb = ta.step(), tb.step()
        assert la == lb  # bitwise identical trajectories


def test_wide_stack_head_variants_differ():
    outs = {}
    for head in ("block0", "mean", "proj"):
        cfg = tiny(seed=2, memory=MemoryConfig(consumption="altup"),
                   altup=AltUpConfig(K=2, head=head))
        model = LanguageModel.build(cfg)
        outs[head] = model.forward(np.arange(8) % 32).data
    assert np.abs(outs["block0"] - outs["mean"]).max() > 1e-9
    assert outs["proj"].shape == outs["block0"].shape


def test_token_id_buckets_must_match_vocab():
    cfg = tiny(memory=MemoryConfig(lookup="token_id", rank=1, buckets=7))
    with pytest.raises(ValueError, match="token_id"):
        LanguageModel.build(cfg)


# -- training loop -----------------------------------------------------------------

def test_training_reduces_loss_toward_entropy():
    cfg = tiny(d=32, layers=1, heads=2, vocab=16, seq=8, steps=120, batch=8, lr=5e-3, seed=1)
    trainer = Trainer(cfg)
    first = trainer.step()
    for _ in range(119):
        last = trainer.step()
    eval_loss, acc, stderr = trainer.evaluate()
    assert last < first
    assert eval_loss < np.log(16)  # beats the uniform predictor
    assert eval_loss >= trainer.entropy_rate - 3 * stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    cfg = tiny(d=8, layers=1, heads=1, vocab=16, seq=4, steps=60, batch=2,
               lr=1e8, optimizer="sgd")
    trainer = Trainer(cfg)
    with pytest.raises(DivergenceError,
                       match=r"diverged at step \d+: __matmul__ produced a non-finite value"):
        for _ in range(60):
            trainer.step()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_stops_the_step_before_the_optimizer():
    # at lr 1e30 the second step's loss is still finite but its backward
    # overflows; nothing of that step may reach the parameters or Adam
    cfg = ExperimentConfig()
    cfg.training.learning_rate = 1e30
    trainer = Trainer(cfg.validate())
    assert np.isfinite(trainer.step())
    before = {k: p.data.copy() for k, p in trainer.params.items()}
    m_before = {k: m.copy() for k, m in trainer.opt.m.items()}
    v_before = {k: v.copy() for k, v in trainer.opt.v.items()}
    with pytest.raises(DivergenceError, match=r"training diverged at step 1: the gradient "
                       r"of embed0\b.* holds a non-finite value \(NaN or Inf\)"):
        trainer.step()
    for k, p in trainer.params.items():
        assert p.data.tobytes() == before[k].tobytes(), k
        assert trainer.opt.m[k].tobytes() == m_before[k].tobytes(), k
        assert trainer.opt.v[k].tobytes() == v_before[k].tobytes(), k
    assert trainer.opt.t == 1 and trainer.step_count == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_replay_names_the_backward_op_and_layer():
    cfg = ExperimentConfig()
    cfg.training.learning_rate = 1e30
    trainer = Trainer(cfg.validate())
    trainer.step()
    before = trainer.opt.flat.data.copy()
    m_before, v_before = trainer.opt._m.copy(), trainer.opt._v.copy()
    with pytest.raises(DivergenceError, match=r"^training diverged at step 1: the gradient of "
                       r"embed0\b.*; backward of \w+ produced a non-finite value \(NaN or Inf\) "
                       r"in the backward pass at layer \d (attention|ffn)$"):
        trainer.step()
    assert trainer.opt.flat.data.tobytes() == before.tobytes()
    assert trainer.opt._m.tobytes() == m_before.tobytes()
    assert trainer.opt._v.tobytes() == v_before.tobytes()
    assert trainer.opt.t == 1 and trainer.step_count == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replay_draws_the_same_jitter(monkeypatch):
    cfg = tiny(memory=MemoryConfig(lookup="softmax", rank=2, buckets=8, k=2))
    trainer = Trainer(cfg)
    trainer.step()
    drawn = []
    real = LanguageModel._router_jitter

    def spy(self, tokens, rng):
        drawn.append(real(self, tokens, rng))
        return drawn[-1]

    monkeypatch.setattr(LanguageModel, "_router_jitter", spy)
    trainer.model.out_table.data[:] = 1e308
    with pytest.raises(DivergenceError, match=r"^training diverged at step 1: __matmul__ "
                       r"produced a non-finite value \(NaN or Inf\) in the forward pass at head$"):
        trainer.step()
    assert len(drawn) == 2 and drawn[0] is not None
    assert drawn[0].tobytes() == drawn[1].tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_divergence_names_the_step():
    trainer = Trainer(tiny(d=8, layers=1, heads=1, vocab=16, seq=4, batch=2))
    trainer.step()
    trainer.model.out_table.data[:] = 1e308
    with pytest.raises(DivergenceError,
                       match=r"eval after step 1: __matmul__ produced a non-finite value"):
        trainer.evaluate()


def eval_windows(trainer):
    """The (count, seq+1) held-out windows an eval pass scores."""
    window = trainer.config.model.seq_len + 1
    count = len(trainer.eval_tokens) // window
    return trainer.eval_tokens[: count * window].reshape(count, window)


def push_logits_apart(monkeypatch, model, low):
    """Make the model's logits 1e308 in every column but `low`, which gets
    -1e308: finite logits whose log-softmax is -inf in column `low` alone."""
    offset = np.full(model.config.model.vocab, 1e308)
    offset[low] = -1e308
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda tokens, rng=None: forward(tokens, rng=rng)
                        + offset)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_and_step_name_the_same_cause_for_a_log_softmax_overflow(monkeypatch):
    trainer = Trainer(tiny(d=8, layers=1, heads=1, vocab=16, seq=4, batch=2))
    windows = eval_windows(trainer)
    push_logits_apart(monkeypatch, trainer.model, low=int(windows[0, 1]))
    cause = ("cross_entropy produced a non-finite value (NaN or Inf) in the forward pass "
             "at loss")
    with pytest.raises(DivergenceError) as eval_info:
        trainer.evaluate()
    assert str(eval_info.value) == f"training diverged: eval after step 0: {cause}"
    with pytest.raises(DivergenceError) as step_info:
        trainer.step(windows)
    assert str(step_info.value) == f"training diverged at step 0: {cause}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_log_probs_off_the_targets_do_not_stop_an_eval(monkeypatch):
    # an eval pass checks the per-token losses it reports, as a step checks its loss
    cfg = tiny(d=8, layers=1, heads=1, vocab=16, seq=4, batch=2)
    cfg.training.eval_tokens = 10
    trainer = Trainer(cfg)
    windows = eval_windows(trainer)
    unused = np.setdiff1d(np.arange(16), windows[:, 1:])[0]
    push_logits_apart(monkeypatch, trainer.model, low=unused)
    loss, accuracy, stderr = trainer.evaluate()
    assert np.isfinite([loss, accuracy, stderr]).all()
    assert np.isfinite(trainer.step(windows))


@pytest.mark.parametrize("tokens", [
    np.array([1.9, 2.2, 3.7]), np.array([1.0, 2.0, 3.0], dtype=np.float32),
    np.array([True, False, True]), [1.9, 2.2, 3.7],
], ids=["float64", "float32", "bool", "float-list"])
def test_non_integer_token_ids_are_rejected(tokens):
    model = LanguageModel.build(tiny())
    dtype = np.asarray(tokens).dtype
    with pytest.raises(ValueError, match=f"^token ids must have an integer dtype, got {dtype}$"):
        model.forward(tokens)
    with pytest.raises(ValueError, match=f"^token ids must have an integer dtype, got {dtype}$"):
        model.sequence_loss(tokens)


def test_integer_token_ids_of_any_width_give_the_same_logits():
    model = LanguageModel.build(tiny())
    ids = [1, 2, 3, 0]
    want = model.forward(ids).data
    for dtype in (np.int8, np.uint8, np.int32, np.uint16, np.int64):
        np.testing.assert_array_equal(model.forward(np.array(ids, dtype=dtype)).data, want)
    assert model.sequence_loss(np.array(ids, dtype=np.uint8)).data == \
        model.sequence_loss(ids).data


def test_model_imports_no_lookup_parameter_class():
    # lookup.init_lookup alone decides which class each lookup kind builds
    from sparse_memory_lab import lookup, model

    classes = typing.get_args(lookup.LookupParams)
    assert len(classes) == 4
    assert not [name for name, value in vars(model).items()
                if any(value is cls for cls in classes)]


def test_train_model_writes_deterministic_metrics(tmp_path):
    def run(sub):
        cfg = tiny(steps=8, seed=9, io=IoConfig(out_dir=str(tmp_path / sub),
                                                checkpoint_interval=4))
        train_model(cfg)
        return (tmp_path / sub / "metrics.csv").read_bytes()

    assert run("a") == run("b")
    files = {p.name for p in (tmp_path / "a").iterdir()}
    assert files == {"metrics.csv", "speed.txt", "config.txt", "checkpoint.smlb"}
    speed = dict(line.split() for line in (tmp_path / "a" / "speed.txt").read_text().splitlines())
    assert speed.keys() == {"examples_per_sec", "eval_tokens_per_sec"}
    assert all(float(v) > 0 for v in speed.values())


RUN_CELLS = {
    "dense": MemoryConfig(),
    "softmax_k2": MemoryConfig(lookup="softmax", rank=4, buckets=16, k=2),
}


@pytest.mark.parametrize("cell", sorted(RUN_CELLS))
@pytest.mark.parametrize("cuts", [(7, 20), (8, 8, 13, 20)])
def test_run_cut_and_continued_equals_uncut_run(cell, cuts):
    # interval 4: 7 and 13 fall between evals, 8 on one; the jitter stream of
    # the softmax cell must carry across each cut as the batch stream does
    def trainer():
        return Trainer(tiny(steps=20, memory=RUN_CELLS[cell],
                            io=IoConfig(checkpoint_interval=4)))

    whole, cut = trainer(), trainer()
    whole.run(20)
    for until in cuts:
        cut.run(until)
    assert [row["step"] for row in whole.rows] == [4, 8, 12, 16, 20]
    assert cut.rows == whole.rows
    assert cut.step_count == whole.step_count == 20
    assert cut.clock.examples == whole.clock.examples == 20 * 4
    np.testing.assert_array_equal(cut.opt.flat.data, whole.opt.flat.data)
    for name in whole.params:
        np.testing.assert_array_equal(cut.opt.m[name], whole.opt.m[name])
        np.testing.assert_array_equal(cut.opt.v[name], whole.opt.v[name])
    assert cut.opt.t == whole.opt.t == 20
    assert cut.batch_rng.bit_generator.state == whole.batch_rng.bit_generator.state
    assert cut.jitter_rng.bit_generator.state == whole.jitter_rng.bit_generator.state


def test_run_outside_step_count_to_steps_fails_without_a_step():
    trainer = Trainer(tiny(steps=10, io=IoConfig(checkpoint_interval=4)))
    trainer.run(5)
    before = trainer.opt.flat.data.copy()
    rows = list(trainer.rows)
    state = trainer.batch_rng.bit_generator.state
    for until in (4, 11, -1):
        with pytest.raises(ValueError, match=rf"run\({until}\) must end in .* = \[5, 10\]"):
            trainer.run(until)
    assert trainer.step_count == 5 and trainer.rows == rows
    assert trainer.batch_rng.bit_generator.state == state
    np.testing.assert_array_equal(trainer.opt.flat.data, before)


def test_run_rows_hold_only_the_metrics_columns():
    # no wall-clock value is reachable from a deterministic row
    trainer = Trainer(tiny(steps=9, io=IoConfig(checkpoint_interval=4)))
    trainer.run(9)
    assert [row["step"] for row in trainer.rows] == [4, 8, 9]
    assert all(list(row) == list(METRICS_COLUMNS) for row in trainer.rows)
    assert trainer.clock.seconds > 0 and trainer.clock.eval_seconds > 0


def calls_in_loops(fn) -> list[str]:
    """Names of the functions called inside a loop or comprehension of `fn`."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    return [getattr(node.func, "attr", getattr(node.func, "id", None))
            for loop in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn))))
            if isinstance(loop, loops)
            for node in ast.walk(loop) if isinstance(node, ast.Call)]


def test_harness_functions_hold_no_step_loop():
    # Trainer.run alone steps a run; train_model and the sweep only call it
    for fn in (train_model, run_lookup_benchmark):
        assert "step" not in calls_in_loops(fn), fn.__name__
    assert "step" in calls_in_loops(Trainer.run)


def test_step_under_no_grad_fails_loudly():
    trainer = Trainer(tiny())
    before = {k: p.data.copy() for k, p in trainer.params.items()}
    with no_grad(), pytest.raises(ValueError, match="records no graph"):
        trainer.step()
    for k, p in trainer.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_jitter_only_affects_train_mode():
    cfg = tiny(memory=MemoryConfig(lookup="softmax", rank=2, buckets=8, k=2))
    trainer = Trainer(cfg)
    tokens = trainer.eval_tokens[:9]
    a = trainer.model.forward(tokens[:-1]).data
    b = trainer.model.forward(tokens[:-1]).data
    np.testing.assert_array_equal(a, b)
    r1 = trainer.model.forward(tokens[:-1], rng=np.random.default_rng(0)).data
    r2 = trainer.model.forward(tokens[:-1], rng=np.random.default_rng(1)).data
    assert np.abs(r1 - r2).max() > 0


def test_router_receives_gradient_in_training():
    cfg = tiny(memory=MemoryConfig(lookup="softmax", rank=2, buckets=8, k=2))
    trainer = Trainer(cfg)
    trainer.step()
    grads = [lk.W.grad for lk in trainer.model.lookups]
    # step() zeroes then accumulates; after opt.step grads remain from backward
    assert all(g is not None and np.abs(g).max() > 0 for g in grads)


def test_adam_rowwise_matches_one_adam_per_expert():
    # a stacked table trains like n separate tensors: a row with no gradient
    # in a step keeps its value and moments; a row gathered with a zero
    # gradient still decays its moments and moves
    rng = np.random.default_rng(3)
    init = rng.standard_normal((4, 3))
    stacked = Tensor(init.copy(), requires_grad=True)
    table = MemoryTable(b=stacked)  # rank 0: expert i is the constant row i
    rows = [Tensor(init[i].copy(), requires_grad=True) for i in range(4)]
    opt_stacked = AdamState({"t": stacked}, 0.1)
    opt_rows = AdamState({f"r{i}": r for i, r in enumerate(rows)}, 0.1)
    for picks, scale in (([0, 1], 1.0), ([1, 2], 0.0), ([3, 3], 1.0), ([0, 2], 1.0)):
        weights = scale * rng.standard_normal((len(picks), 3))
        for t in [stacked, *rows]:
            t.zero_grad()
        x = Tensor(np.zeros((len(picks), 3)))
        (apply_expert(x, table, np.reshape(picks, (-1, 1))) * weights).sum().backward()
        sum((rows[i] * w).sum() for i, w in zip(picks, weights)).backward()
        opt_stacked.step()
        opt_rows.step()
        np.testing.assert_array_equal(stacked.data, np.stack([r.data for r in rows]))


def test_unrouted_experts_keep_their_parameters_in_a_step():
    cfg = tiny(memory=MemoryConfig(lookup="token_id", rank=2, buckets=32), batch=1)
    trainer = Trainer(cfg)
    trainer.step()
    trainer.step()
    batch = trainer.sample_batch()
    routed = np.unique(batch[0, :-1])
    idle = np.setdiff1d(np.arange(32), routed)
    before = {k: t.data.copy() for k, t in trainer.model.memory_parameters().items()}
    assert any(np.abs(trainer.opt.m[k][idle]).max() > 0 for k in before)
    trainer.step(batch)
    for k, t in trainer.model.memory_parameters().items():
        np.testing.assert_array_equal(t.data[idle], before[k][idle])
        assert np.any(t.data[routed] != before[k][routed])


def test_lookup_benchmark_grid_rows(tmp_path):
    base = tiny(d=8, layers=1, heads=2, vocab=8, seq=4, steps=2, batch=2)
    base.io.checkpoint_interval = 2
    base.training.eval_tokens = 100
    grid = [("softmax", r, b) for r in (0, 4, 16) for b in (8, 32, 64)]
    base.io.out_dir = str(tmp_path / "bench")
    rows = run_lookup_benchmark(grid, base)
    assert len(rows) == 9
    for r in rows:
        assert r["added_params"] == max(2 * r["rank"], 1) * r["buckets"]
        assert r["added_params_full"] == r["added_params"] * 8

    # token-id routes over the vocabulary itself, whatever the cell's buckets
    base.io.out_dir = str(tmp_path / "tid")
    tid = run_lookup_benchmark([("token_id", 0, 8), ("token_id", 2, 1)], base)
    assert tid[0]["added_params"] == base.model.vocab
    assert (tid[1]["added_params"], tid[1]["added_params_full"]) == (4 * 8, 4 * 8 * 8)

    # duplicate cells with the same seed give identical metrics
    base.io.out_dir = str(tmp_path / "dup")
    dup = run_lookup_benchmark([("softmax", 4, 8)], base)
    assert dup[0]["final_eval_loss"] == [
        r for r in rows if (r["rank"], r["buckets"]) == (4, 8)][0]["final_eval_loss"]


def test_file_corpus_reader(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "corpus.txt"
    path.write_text(" ".join(str(int(x)) for x in rng.integers(0, 16, 3000)))
    cfg = tiny(d=8, layers=1, heads=2, vocab=16, seq=4, steps=2, batch=2)
    cfg.training.eval_tokens = 200
    cfg.training.corpus_file = str(path)
    trainer = Trainer(cfg)
    assert len(trainer.train_tokens) == 2800
    assert np.isnan(trainer.entropy_rate)
    trainer.step()

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 99")
    cfg.training.corpus_file = str(bad)
    with pytest.raises(ValueError, match="outside"):
        Trainer(cfg)


def test_corpus_file_with_a_non_integer_id_names_the_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("1 2 3.5 4")
    with pytest.raises(ValueError, match=f"^corpus file {re.escape(str(path))} holds a "
                                         f"non-integer token id: "):
        load_token_file(path, 16)


def test_corpus_file_lines_may_hold_any_number_of_ids(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("1 2 3\n4 5\n\n  6\t7 8 9 # a comment\n10\n")
    np.testing.assert_array_equal(load_token_file(path, 16), np.arange(1, 11))
    for text, match in (("1 2\n3 x\n", "non-integer token id"), ("\n \n# 1 2\n", "no tokens"),
                        ("1 2 3\n-1\n", "outside"), ("1\n99999999999999999999\n", "outside")):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^corpus file {re.escape(str(path))} .*{match}"):
            load_token_file(path, 16)


@pytest.mark.slow
def test_wide_stack_keeps_most_of_baseline_speed(tmp_path):
    # the K=2 stack adds only prediction/correction work on top of the same
    # d-wide blocks, so throughput stays within a generous factor
    def speed(consumption, K, sub):
        cfg = ExperimentConfig(
            model=ModelConfig(d=64, layers=2, heads=4, vocab=64, seq_len=16),
            memory=MemoryConfig(consumption=consumption),
            altup=AltUpConfig(K=K, head="proj"),
            training=TrainingConfig(steps=30, batch=4, seed=0),
            io=IoConfig(out_dir=str(tmp_path / sub), checkpoint_interval=30))
        clock = train_model(cfg).clock  # examples over seconds from first step to last eval
        return clock.examples / clock.seconds

    base = speed("none", 1, "base")
    wide = speed("altup", 2, "wide")
    assert wide >= 0.6 * base, (base, wide)


FAULT_COUNT = """
import resource
from sparse_memory_lab.config import ExperimentConfig
from sparse_memory_lab.train import Trainer
trainer = Trainer(ExperimentConfig())
for _ in range(3):
    trainer.step()
trainer.evaluate()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    trainer.step()
for _ in range(2):
    trainer.evaluate()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                    reason="the malloc thresholds are glibc's")
def test_trainer_keeps_its_heap_between_steps():
    # a fresh process, so that no earlier test has grown glibc's thresholds
    src = str(Path(sparse_memory_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", FAULT_COUNT], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert int(proc.stdout) < 100
