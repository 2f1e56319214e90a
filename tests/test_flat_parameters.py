"""Flat parameter and gradient vectors: layout, views, and optimizers that
match a per-tensor reference bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_memory_lab.autodiff import Tensor
from sparse_memory_lab.checkpoint import load_checkpoint, save_checkpoint
from sparse_memory_lab.config import ExperimentConfig, MemoryConfig
from sparse_memory_lab.gradcheck import altup_full_scenario, memory_softmax_scenario
from sparse_memory_lab.model import LanguageModel
from sparse_memory_lab.nn import MemoryTable, apply_expert, finite_diff_check
from sparse_memory_lab.train import AdamState, FlatParameters, SgdState, Trainer


def memory_config() -> ExperimentConfig:
    cfg = ExperimentConfig(memory=MemoryConfig(lookup="token_id", rank=2))
    cfg.training.eval_tokens = 256
    return cfg.validate()


def test_parameters_and_gradients_are_views_of_the_flat_vectors():
    trainer = Trainer(memory_config())
    trainer.step()
    flat = trainer.opt.flat
    assert flat.data.size == sum(p.size for p in trainer.params.values())
    for name, p in trainer.params.items():
        assert p.grad is not None, name
        assert np.shares_memory(p.data, flat.data), name
        assert np.shares_memory(p.grad, flat.grad), name
        assert np.shares_memory(trainer.opt.m[name], trainer.opt._m), name
        assert np.shares_memory(trainer.opt.v[name], trainer.opt._v), name
    # parameters are laid out in the mapping's order, back to back
    assert flat.data.tobytes() == b"".join(p.data.tobytes() for p in trainer.params.values())
    assert flat.grad.tobytes() == b"".join(p.grad.tobytes() for p in trainer.params.values())


def test_checkpoint_names_and_layout_are_unchanged(tmp_path):
    cfg = memory_config()
    fresh = LanguageModel.build(cfg).parameters()  # laid out by no optimizer
    trainer = Trainer(cfg)
    save_checkpoint(tmp_path / "fresh.smlb", {k: t.data for k, t in fresh.items()})
    save_checkpoint(tmp_path / "flat.smlb", {k: t.data for k, t in trainer.params.items()})
    assert (tmp_path / "fresh.smlb").read_bytes() == (tmp_path / "flat.smlb").read_bytes()
    loaded = load_checkpoint(tmp_path / "flat.smlb")
    assert list(loaded) == list(fresh)
    assert all(loaded[k].shape == t.shape for k, t in fresh.items())
    # the payload is the flat parameter vector itself
    raw = (tmp_path / "flat.smlb").read_bytes()
    assert raw.endswith(trainer.opt.flat.data.astype("<f8").tobytes())


@pytest.mark.parametrize("scenario", [memory_softmax_scenario, altup_full_scenario])
def test_finite_diff_check_passes_on_flat_views(scenario):
    _, loss_fn, params = scenario()
    opt = AdamState(params, 1e-3)
    assert all(np.shares_memory(t.data, opt.flat.data) for t in params.values())
    report = finite_diff_check(loss_fn, params)
    assert report.passed, report.per_param


def test_layout_rejects_a_repeated_tensor_and_foreign_parameters():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="two names"):
        FlatParameters({"a": t, "b": t})
    # an optimizer steps only the parameters it was built over: none can be passed
    for opt in (SgdState({"a": t}, 0.1), AdamState({"a": t}, 0.1)):
        with pytest.raises(TypeError):
            opt.step({"a": Tensor(np.ones(3), requires_grad=True)})


# -- property test: flat optimizers against the per-tensor reference --------------

def reference_adam_step(state, grads, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-tensor Adam the flat one replaced, kept here as the oracle."""
    scale = lr * math.sqrt(1 - b2 ** t) / (1 - b1 ** t)
    for name, (p, m, v) in state.items():
        g, grad_rows = grads[name]
        if g is None:
            continue
        rows = slice(None) if grad_rows is None else grad_rows
        g = g[rows]
        m[rows] = b1 * m[rows] + (1 - b1) * g
        v[rows] = b2 * v[rows] + (1 - b2) * g * g
        p[rows] -= scale * m[rows] / (np.sqrt(v[rows]) + eps)


def reference_sgd_step(params, grads, lr):
    for name, p in params.items():
        g, _ = grads[name]
        if g is not None:
            p -= lr * g


# per parameter and step: no gradient, a dense one, picked rows (duplicates
# allowed, some weights zero), or both in one step. A 2-D parameter's rows
# are picked as a rank-0 expert table's, whose node records them; any
# other's by take(), which records none.
KINDS = ("none", "dense", "rows", "both")

problems = st.fixed_dictionaries({
    "shapes": st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
                       min_size=1, max_size=4),
    "plan": st.lists(st.lists(st.tuples(st.sampled_from(KINDS),
                                        st.lists(st.integers(0, 3), min_size=1, max_size=5),
                                        st.booleans()),
                              min_size=4, max_size=4),
                     min_size=1, max_size=4),
    "seed": st.integers(0, 2 ** 32 - 1),
})


def backward_for(tensors, step_plan, rng):
    """One loss over every tensor per its planned kind; returns whether any
    tensor got a gradient (backward needs a graph)."""
    terms = []
    for t, (kind, picks, zero_rows) in zip(tensors, step_plan):
        if kind in ("dense", "both"):
            terms.append((t * (rng.standard_normal(t.shape)
                               * 10.0 ** rng.integers(-6, 6, t.shape))).sum())
        if kind in ("rows", "both"):
            idx = np.asarray(picks) % t.shape[0]
            w = rng.standard_normal(idx.shape + t.shape[1:])
            if zero_rows:
                w[: len(idx) // 2 + 1] = 0.0
            if t.ndim == 2:
                x = Tensor(np.zeros((idx.size, t.shape[1])))
                picked = apply_expert(x, MemoryTable(b=t), idx[:, None])
            else:
                picked = t.take(idx)
            terms.append((picked * w).sum())
    if not terms:
        return False
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    total.backward()
    return True


@settings(max_examples=60, deadline=None)
@given(problems)
def test_flat_adam_and_sgd_match_per_tensor_reference(problem):
    rng = np.random.default_rng(problem["seed"])
    shapes = problem["shapes"]
    inits = [rng.standard_normal(s) for s in shapes]
    names = [f"p{i}" for i in range(len(shapes))]
    adam_params = {n: Tensor(x.copy(), requires_grad=True) for n, x in zip(names, inits)}
    sgd_params = {n: Tensor(x.copy(), requires_grad=True) for n, x in zip(names, inits)}
    adam = AdamState(adam_params, 0.05)
    sgd = SgdState(sgd_params, 0.05)
    ref_adam = {n: (x.copy(), np.zeros_like(x), np.zeros_like(x)) for n, x in zip(names, inits)}
    ref_sgd = {n: x.copy() for n, x in zip(names, inits)}
    for t, step_plan in enumerate(problem["plan"], start=1):
        step_plan = step_plan[: len(names)]
        draw_seed = rng.integers(2 ** 32)
        for opt, params in ((adam, adam_params), (sgd, sgd_params)):
            opt.flat.zero_grad()
            backward_for(list(params.values()), step_plan, np.random.default_rng(draw_seed))
        grads = {n: (None if p.grad is None else p.grad.copy(),
                     None if p.grad_rows is None else p.grad_rows.copy())
                 for n, p in adam_params.items()}
        adam.step()
        sgd.step()
        reference_adam_step(ref_adam, grads, t, 0.05)
        reference_sgd_step(ref_sgd, grads, 0.05)
        for n in names:
            p, m, v = ref_adam[n]
            assert adam_params[n].data.tobytes() == p.tobytes(), (n, t)
            assert adam.m[n].tobytes() == m.tobytes(), (n, t)
            assert adam.v[n].tobytes() == v.tobytes(), (n, t)
            assert sgd_params[n].data.tobytes() == ref_sgd[n].tobytes(), (n, t)
