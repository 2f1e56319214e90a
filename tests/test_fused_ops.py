"""The fused ops (layer norm, attention core, predict-and-correct, routed
partial experts) against central differences and against the chains of
plain ops they stand for.

Each reference below is the unfused composition the op replaced in the
model. A fused op runs that chain's numpy forward call for call, so its
values must match bit for bit; its one backward sums in another order, so
its gradients must match within 1e-12, except where it makes the chain's
own calls (the expert op's x and weights gradients), which must match bit
for bit. The rows of a table that received gradient must match exactly.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_memory_lab.altup import predict_correct_full, predict_correct_simplified
from sparse_memory_lab.autodiff import Tensor, _op_name, causal_attention, layer_norm, no_grad
from sparse_memory_lab.config import ExperimentConfig, set_config_value
from sparse_memory_lab.nn import _NEG_MASK, MemoryTable, apply_expert
from sparse_memory_lab.train import DivergenceError, Trainer

GRAD_TOL = 1e-12


# -- the unfused references ----------------------------------------------------

def unfused_layer_norm(x, scale, bias):
    return x.normalize() * scale + bias


def unfused_attention(q, k, v, n_heads, mask):
    *lead, seq, d = q.shape
    dh = d // n_heads

    def heads(t):
        return t.reshape(*lead, seq, n_heads, dh).swapaxes(-3, -2)

    scores = (heads(q) @ heads(k).swapaxes(-2, -1)) * (1.0 / math.sqrt(dh))
    if mask is not None:
        scores = scores + mask
    return (scores.softmax(axis=-1) @ heads(v)).swapaxes(-3, -2).reshape(*lead, seq, d)


def unfused_simplified(flat, computed, p, g, j_star):
    K = p.shape[0]
    *lead, kd = flat.shape
    d = kd // K
    predicted = p @ flat.reshape(*lead, K, d)
    innovation = computed.reshape(*lead, 1, d) - predicted.narrow(len(lead), j_star, 1)
    return (predicted + g.reshape(K, 1) * innovation).reshape(*lead, kd)


def unfused_full(flat, computed, P, G, j_star):
    d = G.shape[1]
    predicted = flat @ P.swapaxes(-2, -1)
    innovation = computed - predicted.narrow(predicted.ndim - 1, j_star * d, d)
    return predicted + innovation @ G.swapaxes(-2, -1)


def unfused_expert(x, table, idx, weights=None):
    seq, d = x.shape
    k, r = idx.shape[1], table.rank
    hidden = (x.reshape(seq, 1, 1, d) @ table.U.take(idx)).relu()
    out = (table.V.take(idx) @ hidden.reshape(seq, k, r, 1)).reshape(seq, k, d)
    out = out if weights is None else out * weights.reshape(*idx.shape, 1)
    return out.sum(axis=1)


def on_one_table(expert):
    """`expert` on the table (U, V) as op(x, U, V[, weights]); with `idx2`,
    a second call on (x, idx2) is added, so one table serves two nodes."""
    def op(x, U, V, *weights, idx, idx2=None):
        table = MemoryTable(U=U, V=V)
        out = expert(x, table, idx, *weights)
        return out if idx2 is None else out + expert(x, table, idx2)

    return op


# -- the cases -----------------------------------------------------------------

def causal_mask(seq):
    return np.triu(np.full((seq, seq), _NEG_MASK), k=1)


def layer_norm_case(lead, d, seed):
    rng = np.random.default_rng(seed)
    # a ramp keeps every row's variance at 1/4 or more, away from the eps floor
    x = 0.5 * rng.standard_normal((*lead, d)) + np.arange(d)
    return [x, rng.standard_normal(d), rng.standard_normal(d)], {}


def attention_case(lead, seq, n_heads, dh, masked, seed):
    rng = np.random.default_rng(seed)
    shape = (*lead, seq, n_heads * dh)
    arrays = [rng.standard_normal(shape) for _ in range(3)]
    return arrays, {"n_heads": n_heads, "mask": causal_mask(seq) if masked else None}


def pcc_case(form, lead, K, d, j_star, seed):
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal((*lead, K * d))
    computed = rng.standard_normal((*lead, d))
    if form == "simplified":
        params = [rng.standard_normal((K, K)), rng.standard_normal(K)]
    else:
        params = [rng.standard_normal((K * d, K * d)), rng.standard_normal((K * d, d))]
    return [flat, computed, *params], {"j_star": j_star}


def expert_case(rows, k, d, r, n, weighted, twice, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, d))
    U, V = rng.standard_normal((2, n, d, r))
    idx = rng.integers(0, n, (rows, k))
    idx[0] = idx[0, 0]  # row 0 routes to one expert k times
    # the last row's pre-activations are all negative
    x[-1] = np.abs(x[-1]) + 0.1
    U[idx[-1]] = -np.abs(U[idx[-1]]) - 0.1
    weights = [rng.standard_normal(rows * k)] if weighted else []
    idx2 = rng.integers(0, n, (rows, k)) if twice else None
    return [x, U, V, *weights], {"idx": idx, "idx2": idx2}


FUSED = {
    "layer_norm": (layer_norm, unfused_layer_norm),
    "attention": (causal_attention, unfused_attention),
    "simplified": (predict_correct_simplified, unfused_simplified),
    "full": (predict_correct_full, unfused_full),
    "expert": (on_one_table(apply_expert), on_one_table(unfused_expert)),
}
# inputs whose gradient the fused op computes with its chain's own calls
EXACT_GRADS = {"expert": {0, 3}}

leads = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)
seeds = st.integers(0, 2 ** 32 - 1)
layer_norm_cases = st.builds(layer_norm_case, leads, st.integers(2, 6), seeds)
attention_cases = st.builds(attention_case, leads, st.integers(1, 4), st.integers(1, 3),
                            st.integers(1, 3), st.booleans(), seeds)
expert_cases = st.builds(expert_case, st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
                         st.integers(1, 3), st.integers(1, 6), st.booleans(), st.booleans(),
                         seeds)


@st.composite
def pcc_cases(draw, form):
    K = draw(st.integers(2, 3))
    return pcc_case(form, draw(leads), K, draw(st.integers(1, 3)),
                    draw(st.integers(0, K - 1)), draw(seeds))


CASES = {
    "layer_norm": layer_norm_cases,
    "attention": attention_cases,
    "simplified": pcc_cases("simplified"),
    "full": pcc_cases("full"),
    "expert": expert_cases,
}


def run(op, arrays, kwargs, weights):
    """Tensors over `arrays`, and the loss sum(op(...) * weights) after its backward."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors, **kwargs)
    (out * weights).sum().backward()
    return tensors, out


def numeric_grad(loss, array, eps=1e-6):
    """Central differences of loss() with respect to each entry of `array`."""
    grad = np.zeros_like(array)
    flat, gflat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss()
        flat[i] = orig - eps
        lm = loss()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * eps)
    return grad


def check_central_differences(op, arrays, kwargs):
    weights = np.random.default_rng(0).standard_normal(
        op(*map(Tensor, arrays), **kwargs).shape)
    tensors, _ = run(op, arrays, kwargs, weights)

    def loss():
        with no_grad():
            return float((op(*map(Tensor, arrays), **kwargs) * weights).sum().data)

    for a, t in zip(arrays, tensors):
        np.testing.assert_allclose(t.grad, numeric_grad(loss, a), rtol=1e-6, atol=1e-6)


def check_against_reference(name, arrays, kwargs):
    fused, reference = FUSED[name]
    weights = np.random.default_rng(0).standard_normal(
        reference(*map(Tensor, arrays), **kwargs).shape)
    got, out = run(fused, arrays, kwargs, weights)
    want, ref = run(reference, arrays, kwargs, weights)
    assert out.data.tobytes() == ref.data.tobytes()
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.grad.shape == b.grad.shape
        if i in EXACT_GRADS.get(name, ()):
            assert a.grad.tobytes() == b.grad.tobytes(), f"input {i}"
        else:
            assert np.abs(a.grad - b.grad).max() <= GRAD_TOL, f"input {i}"
        if b.grad_rows is None:
            assert a.grad_rows is None, f"input {i}"
        else:
            assert a.grad_rows.tobytes() == b.grad_rows.tobytes(), f"input {i}"


# -- central differences ------------------------------------------------------------

@pytest.mark.parametrize("name", list(FUSED))
def test_fused_op_matches_central_differences(name):
    @settings(max_examples=25, deadline=None)
    @given(CASES[name])
    def check(case):
        check_central_differences(FUSED[name][0], *case)

    check()


@pytest.mark.parametrize("form", ["simplified", "full"])
@pytest.mark.parametrize("K", [2, 3])
def test_pcc_op_matches_central_differences_at_every_j_star(form, K):
    for j_star in range(K):
        check_central_differences(FUSED[form][0], *pcc_case(form, (2, 3), K, 2, j_star, 7))


# -- against the unfused chains ----------------------------------------------------------

@pytest.mark.parametrize("name", list(FUSED))
def test_fused_op_matches_its_unfused_chain(name):
    @settings(max_examples=25, deadline=None)
    @given(CASES[name])
    def check(case):
        check_against_reference(name, *case)

    check()


@pytest.mark.parametrize("lead", [(), (8,), (2, 3)])
@pytest.mark.parametrize("masked", [True, False])
def test_attention_matches_its_unfused_chain_at_model_shapes(lead, masked):
    check_against_reference("attention", *attention_case(lead, 16, 2, 16, masked, 3))


def test_expert_matches_its_unfused_chain_at_zero_pre_activations():
    # row 1 is zero, so its pre-activations are exactly 0, where relu passes no gradient
    arrays, kwargs = expert_case(4, 2, 3, 2, 3, True, False, 5)
    arrays[0][1] = 0.0
    check_against_reference("expert", arrays, kwargs)


def test_attention_rejects_bad_shapes():
    x = Tensor(np.zeros((3, 6)))
    with pytest.raises(ValueError, match="must divide"):
        causal_attention(x, x, x, 4)
    with pytest.raises(ValueError, match="equal"):
        causal_attention(x, x, Tensor(np.zeros((3, 4))), 2)


# -- graph size --------------------------------------------------------------------

def op_census(root):
    """Op name -> count of the nodes reachable from `root` that have a backward."""
    seen, stack, census = {id(root)}, [root], Counter()
    while stack:
        node = stack.pop()
        if node._backward is not None:
            census[_op_name(node._backward)] += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return census


MEMORY = {"memory.rank": "4", "memory.buckets": "64"}
ALTUP = {"memory.consumption": "altup", "altup.K": "2"}


@pytest.mark.parametrize("overrides, limit", [
    ({}, 32),
    (ALTUP, 37),
    ({**ALTUP, "altup.variant": "full"}, 37),
    ({"memory.lookup": "token_id", "memory.rank": "4"}, 36),
    ({**MEMORY, "memory.lookup": "softmax", "memory.k": "2"}, 46),
    ({**MEMORY, "memory.lookup": "hyperplane"}, 36),
    ({**MEMORY, "memory.lookup": "spherical"}, 36),
    ({"memory.lookup": "token_id", "memory.rank": "0", "memory.share_table": "true"}, 38),
    ({**MEMORY, **ALTUP, "memory.lookup": "softmax", "memory.k": "2"}, 51),
], ids=["baseline", "altup-simplified", "altup-full", "token_id", "softmax", "hyperplane",
        "spherical", "token_id-rank0-shared", "softmax-altup"])
def test_training_step_graph_stays_fused(overrides, limit):
    # the default model: 2 layers; a step built 67, 90 and 86 op nodes unfused,
    # and the memory cells 57 (73 for softmax with k=2) with the expert chain.
    # The head and the router read their weights as stored, with no transpose.
    cfg = ExperimentConfig()
    for key, value in overrides.items():
        set_config_value(cfg, key, value)
    trainer = Trainer(cfg.validate())
    census = op_census(trainer.batch_loss(trainer.sample_batch(), trainer.jitter_rng))
    assert census.total() <= limit
    assert census["swapaxes"] == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checked_replay_names_the_expert_op():
    cfg = ExperimentConfig()
    set_config_value(cfg, "memory.lookup", "token_id")
    set_config_value(cfg, "memory.rank", "4")
    trainer = Trainer(cfg.validate())
    table = trainer.model.tables[0]
    table.U.data[:] = 1e200  # V_j @ relu(U_j^T x) overflows
    table.V.data[:] = 1e200
    with pytest.raises(DivergenceError, match=r"^training diverged at step 0: apply_expert "
                       r"produced a non-finite value \(NaN or Inf\) in the forward pass at "
                       r"layer 0 memory experts$"):
        trainer.step()
