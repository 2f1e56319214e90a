"""The fused ops (predict-and-correct, routed partial experts, the
transformer block, the loss head) and the numpy parts the block is built of
(the layer norm and the attention core, each run here as a test-local node)
against central differences and against the chains of ops they stand for.

Each reference below is the unfused composition the op replaced in the
model; the block's and the loss head's chains exist only here, as oracles.
A fused op runs that chain's numpy forward call for call, so its values
must match bit for bit; its one backward sums in another order, so its
gradients must match within 1e-12, except where it makes the chain's own
calls (the expert op's x and weights gradients, and every gradient at rank
0; every gradient of the block and the loss head), which must match bit for
bit. The expert op records as a table's gradient rows exactly the rows its
indices routed to. Inside checked() the block and the loss head stay one
node each and name themselves in a divergence.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_memory_lab import lookup
from sparse_memory_lab.altup import predict_correct_full, predict_correct_simplified
from sparse_memory_lab.autodiff import (
    NonFiniteError,
    Tensor,
    _accumulate_each,
    _attention,
    _layer_norm,
    _op_name,
    at_stage,
    checked,
    cross_entropy,
    no_grad,
)
from sparse_memory_lab.config import ExperimentConfig, set_config_value
from sparse_memory_lab.nn import (
    _NEG_MASK,
    MemoryTable,
    TransformerBlockParams,
    apply_expert,
    finite_diff_check,
    transformer_block_forward,
)
from sparse_memory_lab.train import DivergenceError, Trainer

from oracles import log_softmax, normalize

GRAD_TOL = 1e-12


# -- the numpy parts as nodes -----------------------------------------------------

def as_node(part):
    """An autodiff part (arrays -> output and gradients function) as one
    graph node on tensors."""
    def op(*tensors, **kwargs):
        out, grads = part(*(t.data for t in tensors), **kwargs)

        def backward(g):
            _accumulate_each(tensors, grads(g))

        return Tensor._op(out, tensors, backward)

    return op


layer_norm = as_node(_layer_norm)
attention = as_node(_attention)


# -- the unfused references ----------------------------------------------------

def unfused_layer_norm(x, scale, bias):
    return normalize(x) * scale + bias


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


def unfused_expert_rank0(x, table, idx, weights=None):
    out = table.b.take(idx)
    out = out if weights is None else out * weights.reshape(*idx.shape, 1)
    return out.sum(axis=-2)


def on_one_table(expert):
    """`expert` on the table (U, V) as op(x, U, V[, weights]); with `idx2`,
    a second call on (x, idx2) is added, so one table serves two nodes."""
    def op(x, U, V, *weights, idx, idx2=None):
        table = MemoryTable(U=U, V=V)
        out = expert(x, table, idx, *weights)
        return out if idx2 is None else out + expert(x, table, idx2)

    return op


def on_one_rank0_table(expert):
    """As on_one_table, on the rank-0 table b as op(b[, weights]); the rows
    x, which a rank-0 expert does not read, come as a keyword."""
    def op(b, *weights, x, idx, idx2=None):
        table, x = MemoryTable(b=b), Tensor(x)
        out = expert(x, table, idx, *weights)
        return out if idx2 is None else out + expert(x, table, idx2)

    return op


def chain_block(x, params):
    """The block as a chain of ops: the two layer norms and the causal
    attention core as nodes, six matmuls, the relu and two residual adds."""
    seq = x.shape[-2]
    mask = causal_mask(seq) if seq > 1 else None
    ln1 = layer_norm(x, params.ln1_scale, params.ln1_bias)
    attended = attention(ln1 @ params.wq, ln1 @ params.wk, ln1 @ params.wv,
                         n_heads=params.n_heads, mask=mask)
    x = x + attended @ params.wo
    ln2 = layer_norm(x, params.ln2_scale, params.ln2_bias)
    return x + (ln2 @ params.w1).relu() @ params.w2


def chain_loss(logits, targets):
    flat = np.arange(targets.size) * logits.shape[-1] + targets.reshape(-1)
    return -log_softmax(logits, axis=-1).reshape(-1).take(flat).mean()


def on_block_params(block):
    """`block` on the parameters given as arrays, as op(x, wq, ..., ln2_bias),
    after x * 0.5: that product's gradient reaches x ahead of the block's
    two, so their order and grouping show in x's gradient."""
    def op(x, *weights, n_heads):
        return x * 0.5 + block(x, TransformerBlockParams(*weights, n_heads=n_heads))

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


def expert_rank0_case(rows, k, d, n, weighted, twice, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, d))
    idx = rng.integers(0, n, (rows, k))
    idx[0] = idx[0, 0]  # row 0 routes to one expert k times
    weights = [rng.standard_normal(rows * k)] if weighted else []
    idx2 = rng.integers(0, n, (rows, k)) if twice else None
    return [b, *weights], {"x": np.zeros((rows, d)), "idx": idx, "idx2": idx2}


def block_case(lead, seq, n_heads, dh, seed):
    rng = np.random.default_rng(seed)
    d = n_heads * dh
    shapes = [(d, d)] * 4 + [(d, 4 * d), (4 * d, d)]
    weights = [rng.standard_normal(s) / math.sqrt(s[0]) for s in shapes]
    norms = [1.0 + 0.3 * rng.standard_normal(d) if i % 2 == 0 else 0.3 * rng.standard_normal(d)
             for i in range(4)]
    x = rng.standard_normal((*lead, seq, d))
    return [x, *weights, *norms], {"n_heads": n_heads}


def loss_case(lead, vocab, seed):
    rng = np.random.default_rng(seed)
    return [3.0 * rng.standard_normal((*lead, vocab))], {"targets": rng.integers(0, vocab, lead)}


FUSED = {
    "layer_norm": (layer_norm, unfused_layer_norm),
    "attention": (attention, unfused_attention),
    "simplified": (predict_correct_simplified, unfused_simplified),
    "full": (predict_correct_full, unfused_full),
    "expert": (on_one_table(apply_expert), on_one_table(unfused_expert)),
    "expert_rank0": (on_one_rank0_table(apply_expert), on_one_rank0_table(unfused_expert_rank0)),
    "block": (on_block_params(transformer_block_forward), on_block_params(chain_block)),
    "loss": (cross_entropy, chain_loss),
}
# inputs whose gradient the fused op computes with its chain's own calls
EXACT_GRADS = {"expert": {0, 3}, "expert_rank0": {0, 1}, "block": set(range(11)), "loss": {0}}
# the inputs that are expert tables, whose routed rows the fused op records
TABLES = {"expert": (1, 2), "expert_rank0": (0,)}

leads = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)
seeds = st.integers(0, 2 ** 32 - 1)
layer_norm_cases = st.builds(layer_norm_case, leads, st.integers(2, 6), seeds)
attention_cases = st.builds(attention_case, leads, st.integers(1, 4), st.integers(1, 3),
                            st.integers(1, 3), st.booleans(), seeds)
expert_cases = st.builds(expert_case, st.integers(1, 6), st.integers(1, 4), st.integers(1, 5),
                         st.integers(1, 3), st.integers(1, 6), st.booleans(), st.booleans(),
                         seeds)
expert_rank0_cases = st.builds(expert_rank0_case, st.integers(1, 6), st.integers(1, 4),
                               st.integers(1, 5), st.integers(1, 6), st.booleans(),
                               st.booleans(), seeds)
# (seq, d) and (B, seq, d) activations
block_cases = st.builds(block_case, st.lists(st.integers(1, 3), max_size=1).map(tuple),
                        st.integers(1, 5), st.sampled_from([1, 2, 4]), st.integers(1, 3), seeds)
loss_cases = st.builds(loss_case, st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple),
                       st.integers(1, 6), seeds)


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
    "expert_rank0": expert_rank0_cases,
    "block": block_cases,
    "loss": loss_cases,
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
        if i in TABLES.get(name, ()):
            routed = [kwargs["idx"]] if kwargs["idx2"] is None else [kwargs["idx"], kwargs["idx2"]]
            rows = np.isin(np.arange(a.shape[0]), np.concatenate(routed, axis=None))
            assert a.grad_rows.tobytes() == rows.tobytes(), f"input {i}"
        else:
            assert a.grad_rows is None, f"input {i}"


# -- central differences ------------------------------------------------------------

# the block has too many entries for a drawn central-difference check per
# example; finite_diff_check covers it below
@pytest.mark.parametrize("name", [name for name in FUSED if name != "block"])
def test_fused_op_matches_central_differences(name):
    @settings(max_examples=25, deadline=None)
    @given(CASES[name])
    def check(case):
        check_central_differences(FUSED[name][0], *case)

    check()


def test_block_node_passes_finite_diff_check():
    arrays, kwargs = block_case((2,), 3, 2, 2, 11)
    names = ["x", *TransformerBlockParams.init(4, 2, 0).parameters()]
    tensors = {name: Tensor(a, requires_grad=True) for name, a in zip(names, arrays)}
    weights = np.random.default_rng(1).standard_normal(arrays[0].shape)
    x, *params = tensors.values()
    block = TransformerBlockParams(*params, n_heads=2)
    out = transformer_block_forward(x, block)
    assert _op_name(out._backward) == "transformer_block_forward"

    def loss_fn():
        return (transformer_block_forward(x, block) * weights).sum()

    report = finite_diff_check(loss_fn, tensors)
    assert report.passed, report.per_param


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


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("twice", [False, True])
def test_rank0_expert_matches_its_take_chain(weighted, twice):
    check_against_reference("expert_rank0", *expert_rank0_case(5, 3, 4, 6, weighted, twice, 9))


def chain_apply_expert(x, table, indices, weights=None):
    """apply_expert, with a rank-0 table run as its take, mul and sum chain."""
    if table.b is None:
        return apply_expert(x, table, indices, weights)
    return unfused_expert_rank0(x, table, np.asarray(indices), weights)


@pytest.mark.parametrize("layers", [3, 4])
def test_shared_rank0_table_gets_its_take_chains_gradient(monkeypatch, layers):
    # the node's parents are the chain's, so the layers' contributions reach
    # the shared table in the chain's order; with x among them they do not
    def table_grad():
        trainer = trainer_for({"memory.lookup": "token_id", "memory.rank": "0",
                               "memory.share_table": "true", "model.layers": str(layers)})
        trainer.batch_loss(trainer.sample_batch(), trainer.jitter_rng).backward()
        return trainer.model.tables[0].b.grad.tobytes()

    fused = table_grad()
    monkeypatch.setattr(lookup, "apply_expert", chain_apply_expert)
    assert table_grad() == fused


def test_cross_entropy_rejects_targets_not_shaped_like_the_logit_rows():
    logits = Tensor(np.zeros((2, 3, 5)))
    for targets in (np.zeros(6, dtype=int), np.zeros((2, 3, 1), dtype=int)):
        with pytest.raises(ValueError, match="must match the leading axes"):
            cross_entropy(logits, targets)


@pytest.mark.parametrize("targets", [[3, 0], [-1, 0], [0, 7]])
def test_cross_entropy_rejects_targets_outside_the_logit_columns(targets):
    # unchecked, 3 reads the next row's column 0 and -1 the last logit
    bad = next(t for t in targets if not 0 <= t < 3)
    with pytest.raises(ValueError, match=rf"target {bad} outside \[0, 3\)"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array(targets))


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
def test_cross_entropy_rejects_an_empty_batch(shape):
    targets = np.zeros(shape[:-1], dtype=int)
    with pytest.raises(ValueError, match="cross_entropy of an empty batch: logits "
                       + re.escape(str(shape))):
        cross_entropy(Tensor(np.zeros(shape)), targets)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint32, np.uint64])
def test_cross_entropy_scores_every_integer_target_dtype(dtype):
    logits = np.random.default_rng(31).standard_normal((2, 3, 5))
    targets = np.array([[4, 0, 2], [1, 3, 4]])
    expected = cross_entropy(Tensor(logits), targets)
    got = cross_entropy(Tensor(logits), targets.astype(dtype))
    assert got.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("targets", [np.array([1.0, 2.0]), np.array([True, False])])
def test_cross_entropy_rejects_float_and_bool_targets(targets):
    # a bool target would otherwise score column 0 or 1
    with pytest.raises(ValueError, match=f"targets must have an integer dtype, got {targets.dtype}"):
        cross_entropy(Tensor(np.zeros((2, 3))), targets)


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


# (overrides, the largest op census of a training step) for each cell
STEP_CELLS = {
    "baseline": ({}, 5),
    "altup-simplified": (ALTUP, 10),
    "altup-full": ({**ALTUP, "altup.variant": "full"}, 10),
    "token_id": ({"memory.lookup": "token_id", "memory.rank": "4"}, 9),
    "softmax": ({**MEMORY, "memory.lookup": "softmax", "memory.k": "2"}, 19),
    "hyperplane": ({**MEMORY, "memory.lookup": "hyperplane"}, 9),
    "spherical": ({**MEMORY, "memory.lookup": "spherical"}, 9),
    "token_id-rank0-shared": ({"memory.lookup": "token_id", "memory.rank": "0",
                               "memory.share_table": "true"}, 9),
    "softmax-rank0": ({"memory.buckets": "64", "memory.lookup": "softmax", "memory.k": "2"}, 19),
    "softmax-altup": ({**MEMORY, **ALTUP, "memory.lookup": "softmax", "memory.k": "2"}, 24),
}


def trainer_for(overrides):
    cfg = ExperimentConfig()
    for key, value in overrides.items():
        set_config_value(cfg, key, value)
    return Trainer(cfg.validate())


@pytest.mark.parametrize("overrides, limit", list(STEP_CELLS.values()), ids=list(STEP_CELLS))
def test_training_step_graph_stays_fused(overrides, limit):
    # the default model: 2 layers; a step built 67, 90 and 86 op nodes unfused,
    # and the memory cells 57 (73 for softmax with k=2) with the expert chain;
    # the rank-0 cells built 11 and 25 with the take, mul and sum chain.
    # Each block and the loss head are one node (12 and 6 as chains).
    # The head and the router read their weights as stored, with no transpose.
    trainer = trainer_for(overrides)
    census = op_census(trainer.batch_loss(trainer.sample_batch(), trainer.jitter_rng))
    assert census.total() <= limit
    assert census["swapaxes"] == 0


@pytest.mark.parametrize("overrides", [cell for cell, _ in STEP_CELLS.values()],
                         ids=list(STEP_CELLS))
def test_checked_step_builds_the_fused_graph(overrides):
    # a divergence replay runs the step that failed: the same nodes, each
    # scanning its own results
    trainer = trainer_for(overrides)
    batch = trainer.sample_batch()
    default = op_census(trainer.batch_loss(batch, trainer.jitter_rng))
    with checked():
        census = op_census(trainer.batch_loss(batch, trainer.jitter_rng))
    assert census == default


# the cells of the benchmark's train-dense and train-memory workloads
PERFBENCH_CELLS = {
    "baseline": {},
    "altup-simplified": ALTUP,
    "altup-full": {**ALTUP, "altup.variant": "full"},
    "token_id": {"memory.lookup": "token_id", "memory.rank": "4"},
    "softmax": {**MEMORY, "memory.lookup": "softmax", "memory.k": "2"},
    "hyperplane": {**MEMORY, "memory.lookup": "hyperplane"},
    "spherical": {**MEMORY, "memory.lookup": "spherical"},
}


@pytest.mark.parametrize("overrides", list(PERFBENCH_CELLS.values()), ids=list(PERFBENCH_CELLS))
def test_checked_steps_train_as_the_fused_ones_do(overrides):
    # a divergence replay reruns a step in checked mode, where the fused
    # nodes also scan their parts: the two must be the same step bit for bit
    def fingerprint(step_in_checked_mode):
        cfg = ExperimentConfig()
        for key, value in overrides.items():
            set_config_value(cfg, key, value)
        trainer = Trainer(cfg.validate())
        losses = []
        for _ in range(20):
            if step_in_checked_mode:
                with checked():
                    losses.append(trainer.step())
            else:
                losses.append(trainer.step())
        opt = trainer.opt
        return losses, opt.flat.data.tobytes(), opt._m.tobytes(), opt._v.tobytes()

    assert fingerprint(True) == fingerprint(False)


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


# -- what a checked replay names inside the block and the loss head -----------------

def block_diagnostic(pass_, layer, stage):
    what = "transformer_block_forward" if pass_ == "forward" else \
        "backward of transformer_block_forward"
    return (f"{what} produced a non-finite value (NaN or Inf) in the {pass_} pass at "
            f"layer {layer} {stage}")


def zero_the_relu_input_row(block):
    """w1's row 0 to -inf after an ln2 column 0 of ones: every FFN
    pre-activation of hidden unit 0 is -inf, which the relu makes 0."""
    block.ln2_scale.data[0] = 0.0
    block.ln2_bias.data[0] = 1.0
    block.w1.data[0, 0] = -np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("plant, stage", [
    ("wv", "attention"), ("ln1_scale", "attention"), ("w2", "ffn"), ("ln2_bias", "ffn"),
    (zero_the_relu_input_row, "ffn"),
], ids=["wv", "ln1_scale", "w2", "ln2_bias", "relu-input"])
def test_checked_replay_names_the_block_half_in_the_forward_pass(layer, plant, stage):
    trainer = trainer_for({})
    block = trainer.model.blocks[layer]
    if callable(plant):
        plant(block)
    else:
        getattr(block, plant).data.flat[0] = np.inf
    with pytest.raises(DivergenceError) as info:
        trainer.step()
    assert str(info.value) == ("training diverged at step 0: "
                               + block_diagnostic("forward", layer, stage))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("layer", [0, 1])
@pytest.mark.parametrize("silent, huge, stage", [("wv", "wo", "attention"), ("w1", "w2", "ffn")],
                         ids=["attention", "ffn"])
def test_checked_backward_names_the_block_half(layer, silent, huge, stage):
    # with `silent` zero, the half adds nothing and `huge` never meets a
    # nonzero in the forward; a scaled loss overflows its backward there
    trainer = trainer_for({})
    block = trainer.model.blocks[layer]
    getattr(block, silent).data[:] = 0.0
    getattr(block, huge).data[:] = 1e308
    windows = trainer.sample_batch()
    with checked():
        loss = trainer.model.sequence_loss(windows) * 1e10
        assert np.isfinite(loss.data)
        with pytest.raises(NonFiniteError) as info:
            loss.backward()
    assert str(info.value) == block_diagnostic("backward", layer, stage)
    assert info.value.pass_ == "backward"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checked_replay_names_the_head():
    trainer = trainer_for({})
    trainer.model.out_table.data[0, 0] = np.inf
    with pytest.raises(DivergenceError) as info:
        trainer.step()
    assert str(info.value) == ("training diverged at step 0: __matmul__ produced a non-finite "
                               "value (NaN or Inf) in the forward pass at head")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checked_loss_head_names_itself():
    # finite logits 2e308 apart: the log-softmax of the low one is -inf
    logits = Tensor(np.array([[1e308, -1e308]]), requires_grad=True)
    with checked(), pytest.raises(NonFiniteError) as info:
        at_stage("loss")
        cross_entropy(logits, np.array([1]))
    assert str(info.value) == ("cross_entropy produced a non-finite value (NaN or Inf) in the "
                               "forward pass at loss")
