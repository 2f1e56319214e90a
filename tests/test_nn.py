"""Expert and transformer-block behavior against hand-rolled numpy oracles."""

import math

import numpy as np
import pytest

from sparse_memory_lab.autodiff import Tensor
from sparse_memory_lab.nn import (
    MemoryTable,
    TransformerBlockParams,
    apply_expert,
    finite_diff_check,
    lecun_normal_init,
    transformer_block_forward,
)

from oracles import transformer_block_multiplies


# -- apply_expert ------------------------------------------------------------

def test_expert_zero_weights_gives_zero():
    table = MemoryTable(U=Tensor(np.zeros((3, 5, 2)), requires_grad=True),
                        V=Tensor(np.zeros((3, 5, 2)), requires_grad=True))
    out = apply_expert(Tensor(np.ones((2, 5))), table, [[0, 2], [1, 2]])
    np.testing.assert_array_equal(out.data, np.zeros((2, 5)))


def test_constant_expert_returns_b():
    b = np.array([[1.0, -2.0, 0.5], [4.0, 0.0, -1.0]])
    table = MemoryTable(b=Tensor(b, requires_grad=True))
    idx = [[1, 1], [0, 1], [1, 0]]
    out = apply_expert(Tensor(np.full((3, 3), 9.0)), table, idx)
    np.testing.assert_array_equal(out.data, b[idx].sum(axis=1))


def test_expert_matches_hand_rolled_matrix_multiply():
    rng = np.random.default_rng(11)
    n, d, rank, seq = 3, 4, 2, 3
    u = rng.standard_normal((n, d, rank))
    v = rng.standard_normal((n, d, rank))
    x = rng.standard_normal((seq, d))
    idx = [[2, 0], [2, 1], [0, 0]]
    out = apply_expert(Tensor(x), MemoryTable(U=Tensor(u), V=Tensor(v)), idx).data

    # independent elementwise recomputation, summed over each row's slots
    expected = np.zeros((seq, d))
    for t in range(seq):
        for e in idx[t]:
            hidden = np.zeros(rank)
            for r in range(rank):
                for i in range(d):
                    hidden[r] += u[e, i, r] * x[t, i]
                hidden[r] = max(hidden[r], 0.0)
            for i in range(d):
                for r in range(rank):
                    expected[t, i] += v[e, i, r] * hidden[r]
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def broadcast_expert(x: Tensor, table: MemoryTable, idx) -> Tensor:
    """The expert as a broadcast product summed over the contracted axis,
    then over the slots."""
    seq, d = x.shape
    hidden = (table.U.take(idx) * x.reshape(seq, 1, d, 1)).sum(axis=2).relu()
    out = (table.V.take(idx) * hidden.reshape(*idx.shape, 1, table.rank)).sum(axis=3)
    return out.sum(axis=1)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_expert_matches_broadcast_sum_with_gradients(k):
    rng = np.random.default_rng(20 + k)
    n, d, rank, seq = 5, 6, 3, 7
    u = rng.standard_normal((n, d, rank))
    v = rng.standard_normal((n, d, rank))
    x = rng.standard_normal((seq, d))
    idx = rng.integers(1, n, (seq, k))
    idx[1] = 2  # row 1 routes to expert 2 k times
    # row 0 meets only expert 0, whose pre-activations on it are all negative
    idx[0] = 0
    x[0] = np.abs(x[0])
    u[0] = -np.abs(u[0])
    w = rng.standard_normal((seq, d))
    results = []
    for expert in (apply_expert, broadcast_expert):
        xt = Tensor(x, requires_grad=True)
        table = MemoryTable(U=Tensor(u, requires_grad=True), V=Tensor(v, requires_grad=True))
        out = expert(xt, table, idx)
        (out * w).sum().backward()
        results.append((out.data, xt.grad, table.U.grad, table.V.grad))
    assert results[0][0].shape == (seq, d)
    assert not results[0][0][0].any()  # no expert output on the all-negative row
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_expert_dimension_mismatch_raises():
    table = MemoryTable.init(3, 4, 2, seed=0)
    with pytest.raises(ValueError):
        apply_expert(Tensor(np.ones((2, 5))), table, [[0], [1]])
    with pytest.raises(ValueError):
        apply_expert(Tensor(np.ones((2, 4))), table, [[0], [1], [2]])
    with pytest.raises(ValueError):
        apply_expert(Tensor(np.ones((2, 4))), table, [0, 1])
    with pytest.raises(ValueError):
        apply_expert(Tensor(np.ones(4)), table, [[0]])


@pytest.mark.parametrize("rank", [0, 2])
@pytest.mark.parametrize("idx_shape", [(3, 2, 1), (6, 1), (2, 1)],
                         ids=["swapped", "flattened", "short"])
def test_expert_rejects_indices_of_another_leading_shape(rank, idx_shape):
    table = MemoryTable.init(3, 4, rank, seed=0)
    with pytest.raises(ValueError, match="same leading shape"):
        apply_expert(Tensor(np.ones((2, 3, 4))), table, np.zeros(idx_shape, dtype=int))


@pytest.mark.parametrize("rank", [0, 3])
@pytest.mark.parametrize("weighted", [False, True])
def test_expert_on_a_batch_equals_the_flat_call_reshaped(rank, weighted):
    rng = np.random.default_rng(8 + rank)
    B, seq, d, n, k = 2, 3, 4, 5, 2
    x = rng.standard_normal((B, seq, d))
    idx = rng.integers(0, n, (B, seq, k))
    w = rng.standard_normal(B * seq * k)
    stored = {name: rng.standard_normal(t.shape)
              for name, t in MemoryTable.init(n, d, rank, seed=0).parameters().items()}
    probe = rng.standard_normal((B, seq, d))
    results = []
    for lead in ((B, seq), (B * seq,)):
        xt = Tensor(x.reshape(*lead, d), requires_grad=True)
        table = MemoryTable(**{name: Tensor(a, requires_grad=True) for name, a in stored.items()})
        weights = Tensor(w, requires_grad=True) if weighted else None
        out = apply_expert(xt, table, idx.reshape(*lead, k), weights)
        assert out.shape == (*lead, d)
        (out * probe.reshape(*lead, d)).sum().backward()
        tensors = [xt, *table.parameters().values(), *([weights] if weighted else [])]
        # a constant expert passes x no gradient
        results.append([out.data.tobytes()]
                       + [None if t.grad is None else t.grad.tobytes() for t in tensors])
    assert results[0] == results[1]
    assert (results[0][1] is None) == (rank == 0)


@pytest.mark.parametrize("rank", [0, 2])
@pytest.mark.parametrize("bad", [-1, 3])
def test_expert_rejects_index_outside_table(rank, bad):
    # a negative index would wrap to expert n - 1 in a gather
    table = MemoryTable.init(3, 4, rank, seed=0)
    with pytest.raises(ValueError, match=f"routed index {bad} outside table of size 3"):
        apply_expert(Tensor(np.ones((2, 4))), table, [[0], [bad]])


def test_expert_positive_homogeneity_in_v():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n, d, r = 2, 6, 3
        u = rng.standard_normal((n, d, r))
        v = rng.standard_normal((n, d, r))
        x = rng.standard_normal((4, d))
        c = rng.uniform(0.0, 4.0)
        idx = [[0, 1], [1, 1], [0, 0], [1, 0]]
        base = apply_expert(Tensor(x), MemoryTable(U=Tensor(u), V=Tensor(v)), idx).data
        scaled = apply_expert(Tensor(x), MemoryTable(U=Tensor(u), V=Tensor(c * v)), idx).data
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12, atol=1e-12)


def test_memory_table_init_stacks_per_expert_draws():
    n, d, rank = 3, 5, 2
    table = MemoryTable.init(n, d, rank, seed=9)
    assert (table.n, table.d_in, table.rank) == (n, d, rank)
    for i, s in enumerate(np.random.SeedSequence(9).spawn(n)):
        s_u, s_v = s.spawn(2)
        np.testing.assert_array_equal(table.U.data[i],
                                      lecun_normal_init((d, rank), s_u, fan_in=d).data)
        np.testing.assert_array_equal(table.V.data[i],
                                      lecun_normal_init((d, rank), s_v, fan_in=rank).data)
    zeros = MemoryTable.init(n, d, 0, seed=9)
    assert zeros.rank == 0 and set(zeros.parameters()) == {"b"}
    np.testing.assert_array_equal(zeros.b.data, np.zeros((n, d)))


# -- transformer block oracle ---------------------------------------------------

def reference_block(x, p):
    """Step-by-step reimplementation with explicit loops and manual softmax;
    position t attends to positions 0..t."""
    def layernorm(row, scale, bias):
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        return (row - mu) / np.sqrt(var + 1e-6) * scale + bias

    seq, d = x.shape
    h = p.n_heads
    dh = d // h
    ln1 = np.stack([layernorm(x[t], p.ln1_scale.data, p.ln1_bias.data) for t in range(seq)])
    q, k, v = ln1 @ p.wq.data, ln1 @ p.wk.data, ln1 @ p.wv.data
    attended = np.zeros((seq, d))
    for head in range(h):
        sl = slice(head * dh, (head + 1) * dh)
        for t in range(seq):
            scores = np.array([q[t, sl] @ k[s, sl] / math.sqrt(dh) for s in range(seq)])
            scores = np.where(np.arange(seq) <= t, scores, -1e30)
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            attended[t, sl] = sum(w[s] * v[s, sl] for s in range(seq))
    x2 = x + attended @ p.wo.data
    ln2 = np.stack([layernorm(x2[t], p.ln2_scale.data, p.ln2_bias.data) for t in range(seq)])
    ffn = np.maximum(ln2 @ p.w1.data, 0.0) @ p.w2.data
    return x2 + ffn


def test_block_zero_weights_is_residual_passthrough():
    d = 6
    p = TransformerBlockParams.init(d, 2, seed=0)
    for w in (p.wq, p.wk, p.wv, p.wo, p.w1, p.w2):
        w.data[:] = 0.0
    x = np.random.default_rng(1).standard_normal((4, d))
    out = transformer_block_forward(Tensor(x), p)
    np.testing.assert_allclose(out.data, x, atol=1e-12)


def test_block_matches_reference():
    p = TransformerBlockParams.init(8, 2, seed=9)
    x = np.random.default_rng(4).standard_normal((3, 8))
    got = transformer_block_forward(Tensor(x), p).data
    np.testing.assert_allclose(got, reference_block(x, p), rtol=1e-10, atol=1e-10)


def test_block_causal_future_positions_do_not_leak():
    p = TransformerBlockParams.init(8, 2, seed=6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 8))
    base = transformer_block_forward(Tensor(x), p).data
    x2 = x.copy()
    x2[3:] += rng.standard_normal((2, 8))
    out = transformer_block_forward(Tensor(x2), p).data
    np.testing.assert_allclose(out[:3], base[:3], atol=1e-12)
    assert np.abs(out[3:] - base[3:]).max() > 1e-6


def test_block_width_mismatch_raises():
    p = TransformerBlockParams.init(8, 2, seed=0)
    with pytest.raises(ValueError, match=r"block expects \(\.\.\., seq, 8\), got \(3, 6\)"):
        transformer_block_forward(Tensor(np.zeros((3, 6))), p)


@pytest.mark.parametrize("n_heads", [0, -2])
def test_block_params_reject_fewer_than_one_head(n_heads):
    p = TransformerBlockParams.init(8, 2, seed=0).parameters()
    with pytest.raises(ValueError, match="n_heads must be at least 1"):
        TransformerBlockParams(**p, n_heads=n_heads)


@pytest.mark.parametrize("n_heads", [3, 5, 16])
def test_block_params_reject_heads_that_do_not_divide_d(n_heads):
    p = TransformerBlockParams.init(8, 2, seed=0).parameters()
    with pytest.raises(ValueError, match=rf"n_heads={n_heads} must divide d=8"):
        TransformerBlockParams(**p, n_heads=n_heads)


@pytest.mark.parametrize("shape", [(8,), ()])
def test_block_rejects_input_without_a_sequence_axis(shape):
    p = TransformerBlockParams.init(8, 2, seed=0)
    with pytest.raises(ValueError, match=r"block expects \(\.\.\., seq, 8\)"):
        transformer_block_forward(Tensor(np.zeros(shape)), p)


@pytest.mark.parametrize("name", ["ln1_scale", "ln1_bias", "ln2_scale", "ln2_bias"])
@pytest.mark.parametrize("shape", [(1,), (4,), (1, 8), ()])
def test_block_params_reject_layer_norm_vectors_not_of_width_d(name, shape):
    p = TransformerBlockParams.init(8, 2, seed=0).parameters()
    p[name] = Tensor(np.ones(shape), requires_grad=True)
    with pytest.raises(ValueError, match=rf"{name} must be \(8,\)"):
        TransformerBlockParams(**p, n_heads=2)


def test_block_multiply_count():
    assert transformer_block_multiplies(8, 4) == 4 * 64 + 2 * 4 * 8 + 2 * 8 * 32


# -- initializer -----------------------------------------------------------------

def test_lecun_init_variance_and_determinism():
    t = lecun_normal_init((1000, 1000), seed=42, fan_in=1000)
    var = t.data.var()
    assert abs(var - 1e-3) < 0.05e-3
    t2 = lecun_normal_init((1000, 1000), seed=42, fan_in=1000)
    np.testing.assert_array_equal(t.data, t2.data)
    t3 = lecun_normal_init((1, 2000), seed=1, fan_in=1)
    assert abs(t3.data.var() - 1.0) < 0.1


def test_lecun_init_rejects_empty_shape():
    with pytest.raises(ValueError):
        lecun_normal_init((), seed=0, fan_in=1)
    with pytest.raises(ValueError):
        lecun_normal_init((0, 3), seed=0, fan_in=1)


# -- finite-difference checker ------------------------------------------------------

def test_finite_diff_quadratic_is_machine_exact():
    x = Tensor(np.random.default_rng(0).standard_normal(6), requires_grad=True)
    report = finite_diff_check(lambda: (x * x).sum(), {"x": x}, epsilon=1e-5)
    assert report.max_rel_error < 1e-8
    assert report.passed


def test_finite_diff_constant_loss_is_zero_error():
    x = Tensor(np.ones(4), requires_grad=True)
    report = finite_diff_check(lambda: (x - x).sum(), {"x": x})
    assert report.max_rel_error == 0.0


def test_finite_diff_block_params():
    p = TransformerBlockParams.init(8, 2, seed=13)
    x = np.random.default_rng(3).standard_normal((3, 8))

    def loss_fn():
        out = transformer_block_forward(Tensor(x), p)
        return (out * out).sum()

    report = finite_diff_check(loss_fn, p.parameters(), epsilon=1e-5)
    assert report.passed, report.per_param


def test_finite_diff_detects_wrong_gradient():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([3.0, 4.0]))  # no grad tracked: analytic grad will be 0

    def loss_fn():
        return (x * Tensor(y.data) + y * y).sum()

    # analytic grad exists for x only; pretend y is trainable -> mismatch
    report = finite_diff_check(loss_fn, {"y": y}, epsilon=1e-5)
    assert not report.passed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_diff_fails_when_a_perturbed_loss_overflows():
    # the loss is finite at x = 1.7, but at x + epsilon it overflows to inf, so
    # x's central difference is inf and its relative error NaN; y is unused
    # (error 0), so the NaN is not the first error the report sees
    y = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    x = Tensor(np.array([1.7]), requires_grad=True)
    report = finite_diff_check(lambda: (x * 1e308).sum(), {"y": y, "x": x}, epsilon=0.1)
    assert report.per_param["y"] == 0.0
    assert np.isnan(report.per_param["x"]) and np.isnan(report.max_rel_error)
    assert not report.passed


@pytest.mark.parametrize("kwargs, message", [
    ({"epsilon": 0.0}, "epsilon must be positive"),
    ({"epsilon": -1e-5}, "epsilon must be positive"),
    ({"epsilon": float("nan")}, "epsilon must be positive"),
    ({"epsilon": float("inf")}, "epsilon must be finite"),
    ({"tolerance": 0.0}, "tolerance must be positive"),
    ({"tolerance": float("nan")}, "tolerance must be positive"),
    ({"tolerance": float("inf")}, "tolerance must be finite"),
])
def test_finite_diff_rejects_bad_epsilon_and_tolerance(kwargs, message):
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError, match=message):
        finite_diff_check(lambda: (x * x).sum(), {"x": x}, **kwargs)
    assert x.grad is None  # rejected before any loss is built
