"""Gradient correctness of every autodiff op against local finite differences."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_memory_lab.autodiff import (
    NonFiniteError,
    Tensor,
    at_layer,
    at_stage,
    checked,
    concat,
    no_grad,
)
from sparse_memory_lab.nn import MemoryTable, apply_expert

from oracles import log_softmax, normalize


def numeric_grad(fn, arrays, index, eps=1e-6):
    """Central differences of fn(arrays) w.r.t. arrays[index], element-wise."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = base[index].reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = fn(base)
        flat[i] = orig - eps
        lm = fn(base)
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * eps)
    return grad


def check_op(build_loss, shapes, seed=0, tol=1e-7):
    """build_loss maps a list of Tensors to a scalar Tensor."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build_loss(tensors)
    loss.backward()

    def scalar_fn(arrs):
        return float(build_loss([Tensor(a) for a in arrs]).data)

    for i, t in enumerate(tensors):
        expected = numeric_grad(scalar_fn, arrays, i)
        got = t.grad if t.grad is not None else np.zeros(shapes[i])
        np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)


def test_add_broadcast_grad():
    check_op(lambda ts: ((ts[0] + ts[1]) * (ts[0] + ts[1])).sum(), [(3, 4), (4,)])


def test_mul_broadcast_grad():
    check_op(lambda ts: (ts[0] * ts[1]).sum(), [(3, 4), (4,)])
    check_op(lambda ts: (ts[0] * ts[1]).sum(), [(5,), (1,)])


def test_sub_neg_grad():
    check_op(lambda ts: ((ts[0] - ts[1]) * (ts[0] - ts[1])).sum(), [(4,), (4,)])
    check_op(lambda ts: (-ts[0]).sum(), [(3, 2)])


def test_matmul_grad_all_arities():
    check_op(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4, 2)])
    check_op(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4,)])
    check_op(lambda ts: (ts[0] @ ts[1]).sum(), [(4,), (4, 2)])
    check_op(lambda ts: ts[0] @ ts[1], [(4,), (4,)])
    square = lambda ts: ((ts[0] @ ts[1]) * (ts[0] @ ts[1])).sum()  # noqa: E731
    check_op(square, [(2, 3, 4), (4, 5)])
    check_op(square, [(2, 3, 4), (2, 4, 5)])
    check_op(square, [(1, 3, 4), (2, 4, 5)])  # broadcast leading axis
    check_op(square, [(2, 1, 3, 4), (3, 4, 5)])
    check_op(square, [(2, 3, 4), (4,)])
    check_op(square, [(4,), (2, 4, 5)])


expert_dims = st.fixed_dictionaries({
    "rows": st.integers(1, 3), "k": st.integers(1, 3), "d": st.integers(1, 4),
    "r": st.integers(1, 3), "seed": st.integers(0, 2 ** 32 - 1)})


@settings(max_examples=30, deadline=None)
@given(expert_dims)
def test_matmul_grad_on_the_expert_broadcast_shapes(dims):
    # the two stacked products of nn.apply_expert: (rows, 1, 1, d) @ (rows, k, d, r)
    # broadcasts over k; (rows, k, d, r) @ (rows, k, r, 1) does not broadcast
    rows, k, d, r = dims["rows"], dims["k"], dims["d"], dims["r"]
    square = lambda ts: ((ts[0] @ ts[1]) * (ts[0] @ ts[1])).sum()  # noqa: E731
    check_op(square, [(rows, 1, 1, d), (rows, k, d, r)], seed=dims["seed"])
    check_op(square, [(rows, k, d, r), (rows, k, r, 1)], seed=dims["seed"])


def test_transpose_reshape_grad():
    check_op(lambda ts: (ts[0].swapaxes(-2, -1) @ ts[0]).sum(), [(3, 4)])
    check_op(lambda ts: (ts[0].reshape(6) * ts[0].reshape(6)).sum(), [(2, 3)])


def test_swapaxes_grad():
    check_op(lambda ts: (ts[0].swapaxes(0, 2) * ts[1]).sum(), [(2, 3, 4), (4, 3, 2)])
    check_op(lambda ts: (ts[0].swapaxes(-2, -1) @ ts[0]).sum(), [(2, 3, 4)])
    check_op(lambda ts: (ts[0].swapaxes(-3, -2) * ts[1]).sum(), [(2, 3, 4), (3, 2, 4)])


def test_narrow_grad():
    check_op(lambda ts: (ts[0].narrow(0, 1, 2) * ts[0].narrow(0, 0, 2)).sum(), [(4, 3)])
    check_op(lambda ts: (ts[0].narrow(1, 2, 2)).sum(), [(3, 5)])


def test_take_grad_with_duplicates():
    idx = [0, 2, 2, 1]
    check_op(lambda ts: (ts[0].take(idx) * ts[0].take(idx)).sum(), [(3, 4)])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3),
       st.lists(st.integers(0, 3), min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
def test_take_grad_with_duplicate_indices_property(n, width, picks, seed):
    idx = [p % n for p in picks] + [picks[0] % n]  # at least one duplicate
    check_op(lambda ts: (ts[0].take(idx) * ts[0].take(idx) * ts[1]).sum(),
             [(n, width), (len(idx), width)], seed=seed)


def test_take_of_a_0d_index_is_a_copy():
    table = np.arange(6.0).reshape(3, 2)
    out = Tensor(table).take(np.intp(1))
    np.testing.assert_array_equal(out.data, [2.0, 3.0])
    assert not np.shares_memory(out.data, table)


@pytest.mark.parametrize("idx, bad", [([-1, 0], -1), ([3], 3), ([[0, 2], [1, 7]], 7)])
def test_take_rejects_an_index_outside_the_rows(idx, bad):
    t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with pytest.raises(ValueError, match=rf"take index {bad} outside \[0, 3\)"):
        t.take(idx)


def test_expert_node_records_gradient_rows_until_a_dense_contribution():
    t = Tensor(np.ones((4, 2)), requires_grad=True)
    table, x = MemoryTable(b=t), Tensor(np.zeros((3, 2)))
    (apply_expert(x, table, [[2], [0], [2]]) * 0.0).sum().backward()
    np.testing.assert_array_equal(t.grad_rows, [True, False, True, False])
    t.zero_grad()
    assert t.grad is None and t.grad_rows is None
    (apply_expert(x, table, [[1], [1], [1]]).sum() + t.sum()).backward()
    assert t.grad is not None and t.grad_rows is None
    t.zero_grad()
    t.take([1]).sum().backward()  # a plain gather names no rows
    assert t.grad is not None and t.grad_rows is None


def test_relu_grad():
    check_op(lambda ts: ts[0].relu().sum(), [(4, 3)], seed=3)


def test_sum_mean_axis_grad():
    check_op(lambda ts: (ts[0].sum(axis=0) * ts[0].sum(axis=0)).sum(), [(3, 4)])
    check_op(lambda ts: (ts[0].sum(axis=1, keepdims=True) * ts[0]).sum(), [(3, 4)])
    check_op(lambda ts: (ts[0].mean(axis=1) * ts[0].mean(axis=1)).sum(), [(3, 4)])


@pytest.mark.parametrize("axis, keepdims", [(None, False), (None, True), (0, False),
                                           (1, True)])
def test_sum_gradient_is_a_c_contiguous_copy(axis, keepdims):
    x = Tensor(np.random.default_rng(2).standard_normal((3, 4)), requires_grad=True)
    y = x.sum(axis=axis, keepdims=keepdims)
    (y * y).sum().backward()
    assert x.grad.flags.c_contiguous and x.grad.flags.writeable
    assert not np.shares_memory(x.grad, y.grad)
    expected = np.broadcast_to(2.0 * x.data.sum(axis=axis, keepdims=True), x.shape)
    np.testing.assert_array_equal(x.grad, expected)


def test_softmax_matches_manual_and_grad():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 5))
    p = Tensor(x).softmax(axis=1).data
    manual = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p, manual, rtol=1e-12)
    check_op(lambda ts: (ts[0].softmax(axis=1) * ts[0].softmax(axis=1)).sum(), [(3, 5)])
    check_op(lambda ts: ts[0].softmax(axis=0).narrow(0, 1, 2).sum(), [(4,)])


def test_log_softmax_grad():
    # the loss's pick: entry (0, 1) and (1, 0) of the flattened (2, 4) log-probs
    check_op(lambda ts: log_softmax(ts[0], axis=1).reshape(-1).take([1, 4]).sum(), [(2, 4)])


def test_normalize_grad():
    check_op(lambda ts: (normalize(ts[0]) * normalize(ts[0])).sum(), [(3, 6)])
    check_op(lambda ts: normalize(ts[0]).narrow(1, 0, 2).sum(), [(2, 5)])


def test_concat_grad():
    check_op(lambda ts: (concat([ts[0], ts[1]], axis=1)
                         * concat([ts[1], ts[0]], axis=1)).sum(), [(3, 2), (3, 2)])
    check_op(lambda ts: concat([ts[0], ts[1]], axis=0).sum(), [(2, 3), (1, 3)])


# -- the basic ops on drawn shapes, against central differences ---------------------

shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
op_seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def broadcast_pairs(draw):
    """A shape and one that broadcasts against it, in either order: a
    trailing part of it (possibly none) with some axes set to 1."""
    shape = draw(shapes)
    tail = shape[len(shape) - draw(st.integers(0, len(shape))):]
    other = tuple(1 if draw(st.booleans()) else s for s in tail)
    return (shape, other) if draw(st.booleans()) else (other, shape)


@st.composite
def shapes_and_axis(draw):
    shape = draw(shapes)
    return shape, draw(st.integers(-len(shape), len(shape) - 1))


@settings(max_examples=25, deadline=None)
@given(broadcast_pairs(), op_seeds)
def test_add_and_mul_grads_on_broadcast_operands(pair, seed):
    check_op(lambda ts: ((ts[0] + ts[1]) * (ts[0] + ts[1])).sum(), list(pair), seed=seed)
    check_op(lambda ts: (ts[0] * ts[1] * ts[0]).sum(), list(pair), seed=seed)


@settings(max_examples=25, deadline=None)
@given(shapes_and_axis(), st.booleans(), st.booleans(), op_seeds)
def test_sum_and_mean_grads_over_drawn_axes(case, whole, keepdims, seed):
    shape, axis = case
    axis = None if whole else axis
    for reduce in ("sum", "mean"):
        def loss(ts):
            r = getattr(ts[0], reduce)(axis=axis, keepdims=keepdims)
            return (r * r).sum()

        check_op(loss, [shape], seed=seed)


@settings(max_examples=25, deadline=None)
@given(shapes_and_axis(), op_seeds)
def test_softmax_and_log_softmax_grads_over_drawn_axes(case, seed):
    shape, axis = case
    check_op(lambda ts: (ts[0].softmax(axis=axis) * ts[1]).sum(), [shape, shape], seed=seed)
    check_op(lambda ts: (log_softmax(ts[0], axis=axis) * ts[1]).sum(), [shape, shape],
             seed=seed)


@settings(max_examples=25, deadline=None)
@given(shapes_and_axis(), st.data(), op_seeds)
def test_narrow_grad_on_drawn_slices(case, data, seed):
    shape, axis = case
    start = data.draw(st.integers(0, shape[axis] - 1))
    length = data.draw(st.integers(1, shape[axis] - start))
    narrowed = list(shape)
    narrowed[axis] = length
    check_op(lambda ts: (ts[0].narrow(axis, start, length) * ts[1]).sum(),
             [shape, tuple(narrowed)], seed=seed)


@settings(max_examples=25, deadline=None)
@given(shapes_and_axis(), st.lists(st.integers(1, 3), min_size=1, max_size=3), op_seeds)
def test_concat_grad_on_drawn_parts(case, sizes, seed):
    shape, axis = case
    parts = [shape[:axis % len(shape)] + (n,) + shape[axis % len(shape) + 1:] for n in sizes]
    joined = list(shape)
    joined[axis] = sum(sizes)
    check_op(lambda ts: (concat(ts[:-1], axis=axis) * ts[-1]).sum(),
             [*parts, tuple(joined)], seed=seed)


@settings(max_examples=25, deadline=None)
@given(shapes, st.sampled_from(["flat", "reversed", "lead-1"]), op_seeds)
def test_reshape_grad_on_drawn_shapes(shape, form, seed):
    new = {"flat": (-1,), "reversed": shape[::-1], "lead-1": (1, *shape)}[form]
    target = np.empty(shape).reshape(new).shape
    check_op(lambda ts: (ts[0].reshape(*new) * ts[1]).sum(), [shape, target], seed=seed)


@settings(max_examples=25, deadline=None)
@given(shapes, st.data(), op_seeds)
def test_swapaxes_grad_on_drawn_axes(shape, data, seed):
    axes = st.integers(-len(shape), len(shape) - 1)
    a1, a2 = data.draw(axes), data.draw(axes)
    target = np.empty(shape).swapaxes(a1, a2).shape
    check_op(lambda ts: (ts[0].swapaxes(a1, a2) * ts[1]).sum(), [shape, target], seed=seed)


def test_shared_subgraph_accumulates_once_per_path():
    a = Tensor(np.array([2.0]), requires_grad=True)
    b = a * 3.0
    loss = (b * b).sum()  # loss = 9 a^2, dloss/da = 18 a = 36
    loss.backward()
    np.testing.assert_allclose(a.grad, [36.0])


def test_nonfinite_rejected_at_construction():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.inf]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_op_result_names_the_op():
    big = Tensor(np.array([1000.0]), requires_grad=True)
    with checked(), pytest.raises(NonFiniteError, match="^__mul__ produced a non-finite value"):
        big * 1e308
    with checked(), pytest.raises(NonFiniteError, match="^__matmul__ produced"):
        Tensor(np.full((2, 2), 1e200)) @ Tensor(np.full((2, 2), 1e200))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_op_result_outside_checked_mode_is_returned():
    big = Tensor(np.array([1000.0]), requires_grad=True)
    out = big * 1e308
    assert np.isinf(out.data).all() and out.requires_grad
    prod = Tensor(np.full((2, 2), 1e200)) @ Tensor(np.full((2, 2), 1e200))
    assert np.isinf(prod.data).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checked_mode_names_the_pass_and_the_stage():
    x = Tensor(np.array([400.0, 1.0]), requires_grad=True)
    with checked():
        at_layer(2)
        at_stage("ffn")
        with pytest.raises(NonFiniteError, match=r"^__mul__ produced a non-finite value "
                           r"\(NaN or Inf\) in the forward pass at layer 2 ffn$") as info:
            x * 1e308
    assert info.value.pass_ == "forward"
    # the forward's entry 0 is 1e-320 * 1e300 * 1e300 = 1e280, finite, but its
    # gradient is 1e300 * 1e300, which overflows
    tiny = Tensor(np.array([1e-320, 1.0]), requires_grad=True)
    scale = np.array([1e300, 2.0])

    def loss_fn():
        return (tiny * scale * np.array([1e300, 1.0])).sum()

    with checked():
        at_stage("loss")
        loss = loss_fn()
        assert np.isfinite(loss.data)
        with pytest.raises(NonFiniteError, match=r"^backward of __mul__ produced a "
                           r"non-finite value \(NaN or Inf\) in the backward pass at loss$") \
                as info:
            loss.backward()
    assert info.value.pass_ == "backward"
    # outside checked mode the same sweep finishes and leaves the Inf in place
    tiny.zero_grad()
    loss_fn().backward()
    assert np.isinf(tiny.grad[0]) and tiny.grad[1] == 2.0


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_grad_not_tracked_without_requires_grad():
    a = Tensor(np.ones(3))
    b = a * 2.0
    assert not b.requires_grad and b._parents == ()


def test_no_grad_results_record_no_graph():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with no_grad():
        outs = [a * 2.0, a @ a.swapaxes(-2, -1), a.take([1, 1]), a.reshape(-1),
                log_softmax(a, axis=-1), concat([a, a], axis=0), a.sum()]
    for out in outs:
        assert not out.requires_grad and out._parents == () and out._backward is None
    assert (a * 2.0).requires_grad  # the mode ends with the scope


def test_no_grad_nests_and_is_restored_after_an_exception():
    a = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        with no_grad():
            assert not (a + a).requires_grad
        assert not (a + a).requires_grad
    assert (a + a).requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside the scope")
    assert (a + a).requires_grad


def test_no_grad_is_per_thread():
    # thread A holds no_grad() while thread B builds an op; B keeps its graph
    a = Tensor(np.ones(3), requires_grad=True)
    inside, built = threading.Barrier(2, timeout=10), threading.Barrier(2, timeout=10)
    results = {}

    def hold():
        with no_grad():
            inside.wait()
            built.wait()
            results["a"] = a * 2.0

    def build():
        inside.wait()
        results["b"] = a * 2.0
        built.wait()

    threads = [threading.Thread(target=hold), threading.Thread(target=build)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert results["b"].requires_grad and results["b"]._parents[0] is a
    assert not results["a"].requires_grad


def test_backward_without_a_graph_raises():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        loss = (a * a).sum()
    with pytest.raises(ValueError, match="records no graph"):
        loss.backward()
    with pytest.raises(ValueError, match="records no graph"):
        (Tensor(np.ones(3)) * 2.0).sum().backward()
    assert a.grad is None


@pytest.mark.parametrize("table_shape, idx", [
    ((5,), [3, 0, 3, 4, 3, 3, 0, 3, 3]),
    ((6, 4), [[2, 5, 2], [0, 2, 5]]),
    ((7, 3, 2), [6, 1, 6, 6, 0, 1]),
], ids=["1d", "2d", "3d"])
def test_take_backward_equals_add_at_bitwise(table_shape, idx):
    rng = np.random.default_rng(3)
    t = Tensor(rng.standard_normal(table_shape), requires_grad=True)
    idx = np.asarray(idx)
    # magnitudes spread over 16 decades, so another summation order shows
    shape = idx.shape + table_shape[1:]
    w = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    (t.take(idx) * w).sum().backward()
    expected = np.zeros(table_shape)
    np.add.at(expected, idx, w)
    assert t.grad.tobytes() == expected.tobytes()


def test_first_gradient_is_a_c_contiguous_copy():
    t = Tensor(np.zeros((3, 4)), requires_grad=True)
    w = np.random.default_rng(5).standard_normal((4, 3))
    (t.swapaxes(0, 1) * w).sum().backward()  # hands t a transposed view
    assert t.grad.flags.c_contiguous
    np.testing.assert_array_equal(t.grad, w.T)
    g = np.full((3, 4), -0.0)
    g[1] = 2.0
    u = Tensor(np.zeros((3, 4)), requires_grad=True)
    u._accumulate(g)
    assert u.grad.tobytes() == (np.zeros((3, 4)) + g).tobytes()  # -0.0 became 0.0
    g[0, 0] = 5.0
    assert u.grad[0, 0] == 0.0  # a copy, not an alias
