"""Gradient correctness of every autodiff op against local finite differences."""

import numpy as np
import pytest

from sparse_memory_lab.autodiff import NonFiniteError, Tensor, concat


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


def test_transpose_reshape_grad():
    check_op(lambda ts: (ts[0].T @ ts[0]).sum(), [(3, 4)])
    check_op(lambda ts: (ts[0].reshape(6) * ts[0].reshape(6)).sum(), [(2, 3)])


def test_swapaxes_grad():
    check_op(lambda ts: (ts[0].swapaxes(0, 2) * ts[1]).sum(), [(2, 3, 4), (4, 3, 2)])
    check_op(lambda ts: (ts[0].T @ ts[0]).sum(), [(2, 3, 4)])
    check_op(lambda ts: (ts[0].swapaxes(-3, -2) * ts[1]).sum(), [(2, 3, 4), (3, 2, 4)])


def test_narrow_grad():
    check_op(lambda ts: (ts[0].narrow(0, 1, 2) * ts[0].narrow(0, 0, 2)).sum(), [(4, 3)])
    check_op(lambda ts: (ts[0].narrow(1, 2, 2)).sum(), [(3, 5)])


def test_take_grad_with_duplicates():
    idx = [0, 2, 2, 1]
    check_op(lambda ts: (ts[0].take(idx) * ts[0].take(idx)).sum(), [(3, 4)])


def test_take_records_gradient_rows_until_a_dense_contribution():
    t = Tensor(np.ones((4, 2)), requires_grad=True)
    (t.take([2, 0, 2]) * 0.0).sum().backward()
    np.testing.assert_array_equal(t.grad_rows, [True, False, True, False])
    t.zero_grad()
    assert t.grad is None and t.grad_rows is None
    (t.take([1]).sum() + t.sum()).backward()
    assert t.grad is not None and t.grad_rows is None


def test_gather_cols_grad():
    cols = [1, 0, 2]
    check_op(lambda ts: (ts[0].gather_cols(cols) * ts[0].gather_cols(cols)).sum(), [(3, 4)])


def test_relu_exp_log_grad():
    check_op(lambda ts: ts[0].relu().sum(), [(4, 3)], seed=3)
    check_op(lambda ts: ts[0].exp().sum(), [(4,)])
    check_op(lambda ts: (ts[0] * ts[0] + 1.0).log().sum(), [(4,)])


def test_sum_mean_axis_grad():
    check_op(lambda ts: (ts[0].sum(axis=0) * ts[0].sum(axis=0)).sum(), [(3, 4)])
    check_op(lambda ts: (ts[0].sum(axis=1, keepdims=True) * ts[0]).sum(), [(3, 4)])
    check_op(lambda ts: (ts[0].mean(axis=1) * ts[0].mean(axis=1)).sum(), [(3, 4)])


def test_softmax_matches_manual_and_grad():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 5))
    p = Tensor(x).softmax(axis=1).data
    manual = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p, manual, rtol=1e-12)
    check_op(lambda ts: (ts[0].softmax(axis=1) * ts[0].softmax(axis=1)).sum(), [(3, 5)])
    check_op(lambda ts: ts[0].softmax(axis=0).narrow(0, 1, 2).sum(), [(4,)])


def test_log_softmax_grad():
    check_op(lambda ts: ts[0].log_softmax(axis=1).gather_cols([1, 0]).sum(), [(2, 4)])


def test_normalize_grad():
    check_op(lambda ts: (ts[0].normalize() * ts[0].normalize()).sum(), [(3, 6)])
    check_op(lambda ts: ts[0].normalize().narrow(1, 0, 2).sum(), [(2, 5)])


def test_concat_grad():
    check_op(lambda ts: (concat([ts[0], ts[1]], axis=1)
                         * concat([ts[1], ts[0]], axis=1)).sum(), [(3, 2), (3, 2)])
    check_op(lambda ts: concat([ts[0], ts[1]], axis=0).sum(), [(2, 3), (1, 3)])


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
    with pytest.raises(NonFiniteError, match="^exp produced a non-finite value"):
        big.exp()
    with pytest.raises(NonFiniteError, match="^__matmul__ produced"):
        Tensor(np.full((2, 2), 1e200)) @ Tensor(np.full((2, 2), 1e200))


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_grad_not_tracked_without_requires_grad():
    a = Tensor(np.ones(3))
    b = a * 2.0
    assert not b.requires_grad and b._parents == ()
