"""Graph nodes that only the tests' oracles are built of."""

from sparse_memory_lab.autodiff import (
    Tensor,
    _log_softmax,
    _log_softmax_grad,
    _normalize,
    _normalize_grad,
)


def normalize(x: Tensor) -> Tensor:
    """Zero-mean unit-variance rescale along the last axis (the layer norm's
    core) as one node, from the numpy parts the fused block uses."""
    y, inv = _normalize(x.data)

    def backward(g):
        x._accumulate(_normalize_grad(g, y, inv))

    return Tensor._op(y, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along `axis` as one node, from the numpy parts the loss
    head `cross_entropy` uses."""
    out = _log_softmax(x.data, axis)

    def backward(g):
        x._accumulate(_log_softmax_grad(g, out, axis))

    return Tensor._op(out, (x,), backward)
