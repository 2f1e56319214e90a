"""Graph nodes that only the tests' oracles are built of."""

from sparse_memory_lab.autodiff import Tensor, _normalize, _normalize_grad


def normalize(x: Tensor) -> Tensor:
    """Zero-mean unit-variance rescale along the last axis (the layer norm's
    core) as one node, from the numpy parts the fused block uses."""
    y, inv = _normalize(x.data)

    def backward(g):
        x._accumulate(_normalize_grad(g, y, inv))

    return Tensor._op(y, (x,), backward)
