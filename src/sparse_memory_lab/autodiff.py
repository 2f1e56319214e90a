"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Only the operations the layers in this package need are implemented: no
division, no constant minus a tensor, no views and no in-place graph
surgery. Matmul follows np.matmul, so a whole batch of sequences, or of
attention heads, is one node; the loss head `cross_entropy` is a fused op,
one node with a hand-written backward, and so are nn's transformer block and
routed experts and altup's predict-and-correct step. A tensor built by a
caller is validated to be finite; op results are not scanned, so a training
step or an eval pass checks its outputs once. Inside `checked()` every op
result and every backward contribution is scanned, and the first non-finite
one raises a `NonFiniteError` that names the op, the pass and the layer
stage set by `at_layer`/`at_stage` (a fused node that spans stages scans its
own parts through `scanner`); callers replay a failed step there. Inside
`no_grad()` ops record no graph, so a forward-only pass frees each
intermediate as soon as the next op has used it.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

_NORM_EPS = 1e-6  # _normalize's variance floor


class NonFiniteError(ValueError):
    """Raised when a tensor would contain NaN or Inf; `pass_` is "forward" or
    "backward" when checked mode found it in an op."""

    pass_: str | None = None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce grad back to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _row_sums(g: np.ndarray, idx: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The `shape` array whose row i sums, as add.at does, each g[p] with idx[p] == i."""
    width = math.prod(shape[1:])
    flat = (idx[..., None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=g.reshape(-1), minlength=shape[0] * width).reshape(shape)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """The gradient at the input of a softmax with output p and output gradient g."""
    inner = (g * p).sum(axis=axis, keepdims=True)
    return p * (g - inner)


def _log_softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _log_softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """The gradient at the input of a log-softmax with output out and output gradient g."""
    return g - np.exp(out) * g.sum(axis=axis, keepdims=True)


# the last-axis means below are np.mean's own sum and division, without its
# Python wrapper

def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x rescaled to zero mean and unit variance along the last axis, and the
    1/std it was multiplied by."""
    n = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    return xc * inv, inv


def _normalize_grad(g: np.ndarray, y: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The gradient at the input of _normalize, whose output is y."""
    n = g.shape[-1]
    gm = np.add.reduce(g, axis=-1, keepdims=True) / n
    gym = np.add.reduce(g * y, axis=-1, keepdims=True) / n
    return inv * (g - gm - y * gym)


class _Mode(threading.local):
    # per thread, so a forward-only pass in one worker thread never switches
    # off the graph another thread is building
    grad = True
    checked = False
    # checked mode only: the layer and stage of the ops being built, and the
    # label each op result was built under, by id
    layer: int | None = None
    stage = ""
    labels: dict[int, str] = {}


_mode = _Mode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Ops run inside record no parents or backward closure, in this thread."""
    prev = _mode.grad
    _mode.grad = False
    try:
        yield
    finally:
        _mode.grad = prev


@contextmanager
def checked() -> Iterator[None]:
    """Ops run inside scan their results, and backward sweeps every
    contribution, in this thread; the first non-finite value raises."""
    prev = _mode.checked, _mode.layer, _mode.stage, _mode.labels
    _mode.checked, _mode.layer, _mode.stage, _mode.labels = True, None, "", {}
    try:
        yield
    finally:
        _mode.checked, _mode.layer, _mode.stage, _mode.labels = prev


def at_layer(index: int | None) -> None:
    """Name the layer of the ops that follow (None: outside the stack), for
    the diagnostics of checked mode; a no-op outside it."""
    if _mode.checked:
        _mode.layer = index


def at_stage(name: str) -> None:
    """Name the stage of the ops that follow, as at_layer."""
    if _mode.checked:
        _mode.stage = name


def _label() -> str:
    if _mode.layer is None or not _mode.stage:
        return _mode.stage
    return f"layer {_mode.layer} {_mode.stage}"


def _op_name(backward: Callable) -> str:
    return backward.__qualname__.split(".<locals>")[0].rsplit(".", 1)[-1]


def _non_finite(what: str, pass_: str, label: str) -> NonFiniteError:
    err = NonFiniteError(f"{what} produced a non-finite value (NaN or Inf) in the {pass_} "
                         f"pass" + (f" at {label}" if label else ""))
    err.pass_ = pass_
    return err


def scanner(op: str) -> Callable[..., None] | None:
    """None outside checked(). Inside it, scan(pass_, stage, *arrays) for a
    fused node `op` that spans stages: it raises the NonFiniteError naming
    op, the pass and the stage at the current layer when an array (None is
    skipped) holds a non-finite value."""
    if not _mode.checked:
        return None
    layer = _mode.layer

    def scan(pass_: str, stage: str, *arrays: np.ndarray | None) -> None:
        if not all(a is None or np.isfinite(a).all() for a in arrays):
            what = op if pass_ == "forward" else f"backward of {op}"
            raise _non_finite(what, pass_, stage if layer is None else f"layer {layer} {stage}")

    return scan


class Tensor:
    """A node in the computation graph holding a float64 array."""

    __slots__ = ("data", "grad", "grad_rows", "requires_grad", "_parents", "_backward",
                 "_grad_out")

    def __init__(self, data, requires_grad: bool = False, *, _check: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        if _check and not np.isfinite(self.data).all():
            raise NonFiniteError("tensor values must be finite (got NaN or Inf)")
        self.grad: np.ndarray | None = None
        # where the first gradient contribution is written (a view into a
        # flat gradient vector, see train.FlatParameters), or None for a copy
        self._grad_out: np.ndarray | None = None
        # axis-0 rows that received gradient while every contribution named
        # its rows (nn.apply_expert's to a table do); None once any other came
        self.grad_rows: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: Sequence["Tensor"],
            backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data, _check=False)
        if _mode.checked:
            label = _mode.labels[id(out)] = _label()
            if not np.isfinite(out.data).all():
                raise _non_finite(_op_name(backward), "forward", label)
        if _mode.grad and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None
        self.grad_rows = None

    def _accumulate(self, grad: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Add grad; `rows`, when given, are the only axis-0 rows it touches and go to grad_rows."""
        if self.grad is None:
            # a fresh C-ordered copy (keeping grad's layout, say a transposed
            # view, would change later GEMMs' sums); + 0.0 maps -0.0 to 0.0
            # as a sum into zeros does
            if self._grad_out is None:
                self.grad = np.add(grad, 0.0, order="C")
            else:
                self.grad = np.add(grad, 0.0, out=self._grad_out)
            if rows is not None:
                self.grad_rows = np.zeros(self.data.shape[0], dtype=bool)
        else:
            self.grad += grad
        if rows is None:
            self.grad_rows = None
        elif self.grad_rows is not None:
            self.grad_rows[rows] = True

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node; in checked mode, the first
        contribution that leaves a gradient non-finite raises, naming its op."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that records no graph: it was "
                             "built under no_grad() or from constants only")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        check = _mode.checked
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if check and not all(p.grad is None or np.isfinite(p.grad).all()
                                     for p in node._parents):
                    raise _non_finite(f"backward of {_op_name(node._backward)}", "backward",
                                      _mode.labels.get(id(node), ""))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data
        out_data = np.matmul(a, b)

        def backward(g: np.ndarray) -> None:
            # promote 1-D operands to matrices as np.matmul does, and g with them
            a2 = a[None, :] if a.ndim == 1 else a
            b2 = b[:, None] if b.ndim == 1 else b
            if b.ndim == 1:
                g = np.expand_dims(g, -1)
            if a.ndim == 1:
                g = np.expand_dims(g, -2)
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(b2, -1, -2))
                self._accumulate(_unbroadcast(ga, a2.shape).reshape(a.shape))
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(a2, -1, -2), g)
                other._accumulate(_unbroadcast(gb, b2.shape).reshape(b.shape))

        return Tensor._op(out_data, (self, other), backward)

    # -- shape ops -----------------------------------------------------------

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(np.swapaxes(g, axis1, axis2))

        return Tensor._op(np.swapaxes(self.data, axis1, axis2).copy(), (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        orig = self.data.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(orig))

        return Tensor._op(self.data.reshape(shape), (self,), backward)

    def narrow(self, axis: int, start: int, length: int) -> "Tensor":
        idx: list[slice] = [slice(None)] * self.data.ndim
        idx[axis] = slice(start, start + length)
        sel = tuple(idx)

        def backward(g: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            full[sel] = g
            self._accumulate(full)

        return Tensor._op(self.data[sel].copy(), (self,), backward)

    def take(self, indices) -> "Tensor":
        """Select rows along axis 0 (duplicates allowed); serves embedding
        lookup, and picks single entries from a flattened tensor. Every index
        must lie in [0, rows)."""
        idx = np.asarray(indices, dtype=np.intp)
        bad = idx[(idx < 0) | (idx >= self.shape[0])]
        if bad.size:
            raise ValueError(f"take index {int(bad[0])} outside [0, {self.shape[0]}), "
                             f"the rows of the tensor")

        def backward(g: np.ndarray) -> None:
            self._accumulate(_row_sums(g, idx, self.data.shape))

        # one copy (indexing plus .copy() made two), and never a view of the table
        return Tensor._op(np.take(self.data, idx, axis=0), (self,), backward)

    # -- nonlinearities -------------------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return Tensor._op(np.maximum(self.data, 0.0), (self,), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            # _accumulate makes the one C-ordered copy of the broadcast view
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(gg, self.data.shape))

        return Tensor._op(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- softmax family -----------------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        p = _softmax(self.data, axis)

        def backward(g: np.ndarray) -> None:
            self._accumulate(_softmax_grad(g, p, axis))

        return Tensor._op(p, (self,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an axis; gradient splits back to the inputs."""
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, size in zip(tensors, offsets[:-1], sizes):
            if t.requires_grad:
                idx: list[slice] = [slice(None)] * g.ndim
                idx[axis] = slice(start, start + size)
                t._accumulate(g[tuple(idx)])

    return Tensor._op(out_data, tuple(tensors), backward)


# -- fused-op parts ----------------------------------------------------------------
# The numpy halves of the layer norm and the attention core, which nn's fused
# block is built of: each a forward that returns its output and a function
# from the output gradient to the input gradients.

def _layer_norm(x: np.ndarray, scale: np.ndarray, bias: np.ndarray):
    """normalize(x) * scale + bias, and its gradients function: output
    gradient -> the (x, scale, bias) gradients."""
    y, inv = _normalize(x)

    def grads(g: np.ndarray):
        return (_normalize_grad(g * scale, y, inv), _unbroadcast(g * y, scale.shape),
                _unbroadcast(g, bias.shape))

    return y * scale + bias, grads


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
               mask: np.ndarray | None):
    """Multi-head attention on (..., seq, d) arrays, each head a column group
    of d/n_heads giving softmax(q k^T / sqrt(d/n_heads) + mask) v, with
    `mask` an additive (seq, seq) array or None; and its gradients function
    as _layer_norm's: output gradient -> the (q, k, v) gradients."""
    *lead, seq, d = q.shape
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(t: np.ndarray) -> np.ndarray:
        return np.swapaxes(t.reshape(*lead, seq, n_heads, dh), -3, -2)

    def merge(t: np.ndarray) -> np.ndarray:
        return np.swapaxes(t, -3, -2).reshape(*lead, seq, d)

    # (..., h, seq, dh) C-ordered copies, so the GEMMs see the layouts that
    # the head-split and transpose ops give
    qh, kh, vh = split(q).copy(), split(k).copy(), split(v).copy()
    scores = np.matmul(qh, np.swapaxes(kh, -2, -1).copy()) * scale
    if mask is not None:
        scores = scores + mask
    p = _softmax(scores, -1)
    out = np.swapaxes(np.matmul(p, vh), -3, -2).copy().reshape(*lead, seq, d)

    def grads(g: np.ndarray):
        gh = split(g)
        gv = merge(np.matmul(np.swapaxes(p, -2, -1), gh))
        gs = _softmax_grad(np.matmul(gh, np.swapaxes(vh, -2, -1)), p, -1) * scale
        return merge(np.matmul(gs, kh)), merge(np.matmul(np.swapaxes(gs, -2, -1), qh)), gv

    return out, grads


def _accumulate_each(tensors: Sequence[Tensor], grads: Sequence[np.ndarray]) -> None:
    """Each gradient into its tensor, skipping tensors that take none."""
    for t, g in zip(tensors, grads):
        if t.requires_grad:
            t._accumulate(g)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """The mean over positions of -log softmax(logits)[target], for (..., V)
    logits and integer targets in [0, V) shaped like their leading axes, as
    one node: the numpy forward of the chain log_softmax, a take of each
    target's entry, the mean and the negation, call for call, and that
    chain's backward."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets {targets.shape} must match the leading axes of logits "
                         f"{logits.shape}")
    bad = targets[(targets < 0) | (targets >= logits.shape[-1])]
    if bad.size:
        raise ValueError(f"target {int(bad[0])} outside [0, {logits.shape[-1]}), the logit "
                         f"columns")
    flat = np.arange(targets.size) * logits.shape[-1] + targets.reshape(-1)
    out = _log_softmax(logits.data, -1)
    scale = 1.0 / flat.size

    def backward(g: np.ndarray) -> None:
        # the take's gradient: the negation's and the mean's -g * (1 / count)
        # at each target, zero elsewhere
        full = np.zeros(out.size)
        full[flat] = -g * scale
        logits._accumulate(_log_softmax_grad(full.reshape(out.shape), out, -1))

    loss = -(np.take(out.reshape(-1), flat, axis=0).sum() * scale)
    return Tensor._op(loss, (logits,), backward)
