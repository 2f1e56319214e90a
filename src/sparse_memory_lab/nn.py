"""Expert parameterizations, a small pre-layernorm transformer block, and a
finite-difference gradient checker.

Everything here is float64; gradient checks at float32 tolerances are
meaningless, and the whole package inherits that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .autodiff import (
    Tensor,
    _accumulate_each,
    _attention,
    _layer_norm,
    _records,
    _row_sums,
    _unbroadcast,
    index_array,
    no_grad,
    scanner,
)


def as_seedseq(seed) -> np.random.SeedSequence:
    """Accept ints and SeedSequences interchangeably wherever seeds spawn."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def lecun_normal_init(shape: tuple[int, ...], seed, fan_in: int) -> Tensor:
    """Draw a trainable tensor with entries ~ Normal(0, 1/fan_in), fan_in
    being the size of the axis the tensor's product contracts over."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s <= 0 for s in shape):
        raise ValueError(f"lecun_normal_init needs a nonempty shape, got {shape}")
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape) / math.sqrt(fan_in)
    return Tensor(data, requires_grad=True)


@dataclass
class MemoryTable:
    """External table of n partial experts, stacked along axis 0.

    rank >= 1 holds two-layer experts x -> V[i] @ relu(U[i]^T @ x), with U
    and V both (n, d_in, rank); rank 0 holds constant vectors b, (n, d_in),
    added regardless of the input.
    """

    U: Tensor | None = None
    V: Tensor | None = None
    b: Tensor | None = None

    def __post_init__(self) -> None:
        if self.b is not None:
            if self.U is not None or self.V is not None:
                raise ValueError("a memory table holds either U and V or b, not both")
            if self.b.ndim != 2 or self.b.shape[0] < 1:
                raise ValueError(f"constant table must be (n, d_in) with n >= 1, "
                                 f"got {self.b.shape}")
            return
        if self.U is None or self.V is None:
            raise ValueError("a memory table needs both U and V, or b")
        if self.U.shape != self.V.shape:
            raise ValueError(f"U and V must share a shape, got {self.U.shape} vs {self.V.shape}")
        if self.U.ndim != 3 or self.U.shape[0] < 1 or self.U.shape[2] < 1:
            raise ValueError(f"expert stacks must be (n, d_in, rank) with n, rank >= 1, "
                             f"got {self.U.shape}")

    @property
    def n(self) -> int:
        return (self.b if self.b is not None else self.U).shape[0]

    @property
    def d_in(self) -> int:
        return (self.b if self.b is not None else self.U).shape[1]

    @property
    def rank(self) -> int:
        return 0 if self.b is not None else self.U.shape[2]

    @classmethod
    def init(cls, n: int, d_in: int, rank: int, seed) -> "MemoryTable":
        """rank >= 1 draws expert i's U and V from the i-th spawned seed; rank 0 is zeros."""
        if rank == 0:
            return cls(b=Tensor(np.zeros((n, d_in)), requires_grad=True))
        us, vs = [], []
        for s in as_seedseq(seed).spawn(n):
            s_u, s_v = s.spawn(2)
            us.append(lecun_normal_init((d_in, rank), s_u, fan_in=d_in).data)
            vs.append(lecun_normal_init((d_in, rank), s_v, fan_in=rank).data)
        return cls(U=Tensor(np.stack(us), requires_grad=True),
                   V=Tensor(np.stack(vs), requires_grad=True))

    def parameters(self) -> dict[str, Tensor]:
        if self.b is not None:
            return {"b": self.b}
        return {"U": self.U, "V": self.V}


def apply_expert(x: Tensor, table: MemoryTable, indices, weights: Tensor | None = None) -> Tensor:
    """The memory term of x (..., d_in), shaped like x: row t's sum over its
    slots j of expert indices[t, j] evaluated on it, times weights[t, j] when
    `weights` (one entry per index, row-major) is given; `indices` is (..., k).

    Either rank is one graph node, which records the table rows it routed to
    (Tensor.grad_rows). It runs the numpy calls of the chain b.take (rank 0)
    or U.take, matmul, relu, V.take, matmul, then the weighting and the slot
    sum, so its values and the gradients of x, the weights and b are that
    chain's bit for bit. The U and V gradients group the (t, j) pairs by
    expert and run one (d_in, m) @ (m, rank) product per used expert,
    zero-padded to the largest load m; only their summation order differs.
    """
    idx = index_array(indices, table.n, "routed indices",
                      "routed index {} outside table of size {n}")
    if x.shape[-1:] != (table.d_in,) or idx.ndim != x.ndim or idx.shape[:-1] != x.shape[:-1]:
        raise ValueError(f"experts expect (..., {table.d_in}) rows and (..., k) indices "
                         f"with the same leading shape, got {x.shape} and {idx.shape}")
    b, U, V = table.b, table.U, table.V
    seq, d, k, r = math.prod(x.shape[:-1]), table.d_in, idx.shape[-1], table.rank
    idx = idx.reshape(seq, k)
    if b is not None:
        out = np.take(b.data, idx, axis=0)
    else:
        # (1, d_in) @ U_j, then V_j @ (rank, 1), one small GEMM per (t, j)
        u = np.take(U.data, idx, axis=0)
        pre = np.matmul(x.data.reshape(seq, 1, 1, d), u)
        if not x.requires_grad:
            u = None  # only x's gradient reads it; an eval pass frees it before the V gather
        hidden = np.maximum(pre, 0.0)
        v = np.take(V.data, idx, axis=0)
        out = np.matmul(v, hidden.reshape(seq, k, r, 1)).reshape(seq, k, d)
    w = None if weights is None else weights.data.reshape(seq, k, 1)

    def backward(g: np.ndarray) -> None:
        # the sum's gradient: g copied to every slot, as a C-ordered array
        g = np.repeat(g.reshape(seq, 1, d), k, axis=1)
        if w is not None and weights.requires_grad:
            weights._accumulate(_unbroadcast(g * out, w.shape).reshape(weights.shape))
        g_out = g if w is None else g * w
        if b is not None:
            if b.requires_grad:
                b._accumulate(_row_sums(g_out, idx, b.shape), rows=idx)
            return
        if x.requires_grad or U.requires_grad:
            g_hidden = np.matmul(np.swapaxes(v, -1, -2), g_out.reshape(seq, k, d, 1))
            g_pre = g_hidden.reshape(seq, k, 1, r) * (pre > 0)
        if x.requires_grad:
            g_x = np.matmul(g_pre, np.swapaxes(u, -1, -2))
            x._accumulate(_unbroadcast(g_x, (seq, 1, 1, d)).reshape(x.shape))
        if not (U.requires_grad or V.requires_grad):
            return
        # slot[t, j]: where pair (t, j) sits in a (used experts · m) stack
        # that lists each used expert's pairs in row-major order
        order = np.argsort(idx, axis=None, kind="stable")
        loads = np.bincount(idx.reshape(-1), minlength=table.n)
        used = np.flatnonzero(loads)
        loads = loads[used]
        m = int(loads.max(initial=0))
        starts = np.cumsum(loads) - loads
        slot = np.empty(idx.size, dtype=np.intp)
        slot[order] = np.arange(idx.size) + np.repeat(np.arange(used.size) * m - starts, loads)
        slot = slot.reshape(seq, k)

        def per_expert(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            """(n, d_in, rank): each used expert's sum over its pairs of
            left[t, j] ⊗ right[t, j], as one batched GEMM; zero elsewhere."""
            lhs = np.zeros((used.size * m, d))
            lhs[slot] = left
            rhs = np.zeros((used.size * m, r))
            rhs[slot] = right
            full = np.zeros((table.n, d, r))
            full[used] = np.matmul(np.swapaxes(lhs.reshape(used.size, m, d), 1, 2),
                                   rhs.reshape(used.size, m, r))
            return full

        if U.requires_grad:
            U._accumulate(per_expert(x.data.reshape(seq, 1, d), g_pre.reshape(seq, k, r)),
                          rows=used)
        if V.requires_grad:
            V._accumulate(per_expert(g_out, hidden.reshape(seq, k, r)), rows=used)

    data = out if w is None else out * w
    # rank 0 keeps the chain's parents, so a shared table sums its layers in the chain's order
    parents = ((x, U, V) if b is None else (b,)) + (() if weights is None else (weights,))
    return Tensor._op(data.sum(axis=1).reshape(x.shape), parents, backward)


@dataclass
class TransformerBlockParams:
    """Pre-layernorm block: x + Attn(LN(x)), then + FFN(LN(.)). ReLU FFN,
    4d wide when drawn by `init`."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w1: Tensor
    w2: Tensor
    ln1_scale: Tensor
    ln1_bias: Tensor
    ln2_scale: Tensor
    ln2_bias: Tensor
    n_heads: int

    def __post_init__(self) -> None:
        d = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wo"):
            if getattr(self, name).shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}")
        if self.w1.shape[0] != d or self.w2.shape[1] != d or self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("feed-forward shapes inconsistent with model width")
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be at least 1, got {self.n_heads}")
        if d % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide d={d}")
        for name in ("ln1_scale", "ln1_bias", "ln2_scale", "ln2_bias"):
            if getattr(self, name).shape != (d,):
                raise ValueError(f"{name} must be ({d},), got {getattr(self, name).shape}")

    @property
    def d(self) -> int:
        return self.wq.shape[0]

    @classmethod
    def init(cls, d: int, n_heads: int, seed) -> "TransformerBlockParams":
        seeds = as_seedseq(seed).spawn(6)
        return cls(
            wq=lecun_normal_init((d, d), seeds[0], fan_in=d),
            wk=lecun_normal_init((d, d), seeds[1], fan_in=d),
            wv=lecun_normal_init((d, d), seeds[2], fan_in=d),
            wo=lecun_normal_init((d, d), seeds[3], fan_in=d),
            w1=lecun_normal_init((d, 4 * d), seeds[4], fan_in=d),
            w2=lecun_normal_init((4 * d, d), seeds[5], fan_in=4 * d),
            ln1_scale=Tensor(np.ones(d), requires_grad=True),
            ln1_bias=Tensor(np.zeros(d), requires_grad=True),
            ln2_scale=Tensor(np.ones(d), requires_grad=True),
            ln2_bias=Tensor(np.zeros(d), requires_grad=True),
            n_heads=n_heads,
        )

    def parameters(self) -> dict[str, Tensor]:
        return {
            "wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo,
            "w1": self.w1, "w2": self.w2,
            "ln1_scale": self.ln1_scale, "ln1_bias": self.ln1_bias,
            "ln2_scale": self.ln2_scale, "ln2_bias": self.ln2_bias,
        }


_NEG_MASK = -1e30  # additive attention mask; exp() underflows to exactly 0


def transformer_block_forward(x: Tensor, params: TransformerBlockParams) -> Tensor:
    """Run one causal block on a (..., seq, d) tensor: position t attends to
    positions 0..t only. Deterministic given params.

    Leading axes are independent sequences; the heads run as one
    (..., h, seq, d/h) batch inside the attention core. The block is one
    graph node. Its forward makes the numpy calls of the chain layer norm,
    the q/k/v projections, the attention core, the output projection and
    residual, layer norm, the ReLU FFN and residual, in that order, and its
    backward replays that chain's backward in its order, so its values and
    every gradient are the chain's bit for bit, and x receives its two
    contributions in the chain's order. Inside checked() it scans the
    attention half's result, the FFN pre-activation and the output in the
    forward, and each half's gradients in the backward, so a replay names
    the half that failed. A forward that records no node, as under
    no_grad(), frees each intermediate once the next stage has used it, as
    the chain's ops did.
    """
    if x.ndim < 2 or x.shape[-1] != params.d:
        raise ValueError(f"block expects (..., seq, {params.d}), got {x.shape}")
    seq = x.shape[-2]
    mask = np.triu(np.full((seq, seq), _NEG_MASK), k=1) if seq > 1 else None
    p = params
    parents = (x, *p.parameters().values())
    keep = _records(parents)  # only a recorded node's backward reads the intermediates
    scan = scanner("transformer_block_forward")
    ln1, ln1_grads = _layer_norm(x.data, p.ln1_scale.data, p.ln1_bias.data)
    attended, attention_grads = _attention(np.matmul(ln1, p.wq.data), np.matmul(ln1, p.wk.data),
                                           np.matmul(ln1, p.wv.data), p.n_heads, mask)
    if not keep:
        del ln1, ln1_grads, attention_grads
    x1 = x.data + np.matmul(attended, p.wo.data)
    if not keep:
        del attended
    if scan:
        scan("forward", "attention", x1)
    ln2, ln2_grads = _layer_norm(x1, p.ln2_scale.data, p.ln2_bias.data)
    hidden = np.matmul(ln2, p.w1.data)
    if not keep:
        del ln2, ln2_grads
    if scan:
        scan("forward", "ffn", hidden)  # before the relu zeroes a -inf
    np.maximum(hidden, 0.0, out=hidden)
    out = x1 + np.matmul(hidden, p.w2.data)
    if scan:
        scan("forward", "ffn", out)

    def matmul_grads(g: np.ndarray, a: np.ndarray, w: Tensor) -> np.ndarray:
        """a @ w's backward: w's gradient accumulated, a's returned."""
        if w.requires_grad:
            w._accumulate(_unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), w.shape))
        return np.matmul(g, w.data.T)

    def backward(g: np.ndarray) -> None:
        # the chain's nodes in its backward order: the FFN residual, w2, the
        # relu, w1, ln2, the attention residual, wo, the attention core, wq,
        # wk, wv, ln1. The relu's mask is read off its output here, so a
        # forward under no_grad() never makes it.
        g_hidden = matmul_grads(g, hidden, p.w2) * (hidden > 0)
        g_x1, g_scale, g_bias = ln2_grads(matmul_grads(g_hidden, ln2, p.w1))
        _accumulate_each((p.ln2_scale, p.ln2_bias), (g_scale, g_bias))
        g_x1 = g + g_x1
        if scan:
            scan("backward", "ffn", g_x1,
                 *(t.grad for t in (p.w1, p.w2, p.ln2_scale, p.ln2_bias)))
        if x.requires_grad:
            x._accumulate(g_x1)
        g_q, g_k, g_v = attention_grads(matmul_grads(g_x1, attended, p.wo))
        g_ln1 = matmul_grads(g_q, ln1, p.wq)
        g_ln1 += matmul_grads(g_k, ln1, p.wk)
        g_ln1 += matmul_grads(g_v, ln1, p.wv)
        _accumulate_each((x, p.ln1_scale, p.ln1_bias), ln1_grads(g_ln1))
        if scan:
            scan("backward", "attention",
                 *(t.grad for t in (x, p.wq, p.wk, p.wv, p.wo, p.ln1_scale, p.ln1_bias)))

    return Tensor._op(out, parents, backward)


@dataclass
class GradCheckReport:
    """Outcome of a central-difference gradient check."""

    per_param: dict[str, float]
    epsilon: float
    tolerance: float
    max_rel_error: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        # np.max propagates a NaN error, which fails the comparison below
        self.max_rel_error = float(np.max(list(self.per_param.values()), initial=0.0))
        self.passed = bool(self.max_rel_error < self.tolerance)  # a numpy bool prints True


def finite_diff_check(loss_fn: Callable[[], Tensor],
                      params: Mapping[str, Tensor],
                      epsilon: float = 1e-5,
                      tolerance: float = 1e-4) -> GradCheckReport:
    """Compare backprop gradients against central differences.

    loss_fn must rebuild its graph from the current parameter values on every
    call and return a scalar. Relative errors use the denominator
    max(|analytic|, |numeric|, 1e-12). A NaN error, as from a perturbed loss
    that overflows, fails the check.
    """
    for name, value in (("epsilon", epsilon), ("tolerance", tolerance)):
        if not value > 0:  # NaN too
            raise ValueError(f"{name} must be positive")
        if value == math.inf:
            raise ValueError(f"{name} must be finite")
    tensors = dict(params)
    for t in tensors.values():
        t.zero_grad()
    loss = loss_fn()
    if loss.size != 1:
        raise ValueError("loss_fn must return a scalar tensor")
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in tensors.items()
    }

    per_param: dict[str, float] = {}
    with no_grad():
        for name, t in tensors.items():
            flat = t.data.reshape(-1)
            grad_flat = analytic[name].reshape(-1)
            numeric = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                lp = float(loss_fn().data)
                flat[i] = orig - epsilon
                lm = float(loss_fn().data)
                flat[i] = orig
                numeric[i] = (lp - lm) / (2.0 * epsilon)
            # np.maximum and np.max propagate NaN, so a NaN error fails the check
            denom = np.maximum(np.maximum(np.abs(grad_flat), np.abs(numeric)), 1e-12)
            per_param[name] = float(np.max(np.abs(grad_flat - numeric) / denom, initial=0.0))

    return GradCheckReport(per_param=per_param, epsilon=epsilon, tolerance=tolerance)
