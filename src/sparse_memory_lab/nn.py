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

from .autodiff import Tensor, at_stage, causal_attention, layer_norm, no_grad


def as_seedseq(seed) -> np.random.SeedSequence:
    """Accept ints and SeedSequences interchangeably wherever seeds spawn."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def lecun_normal_init(shape: tuple[int, ...], seed, fan_in: int | None = None) -> Tensor:
    """Draw a trainable tensor with entries ~ Normal(0, 1/fan_in).

    fan_in defaults to the first dimension; pass it explicitly when the
    matrix contracts over a different axis.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s <= 0 for s in shape):
        raise ValueError(f"lecun_normal_init needs a nonempty shape, got {shape}")
    if fan_in is None:
        fan_in = shape[0]
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


def apply_expert(x: Tensor, table: MemoryTable, indices) -> Tensor:
    """out[t, j] is expert indices[t, j] evaluated on row t of x (seq, d_in)."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.ndim != 2 or x.shape[1] != table.d_in or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ValueError(f"experts expect (seq, {table.d_in}) rows and (seq, k) indices, "
                         f"got {x.shape} and {idx.shape}")
    if table.b is not None:
        return table.b.take(idx)
    # two batched matmuls over the gathered (seq, k, d_in, rank) stacks:
    # (1, d_in) @ U_j, then V_j @ (rank, 1), one small GEMM per (t, j)
    seq, d = x.shape
    k, r = idx.shape[1], table.rank
    hidden = (x.reshape(seq, 1, 1, d) @ table.U.take(idx)).relu()
    return (table.V.take(idx) @ hidden.reshape(seq, k, r, 1)).reshape(seq, k, d)


@dataclass
class TransformerBlockParams:
    """Pre-layernorm block: x + Attn(LN(x)), then + FFN(LN(.)). ReLU FFN."""

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
        if d % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide d={d}")

    @property
    def d(self) -> int:
        return self.wq.shape[0]

    @classmethod
    def init(cls, d: int, n_heads: int, seed, d_ff: int | None = None) -> "TransformerBlockParams":
        if d_ff is None:
            d_ff = 4 * d
        seeds = as_seedseq(seed).spawn(6)
        return cls(
            wq=lecun_normal_init((d, d), seeds[0], fan_in=d),
            wk=lecun_normal_init((d, d), seeds[1], fan_in=d),
            wv=lecun_normal_init((d, d), seeds[2], fan_in=d),
            wo=lecun_normal_init((d, d), seeds[3], fan_in=d),
            w1=lecun_normal_init((d, d_ff), seeds[4], fan_in=d),
            w2=lecun_normal_init((d_ff, d), seeds[5], fan_in=d_ff),
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


def transformer_block_forward(x: Tensor, params: TransformerBlockParams,
                              causal: bool = False) -> Tensor:
    """Run one block on a (..., seq, d) tensor; deterministic given params.

    Leading axes are independent sequences; the heads run as one
    (..., h, seq, d/h) batch inside the attention op.
    """
    if x.ndim < 2 or x.shape[-1] != params.d:
        raise ValueError(f"block expects (..., seq, {params.d}), got {x.shape}")
    seq = x.shape[-2]
    at_stage("attention")
    ln1 = layer_norm(x, params.ln1_scale, params.ln1_bias)
    mask = np.triu(np.full((seq, seq), _NEG_MASK), k=1) if causal and seq > 1 else None
    attended = causal_attention(ln1 @ params.wq, ln1 @ params.wk, ln1 @ params.wv,
                                params.n_heads, mask)
    x = x + attended @ params.wo

    at_stage("ffn")
    ln2 = layer_norm(x, params.ln2_scale, params.ln2_bias)
    ffn = (ln2 @ params.w1).relu() @ params.w2
    return x + ffn


def transformer_block_multiplies(d: int, seq_len: int) -> int:
    """Per-token multiply count of one block (FFN width 4d): projections, scores/mix, FFN."""
    return 4 * d * d + 2 * seq_len * d + 2 * d * (4 * d)


@dataclass
class GradCheckReport:
    """Outcome of a central-difference gradient check."""

    per_param: dict[str, float]
    epsilon: float
    tolerance: float
    max_rel_error: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.max_rel_error = max(self.per_param.values()) if self.per_param else 0.0
        self.passed = bool(self.max_rel_error < self.tolerance)  # a numpy bool prints True


def finite_diff_check(loss_fn: Callable[[], Tensor],
                      params: Mapping[str, Tensor],
                      epsilon: float = 1e-5,
                      tolerance: float = 1e-4) -> GradCheckReport:
    """Compare backprop gradients against central differences.

    loss_fn must rebuild its graph from the current parameter values on every
    call and return a scalar. Relative errors use the denominator
    max(|analytic|, |numeric|, 1e-12).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
            worst = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                lp = float(loss_fn().data)
                flat[i] = orig - epsilon
                lm = float(loss_fn().data)
                flat[i] = orig
                numeric = (lp - lm) / (2.0 * epsilon)
                denom = max(abs(grad_flat[i]), abs(numeric), 1e-12)
                worst = max(worst, abs(grad_flat[i] - numeric) / denom)
            per_param[name] = worst

    return GradCheckReport(per_param=per_param, epsilon=epsilon, tolerance=tolerance)
