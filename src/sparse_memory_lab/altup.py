"""Wide token representations updated by predict-compute-correct steps.

A K*d-wide representation is kept at every layer while each layer transforms
only one d-wide block; a linear predictor guesses all blocks and a gain
matrix folds the computed block's innovation back into the prediction. The
representation is one flat (..., K*d) tensor, block j in columns
[j*d, (j+1)*d). One step, `pcc_forward`, serves both forms: the full one
with dense P (Kd x Kd) and G (Kd x d) on the flat tensor, the simplified one
treating blocks as atoms, with a scalar grid p_ij and gains g_i over the K
axis of its (..., K, d) view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, _unbroadcast, at_layer, at_stage, concat


class WideRepresentation:
    """K contiguous d-wide blocks held as one flat (..., K*d) tensor.

    Build it from the flat tensor (`flat=`, `K=`) or from the blocks
    (`blocks=[...]`), which is one concat, or the block itself when K = 1.
    """

    def __init__(self, blocks: Sequence[Tensor] | None = None, *,
                 flat: Tensor | None = None, K: int = 1):
        if (blocks is None) == (flat is None):
            raise ValueError("give either blocks or flat")
        if blocks is not None:
            if not blocks:
                raise ValueError("need at least one block")
            shapes = {b.shape for b in blocks}
            if len(shapes) > 1:
                raise ValueError(f"blocks must share a shape, got {shapes}")
            K = len(blocks)
            flat = blocks[0] if K == 1 else concat(blocks, axis=blocks[0].ndim - 1)
        elif K < 1 or flat.shape[-1] % K != 0:
            raise ValueError(f"flat width {flat.shape[-1]} not divisible by K={K}")
        self._flat = flat
        self.K = K

    @property
    def d(self) -> int:
        return self._flat.shape[-1] // self.K

    def to_flat(self) -> Tensor:
        return self._flat

    def view(self) -> Tensor:
        """The (..., K, d) reshape: block j is row j of the K axis."""
        return self._flat.reshape(*self._flat.shape[:-1], self.K, self.d)

    def block(self, j: int) -> Tensor:
        if self.K == 1:
            return self._flat
        return self._flat.narrow(self._flat.ndim - 1, j * self.d, self.d)


@dataclass
class PccFullParams:
    """Dense predictor P (Kd x Kd) and gain G (Kd x d)."""

    P: Tensor
    G: Tensor

    def __post_init__(self) -> None:
        kd = self.P.shape[0]
        if self.P.shape != (kd, kd):
            raise ValueError("P must be square (Kd x Kd)")
        if self.G.ndim != 2 or self.G.shape[0] != kd or kd % self.G.shape[1] != 0:
            raise ValueError("G must be Kd x d with d dividing Kd")

    @classmethod
    def identity_init(cls, K: int, d: int) -> "PccFullParams":
        p = Tensor(np.eye(K * d), requires_grad=True)
        g = Tensor(np.tile(np.eye(d), (K, 1)), requires_grad=True)
        return cls(P=p, G=g)

    def parameters(self) -> dict[str, Tensor]:
        return {"P": self.P, "G": self.G}


@dataclass
class PccSimplifiedParams:
    """Scalar grid p_ij and gains g_i; prediction treats blocks as atoms."""

    p: Tensor  # (K, K)
    g: Tensor  # (K,)

    def __post_init__(self) -> None:
        if self.p.ndim != 2 or self.p.shape[0] != self.p.shape[1]:
            raise ValueError("p must be a K x K grid")
        if self.g.shape != (self.p.shape[0],):
            raise ValueError("g must be a length-K vector")

    @property
    def K(self) -> int:
        return self.p.shape[0]

    @classmethod
    def identity_init(cls, K: int) -> "PccSimplifiedParams":
        """p = identity grid, g = ones: at init the computed block replaces its
        prediction and the other blocks pass through unchanged."""
        return cls(
            p=Tensor(np.eye(K), requires_grad=True),
            g=Tensor(np.ones(K), requires_grad=True),
        )

    def parameters(self) -> dict[str, Tensor]:
        return {"p": self.p, "g": self.g}

    def to_full(self, d: int) -> PccFullParams:
        """Embed as block-structured dense matrices P=(p_ij I), G=(g_i I)."""
        K = self.K
        p_full = np.kron(self.p.data, np.eye(d))
        g_full = np.concatenate([self.g.data[i] * np.eye(d) for i in range(K)], axis=0)
        return PccFullParams(P=Tensor(p_full), G=Tensor(g_full))


def _weight_grad(a: np.ndarray, g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of w in a @ w.T, given g at its output: the sum of g^T @ a
    over the leading axes, a 1-D operand taken as one row."""
    a, g = np.atleast_2d(a), np.atleast_2d(g)
    return _unbroadcast(np.matmul(np.swapaxes(g, -1, -2), a), shape)


def predict_correct_full(flat: Tensor, computed: Tensor, P: Tensor, G: Tensor,
                         j_star: int) -> Tensor:
    """flat @ P.T + (computed - block j* of that prediction) @ G.T, one node:
    the full form's prediction, corrected by the computed block's innovation."""
    d = G.shape[1]
    cols = slice(j_star * d, (j_star + 1) * d)
    predicted = np.matmul(flat.data, P.data.T.copy())
    innovation = computed.data - predicted[..., cols]
    out_data = predicted + np.matmul(innovation, G.data.T.copy())

    def backward(g: np.ndarray) -> None:
        g_innovation = np.matmul(g, G.data)
        if computed.requires_grad:
            computed._accumulate(g_innovation)
        if G.requires_grad:
            G._accumulate(_weight_grad(innovation, g, G.shape))
        g_predicted = g.copy()
        g_predicted[..., cols] -= g_innovation
        if P.requires_grad:
            P._accumulate(_weight_grad(flat.data, g_predicted, P.shape))
        if flat.requires_grad:
            flat._accumulate(np.matmul(g_predicted, P.data))

    return Tensor._op(out_data, (flat, computed, P, G), backward)


def predict_correct_simplified(flat: Tensor, computed: Tensor, p: Tensor, g: Tensor,
                               j_star: int) -> Tensor:
    """Block i of the result is sum_j p_ij x^j + g_i (computed - sum_j p_{j*j} x^j),
    x^j block j of the (..., K*d) `flat`, as one node."""
    K = p.shape[0]
    *lead, kd = flat.shape
    d = kd // K
    x = flat.data.reshape(*lead, K, d)
    predicted = np.matmul(p.data, x)
    innovation = computed.data.reshape(*lead, 1, d) - predicted[..., j_star:j_star + 1, :]
    gains = g.data.reshape(K, 1)
    out_data = (predicted + gains * innovation).reshape(*lead, kd)

    def backward(grad: np.ndarray) -> None:
        grad = grad.reshape(*lead, K, d)
        g_innovation = (grad * gains).sum(axis=-2, keepdims=True)
        if computed.requires_grad:
            computed._accumulate(g_innovation.reshape(computed.shape))
        if g.requires_grad:
            g._accumulate(_unbroadcast(grad * innovation, (K, 1)).reshape(K))
        g_predicted = grad.copy()
        g_predicted[..., j_star:j_star + 1, :] -= g_innovation
        if p.requires_grad:
            p._accumulate(_unbroadcast(np.matmul(g_predicted, np.swapaxes(x, -1, -2)), (K, K)))
        if flat.requires_grad:
            flat._accumulate(np.matmul(p.data.T, g_predicted).reshape(flat.shape))

    return Tensor._op(out_data, (flat, computed, p, g), backward)


PccParams = PccFullParams | PccSimplifiedParams


def pcc_forward(x_old: WideRepresentation, params: PccParams,
                layer: Callable[[Tensor], Tensor], j_star: int) -> WideRepresentation:
    """Compute block j* with the layer, then predict every block and correct it
    by the computed block's innovation: with dense P, G or with scalar p_ij, g_i."""
    K, d = x_old.K, x_old.d
    if isinstance(params, PccSimplifiedParams):
        fits = params.K == K
        node, weights = predict_correct_simplified, (params.p, params.g)
    else:
        fits = params.P.shape == (K * d, K * d) and params.G.shape == (K * d, d)
        node, weights = predict_correct_full, (params.P, params.G)
    if not fits:
        raise ValueError(f"{type(params).__name__} does not fit K={K}, d={d}")
    if not (0 <= j_star < K):
        raise ValueError(f"j_star {j_star} outside [0, {K})")
    computed = layer(x_old.block(j_star))
    at_stage("pcc")
    return WideRepresentation(flat=node(x_old.to_flat(), computed, *weights, j_star), K=K)


# The names each form's step once had; the acceptance battery and tests import both.
pcc_forward_full = pcc_forward_simplified = pcc_forward


def divide_and_project(aug: Tensor, proj: Tensor) -> Tensor:
    """Split a (..., seq, e) augmentation into K-1 chunks and project chunk i
    by proj[i], with proj (K-1, e/(K-1), d); returns the projections side by
    side, (..., seq, (K-1)*d). The chunk axis goes ahead of the sequence axis,
    so the one matmul runs the same (seq, chunk) @ (chunk, d) products, in
    values and gradients, as one matmul per chunk."""
    km1, chunk, d = proj.shape
    if aug.shape[-1] != km1 * chunk:
        raise ValueError(f"expected augmentation width {km1 * chunk}, got {aug.shape[-1]}")
    *lead, seq, _ = aug.shape
    chunks = aug.reshape(*lead, seq, km1, chunk).swapaxes(-3, -2)
    projected = (chunks @ proj).swapaxes(-3, -2)  # (..., seq, K-1, d)
    return projected.reshape(*lead, seq, km1 * d)


def altup_stack_forward(x0: WideRepresentation,
                        layers: Sequence[Callable[[Tensor], Tensor]],
                        selection: str,
                        pcc_params: Sequence[PccParams] | None) -> tuple[WideRepresentation, list[int]]:
    """Run the layer stack over a wide representation; returns the final
    representation and the per-layer computed-block trace. Layer i computes
    block 0 when `selection` is "same" and block i mod K when "alternating".

    With K = 1 (pcc_params None) the stack collapses to plain layer
    composition, bit-for-bit equal to running the layers directly.
    """
    K = x0.K
    if pcc_params is None:
        if K != 1:
            raise ValueError("K > 1 requires predictor/gain parameters per layer")
    elif len(pcc_params) != len(layers):
        raise ValueError("one predictor/gain parameter set per layer required")
    x, trace = x0, []
    for i, layer in enumerate(layers):
        j_star = 0 if selection == "same" else i % K
        trace.append(j_star)
        at_layer(i)
        if pcc_params is None:
            x = WideRepresentation(flat=layer(x.to_flat()))
        else:
            x = pcc_forward(x, pcc_params[i], layer, j_star)
    at_layer(None)
    return x, trace


def pcc_simplified_multiplies(K: int, d: int) -> int:
    """Per-token scalar multiply count of one simplified predict+correct step."""
    return K * K * d + 2 * K * d + d
