"""Wide token representations updated by predict-compute-correct steps.

A K*d-wide representation is kept at every layer while each layer transforms
only one d-wide block; a linear predictor guesses all blocks and a gain
matrix folds the computed block's innovation back into the prediction. The
representation is one flat (..., K*d) tensor, block j in columns
[j*d, (j+1)*d). The full form uses dense P (Kd x Kd) and G (Kd x d) on that
flat tensor; the simplified form treats blocks as atoms, with a scalar grid
p_ij and gains g_i applied over the K axis of its (..., K, d) view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Tensor, at_layer, at_stage, concat
from .nn import as_seedseq


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

    @property
    def blocks(self) -> list[Tensor]:
        return [self.block(j) for j in range(self.K)]


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


@dataclass(frozen=True)
class BlockSelection:
    """Which block each layer computes: the same one, or cycling i mod K."""

    mode: str = "alternating"
    fixed_index: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("same", "alternating"):
            raise ValueError(f"unknown selection mode {self.mode!r}")
        if self.fixed_index < 0:
            raise ValueError("fixed_index must be nonnegative")


def select_block(layer_index: int, K: int, selection: BlockSelection) -> int:
    """Zero-based block index the given layer computes."""
    if K < 1:
        raise ValueError("K must be at least 1")
    if selection.mode == "same":
        if selection.fixed_index >= K:
            raise ValueError(f"fixed_index {selection.fixed_index} outside [0, {K})")
        return selection.fixed_index
    return layer_index % K


def pcc_forward_full(x_old: WideRepresentation, params: PccFullParams,
                     layer: Callable[[Tensor], Tensor], j_star: int) -> WideRepresentation:
    """Predict with P, compute block j* with the layer, correct with G."""
    K, d = x_old.K, x_old.d
    if params.P.shape != (K * d, K * d) or params.G.shape != (K * d, d):
        raise ValueError("predictor/gain shapes inconsistent with the representation")
    if not (0 <= j_star < K):
        raise ValueError(f"j_star {j_star} outside [0, {K})")
    at_stage("pcc predict")
    predicted = x_old.to_flat() @ params.P.T
    pred_j = predicted.narrow(predicted.ndim - 1, j_star * d, d)
    computed = layer(x_old.block(j_star))
    at_stage("pcc correct")
    innovation = computed - pred_j
    return WideRepresentation(flat=predicted + innovation @ params.G.T, K=K)


def pcc_forward_simplified(x_old: WideRepresentation, params: PccSimplifiedParams,
                           layer: Callable[[Tensor], Tensor], j_star: int) -> WideRepresentation:
    """Blockwise scalar form: x_new^i = sum_j p_ij x^j + g_i (computed - predicted j*)."""
    K, d = x_old.K, x_old.d
    if params.K != K:
        raise ValueError(f"params built for K={params.K}, representation has K={K}")
    if not (0 <= j_star < K):
        raise ValueError(f"j_star {j_star} outside [0, {K})")
    at_stage("pcc predict")
    predicted = params.p @ x_old.view()  # (..., K, d)
    lead = predicted.shape[:-2]
    computed = layer(x_old.block(j_star))
    at_stage("pcc correct")
    innovation = computed.reshape(*lead, 1, d) - predicted.narrow(len(lead), j_star, 1)
    corrected = predicted + params.g.reshape(K, 1) * innovation
    return WideRepresentation(flat=corrected.reshape(*lead, K * d), K=K)


@dataclass
class DivideProjectParams:
    """Split an e-wide augmentation into K-1 chunks and project each to width d."""

    e: int
    projections: list[Tensor]  # K-1 matrices, each (e/(K-1)) x d

    def __post_init__(self) -> None:
        k_minus_1 = len(self.projections)
        if self.e < 0:
            raise ValueError("augmentation width must be nonnegative")
        if self.e == 0:
            if k_minus_1 != 0:
                raise ValueError("e=0 admits no projections")
            return
        if k_minus_1 == 0 or self.e % k_minus_1 != 0:
            raise ValueError(f"K-1={k_minus_1} must divide e={self.e}")
        chunk = self.e // k_minus_1
        for m in self.projections:
            if m.ndim != 2 or m.shape[0] != chunk:
                raise ValueError(f"projection must be {chunk} x d, got {m.shape}")

    @property
    def k_minus_1(self) -> int:
        return len(self.projections)

    @classmethod
    def init(cls, e: int, k_minus_1: int, d: int, seed) -> "DivideProjectParams":
        if e == 0:
            return cls(e=0, projections=[])
        if k_minus_1 <= 0 or e % k_minus_1 != 0:
            raise ValueError(f"K-1={k_minus_1} must divide e={e}")
        chunk = e // k_minus_1
        seeds = as_seedseq(seed).spawn(k_minus_1)
        rngs = [np.random.default_rng(s) for s in seeds]
        mats = [
            Tensor(r.standard_normal((chunk, d)) / np.sqrt(chunk), requires_grad=True)
            for r in rngs
        ]
        return cls(e=e, projections=mats)

    def parameters(self) -> dict[str, Tensor]:
        return {f"proj{i}": m for i, m in enumerate(self.projections)}


def divide_and_project(aug: Tensor, params: DivideProjectParams) -> list[Tensor]:
    """Per-chunk projections of the augmentation; empty when e = 0."""
    if params.e == 0:
        return []
    if aug.shape[-1] != params.e:
        raise ValueError(f"expected augmentation width {params.e}, got {aug.shape[-1]}")
    chunk = params.e // params.k_minus_1
    axis = aug.ndim - 1
    return [
        aug.narrow(axis, i * chunk, chunk) @ params.projections[i]
        for i in range(params.k_minus_1)
    ]


PccParams = PccFullParams | PccSimplifiedParams


def pcc_forward(x_old: WideRepresentation, params: PccParams,
                layer: Callable[[Tensor], Tensor], j_star: int) -> WideRepresentation:
    if isinstance(params, PccSimplifiedParams):
        return pcc_forward_simplified(x_old, params, layer, j_star)
    return pcc_forward_full(x_old, params, layer, j_star)


def altup_stack_forward(x0: WideRepresentation,
                        layers: Sequence[Callable[[Tensor], Tensor]],
                        selection: BlockSelection,
                        pcc_params: Sequence[PccParams] | None) -> tuple[WideRepresentation, list[int]]:
    """Run the layer stack over a wide representation; returns the final
    representation and the per-layer computed-block trace.

    With K = 1 (pcc_params None) the stack collapses to plain layer
    composition, bit-for-bit equal to running the layers directly.
    """
    K = x0.K
    if pcc_params is None:
        if K != 1:
            raise ValueError("K > 1 requires predictor/gain parameters per layer")
        x = x0.to_flat()
        for i, layer in enumerate(layers):
            at_layer(i)
            x = layer(x)
        at_layer(None)
        return WideRepresentation(flat=x), [0] * len(layers)
    if len(pcc_params) != len(layers):
        raise ValueError("one predictor/gain parameter set per layer required")
    x = x0
    trace = []
    for i, (layer, params) in enumerate(zip(layers, pcc_params)):
        j_star = select_block(i, K, selection)
        trace.append(j_star)
        at_layer(i)
        x = pcc_forward(x, params, layer, j_star)
    at_layer(None)
    return x, trace


def pcc_simplified_multiplies(K: int, d: int) -> int:
    """Per-token scalar multiply count of one simplified predict+correct step."""
    return K * K * d + 2 * K * d + d
