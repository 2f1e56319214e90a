"""Sparse table lookups: token-id, learnable softmax routing, hyperplane and
spherical LSH, min-hash, and the memory term of a layer, which consumes them.

Every routine except min-hash routes all rows of a (..., d) block at once,
such as a (seq, d) sequence or a (B, seq, d) batch of them, and returns the
selected table indices as one flat integer array that the memory layer
reshapes to (..., k) without a conversion.
Routing never writes its parameters. Of them only the softmax router's `W`
trains, through the optimizer; the LSH directions, offsets and anchors stay
as drawn. The softmax router's training jitter (JITTER_EPSILON, 1%) is drawn
by the caller and passed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .autodiff import Tensor, at_stage
from .config import MemoryConfig
from .nn import MemoryTable, apply_expert


@dataclass(frozen=True)
class RouteResult:
    """Selected table indices as a 1-D intp array, position-major (k per
    position), and their weights as a length-matched tensor, or None when
    every weight is 1."""

    indices: np.ndarray
    weights: Tensor | None = None


def token_id_lookup(tokens, n: int) -> RouteResult:
    """Route each position by its vocabulary index; the table size is the vocabulary size."""
    ids = np.asarray(tokens, dtype=np.intp).reshape(-1)
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise ValueError(f"token id {int(bad[0])} out of vocabulary for table size {n}")
    return RouteResult(indices=ids)


JITTER_EPSILON = 0.01  # the softmax router's training jitter: x times U[1 - eps, 1 + eps]
ROUTER_INIT_STD = 2e-2  # the softmax router's initial weights: Normal(0, std^2) entries


@dataclass(frozen=True)
class SoftmaxRouterParams:
    """Learnable router: logits h = x W, probabilities softmax(h), top-k selection.

    W is stored (d_in, n), the layout the logits' product reads. The fields
    are frozen, so the construction-time check of k holds for every route;
    W's values still train in place."""

    W: Tensor
    k: int

    def __post_init__(self) -> None:
        if self.W.ndim != 2:
            raise ValueError("router weight must be d_in x n")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"k={self.k} outside [1, n={self.n}]")

    @property
    def n(self) -> int:
        return self.W.shape[1]

    @property
    def d_in(self) -> int:
        return self.W.shape[0]

    @classmethod
    def init(cls, n: int, d_in: int, k: int, seed) -> "SoftmaxRouterParams":
        # drawn (n, d_in) from the seed, stored transposed (see the class docstring)
        w = np.random.default_rng(seed).standard_normal((n, d_in)) * ROUTER_INIT_STD
        return cls(W=Tensor(w.T.copy(), requires_grad=True), k=k)


def softmax_route(x: Tensor, params: SoftmaxRouterParams,
                  jitter: np.ndarray | None = None) -> RouteResult:
    """Row-wise top-k probability routing of x (..., d); ties break toward
    the lower index.

    A training caller passes `jitter`, an array of x's shape drawn uniformly
    from [1 - JITTER_EPSILON, 1 + JITTER_EPSILON], and the routing input is
    x * jitter; None routes x itself, as evaluation does. Weights are the
    selected probabilities, so gradients reach W through the weighting.
    """
    if x.shape[-1] != params.d_in:
        raise ValueError(f"router expects (..., {params.d_in}) rows, got {x.shape}")
    routed_x = x if jitter is None else x * jitter
    probs = (routed_x @ params.W).softmax(axis=-1)
    n = params.n
    top = top_k_rows(probs.data.reshape(-1, n), params.k)
    flat = (np.arange(top.shape[0])[:, None] * n + top).reshape(-1)
    return RouteResult(indices=top.reshape(-1), weights=probs.reshape(probs.size).take(flat))


def top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """(rows, k) column indices of each row's k largest entries, largest
    first, ties toward the lower index: the first k of a stable argsort of
    -scores, for finite scores, by k argmax passes instead of a full sort."""
    rows = np.arange(scores.shape[0])
    top = np.empty((scores.shape[0], k), dtype=np.intp)
    work = scores.copy() if k > 1 else scores
    for j in range(k):
        top[:, j] = pick = np.argmax(work, axis=1)
        if j + 1 < k:
            work[rows, pick] = -np.inf
    return top


# seed of the cell-to-bucket hash, shared by the hyperplane lookup and lshsim
MIX_SEED = 0x5EED

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)


def fold_cells(cells: np.ndarray, seed: int) -> np.ndarray:
    """Reduce integer cell tuples (..., k) to 64-bit bucket hashes.

    Splitmix-style mixing folded left to right; trailing axis is the tuple.
    The same function serves the lookup op and the vectorized collision
    simulation, so the two routes share bucket math exactly. uint64
    arithmetic wraps modulo 2**64, so the state is mixed in place.
    """
    # the int64 cells' two's-complement bits, as an astype to uint64 gives them
    bits = np.asarray(cells, dtype=np.int64).view(np.uint64)
    state = np.full(bits.shape[:-1], np.uint64(seed), dtype=np.uint64)
    shifted = np.empty_like(state)
    with np.errstate(over="ignore"):
        for j in range(bits.shape[-1]):
            state ^= bits[..., j]
            state += _MIX_A
            state ^= np.right_shift(state, np.uint64(30), out=shifted)
            state *= _MIX_B
            state ^= np.right_shift(state, np.uint64(27), out=shifted)
            state *= _MIX_C
            state ^= np.right_shift(state, np.uint64(31), out=shifted)
    return state


@dataclass
class HyperplaneLshParams:
    """Grid partition by random equispaced hyperplanes; frozen after construction."""

    directions: np.ndarray  # (num_projections, d_in), i.i.d. standard normal
    offsets: np.ndarray     # (num_projections,), uniform in [0, width)
    width: float
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.width < np.inf:  # NaN too
            raise ValueError(f"bucket width must be positive and finite, got {self.width}")
        if self.n < 1:
            raise ValueError("table size must be at least 1")
        self.directions = np.asarray(self.directions, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        if self.directions.ndim != 2 or self.offsets.shape != (self.directions.shape[0],):
            raise ValueError("directions must be (k, d) with matching offsets")
        for name in ("directions", "offsets"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"hyperplane {name} must be finite")
        self.directions.setflags(write=False)
        self.offsets.setflags(write=False)

    @property
    def d_in(self) -> int:
        return self.directions.shape[1]

    @classmethod
    def init(cls, d_in: int, num_projections: int, width: float, n: int,
             seed) -> "HyperplaneLshParams":
        rng = np.random.default_rng(seed)
        return cls(
            directions=rng.standard_normal((num_projections, d_in)),
            offsets=rng.uniform(0.0, width, num_projections),
            width=width,
            n=n,
        )


def hyperplane_lsh_lookup(rows: np.ndarray, params: HyperplaneLshParams) -> RouteResult:
    """Bucket per row = mixed hash of its per-projection grid cells, mod n."""
    if rows.shape[-1] != params.d_in:
        raise ValueError(f"expected (..., {params.d_in}) rows, got {rows.shape}")
    cells = np.floor((rows @ params.directions.T + params.offsets) / params.width)
    buckets = fold_cells(cells.astype(np.int64), MIX_SEED) % np.uint64(params.n)
    return RouteResult(indices=buckets.reshape(-1).astype(np.intp))


@dataclass
class SphericalLshParams:
    """Nearest-anchor (Voronoi on the sphere) hashing with random unit anchors."""

    anchors: np.ndarray  # (n, d_in), unit rows

    def __post_init__(self) -> None:
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        if self.anchors.ndim != 2:
            raise ValueError("anchors must be (n, d)")
        if not np.isfinite(self.anchors).all():
            raise ValueError("anchors must be finite")
        norms = np.linalg.norm(self.anchors, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("anchors must have unit 2-norm within 1e-9")
        self.anchors.setflags(write=False)

    @property
    def n(self) -> int:
        return self.anchors.shape[0]

    @property
    def d_in(self) -> int:
        return self.anchors.shape[1]

    @classmethod
    def init(cls, n: int, d_in: int, seed) -> "SphericalLshParams":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d_in))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        return cls(anchors=a)


def spherical_lsh_lookup(rows: np.ndarray, params: SphericalLshParams) -> RouteResult:
    """Bucket per row = argmax anchor dot with row/||row||; ties go to the lower index."""
    if rows.shape[-1] != params.d_in:
        raise ValueError(f"expected (..., {params.d_in}) rows, got {rows.shape}")
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("spherical lookup is undefined for the zero vector")
    buckets = np.argmax((rows / norms) @ params.anchors.T, axis=-1)
    return RouteResult(indices=buckets.reshape(-1))


@dataclass
class MinHashParams:
    """Seeded random ranking of the token universe; hashes sets by their min-rank element."""

    ranks: np.ndarray  # permutation of [0, universe)
    n: int

    def __post_init__(self) -> None:
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        if sorted(self.ranks.tolist()) != list(range(self.ranks.size)):
            raise ValueError("ranks must be a bijection on the universe")
        if self.n < 1:
            raise ValueError("table size must be at least 1")
        self.ranks.setflags(write=False)

    @property
    def universe(self) -> int:
        return self.ranks.size

    @classmethod
    def init(cls, universe: int, n: int, seed) -> "MinHashParams":
        rng = np.random.default_rng(seed)
        return cls(ranks=rng.permutation(universe), n=n)


def minhash_lookup(token_set: Iterable[int], params: MinHashParams) -> RouteResult:
    """Bucket = (set element with minimal rank) mod n."""
    elems = list(token_set)
    if not elems:
        raise ValueError("minhash lookup needs a nonempty set")
    if any(e < 0 or e >= params.universe for e in elems):
        raise ValueError("set element outside the token universe")
    winner = min(elems, key=lambda e: params.ranks[e])
    return RouteResult(indices=np.array([winner % params.n], dtype=np.intp))


@dataclass(frozen=True)
class TokenIdLookup:
    """Marker params for token-id routing: the table size is the vocabulary size."""

    n: int


LookupParams = TokenIdLookup | SoftmaxRouterParams | HyperplaneLshParams | SphericalLshParams


def init_lookup(memory: MemoryConfig, vocab: int, d: int, seed) -> LookupParams:
    """One layer's lookup of kind `memory.lookup` on (..., d) rows, drawn
    from `seed`: token_id's table is the vocabulary, every other kind's has
    `memory.buckets` entries."""
    if memory.lookup == "token_id":
        return TokenIdLookup(n=vocab)
    n = memory.buckets
    if memory.lookup == "softmax":
        return SoftmaxRouterParams.init(n, d, memory.k, seed)
    if memory.lookup == "hyperplane":
        k_proj = max(1, int(np.ceil(np.log2(max(n, 2)))))  # ceil(log2 n) projections
        return HyperplaneLshParams.init(d, k_proj, memory.width, n, seed)
    if memory.lookup == "spherical":
        return SphericalLshParams.init(n, d, seed)
    raise ValueError(f"unknown lookup kind: {memory.lookup!r}")


def route(x: Tensor, tokens, lookup: LookupParams,
          jitter: np.ndarray | None = None) -> RouteResult:
    """Dispatch the rows of x (..., d) and their token ids to table indices;
    `jitter` reaches the softmax router only (see softmax_route)."""
    if isinstance(lookup, TokenIdLookup):
        return token_id_lookup(tokens, lookup.n)
    if isinstance(lookup, SoftmaxRouterParams):
        return softmax_route(x, lookup, jitter=jitter)
    if isinstance(lookup, HyperplaneLshParams):
        return hyperplane_lsh_lookup(x.data, lookup)
    if isinstance(lookup, SphericalLshParams):
        return spherical_lsh_lookup(x.data, lookup)
    raise ValueError(f"unknown lookup kind: {type(lookup).__name__}")


def memory_augmented_forward(x: Tensor, tokens, lookup: LookupParams, table: MemoryTable,
                             jitter: np.ndarray | None = None) -> Tensor:
    """What the memory adds to a layer: per row of x (..., seq, d), the
    weighted sum of its selected partial experts on that row, shaped like x.

    One route and one expert call serve every row; `jitter`, when given, has
    x's shape (see softmax_route).
    """
    # Routing keeps x's leading axes, so numpy runs its matmuls as one small
    # GEMM per sequence. One GEMM over all B*seq rows crosses OpenBLAS's
    # threading threshold in an eval pass, and the worker thread it wakes
    # spins after the call, slowing whatever the process runs next.
    at_stage("memory route")
    result = route(x, tokens, lookup, jitter=jitter)
    at_stage("memory experts")
    return apply_expert(x, table, result.indices.reshape(*x.shape[:-1], -1), result.weights)


def partial_expert_param_count(rank: int, buckets: int, d_in: int) -> tuple[int, int]:
    """(comparison count, full count) added by a table of partial experts.

    The comparison count max{2*rank, 1} * buckets drops the universal d_in
    factor; the full count multiplies it back in. Rank 0 stores one constant
    vector per bucket.
    """
    if rank < 0 or buckets < 1 or d_in < 1:
        raise ValueError("need rank >= 0, buckets >= 1, d_in >= 1")
    comparison = max(2 * rank, 1) * buckets
    return comparison, comparison * d_in
