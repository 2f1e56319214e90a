"""Code that only the tests use: graph nodes the oracles are built of, the
literal sentence-pair construction and the earlier samplers the collision
samplers are checked against, the min-hash collision law in closed form,
cost counts, and the separation experiment's exact solution."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sparse_memory_lab.autodiff import (
    Tensor,
    _log_softmax,
    _log_softmax_grad,
    _normalize,
    _normalize_grad,
)
from sparse_memory_lab.embedding_depth import GroundTruth, SeparationNet


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


@dataclass(frozen=True)
class SentencePairSpec:
    """Two synthetic length-l sentences sharing round(f*l) wordpiece ids."""

    l: int
    f: float
    d: int
    seed: int

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ValueError("sentence length must be at least 1")
        if not (0.0 <= self.f <= 1.0):
            raise ValueError("overlap fraction must lie in [0, 1]")
        if self.d < 1:
            raise ValueError("embedding dimension must be at least 1")

    @property
    def shared(self) -> int:
        return round(self.f * self.l)


def make_sentence_pair(spec: SentencePairSpec) -> tuple[list[int], list[int], dict[int, np.ndarray]]:
    """Two token-id lists sharing exactly round(f*l) ids, plus unit embeddings.

    Ids are structural: shared ids come first, then each sentence's own ids;
    only the embeddings are random.
    """
    s = spec.shared
    own = spec.l - s
    ids1 = list(range(s)) + list(range(s, s + own))
    ids2 = list(range(s)) + list(range(s + own, s + 2 * own))
    rng = np.random.default_rng(spec.seed)
    emb: dict[int, np.ndarray] = {}
    for token in range(s + 2 * own):
        v = rng.standard_normal(spec.d)
        emb[token] = v / np.linalg.norm(v)
    return ids1, ids2, emb


def mix_average(embeddings: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of a sentence's wordpiece embeddings."""
    if len(embeddings) == 0:
        raise ValueError("cannot average an empty sentence")
    return np.mean(np.asarray(embeddings, dtype=np.float64), axis=0)


def mixing_dot(ids1: Sequence[int], ids2: Sequence[int],
               emb: dict[int, np.ndarray]) -> float:
    """Dot product of the two averages, each rescaled to unit expected norm.

    A sentence average of l random unit vectors has expected squared norm
    1/l, so both averages are multiplied by sqrt(l); the result is an
    unbiased estimate of the overlap fraction f.
    """
    if len(ids1) != len(ids2):
        raise ValueError("sentences must have equal length")
    l = len(ids1)
    a1 = mix_average([emb[t] for t in ids1])
    a2 = mix_average([emb[t] for t in ids2])
    return float(l * np.dot(a1, a2))


def beta_walk_norms(m: int, d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """|e_1 + ... + e_m| for `size` sums of m iid uniform unit vectors in R^d,
    d >= 2, each step's cosine c with the sum so far drawn as
    2 Beta((d-1)/2, (d-1)/2) - 1: one (size, m-1) Beta block per walk."""
    if m == 0:
        return np.zeros(size)
    c = 2.0 * rng.beta(0.5 * (d - 1), 0.5 * (d - 1), (size, m - 1)) - 1.0
    r = np.ones(size)
    for k in range(m - 1):
        r = np.sqrt((r + c[:, k]) ** 2 + 1.0 - c[:, k] ** 2)
    return r


def key_argmin_minhash_collisions(f: float, l: int, n: int, trials: int,
                                  rng: np.random.Generator) -> np.ndarray:
    """Min-hash hits from a fresh permutation per trial, as iid uniform keys
    on the union's ids: A holds [0, l), B the s shared ids and
    [s + own, s + 2 own); each sentence's bucket is its argmin id mod n."""
    s = round(f * l)
    own = l - s
    universe = s + 2 * own
    cols_b = np.concatenate([np.arange(s), np.arange(s + own, universe)])
    keys = rng.random((trials, universe))
    elem_a = np.argmin(keys[:, :s + own], axis=1)
    elem_b = cols_b[np.argmin(keys[:, cols_b], axis=1)]
    return (elem_a % n) == (elem_b % n)


def minhash_collision_probability(f: float, l: int, n: int) -> float:
    """P(same min-hash bucket) for the sentences `key_argmin_minhash_collisions`
    builds, in closed form.

    The union's argmin is uniform on its U = s + 2 own ids. A shared one is a
    hit. One of A's own ids (probability own/U) meets B's argmin, uniform on
    B's ids, mod n; one of B's own ids meets A's, uniform on A's ids. With
    n >= U no id wraps, and this is the Jaccard index s/U.
    """
    s = round(f * l)
    own = l - s
    universe = s + 2 * own
    ids_a = np.arange(l)
    ids_b = np.concatenate([np.arange(s), np.arange(s + own, universe)])

    def meet(x: np.ndarray, y: np.ndarray) -> float:
        """P(x = y mod n) for x and y uniform and independent on their ids."""
        return float(np.mean(x[:, None] % n == y[None, :] % n))

    p = s / universe
    if own:
        p += own / universe * (meet(ids_a[s:], ids_b) + meet(ids_a, ids_b[s:]))
    return p


def pcc_simplified_multiplies(K: int, d: int) -> int:
    """Per-token scalar multiply count of one simplified predict+correct step."""
    return K * K * d + 2 * K * d + d


def transformer_block_multiplies(d: int, seq_len: int) -> int:
    """Per-token multiply count of one block (FFN width 4d): projections, scores/mix, FFN."""
    return 4 * d * d + 2 * seq_len * d + 2 * d * (4 * d)


def copy_oracle(net: SeparationNet, truth: GroundTruth) -> None:
    """Install the exact solution in `net` (per_layer at width d only)."""
    cfg = net.config
    if cfg.architecture != "per_layer" or cfg.width != cfg.d:
        raise ValueError("oracle weights exist only for per_layer at width d")
    if len(truth.weights) != cfg.depth:
        raise ValueError("depth mismatch with the ground truth")
    net.gate_u.data[:] = 0.0
    net.gate_q.data[:] = 1.0
    net.q_proj.data[:] = np.eye(cfg.d)
    for w, b, tw, tb in zip(net.weights, net.biases, truth.weights, truth.biases):
        w.data[:] = tw
        b.data[:] = tb
    net.out_table.data[:] = truth.table
