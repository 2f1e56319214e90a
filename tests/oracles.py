"""Code that only the tests use: graph nodes the oracles are built of, and
the literal sentence-pair construction the collision samplers are checked
against."""

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
