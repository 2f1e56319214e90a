"""Order-1 Markov token streams with an analytically known entropy rate.

The training corpus stands in for real text: a perfect next-token model's
cross-entropy converges to the chain's entropy rate, which gives every run
an absolute quality floor to compare against.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

_CONCENTRATION = 0.5  # of each transition row's Dirichlet law
_TOL, _MAX_ITERS = 1e-14, 100000  # the stationary law's power iteration


def random_transition_matrix(num_symbols: int, seed) -> np.ndarray:
    """Row-stochastic matrix with Dirichlet(_CONCENTRATION) rows."""
    if num_symbols < 2:
        raise ValueError("need at least two symbols")
    rng = np.random.default_rng(seed)
    raw = rng.gamma(_CONCENTRATION, size=(num_symbols, num_symbols))
    raw = np.maximum(raw, 1e-300)
    return raw / raw.sum(axis=1, keepdims=True)


def _validate_transitions(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("transition matrix must be square")
    if np.any(m < 0) or not np.all(np.isfinite(m)):
        raise ValueError("transition rows must be finite and nonnegative")
    sums = m.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("degenerate transition rows: rows must sum to 1")
    return m


def stationary_distribution(matrix: np.ndarray) -> np.ndarray:
    """Fixed point of pi = pi P by power iteration from uniform.

    Raises ValueError when the iteration does not settle, as on a periodic
    chain whose iterates cycle.
    """
    m = _validate_transitions(matrix)
    n = m.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(_MAX_ITERS):
        nxt = pi @ m
        if np.max(np.abs(nxt - pi)) < _TOL:
            return nxt / nxt.sum()
        pi = nxt
    raise ValueError(f"stationary distribution did not converge in {_MAX_ITERS} power "
                     "iterations from uniform (is the chain periodic?)")


def markov_entropy_rate(matrix: np.ndarray) -> float:
    """Per-token entropy (nats) under the stationary distribution."""
    m = _validate_transitions(matrix)
    pi = stationary_distribution(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(m > 0, m * np.log(m), 0.0)
    return float(-np.sum(pi * plogp.sum(axis=1)))


def sample_markov(matrix: np.ndarray, length: int, seed) -> np.ndarray:
    """Sample a chain of the given length, starting from the stationary law."""
    if length < 1:
        raise ValueError("length must be at least 1")
    m = _validate_transitions(matrix)
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum(m, axis=1)
    cumulative[:, -1] = 1.0
    pi = stationary_distribution(m)
    state = int(rng.choice(m.shape[0], p=pi / pi.sum()))
    # Python floats and bisect compare exactly as searchsorted(side="right")
    # on the float64 rows, without a numpy call per token; the memoryview
    # hands out the draws one float at a time instead of as one big list
    rows = cumulative.tolist()
    tokens = [state]
    for u in memoryview(rng.random(length - 1)):
        state = bisect_right(rows[state], u)
        tokens.append(state)
    return np.array(tokens, dtype=np.int64)

