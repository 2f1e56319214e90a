"""Corpus generator: analytic entropy and sampling statistics."""

import numpy as np
import pytest

from sparse_memory_lab.markov import (
    markov_entropy_rate,
    random_transition_matrix,
    sample_markov,
    stationary_distribution,
)


def test_uniform_transitions_entropy_is_log_v():
    p = np.full((4, 4), 0.25)
    assert abs(markov_entropy_rate(p) - np.log(4)) < 1e-12


def test_deterministic_cycle_entropy_zero():
    p = np.zeros((5, 5))
    for i in range(5):
        p[i, (i + 1) % 5] = 1.0
    assert markov_entropy_rate(p) == 0.0


def test_bigram_frequencies_match_matrix_at_length_1e6():
    p = random_transition_matrix(8, seed=123)
    tokens = sample_markov(p, 1_000_000, seed=7)
    counts = np.zeros((8, 8))
    np.add.at(counts, (tokens[:-1], tokens[1:]), 1.0)
    conditional = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(conditional - p).max() < 0.01


def test_periodic_chain_is_an_error():
    # period 2: the iterates from uniform alternate and never settle on
    # pi = (1/4, 1/2, 1/4)
    p = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="did not converge"):
        stationary_distribution(p)


def test_stationary_is_fixed_point():
    p = random_transition_matrix(6, seed=5)
    pi = stationary_distribution(p)
    np.testing.assert_allclose(pi @ p, pi, atol=1e-12)
    assert abs(pi.sum() - 1.0) < 1e-12


def test_degenerate_rows_rejected():
    bad = np.array([[0.5, 0.4], [0.2, 0.8]])  # first row sums to 0.9
    with pytest.raises(ValueError):
        markov_entropy_rate(bad)
    with pytest.raises(ValueError):
        sample_markov(np.array([[1.0, 0.1], [-0.1, 1.0]]), 10, seed=0)


def test_corpus_deterministic_per_seed():
    def corpus(transition_seed, corpus_seed):
        matrix = random_transition_matrix(8, transition_seed)
        return sample_markov(matrix, 500, corpus_seed), markov_entropy_rate(matrix)

    t1, h1 = corpus(1, 2)
    t2, h2 = corpus(1, 2)
    np.testing.assert_array_equal(t1, t2)
    assert h1 == h2
    t3, _ = corpus(1, 3)
    assert np.any(t1 != t3)


def test_num_symbols_minimum():
    with pytest.raises(ValueError):
        random_transition_matrix(1, seed=0)


def reference_sample_markov(matrix, length, seed):
    """The per-token searchsorted loop the sampler replaced, draw for draw."""
    m = np.asarray(matrix, dtype=np.float64)
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum(m, axis=1)
    cumulative[:, -1] = 1.0
    pi = stationary_distribution(m)
    tokens = np.empty(length, dtype=np.int64)
    state = int(rng.choice(m.shape[0], p=pi / pi.sum()))
    tokens[0] = state
    draws = rng.random(length - 1)
    for i in range(1, length):
        state = int(np.searchsorted(cumulative[state], draws[i - 1], side="right"))
        tokens[i] = state
    return tokens


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("length", [1, 2, 5000])
def test_sampler_equals_searchsorted_loop(seed, length):
    p = random_transition_matrix(16, seed=seed + 100)
    got = sample_markov(p, length, seed=seed)
    assert got.dtype == np.int64 and got.shape == (length,)
    np.testing.assert_array_equal(got, reference_sample_markov(p, length, seed))


def test_sampler_equals_searchsorted_loop_with_zero_probabilities():
    p = np.array([[0.0, 0.5, 0.5, 0.0],
                  [0.25, 0.0, 0.0, 0.75],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.5, 0.0, 0.5, 0.0]])
    for seed in range(3):
        got = sample_markov(p, 2000, seed=seed)
        np.testing.assert_array_equal(got, reference_sample_markov(p, 2000, seed))
        assert not np.any(p[got[:-1], got[1:]] == 0.0)
