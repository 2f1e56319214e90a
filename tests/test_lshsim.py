"""Sentence-pair construction, mixing, and collision estimators, with
cross-checks between the vectorized span samplers and the literal lookup ops."""

import math

import numpy as np
import pytest

from sparse_memory_lab import lshsim
from sparse_memory_lab.lookup import (
    HyperplaneLshParams,
    MinHashParams,
    SphericalLshParams,
    hyperplane_lsh_lookup,
    minhash_lookup,
    spherical_lsh_lookup,
)
from sparse_memory_lab.lshsim import (
    LshAnalysisParams,
    SentencePairSpec,
    collision_grid,
    default_num_projections,
    estimate_collision,
    estimate_mixing_dot,
    estimate_rho,
    hyperplane_collision_width,
    jaccard,
    make_sentence_pair,
    mix_average,
    mixing_dot,
)


# -- sentence pairs ------------------------------------------------------------

def test_pair_full_overlap_identical_ids():
    ids1, ids2, emb = make_sentence_pair(SentencePairSpec(l=8, f=1.0, d=16, seed=0))
    assert set(ids1) == set(ids2)
    assert len(ids1) == 8


def test_pair_zero_overlap_disjoint():
    ids1, ids2, _ = make_sentence_pair(SentencePairSpec(l=8, f=0.0, d=16, seed=0))
    assert not (set(ids1) & set(ids2))


def test_pair_half_overlap_has_16_shared_of_32():
    ids1, ids2, emb = make_sentence_pair(SentencePairSpec(l=32, f=0.5, d=8, seed=3))
    assert len(set(ids1) & set(ids2)) == 16
    assert len(ids1) == len(ids2) == 32
    for v in emb.values():
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_pair_deterministic_per_seed():
    a = make_sentence_pair(SentencePairSpec(l=8, f=0.5, d=4, seed=9))
    b = make_sentence_pair(SentencePairSpec(l=8, f=0.5, d=4, seed=9))
    assert a[0] == b[0]
    for k in a[2]:
        np.testing.assert_array_equal(a[2][k], b[2][k])


def test_pair_spec_validation():
    with pytest.raises(ValueError):
        SentencePairSpec(l=0, f=0.5, d=4, seed=0)
    with pytest.raises(ValueError):
        SentencePairSpec(l=4, f=1.5, d=4, seed=0)


# -- mixing --------------------------------------------------------------------

def test_mix_average_identical_tokens():
    v = np.array([0.6, 0.8])
    assert np.allclose(mix_average([v, v, v]), v)
    with pytest.raises(ValueError):
        mix_average([])


def test_mix_average_full_overlap_zero_distance():
    ids1, ids2, emb = make_sentence_pair(SentencePairSpec(l=8, f=1.0, d=16, seed=1))
    a1 = mix_average([emb[t] for t in ids1])
    a2 = mix_average([emb[t] for t in ids2])
    assert np.linalg.norm(a1 - a2) == 0.0


def test_mixing_dot_single_pair_near_f():
    ids1, ids2, emb = make_sentence_pair(SentencePairSpec(l=64, f=0.5, d=256, seed=5))
    assert abs(mixing_dot(ids1, ids2, emb) - 0.5) < 0.25


def test_mixing_dot_mean_tracks_overlap_fraction():
    for f in (0.25, 0.75):
        mean, stderr = estimate_mixing_dot(f, l=32, d=64, pairs=2000, seed=11)
        assert abs(mean - f) < 5 * stderr


# -- collision estimates ---------------------------------------------------------

def test_full_overlap_collides_everywhere():
    for family in ("token_id", "spherical", "hyperplane", "minhash"):
        est = estimate_collision(family, 1.0, n=64, l=8, d=8, trials=500, seed=2)
        assert est.p_hat == 1.0


def test_token_id_collision_is_exact_fraction():
    est = estimate_collision("token_id", 0.5, n=64, l=32, d=8, trials=1000, seed=0)
    assert est.p_hat == 0.5
    # round(f*l)/l, not f: 0.3 of 8 ids is 2 shared ids
    assert estimate_collision("token_id", 0.3, n=64, l=8, d=8, trials=10, seed=0).p_hat == 0.25


def test_estimate_reproducible_bitwise():
    a = estimate_collision("spherical", 0.5, n=32, l=8, d=8, trials=2000, seed=77)
    b = estimate_collision("spherical", 0.5, n=32, l=8, d=8, trials=2000, seed=77)
    assert a == b
    c = estimate_collision("hyperplane", 0.5, n=32, l=8, d=8, trials=2000, seed=77)
    d_ = estimate_collision("hyperplane", 0.5, n=32, l=8, d=8, trials=2000, seed=77)
    assert c == d_


def test_estimate_stderr_formula():
    est = estimate_collision("minhash", 0.5, n=64, l=16, d=8, trials=4000, seed=5)
    assert est.stderr == pytest.approx(math.sqrt(est.p_hat * (1 - est.p_hat) / 4000))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        estimate_collision("cuckoo", 0.5, n=8, l=4, d=4, trials=10, seed=0)


GOOD_CELL = dict(family="minhash", f=0.5, n=8, l=4, d=4, trials=10)


@pytest.mark.parametrize("bad, match", [
    ({"family": "cuckoo"}, "unknown family"),
    ({"f": 1.5}, "overlap fraction"),
    ({"f": -0.25}, "overlap fraction"),
    ({"f": float("nan")}, "overlap fraction"),
    ({"n": 0}, "table size"),
    ({"n": -4}, "table size"),
    ({"l": 0}, "sentence length"),
    ({"d": 0}, "embedding dimension"),
    ({"family": "spherical", "d": 1}, "needs d >= 2"),
    ({"trials": 0}, "at least one trial"),
])
def test_out_of_range_cells_rejected_before_any_draw(bad, match, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a cell was estimated before the inputs were checked")

    monkeypatch.setattr(lshsim, "_cell_p_hat", no_draw)
    c = {**GOOD_CELL, **bad}
    with pytest.raises(ValueError, match=match):
        estimate_collision(c["family"], c["f"], c["n"], c["l"], c["d"], c["trials"], seed=0)
    with pytest.raises(ValueError, match=match):
        collision_grid([c["family"]], [c["f"]], [c["n"]], c["l"], c["d"], c["trials"], 0)
    # one bad entry anywhere in a grid rejects the whole grid
    with pytest.raises(ValueError, match=match):
        collision_grid(["token_id", c["family"]], [0.5, c["f"]], [8, c["n"]],
                       c["l"], c["d"], c["trials"], 0)


@pytest.mark.parametrize("f, l, d, pairs", [
    (1.5, 8, 8, 10), (-0.25, 8, 8, 10), (0.5, 0, 8, 10), (0.5, 8, 0, 10), (0.5, 8, 8, 0),
])
def test_mixing_dot_rejects_out_of_range_input(f, l, d, pairs):
    # f outside [0, 1] used to return a number from a mis-sliced sentence pair
    with pytest.raises(ValueError):
        estimate_mixing_dot(f, l, d, pairs, seed=0)


def test_random_stream_is_pinned():
    # literals from the samplers as first written: a reordered draw, or a
    # re-batched hash draw (which interleaves its arrays per batch), changes them
    rows = collision_grid(list(lshsim.FAMILIES), [0.25, 0.75], [16, 300], 8, 8, 2000, 3)
    assert [(r["family"], r["f"], r["n"], r["p_hat"]) for r in rows] == [
        ("token_id", 0.25, 16, 0.25), ("spherical", 0.25, 16, 0.128),
        ("hyperplane", 0.25, 16, 0.855), ("minhash", 0.25, 16, 0.1415),
        ("token_id", 0.25, 300, 0.25), ("spherical", 0.25, 300, 0.011),
        ("hyperplane", 0.25, 300, 0.1575), ("minhash", 0.25, 300, 0.1335),
        ("token_id", 0.75, 16, 0.75), ("spherical", 0.75, 16, 0.382),
        ("hyperplane", 0.75, 16, 0.9175), ("minhash", 0.75, 16, 0.5855),
        ("token_id", 0.75, 300, 0.75), ("spherical", 0.75, 300, 0.132),
        ("hyperplane", 0.75, 300, 0.327), ("minhash", 0.75, 300, 0.5815),
    ]
    # more pairs than one batch of sentence draws
    assert estimate_mixing_dot(0.5, 8, 8, 3000, 3) == (0.49248016465428973,
                                                       0.0067010269233291194)
    p_hats = [estimate_collision(fam, 0.5, 16, 8, 8, 5000, 4, width=2.0).p_hat
              for fam in ("spherical", "hyperplane", "minhash")]
    assert p_hats == [0.2178, 0.068, 0.3356]


# -- dual-route consistency: span samplers vs literal lookup ops --------------------

def _pair_vectors(f, l, d, seed):
    ids1, ids2, emb = make_sentence_pair(SentencePairSpec(l=l, f=f, d=d, seed=seed))
    a1 = mix_average([emb[t] for t in ids1])
    a2 = mix_average([emb[t] for t in ids2])
    return a1 / np.linalg.norm(a1), a2 / np.linalg.norm(a2)


def test_spherical_fast_path_matches_literal_op_loop():
    f, l, d, n = 0.6, 16, 16, 64
    trials = 1500
    hits = 0
    for i in range(trials):
        u, v = _pair_vectors(f, l, d, seed=10_000 + i)
        params = SphericalLshParams.init(n, d, seed=20_000 + i)
        bu, bv = spherical_lsh_lookup(np.stack([u, v]), params).indices
        hits += bu == bv
    direct = hits / trials
    fast = estimate_collision("spherical", f, n=n, l=l, d=d, trials=30000, seed=4)
    pooled = math.sqrt(direct * (1 - direct) / trials + fast.stderr ** 2)
    assert abs(direct - fast.p_hat) < 5 * pooled


def test_hyperplane_fast_path_matches_literal_op_loop():
    f, l, d, n = 0.6, 16, 16, 64
    k = default_num_projections(n)
    width = hyperplane_collision_width(d, l)
    trials = 1500
    hits = 0
    for i in range(trials):
        u, v = _pair_vectors(f, l, d, seed=30_000 + i)
        params = HyperplaneLshParams.init(d, k, width, n, seed=40_000 + i)
        bu, bv = hyperplane_lsh_lookup(np.stack([u, v]), params).indices
        hits += bu == bv
    direct = hits / trials
    fast = estimate_collision("hyperplane", f, n=n, l=l, d=d, trials=30000, seed=8)
    pooled = math.sqrt(direct * (1 - direct) / trials + fast.stderr ** 2)
    assert abs(direct - fast.p_hat) < 5 * pooled


def test_minhash_estimate_matches_literal_op_loop():
    f, l, n = 0.5, 8, 64
    spec = SentencePairSpec(l=l, f=f, d=4, seed=0)
    ids1, ids2, _ = make_sentence_pair(spec)
    universe = len(set(ids1) | set(ids2))
    trials = 4000
    hits = 0
    for i in range(trials):
        params = MinHashParams.init(universe, n, seed=50_000 + i)
        hits += (minhash_lookup(set(ids1), params).indices.tolist()
                 == minhash_lookup(set(ids2), params).indices.tolist())
    direct = hits / trials
    fast = estimate_collision("minhash", f, n=n, l=l, d=4, trials=30000, seed=12)
    pooled = math.sqrt(direct * (1 - direct) / trials + fast.stderr ** 2)
    assert abs(direct - fast.p_hat) < 5 * pooled


# -- rho ---------------------------------------------------------------------------

def test_rho_is_zero_at_full_overlap():
    est = estimate_rho("token_id", 1.0, n_grid=[256], trials=100, l=8, d=8, seed=0)
    assert est.rho_hats == (0.0,)


def test_rho_zero_collisions_rejected():
    with pytest.raises(ValueError, match="zero collisions"):
        estimate_rho("token_id", 0.0, n_grid=[256], trials=100, l=8, d=8, seed=0)


def test_minhash_rho_shrinks_like_inverse_log_n():
    est = estimate_rho("minhash", 0.5, n_grid=[64, 256, 1024], trials=20000,
                       l=32, d=8, seed=3)
    # p_hat independent of n  =>  rho * ln(n) constant
    products = [r * math.log(n) for r, n in zip(est.rho_hats, est.n_grid)]
    assert max(products) - min(products) < 0.15
    assert est.rho_hats[0] > est.rho_hats[1] > est.rho_hats[2]
    assert abs(est.slope) < 0.05  # ln p flat in ln n


@pytest.mark.slow
def test_hyperplane_estimate_stable_across_independent_seeds():
    a = estimate_collision("hyperplane", 0.75, n=1024, l=32, d=64,
                           trials=100_000, seed=1001)
    b = estimate_collision("hyperplane", 0.75, n=1024, l=32, d=64,
                           trials=100_000, seed=2002)
    pooled = math.sqrt(a.stderr ** 2 + b.stderr ** 2)
    assert abs(a.p_hat - b.p_hat) < 4 * pooled


@pytest.mark.slow
def test_pinned_default_width_equals_bisection(monkeypatch):
    pinned = hyperplane_collision_width(64, 32)
    monkeypatch.setattr(lshsim, "_width_cache", {})
    assert hyperplane_collision_width(64, 32) == pinned


@pytest.mark.slow
def test_calibrated_width_hits_target_collision_rate():
    width = hyperplane_collision_width(64, 32)
    est = estimate_collision("hyperplane", 0.9, n=256, l=32, d=64,
                             trials=20_000, seed=31, width=width)
    assert abs(est.p_hat - 0.5) < 0.03


@pytest.mark.slow
def test_spherical_rho_below_hyperplane_rho():
    f, n, trials = 0.5, 1024, 50000
    sph = estimate_rho("spherical", f, n_grid=[n], trials=trials, seed=21)
    hyp = estimate_rho("hyperplane", f, n_grid=[n], trials=trials, seed=22)
    p_s, p_h = sph.p_hats[0], hyp.p_hats[0]
    se_s = math.sqrt(p_s * (1 - p_s) / trials) / (p_s * math.log(n))
    se_h = math.sqrt(p_h * (1 - p_h) / trials) / (p_h * math.log(n))
    gap = hyp.rho_hats[0] - sph.rho_hats[0]
    assert gap > 3 * math.sqrt(se_s ** 2 + se_h ** 2)


# -- jaccard ------------------------------------------------------------------------

def test_jaccard_values():
    assert jaccard({1, 2}, {1, 2}) == 1.0
    assert jaccard({1, 2}, {3, 4}) == 0.0
    # equal-length sets with overlap fraction 0.5: J = f / (2 - f) = 1/3
    assert jaccard({0, 1, 2, 3}, {2, 3, 4, 5}) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        jaccard(set(), set())


def test_minhash_collision_tracks_jaccard_over_random_pairs():
    rng = np.random.default_rng(99)
    for trial in range(12):
        universe = int(rng.integers(6, 24))
        a = set(int(x) for x in rng.choice(universe, rng.integers(1, universe), replace=False))
        b = set(int(x) for x in rng.choice(universe, rng.integers(1, universe), replace=False))
        j = jaccard(a, b)
        perms = 4000
        hits = 0
        for i in range(perms):
            params = MinHashParams.init(universe, universe, seed=1000 * trial + i)
            hits += (minhash_lookup(a, params).indices.tolist()
                     == minhash_lookup(b, params).indices.tolist())
        se = math.sqrt(max(j * (1 - j), 1e-6) / perms)
        assert abs(hits / perms - j) < 5 * se


# -- analysis params / grid -----------------------------------------------------------

def test_lsh_analysis_params():
    p = LshAnalysisParams(r1=1.0, r2=3.0, p1=0.5, p2=0.1)
    assert p.c == 3.0
    assert p.rho == pytest.approx(math.log(2.0) / math.log(10.0))
    with pytest.raises(ValueError):
        LshAnalysisParams(r1=2.0, r2=1.0, p1=0.5, p2=0.1)
    with pytest.raises(ValueError):
        LshAnalysisParams(r1=1.0, r2=2.0, p1=0.1, p2=0.5)


def test_collision_grid_rows_and_determinism():
    rows = collision_grid(["token_id", "minhash"], [0.5, 1.0], [16, 64],
                          l=8, d=8, trials=500, seed=13)
    assert len(rows) == 8
    for r in rows:
        assert set(r) == {"family", "f", "n", "l", "d", "trials", "p_hat",
                          "stderr", "rho_hat"}
    again = collision_grid(["token_id", "minhash"], [0.5, 1.0], [16, 64],
                           l=8, d=8, trials=500, seed=13)
    assert rows == again


def test_default_num_projections_monotone():
    ks = [default_num_projections(n) for n in (8, 64, 256, 1024, 4096)]
    assert ks == sorted(ks)
    assert ks[0] >= 1
