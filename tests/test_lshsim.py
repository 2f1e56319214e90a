"""Sentence-pair construction, mixing, and collision estimators, with
cross-checks between the vectorized span samplers and the literal lookup ops."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparse_memory_lab import lshsim
from sparse_memory_lab.lookup import (
    MIX_SEED,
    HyperplaneLshParams,
    MinHashParams,
    SphericalLshParams,
    fold_cells,
    hyperplane_lsh_lookup,
    minhash_lookup,
    spherical_lsh_lookup,
)
from sparse_memory_lab.lshsim import (
    collision_grid,
    default_num_projections,
    estimate_collision,
    estimate_mixing_dot,
    hyperplane_collision_width,
    jaccard,
)

from oracles import (
    SentencePairSpec,
    beta_walk_norms,
    key_argmin_minhash_collisions,
    make_sentence_pair,
    minhash_collision_probability,
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
    ({"family": "hyperplane", "d": 1}, "hyperplane simulation needs d >= 2"),
])
def test_out_of_range_cells_rejected_before_any_draw(bad, match, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a cell was estimated before the inputs were checked")

    monkeypatch.setattr(lshsim, "_cell_p_hat", no_draw)
    monkeypatch.setattr(lshsim, "_pair_cosines", no_draw)
    c = {**GOOD_CELL, **bad}
    with pytest.raises(ValueError, match=match):
        estimate_collision(c["family"], c["f"], c["n"], c["l"], c["d"], c["trials"], seed=0)
    with pytest.raises(ValueError, match=match):
        collision_grid([c["family"]], [c["f"]], [c["n"]], c["l"], c["d"], c["trials"], 0)
    # one bad entry anywhere in a grid rejects the whole grid
    with pytest.raises(ValueError, match=match):
        collision_grid(["token_id", c["family"]], [0.5, c["f"]], [8, c["n"]],
                       c["l"], c["d"], c["trials"], 0)


@pytest.mark.parametrize("width", [0.0, -5.0, float("nan"), float("inf")])
def test_bad_width_rejected_before_any_draw(width, monkeypatch):
    # unchecked, these raised ZeroDivisionError, a math domain error or numpy's
    # complaint about p, each from inside a draw
    def no_draw(*args, **kwargs):
        raise AssertionError("a cell was estimated before the width was checked")

    monkeypatch.setattr(lshsim, "_cell_p_hat", no_draw)
    monkeypatch.setattr(lshsim, "_pair_cosines", no_draw)
    with pytest.raises(ValueError, match="bucket width must be positive and finite, got "):
        estimate_collision("hyperplane", 0.5, 256, 32, 64, 500, 0, width=width)


def test_width_too_small_for_the_cell_hash_is_named():
    # unchecked, every row landed in one bucket and p_hat read 1.0
    with pytest.raises(ValueError, match="bucket width 1e-300 makes cells of magnitude "):
        estimate_collision("hyperplane", 0.5, 256, 32, 64, 500, 0, width=1e-300)


def test_sparse_sampler_names_a_cell_past_the_int64_range(monkeypatch):
    # the sparse sampler's widths keep its cells small; a tail column scaled
    # past 2**63 widths stands in for one that is not
    tail_normals = lshsim._tail_normals
    monkeypatch.setattr(lshsim, "_tail_normals",
                        lambda size, r, rng: 1e30 * tail_normals(size, r, rng))
    n = 256
    with pytest.raises(ValueError, match="bucket width 55.3 makes cells of magnitude "):
        lshsim._sparse_hyperplane_collisions(np.zeros(2000), n, default_num_projections(n),
                                             55.3, np.random.default_rng(0))


@pytest.mark.parametrize("f, l, d, pairs", [
    (1.5, 8, 8, 10), (-0.25, 8, 8, 10), (0.5, 0, 8, 10), (0.5, 8, 0, 10), (0.5, 8, 8, 0),
])
def test_mixing_dot_rejects_out_of_range_input(f, l, d, pairs):
    # f outside [0, 1] used to return a number from a mis-sliced sentence pair
    with pytest.raises(ValueError):
        estimate_mixing_dot(f, l, d, pairs, seed=0)


def test_random_stream_is_pinned():
    # literals of the samplers' random stream: a reordered draw, or a
    # re-batched pair or hyperplane draw (each interleaves its arrays per
    # batch), changes them
    rows = collision_grid(list(lshsim.FAMILIES), [0.25, 0.75], [16, 300], 8, 8, 2000, 3)
    assert [(r["family"], r["f"], r["n"], r["p_hat"]) for r in rows] == [
        ("token_id", 0.25, 16, 0.25), ("spherical", 0.25, 16, 0.1235),
        ("hyperplane", 0.25, 16, 0.85), ("minhash", 0.25, 16, 0.1445),
        ("token_id", 0.25, 300, 0.25), ("spherical", 0.25, 300, 0.0135),
        ("hyperplane", 0.25, 300, 0.1495), ("minhash", 0.25, 300, 0.147),
        ("token_id", 0.75, 16, 0.75), ("spherical", 0.75, 16, 0.3845),
        ("hyperplane", 0.75, 16, 0.9155), ("minhash", 0.75, 16, 0.61),
        ("token_id", 0.75, 300, 0.75), ("spherical", 0.75, 300, 0.13),
        ("hyperplane", 0.75, 300, 0.3255), ("minhash", 0.75, 300, 0.611),
    ]
    # more pairs than one batch of sentence draws
    assert estimate_mixing_dot(0.5, 8, 8, 3000, 3) == (0.5004733758396959,
                                                       0.006965444136643222)
    p_hats = [estimate_collision(fam, 0.5, 16, 8, 8, 5000, 4, width=2.0).p_hat
              for fam in ("spherical", "hyperplane", "minhash")]
    assert p_hats == [0.2222, 0.071, 0.3354]


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


def test_minhash_blocks_keep_the_one_block_stream(monkeypatch):
    # one (b, 2) draw per block, which the generator fills row by row: 1 and
    # 7 trials per block (a short last block) give the hits of one block
    l, trials = 32, 3000
    for f, n in ((0.0, 3), (0.25, 16), (0.5, 64), (0.75, 1), (1.0, 1024)):
        monkeypatch.setattr(lshsim, "_MINHASH_BLOCK", trials)
        expected = lshsim._minhash_collisions(f, l, n, trials, np.random.default_rng(7))
        for block in (1, 7):
            monkeypatch.setattr(lshsim, "_MINHASH_BLOCK", block)
            got = lshsim._minhash_collisions(f, l, n, trials, np.random.default_rng(7))
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("l", [1, 8, 32])
@pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 1.0])
def test_minhash_collisions_match_the_closed_form(f, l):
    # n below the union's size wraps ids mod n, so own ids can meet
    trials = 20000
    shared = round(f * l)
    for n in (1, 3, 16, 300, 1024):
        p = minhash_collision_probability(f, l, n)
        if n >= 2 * l - shared:  # no id wraps
            assert p == shared / (2 * l - shared)  # the Jaccard index
        hits = lshsim._minhash_collisions(f, l, n, trials, np.random.default_rng(90 + n))
        assert abs(hits.mean() - p) <= 4 * math.sqrt(p * (1 - p) / trials), (n, hits.mean(), p)


@pytest.mark.parametrize("f, l, n", [(0.5, 8, 3), (0.25, 32, 16), (0.75, 32, 1024),
                                     (0.4, 5, 2), (0.0, 16, 7)])
def test_minhash_sampler_matches_the_key_argmin_oracle(f, l, n):
    trials = 40000
    got = lshsim._minhash_collisions(f, l, n, trials, np.random.default_rng(91)).mean()
    want = key_argmin_minhash_collisions(f, l, n, trials, np.random.default_rng(92)).mean()
    pooled = math.sqrt((got * (1 - got) + want * (1 - want)) / trials)
    assert 0 < want < 1
    assert abs(got - want) <= 4 * pooled, (got, want)


# -- the pair sampler's law, and the hash blocks ---------------------------------------

def literal_pair_cosines(f, l, d, trials, rng):
    """make_sentence_pair's construction for `trials` pairs at once: shared
    ids first, then each sentence's own, unit embeddings, mixed averages."""
    s = round(f * l)
    own = l - s
    out = []
    for start in range(0, trials, 1000):
        e = rng.standard_normal((min(1000, trials - start), s + 2 * own, d))
        e /= np.linalg.norm(e, axis=2, keepdims=True)
        a1 = e[:, :s + own].mean(axis=1)
        a2 = np.concatenate([e[:, :s], e[:, s + own:]], axis=1).mean(axis=1)
        out.append(np.einsum("td,td->t", a1, a2)
                   / (np.linalg.norm(a1, axis=1) * np.linalg.norm(a2, axis=1)))
    return np.concatenate(out)


def ks_statistic(a, b):
    """sqrt(n_a n_b / (n_a + n_b)) times the two-sample Kolmogorov-Smirnov distance."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    gap = np.abs(np.searchsorted(a, x, side="right") / a.size
                 - np.searchsorted(b, x, side="right") / b.size)
    return gap.max() * math.sqrt(a.size * b.size / (a.size + b.size))


@pytest.mark.parametrize("f, l, d", [
    (0.0, 32, 64), (0.25, 32, 64), (0.5, 8, 8), (0.9, 32, 64), (0.5, 16, 3),
])
def test_pair_cosines_follow_the_literal_law(f, l, d):
    # 1.63 is the Kolmogorov distribution's 1% point
    trials = 20000
    law = lshsim._pair_cosines(f, l, d, trials, np.random.default_rng(71))
    literal = literal_pair_cosines(f, l, d, trials, np.random.default_rng(72))
    assert ks_statistic(law, literal) < 1.63


@pytest.mark.parametrize("m", [1, 2, 32])
@pytest.mark.parametrize("d", [3, 64])
def test_walk_squared_norm_has_mean_m(m, d):
    # E|e_1 + ... + e_m|^2 = m for iid uniform unit vectors
    sq = lshsim._walk_norms(m, d, 20000, np.random.default_rng(73)) ** 2
    assert abs(sq.mean() - m) <= 4 * sq.std(ddof=1) / math.sqrt(sq.size)


@pytest.mark.parametrize("d", [3, 8, 64])
def test_step_cosines_have_the_uniform_coordinate_moments(d):
    # a uniform unit vector's first coordinate c has E c = 0, E c^2 = 1/d
    # and E c^4 = 3/(d(d+2))
    c, x = lshsim._step_cosines(np.random.default_rng(93).random((2, 400_000)), d)
    for sample, expected in ((c, 0.0), (c ** 2, 1 / d), (c ** 4, 3 / (d * (d + 2)))):
        stderr = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - expected) <= 4 * stderr, (d, expected)
    assert np.all(x >= 0)
    np.testing.assert_array_equal(x, 1.0 - c * c)


@pytest.mark.parametrize("m, d", [(2, 3), (16, 3), (5, 8), (32, 64)])
def test_walk_norms_follow_the_beta_step_oracle(m, d):
    # 1.63 is the Kolmogorov distribution's 1% point
    got = lshsim._walk_norms(m, d, 20000, np.random.default_rng(94))
    want = beta_walk_norms(m, d, 20000, np.random.default_rng(95))
    assert ks_statistic(got, want) < 1.63


@pytest.mark.parametrize("d", [1, 2])
def test_pair_cosines_below_d3_are_the_literal_sums(d):
    f, l, trials = 0.5, 7, 5000  # odd sums of +-1 never vanish at d=1; more than one batch
    got = lshsim._pair_cosines(f, l, d, trials, np.random.default_rng(74))
    a1, a2 = lshsim._sentence_sums(f, l, d, trials, np.random.default_rng(74))
    cos = np.einsum("td,td->t", a1, a2)
    cos /= np.linalg.norm(a1, axis=1) * np.linalg.norm(a2, axis=1)
    np.testing.assert_array_equal(got, np.clip(cos, -1.0, 1.0))


class RecordingGenerator:
    """A numpy Generator that records every array it draws, by method name."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, np.array(out)))  # a copy: samplers work in place
            return out
        return draw


def anchor_products(t, w1, w2, d):
    """Products of uniform unit anchors in R^d with two unit rows of cosine t,
    one anchor per entry of w1 and w2, iid N(0, 1) arrays that are
    overwritten with the products with the first and the second row; d >= 2.

    In an orthonormal basis of the rows' plane whose first vector is the
    first row, an anchor's projection has direction (w1, w2) / R, with
    R^2 = w1^2 + w2^2, and squared norm r^2 ~ Beta(1, (d-2)/2), independent
    of the direction. R is independent of (w1, w2) / R and exp(-R^2/2) is
    uniform, so r^2 = -expm1(-R^2/(d-2)) has that law (r = 1 at d = 2), and
    the products are r (w1, t w1 + sqrt(1 - t^2) w2) / R.
    """
    scale = w1 * w1
    scale += w2 * w2  # R^2
    if d > 2:
        r2 = scale * (-1.0 / (d - 2))
        np.expm1(r2, out=r2)
        r2 /= scale  # -(r/R)^2
        np.negative(r2, out=r2)
        scale = np.sqrt(r2, out=r2)
    else:
        np.sqrt(scale, out=scale)
        np.reciprocal(scale, out=scale)
    w2 *= np.sqrt(np.maximum(0.0, 1.0 - t * t))
    w2 += t * w1
    w1 *= scale
    w2 *= scale
    return w1, w2


def two_normal_spherical_collisions(cosines, n, d, rng):
    """The spherical sampler that scores all n anchors of every trial, each
    from two normals (`anchor_products`), in blocks of at most 4 MiB per
    (rows, n) array."""
    def draw(start, stop):
        b = stop - start
        w1 = rng.standard_normal((b, n))
        w2 = rng.standard_normal((b, n))
        p1, p2 = anchor_products(cosines[start:stop, None], w1, w2, d)
        return np.argmax(p1, axis=1) == np.argmax(p2, axis=1)

    return lshsim._batched(cosines.size, max(1, (1 << 19) // n), draw)


@pytest.mark.parametrize("n, d, t", [(1024, 64, 0.5), (1024, 64, 0.9), (300, 8, 0.75),
                                     (16, 8, 0.3), (64, 3, 0.95), (32, 2, 0.99)])
def test_spherical_sampler_matches_the_two_normal_oracle(n, d, t):
    trials = 20_000 if n >= 1024 else 60_000
    cosines = np.full(trials, t)
    got = lshsim._spherical_collisions(cosines, n, d, np.random.default_rng(81)).mean()
    want = two_normal_spherical_collisions(cosines, n, d, np.random.default_rng(82)).mean()
    pooled = math.sqrt((got * (1 - got) + want * (1 - want)) / trials)
    assert 0 < want < 1
    assert abs(got - want) <= 4 * pooled, (got, want)


def uniform_ks_distance(u):
    """Kolmogorov-Smirnov distance of a sample's empirical law from U(0, 1)."""
    u = np.sort(u)
    m = u.size
    return max((np.arange(1, m + 1) / m - u).max(), (u - np.arange(m) / m).max())


def test_unit_circle_matches_numpy_cos_and_sin():
    u = np.random.default_rng(97).random(1_000_000)
    u[:2] = [0.0, 0.5]
    angle = 2.0 * np.pi * u
    cos, sin = lshsim._unit_circle(u.copy())
    np.testing.assert_allclose(cos, np.cos(angle), rtol=0, atol=1e-15)
    np.testing.assert_allclose(sin, np.sin(angle), rtol=0, atol=1e-15)
    assert cos[0] == 1.0 and sin[0] == 0.0 and cos[1] == -1.0


def test_unit_circle_angle_is_uniform():
    # the angle, read back from the cosine and sine, is uniform on [0, 2 pi)
    size = 100_000
    cos, sin = lshsim._unit_circle(np.random.default_rng(98).random(size))
    angle = np.arctan2(sin, cos) % (2.0 * math.pi)
    assert uniform_ks_distance(angle / (2.0 * math.pi)) <= 1.95 / math.sqrt(size)


@pytest.mark.parametrize("n, d", [(1024, 64), (12, 8), (300, 3)])
def test_descending_radii_are_the_order_statistics_of_n_beta_draws(n, d):
    # r^2 ~ Beta(1, a), a = (d-2)/2, has CDF F(x) = 1 - (1-x)^a; the largest
    # of n has F^n, and the n visited radii, as a set, are n iid draws
    rows = 4000
    a = 0.5 * (d - 2)
    rng = np.random.default_rng(83)
    log_v, r = lshsim._descending_radii(np.zeros(rows), rng.random((rows, min(n, 8))), n, 0, d)
    first = 1.0 - (1.0 - r[:, 0] ** 2) ** a
    assert uniform_ks_distance(first ** n) <= 1.95 / math.sqrt(rows)  # 0.1% level
    assert np.all(np.diff(r, axis=1) <= 0)
    if n == 12:
        _, rest = lshsim._descending_radii(log_v, rng.random((rows, 4)), n, 8, d)
        assert np.all(rest[:, 0] <= r[:, -1])
        cdf = 1.0 - (1.0 - np.concatenate([r, rest], axis=1) ** 2) ** a
        assert uniform_ks_distance(cdf.ravel()) <= 1.95 / math.sqrt(cdf.size)


def test_early_stop_agrees_with_a_visit_of_all_anchors():
    # replay the recorded draws trial by trial, visit each trial's anchors
    # left unvisited with fresh draws, and take both argmaxes over all n
    n, d = 64, 8
    cosines = np.concatenate([np.random.default_rng(84).uniform(-1.0, 1.0, 300),
                              np.full(100, 0.97)])
    rng = RecordingGenerator(85)
    hits = lshsim._spherical_collisions(cosines, n, d, rng)
    live = list(range(cosines.size))
    log_v = np.zeros(cosines.size)
    anchors = [[] for _ in live]  # (r, p1, p2) per visited anchor, in visit order
    draws = iter(rng.draws)
    for (name_u, u), (name_v, v) in zip(draws, draws):
        assert (name_u, name_v) == ("random", "random")
        assert u.shape == v.shape == (len(live), u.shape[1])
        k = len(anchors[live[0]])
        log_v[live], r = lshsim._descending_radii(log_v[live], u, n, k, d)
        for row, trial in enumerate(live):
            phi = math.acos(cosines[trial])
            for rj, vj in zip(r[row], v[row]):
                theta = 2.0 * math.pi * vj  # one uniform per anchor's angle
                anchors[trial].append((rj, rj * math.cos(theta), rj * math.cos(theta - phi)))
        live = [trial for trial in live if len(anchors[trial]) < n
                and anchors[trial][-1][0] >= min(max(a[1] for a in anchors[trial]),
                                                 max(a[2] for a in anchors[trial]))]
    assert not live
    visits = np.array([len(a) for a in anchors])
    assert visits.min() < visits.max() < n  # trials stop at different rounds
    fresh = np.random.default_rng(86)
    for trial, visited in enumerate(anchors):
        k = len(visited)
        _, r = lshsim._descending_radii(np.array([log_v[trial]]), fresh.random((1, n - k)), n, k, d)
        theta = fresh.uniform(0.0, 2.0 * math.pi, n - k)
        phi = math.acos(cosines[trial])
        p1 = np.concatenate([[a[1] for a in visited], r[0] * np.cos(theta)])
        p2 = np.concatenate([[a[2] for a in visited], r[0] * np.cos(theta - phi)])
        assert (np.argmax(p1) == np.argmax(p2)) == hits[trial], trial
        assert np.argmax(p1) < k and np.argmax(p2) < k


@pytest.mark.parametrize("n, d", [(1024, 64), (16, 8), (32, 2)])
def test_spherical_pair_of_equal_rows_always_collides(n, d):
    hits = lshsim._spherical_collisions(np.ones(500), n, d, np.random.default_rng(87))
    assert hits.all()


@pytest.mark.parametrize("d", [2, 3, 64])
def test_spherical_table_of_one_anchor_always_collides(d):
    cosines = np.random.default_rng(88).uniform(-1.0, 1.0, 500)
    assert lshsim._spherical_collisions(cosines, 1, d, np.random.default_rng(89)).all()


@pytest.mark.parametrize("n, d", [(4096, 64), (4096, 3), (300, 8)])
def test_spherical_draws_stay_at_eight_anchors_per_trial(n, d):
    trials = 3000
    cosines = np.random.default_rng(75).uniform(-1.0, 1.0, trials)
    rng = RecordingGenerator(76)
    lshsim._spherical_collisions(cosines, n, d, rng)
    assert max(x.shape[-1] for _, x in rng.draws) == 8
    assert max(x.size for _, x in rng.draws) <= trials * 8


@pytest.mark.parametrize("n, trials, rounds", [(1024, 4000, 8), (32, 20000, 2), (4096, 100, 1)])
def test_spherical_draws_at_d2_stay_within_the_bound(n, trials, rounds):
    # every r is 1 at d = 2, so a round visits as many anchors as one draw
    # of at most 2**19 uniform angles holds: 131 of 1024 for 4000 trials
    cosines = np.random.default_rng(95).uniform(-1.0, 1.0, trials)
    rng = RecordingGenerator(96)
    lshsim._spherical_collisions(cosines, n, 2, rng)
    assert all(name == "random" for name, _ in rng.draws)
    assert max(x.size for _, x in rng.draws) <= lshsim._SPHERICAL_D2_DRAW
    assert len(rng.draws) == rounds


@pytest.mark.parametrize("d", [3, 8, 64])
def test_anchor_products_have_the_uniform_anchor_moments(d):
    # a uniform unit anchor a and unit rows u, v of cosine t have
    # E(a.u)^2 = 1/d, E(a.u)^4 = 3/(d(d+2)) and E(a.u)(a.v) = t/d
    t = 0.6
    rng = np.random.default_rng(79)
    w1, w2 = rng.standard_normal((2, 400, 500))
    p1, p2 = anchor_products(np.full((400, 1), t), w1, w2, d)
    for sample, expected in ((p1 ** 2, 1 / d), (p1 ** 4, 3 / (d * (d + 2))),
                             (p1 * p2, t / d)):
        stderr = sample.std(ddof=1) / math.sqrt(sample.size)
        assert abs(sample.mean() - expected) <= 4 * stderr, (d, expected)


def test_anchor_products_at_d2_lie_on_the_unit_circle():
    rng = np.random.default_rng(80)
    t = rng.uniform(-0.99, 0.99, (300, 1))
    w1, w2 = rng.standard_normal((2, 300, 64))
    p1, p2 = anchor_products(t, w1, w2, 2)
    # (p1, (p2 - t p1) / s) is the anchor in an orthonormal basis of the plane
    second = (p2 - t * p1) / np.sqrt(1.0 - t * t)
    np.testing.assert_allclose(p1 * p1 + second * second, 1.0, rtol=0, atol=1e-12)


def reference_hyperplane_collisions(cosines, n, k, width, rng):
    """The hyperplane sampler as first written, out of place."""
    def draw(start, stop):
        t = cosines[start:stop, None]
        b = stop - start
        w1 = rng.standard_normal((b, k))
        w2 = rng.standard_normal((b, k))
        offs = rng.uniform(0.0, width, (b, k))
        pu = w1
        pv = t * w1 + np.sqrt(np.maximum(0.0, 1.0 - t * t)) * w2
        cu = np.floor((pu + offs) / width).astype(np.int64)
        cv = np.floor((pv + offs) / width).astype(np.int64)
        bu = fold_cells(cu, MIX_SEED) % np.uint64(n)
        bv = fold_cells(cv, MIX_SEED) % np.uint64(n)
        return bu == bv

    return lshsim._batched(cosines.size, max(1, int(2e7 / k)), draw)


@pytest.mark.parametrize("n", [256, 1024])
def test_in_place_hyperplane_block_equals_reference(n):
    rng = np.random.default_rng(77)
    cosines = np.concatenate([rng.uniform(-1.0, 1.0, 1500), np.ones(100),
                              lshsim._pair_cosines(0.9, 32, 64, 1500, rng)])
    k = default_num_projections(n)
    width = hyperplane_collision_width(64, 32)
    got = lshsim._hyperplane_collisions(cosines, n, k, width, np.random.default_rng(78))
    expected = reference_hyperplane_collisions(cosines, n, k, width, np.random.default_rng(78))
    np.testing.assert_array_equal(got, expected)
    assert 0 < got.sum() < got.size


@pytest.mark.parametrize("rows", [1, 7, 400])
def test_hyperplane_offset_chunks_keep_the_stream(monkeypatch, rows):
    # 300 trials: 7 rows leave a short last chunk, 400 is more than the block
    n = 256
    k = default_num_projections(n)
    rng = np.random.default_rng(83)
    cosines = np.concatenate([rng.uniform(-1.0, 1.0, 250), np.ones(50)])
    width = hyperplane_collision_width(64, 32)
    monkeypatch.setattr(lshsim, "_OFFSET_CHUNK", rows * k)
    got = lshsim._hyperplane_collisions(cosines, n, k, width, np.random.default_rng(84))
    expected = reference_hyperplane_collisions(cosines, n, k, width, np.random.default_rng(84))
    np.testing.assert_array_equal(got, expected)


def test_hyperplane_sampler_keeps_two_blocks_alive():
    trials, n = 2000, 1024
    k = default_num_projections(n)
    cosines = np.random.default_rng(85).uniform(-1.0, 1.0, trials)
    width = hyperplane_collision_width(64, 32)
    tracemalloc.start()
    try:
        lshsim._hyperplane_collisions(cosines, n, k, width, np.random.default_rng(86))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two rows' projections, plus the fold's mask and nonzero cells
    assert peak <= 2.5 * trials * k * 8, peak / (trials * k * 8)


# -- rho ---------------------------------------------------------------------------

def test_rho_is_zero_at_full_overlap():
    (row,) = collision_grid(["token_id"], [1.0], [256], l=8, d=8, trials=100, seed=0)
    assert row["rho_hat"] == 0.0


def test_rho_is_nan_without_collisions():
    (row,) = collision_grid(["token_id"], [0.0], [256], l=8, d=8, trials=100, seed=0)
    assert row["p_hat"] == 0.0
    assert math.isnan(row["rho_hat"])


def test_minhash_rho_shrinks_like_inverse_log_n():
    rows = collision_grid(["minhash"], [0.5], [64, 256, 1024], l=32, d=8, trials=20000,
                          seed=3)
    n_grid = [r["n"] for r in rows]
    rho_hats = [r["rho_hat"] for r in rows]
    # p_hat independent of n  =>  rho * ln(n) constant
    products = [r * math.log(n) for r, n in zip(rho_hats, n_grid)]
    assert max(products) - min(products) < 0.15
    assert rho_hats[0] > rho_hats[1] > rho_hats[2]
    slope = np.polyfit(np.log(n_grid), np.log([r["p_hat"] for r in rows]), 1)[0]
    assert abs(slope) < 0.05  # ln p flat in ln n


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


def hyperplane_hit_oracle(cosines: np.ndarray, n: int, k: int, width: float) -> np.ndarray:
    """P(same bucket | t) per realized cosine t, in closed form.

    Each projection difference is N(0, 2 - 2t) and the offset is uniform on
    [0, width), so one projection puts both rows in one cell with probability
    q = (2 Phi(a) - 1) - (2 / a) (phi(0) - phi(a)), a = width / sqrt(2 - 2t).
    All k cells match with probability q^k; otherwise the mixed cells still
    meet mod n about 1/n of the time.
    """
    a = width / np.sqrt(2.0 - 2.0 * cosines)
    erf = np.frompyfunc(math.erf, 1, 1)(a / math.sqrt(2.0)).astype(np.float64)
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    q = erf - (2.0 / a) * (phi0 - phi0 * np.exp(-0.5 * a * a))
    qk = q ** k
    return qk + (1.0 - qk) / n


@pytest.mark.parametrize("f", [0.5, 0.9])
def test_hyperplane_collisions_match_closed_form(f):
    width = hyperplane_collision_width(64, 32)
    cosines = lshsim._pair_cosines(f, 32, 64, 10_000, np.random.default_rng(61))
    for n in (256, 1024):
        k = default_num_projections(n)
        hits = lshsim._hyperplane_collisions(cosines, n, k, width,
                                             np.random.default_rng(62 + n))
        p = hyperplane_hit_oracle(cosines, n, k, width)
        stderr = math.sqrt((p * (1.0 - p)).mean() / cosines.size)
        assert abs(hits.mean() - p.mean()) < 4 * stderr, (f, n, hits.mean(), p.mean())


def test_pinned_width_is_a_root_of_the_closed_form():
    # the calibration's own literal cosines, so only its hash draws are Monte Carlo
    s_pairs, _ = np.random.SeedSequence(lshsim._CALIBRATION_SEED).spawn(2)
    cosines = lshsim._pair_cosines(lshsim._CALIBRATION_F, 32, 64, lshsim._CALIBRATION_TRIALS,
                                   np.random.default_rng(s_pairs), literal=True)
    n, target = lshsim._CALIBRATION_N, lshsim._CALIBRATION_TARGET
    k = default_num_projections(n)

    def rate(width):
        return hyperplane_hit_oracle(cosines, n, k, width).mean()

    lo, hi = 0.5, 2000.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rate(mid) < target else (lo, mid)
    root = 0.5 * (lo + hi)
    p = hyperplane_hit_oracle(cosines, n, k, root)
    stderr = math.sqrt((p * (1.0 - p)).mean() / cosines.size)
    slope = rate(root + 0.5) - rate(root - 0.5)  # per unit of width
    assert abs(hyperplane_collision_width(64, 32) - root) < 4 * stderr / slope


# -- the sparse hyperplane sampler -------------------------------------------------

@pytest.mark.parametrize("f, n", [(0.5, 256), (0.5, 1024), (0.9, 256), (0.9, 1024)])
def test_sparse_hyperplane_collisions_match_closed_form(f, n):
    width = hyperplane_collision_width(64, 32)
    cosines = lshsim._pair_cosines(f, 32, 64, 10_000, np.random.default_rng(63))
    k = default_num_projections(n)
    hits = lshsim._sparse_hyperplane_collisions(cosines, n, k, width,
                                                np.random.default_rng(64 + n))
    p = hyperplane_hit_oracle(cosines, n, k, width)
    stderr = math.sqrt((p * (1.0 - p)).mean() / cosines.size)
    assert abs(hits.mean() - p.mean()) < 4 * stderr, (hits.mean(), p.mean())


@pytest.mark.parametrize("width, radius", [(6.5, 3.0), (8.0, 3.0), (55.3, 3.0),
                                           (8.0, 1.0), (55.3, 1.0)])
def test_sparse_hyperplane_sampler_matches_the_literal_one(monkeypatch, width, radius):
    # every width draws sparsely here, also where the literal sampler is the
    # faster one; at radius 1 most nonzero cells come from tail columns
    monkeypatch.setattr(lshsim, "_SPARSE_MAX_BAND", 1.0)
    monkeypatch.setattr(lshsim, "_SPARSE_RADIUS", radius)
    n, trials = 256, 20_000
    k = default_num_projections(n)
    # distances from t = 1 spread over four decades, so that trials at every
    # width range from sure hits to sure misses
    cosines = 1.0 - 10.0 ** np.random.default_rng(65).uniform(-4.0, 0.0, trials)
    sparse = lshsim._sparse_hyperplane_collisions(cosines, n, k, width,
                                                  np.random.default_rng(66)).mean()
    literal = lshsim._hyperplane_collisions(cosines, n, k, width,
                                            np.random.default_rng(67)).mean()
    stderr = math.sqrt((sparse * (1.0 - sparse) + literal * (1.0 - literal)) / trials)
    assert abs(sparse - literal) < 4 * stderr, (sparse, literal)


def test_sparse_hyperplane_pair_of_equal_rows_always_collides():
    n = 1024
    hits = lshsim._sparse_hyperplane_collisions(np.ones(3000), n, default_num_projections(n),
                                                hyperplane_collision_width(64, 32),
                                                np.random.default_rng(68))
    assert hits.all()


@pytest.mark.parametrize("m, q", [(1, 0.5), (1000, 0.01), (100_000, 0.108),
                                  (2_896_000, 0.011)])
def test_bernoulli_positions_are_sorted_unique_and_in_range(m, q):
    pos = lshsim._bernoulli_positions(m, q, np.random.default_rng(69))
    assert np.all(np.diff(pos) > 0)
    assert pos.size == 0 or (pos[0] >= 0 and pos[-1] < m)
    assert abs(pos.size - m * q) < 4 * math.sqrt(m * q * (1.0 - q))
    if m >= 100_000:  # and spread evenly: each tenth of the cells holds its share
        counts = np.bincount(pos * 10 // m, minlength=10)
        assert np.all(np.abs(counts - m * q / 10) < 4 * math.sqrt(m * q * (1.0 - q) / 10))


def test_bernoulli_positions_draw_runs_until_they_cover_the_cells():
    class UnitGaps:  # every gap 1, so each run of gaps covers far fewer than m cells
        def geometric(self, q, size):
            return np.ones(size, dtype=np.int64)

    np.testing.assert_array_equal(lshsim._bernoulli_positions(1000, 0.01, UnitGaps()),
                                  np.arange(1000))


@given(t=st.floats(-1.0, 1.0), radius=st.floats(0.0, 1.0),
       angle=st.floats(0.0, 2.0 * math.pi), middle=st.floats(0.0, 1.0, exclude_max=True),
       width=st.floats(6.5, 1e4))
def test_a_middle_column_inside_the_radius_has_two_zero_cells(t, radius, angle, middle,
                                                              width):
    r = lshsim._SPARSE_RADIUS
    # |w| just below B: the bound is exact in real arithmetic, while a float
    # sum at |w| = B exactly may round across a cell edge
    w = (1.0 - 1e-9) * r * radius * np.array([[math.cos(angle)], [math.sin(angle)]])
    offset = r + middle * (width - 2.0 * r)
    cells = lshsim._column_cells(np.array([t]), w, np.array([offset]), width)
    np.testing.assert_array_equal(cells, 0.0)


@pytest.mark.parametrize("r", [1.0, 3.0])
def test_tail_normals_follow_the_normal_law_past_the_radius(r):
    size = 20_000
    w = lshsim._tail_normals(size, r, np.random.default_rng(70 + int(r)))
    norm = np.hypot(*w)
    radius = np.sort(norm)
    # P(|w| <= x | |w| > r) = 1 - exp(-(x^2 - r^2) / 2) for x >= r
    cdf = -np.expm1(-0.5 * (radius * radius - r * r))
    ks = max((np.arange(1, size + 1) / size - cdf).max(), (cdf - np.arange(size) / size).max())
    assert ks < 1.95 / math.sqrt(size), ks  # Kolmogorov's critical value at 0.001
    # and a uniform angle: cos and sin of it have mean 0 and variance 1/2
    assert np.all(np.abs((w / norm).mean(axis=1)) < 4 * math.sqrt(0.5 / size))


@pytest.mark.slow
def test_spherical_rho_below_hyperplane_rho():
    f, n, trials = 0.5, 1024, 50000
    (sph,) = collision_grid(["spherical"], [f], [n], l=32, d=64, trials=trials, seed=21)
    (hyp,) = collision_grid(["hyperplane"], [f], [n], l=32, d=64, trials=trials, seed=22)
    p_s, p_h = sph["p_hat"], hyp["p_hat"]
    se_s = math.sqrt(p_s * (1 - p_s) / trials) / (p_s * math.log(n))
    se_h = math.sqrt(p_h * (1 - p_h) / trials) / (p_h * math.log(n))
    gap = hyp["rho_hat"] - sph["rho_hat"]
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


# -- grid ---------------------------------------------------------------------------

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
