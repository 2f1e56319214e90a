"""Routing functions against brute-force oracles, plus the augmented layer."""

import dataclasses
import math

import numpy as np
import pytest

from sparse_memory_lab import lookup
from sparse_memory_lab.autodiff import Tensor
from sparse_memory_lab.config import MemoryConfig
from sparse_memory_lab.lookup import (
    HyperplaneLshParams,
    MemoryTable,
    MinHashParams,
    SoftmaxRouterParams,
    SphericalLshParams,
    MIX_SEED,
    TokenIdLookup,
    fold_cells,
    hyperplane_lsh_lookup,
    init_lookup,
    memory_augmented_forward,
    minhash_lookup,
    partial_expert_param_count,
    route,
    softmax_route,
    spherical_lsh_lookup,
    token_id_lookup,
    top_k_rows,
)


# -- construction ------------------------------------------------------------

@pytest.mark.parametrize("kind, cls, n", [
    ("token_id", TokenIdLookup, 32), ("softmax", SoftmaxRouterParams, 8),
    ("hyperplane", HyperplaneLshParams, 8), ("spherical", SphericalLshParams, 8),
])
def test_init_lookup_builds_each_kind_with_its_table_size(kind, cls, n):
    # token_id's table is the vocabulary, whatever memory.buckets says
    lookup = init_lookup(MemoryConfig(lookup=kind, buckets=8), 32, 4, np.random.SeedSequence(0))
    assert type(lookup) is cls and lookup.n == n
    if kind == "hyperplane":
        assert lookup.directions.shape == (3, 4)  # ceil(log2 8) projections


def test_init_lookup_rejects_no_lookup():
    with pytest.raises(ValueError, match="unknown lookup kind: 'none'"):
        init_lookup(MemoryConfig(), 32, 4, np.random.SeedSequence(0))


# -- token-id ---------------------------------------------------------------

def test_token_id_basic():
    r = token_id_lookup(np.array([7, 0, 31999, 7]), 32000)
    assert r.indices.tolist() == [7, 0, 31999, 7]
    assert r.weights is None
    assert token_id_lookup([0], 4).indices.tolist() == [0]


def test_token_id_out_of_vocabulary():
    with pytest.raises(ValueError, match="token id 4"):
        token_id_lookup([1, 4], 4)
    with pytest.raises(ValueError, match="token id -1"):
        token_id_lookup([-1, 2], 4)


def test_token_id_layer_independent():
    tokens = np.array([9, 3, 9])
    results = [route(Tensor(np.random.default_rng(i).standard_normal((3, 4))), tokens,
                     TokenIdLookup(n=16)).indices.tolist() for i in range(5)]
    assert all(r == [9, 3, 9] for r in results)


# -- softmax routing -------------------------------------------------------------

def test_softmax_uniform_logits_tie_break_low_index():
    W = Tensor(np.zeros((3, 4)), requires_grad=True)
    r = softmax_route(Tensor(np.ones((2, 3))), SoftmaxRouterParams(W=W, k=1))
    assert r.indices.tolist() == [0, 0]
    np.testing.assert_allclose(r.weights.data, [0.25, 0.25])
    top3 = SoftmaxRouterParams(W=W, k=3)
    assert softmax_route(Tensor(np.ones((1, 3))), top3).indices.tolist() == [0, 1, 2]


def test_softmax_identity_rows_pick_matching_index():
    params = SoftmaxRouterParams(W=Tensor(np.eye(4)), k=1)
    x = np.zeros((4, 4))
    x[[0, 1, 2, 3], [2, 0, 3, 1]] = 1.0
    assert softmax_route(Tensor(x), params).indices.tolist() == [2, 0, 3, 1]


def test_softmax_matches_full_sort_oracle():
    rng = np.random.default_rng(21)
    w = rng.standard_normal((40, 4))
    w[30:] = w[:10]  # exact ties, which must go to the lower index
    x = rng.standard_normal((5, 4))
    params = SoftmaxRouterParams(W=Tensor(w.T), k=2)  # stored (d_in, n)
    r = softmax_route(Tensor(x), params)

    expected_idx, expected_w = [], []
    for row in x:
        logits = w @ row
        probs = np.exp(logits) / np.exp(logits).sum()
        order = sorted(range(40), key=lambda i: (-probs[i], i))
        expected_idx.extend(order[:2])
        expected_w.extend(probs[order[:2]])
        assert abs(probs.sum() - 1.0) < 1e-12
    assert r.indices.tolist() == expected_idx
    np.testing.assert_allclose(r.weights.data, expected_w, rtol=1e-12)
    assert np.all((r.weights.data > 0) & (r.weights.data <= 1))


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_top_k_rows_equals_stable_argsort(k):
    rng = np.random.default_rng(k)
    probs = rng.random((200, 16))
    # forced ties: repeated columns, rows of one value, and zeros
    probs[:, 9] = probs[:, 3]
    probs[:, 12] = probs[:, 3]
    probs[::7] = 0.25
    probs[5::11, :8] = 0.0
    probs[3::13] = np.round(probs[3::13], 1)
    expected = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    before = probs.copy()
    top = top_k_rows(probs, k)
    assert top.dtype == np.intp and top.shape == (200, k)
    np.testing.assert_array_equal(top, expected)
    assert probs.tobytes() == before.tobytes()


def test_softmax_jitter_routes_the_premultiplied_input():
    w = 0.5 * np.random.default_rng(0).standard_normal((4, 3))
    params = SoftmaxRouterParams(W=Tensor(w.T.copy(), requires_grad=True), k=2)
    x_data = np.random.default_rng(2).standard_normal((2, 5, 3))
    eval_a = softmax_route(Tensor(x_data), params)
    eval_b = softmax_route(Tensor(x_data), params)
    assert eval_a.indices.tolist() == eval_b.indices.tolist()
    np.testing.assert_array_equal(eval_a.weights.data, eval_b.weights.data)
    j = np.random.default_rng(1).uniform(0.5, 1.5, size=x_data.shape)
    jittered = softmax_route(Tensor(x_data), params, jitter=j)
    premultiplied = softmax_route(Tensor(x_data * j), params)
    assert jittered.indices.tolist() == premultiplied.indices.tolist()
    np.testing.assert_array_equal(jittered.weights.data, premultiplied.weights.data)
    assert not np.array_equal(jittered.weights.data, eval_a.weights.data)


def test_softmax_k_bounds():
    # W is (d_in, n) = (3, 4): k must lie in [1, 4]
    for k in (0, 5):
        with pytest.raises(ValueError, match=rf"k={k} outside \[1, n=4\]"):
            SoftmaxRouterParams(W=Tensor(np.zeros((3, 4))), k=k)
    with pytest.raises(ValueError, match="router weight must be d_in x n"):
        SoftmaxRouterParams(W=Tensor(np.zeros(4)), k=1)
    params = SoftmaxRouterParams(W=Tensor(np.zeros((3, 4))), k=4)
    assert (params.d_in, params.n) == (3, 4)
    assert softmax_route(Tensor(np.ones((1, 3))), params).indices.tolist() == [0, 1, 2, 3]


def test_softmax_k_cannot_be_raised_after_construction():
    # a k past n would route repeated indices, [0 1 2 3 0] for k = 5 here
    params = SoftmaxRouterParams(W=Tensor(np.zeros((3, 4))), k=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.k = 5
    assert params.k == 4
    assert softmax_route(Tensor(np.ones((1, 3))), params).indices.tolist() == [0, 1, 2, 3]


# -- hyperplane LSH ---------------------------------------------------------------

def test_hyperplane_deterministic():
    params = HyperplaneLshParams.init(8, 4, 1.0, 64, seed=5)
    x = np.random.default_rng(0).standard_normal((6, 8))
    a = hyperplane_lsh_lookup(x, params)
    b = hyperplane_lsh_lookup(x, params)
    assert a.indices.tolist() == b.indices.tolist()
    assert a.indices[2] == hyperplane_lsh_lookup(x[2:3], params).indices[0]


def test_hyperplane_single_projection_arithmetic():
    d = 4
    directions = np.zeros((1, d))
    directions[0, 0] = 1.0
    params = HyperplaneLshParams(directions=directions, offsets=np.zeros(1),
                                 width=1.0, n=16)
    x = np.zeros((3, d))
    x[:, 0] = [2.5, -0.5, 7.0]  # cells floor(x0 / 1.0) = 2, -1, 7
    r = hyperplane_lsh_lookup(x, params)
    expected = [int(fold_cells(np.array([c]), MIX_SEED) % np.uint64(16))
                for c in (2, -1, 7)]
    assert r.indices.tolist() == expected


def test_hyperplane_near_pairs_collide_more_than_far_pairs():
    d, w, n = 16, 1.0, 256
    rng = np.random.default_rng(42)
    near = far = 0
    trials = 10000
    for i in range(trials):
        params = HyperplaneLshParams.init(d, 4, w, n, seed=1000 + i)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        delta = rng.standard_normal(d)
        delta /= np.linalg.norm(delta)
        b = hyperplane_lsh_lookup(np.stack([x, x + 0.1 * w * delta, x + 10.0 * w * delta]),
                                  params).indices
        near += b[0] == b[1]
        far += b[0] == b[2]
    assert near / trials > far / trials


@pytest.mark.parametrize("field", ["directions", "offsets", "width"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_hyperplane_params_must_be_finite(field, value):
    params = dataclasses.asdict(HyperplaneLshParams.init(4, 3, 1.0, 16, seed=0))
    if field == "width":
        params["width"] = value
        match = "bucket width must be positive and finite"
    else:
        params[field] = params[field].copy()
        params[field].flat[1] = value
        match = f"hyperplane {field} must be finite"
    with pytest.raises(ValueError, match=match):
        HyperplaneLshParams(**params)


def test_hyperplane_width_too_small_for_the_cell_hash_is_named():
    # at width 1e-300 the cells reach about 1e300; their int64 cast maps
    # them all to one value, which used to put every row in one bucket
    params = HyperplaneLshParams.init(8, 4, 1e-300, 64, seed=5)
    x = np.random.default_rng(0).standard_normal((6, 8))
    with pytest.raises(ValueError, match="bucket width 1e-300 makes cells of magnitude "):
        hyperplane_lsh_lookup(x, params)


def test_hyperplane_params_accept_lists():
    listed = HyperplaneLshParams(directions=[[1.0, 0.0]], offsets=[0.5], width=1.0, n=4)
    arrays = HyperplaneLshParams(np.array([[1.0, 0.0]]), np.array([0.5]), 1.0, 4)
    assert listed.directions.shape == (1, 2) and listed.offsets.shape == (1,)
    x = np.array([[0.7, 3.0], [-2.2, 1.0]])
    assert (hyperplane_lsh_lookup(x, listed).indices.tolist()
            == hyperplane_lsh_lookup(x, arrays).indices.tolist())


def splitmix_fold(cells, seed):
    """fold_cells of one cell tuple, in Python ints masked to 64 bits."""
    mask = (1 << 64) - 1
    a, b, c = (int(m) for m in (lookup._MIX_A, lookup._MIX_B, lookup._MIX_C))
    state = seed & mask
    for cell in cells:
        state ^= int(cell) & mask  # a cell's two's-complement bits
        state = (state + a) & mask
        state ^= state >> 30
        state = (state * b) & mask
        state ^= state >> 27
        state = (state * c) & mask
        state ^= state >> 31
    return state


def fold_cases():
    rng = np.random.default_rng(90)
    sparse = np.zeros((40, 50), dtype=np.int64)
    sparse.flat[rng.choice(sparse.size, 20, replace=False)] = rng.integers(-9, 10, 20)
    tall = np.zeros((300, 4), dtype=np.int8)  # more rows than a uint8 holds
    tall.flat[rng.choice(tall.size, 12, replace=False)] = rng.integers(-9, 10, 12)
    floats = np.floor(rng.standard_normal((6, 9)) * 2.0)
    floats[floats == 0.0] = -0.0
    floats[0, :3] = [-0.0, 0.0, -0.0]
    return {
        "dense": rng.integers(-2**63, 2**63 - 1, (5, 7), dtype=np.int64, endpoint=True),
        "sparse": sparse,
        "tall_sparse": tall,
        "negative": -rng.integers(1, 2**40, (3, 4, 6)),
        "floats": floats,
        "k0": np.zeros((3, 0), dtype=np.int64),
        "one_row": np.array([2, -1, 7]),
        "zero_rows": np.zeros((0, 5)),
    }


@pytest.mark.parametrize("name", list(fold_cases()))
@pytest.mark.parametrize("seed", [MIX_SEED, 1, 2**64 - 1])
def test_fold_cells_matches_a_python_splitmix_reference(name, seed):
    cells = fold_cases()[name]
    got = fold_cells(cells, seed)
    assert got.dtype == np.uint64 and got.shape == cells.shape[:-1]
    rows = cells.reshape(math.prod(cells.shape[:-1]), cells.shape[-1])
    expected = [splitmix_fold(row, seed) for row in rows]
    assert got.reshape(-1).tolist() == expected


@pytest.mark.parametrize("name", list(fold_cases()))
def test_fold_cells_reads_the_cells_a_chunk_at_a_time(name, monkeypatch):
    # chunks of a few rows each: the count, the give-up and the fill all
    # cross chunk boundaries
    monkeypatch.setattr(lookup, "_FOLD_CHUNK", 100)
    cells = fold_cases()[name]
    rows = cells.reshape(math.prod(cells.shape[:-1]), cells.shape[-1])
    expected = [splitmix_fold(row, MIX_SEED) for row in rows]
    assert fold_cells(cells, MIX_SEED).reshape(-1).tolist() == expected


def test_fold_cells_hashes_a_nan_cell_by_its_int64_cast():
    cells = np.array([[np.nan, 2.0], [1.0, np.nan], [0.0, 0.0]])
    with np.errstate(invalid="ignore"):
        expected = [splitmix_fold(row, MIX_SEED) for row in cells.astype(np.int64)]
        got = fold_cells(cells, MIX_SEED)
    assert got.tolist() == expected


def test_fold_cells_hashes_a_stack_of_blocks_as_each_block():
    rng = np.random.default_rng(91)
    cells = np.floor(rng.standard_normal((2, 30, 40)) / 3.0)  # about 12% nonzero
    stacked = fold_cells(cells, MIX_SEED)
    np.testing.assert_array_equal(stacked[0], fold_cells(cells[0], MIX_SEED))
    np.testing.assert_array_equal(stacked[1], fold_cells(cells[1], MIX_SEED))


# -- spherical LSH ---------------------------------------------------------------

def test_spherical_self_anchor():
    params = SphericalLshParams.init(8, 5, seed=3)
    r = spherical_lsh_lookup(params.anchors, params)
    assert r.indices.tolist() == list(range(8))


def test_spherical_antipodal_sign():
    u = np.zeros(4)
    u[1] = 1.0
    params = SphericalLshParams(anchors=np.stack([u, -u]))
    x = np.array([0.3, 0.9, 0.1, -0.2])
    assert spherical_lsh_lookup(np.stack([x, -x]), params).indices.tolist() == [0, 1]


def test_spherical_matches_brute_force_scan():
    params = SphericalLshParams.init(32, 8, seed=7)
    x = np.random.default_rng(8).standard_normal((20, 8))
    got = spherical_lsh_lookup(x, params).indices
    for t in range(20):
        dots = [params.anchors[i] @ (x[t] / np.linalg.norm(x[t])) for i in range(32)]
        assert got[t] == int(np.argmax(dots))


def test_spherical_scaling_invariance():
    params = SphericalLshParams.init(16, 6, seed=9)
    x = np.random.default_rng(10).standard_normal((10, 6))
    base = spherical_lsh_lookup(x, params).indices.tolist()
    for c in (0.01, 3.7, 250.0):
        assert spherical_lsh_lookup(c * x, params).indices.tolist() == base
    scales = np.array([0.01, 3.7, 250.0, 1.0, 2.0, 0.5, 9.0, 1e-3, 40.0, 7.0])[:, None]
    assert spherical_lsh_lookup(scales * x, params).indices.tolist() == base


def test_spherical_zero_vector_rejected():
    params = SphericalLshParams.init(4, 3, seed=0)
    x = np.ones((3, 3))
    x[1] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        spherical_lsh_lookup(x, params)


def test_spherical_anchor_norm_validated():
    with pytest.raises(ValueError):
        SphericalLshParams(anchors=np.ones((2, 3)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spherical_anchors_must_be_finite(value):
    anchors = SphericalLshParams.init(4, 3, seed=0).anchors.copy()
    anchors[2, 1] = value
    with pytest.raises(ValueError, match="anchors must be finite"):
        SphericalLshParams(anchors=anchors)


# -- min-hash ----------------------------------------------------------------------

def test_minhash_identical_sets_always_collide():
    for seed in range(20):
        params = MinHashParams.init(32, 32, seed=seed)
        a = minhash_lookup({3, 7, 11}, params)
        b = minhash_lookup({3, 7, 11}, params)
        assert a.indices.tolist() == b.indices.tolist()


def test_minhash_disjoint_sets_never_share_winner():
    for seed in range(20):
        params = MinHashParams.init(16, 16, seed=seed)
        a = minhash_lookup({0, 1, 2}, params).indices[0]
        b = minhash_lookup({8, 9, 10}, params).indices[0]
        assert a != b  # universe <= n, so buckets are the elements themselves


def test_minhash_collision_matches_jaccard_half():
    # |A & B| / |A | B| = 2/4 = 0.5
    a, b = {0, 1, 2}, {1, 2, 3}
    universe = 4
    hits = 0
    trials = 100000
    for seed in range(trials):
        params = MinHashParams.init(universe, universe, seed=seed)
        hits += (minhash_lookup(a, params).indices.tolist()
                 == minhash_lookup(b, params).indices.tolist())
    assert abs(hits / trials - 0.5) < 0.01


def test_minhash_empty_set_rejected():
    params = MinHashParams.init(8, 8, seed=0)
    with pytest.raises(ValueError):
        minhash_lookup(set(), params)


# -- memory-augmented layer -----------------------------------------------------------

def test_memory_forward_zero_experts_is_layer_output():
    table = MemoryTable(U=Tensor(np.zeros((3, 4, 2))), V=Tensor(np.zeros((3, 4, 2))))
    router = SoftmaxRouterParams.init(3, 4, k=2, seed=1)
    x = Tensor(np.random.default_rng(2).standard_normal((5, 4)))
    out = x * 2.0 + memory_augmented_forward(x, None, router, table)
    np.testing.assert_allclose(out.data, 2.0 * x.data, rtol=1e-12)


def test_memory_forward_token_id_constant_expert():
    d, n = 4, 5
    table = MemoryTable(b=Tensor(np.repeat(np.arange(n, dtype=float)[:, None], d, axis=1)))
    x = Tensor(np.random.default_rng(3).standard_normal((3, d)))
    tokens = np.array([2, 0, 4])
    out = x + memory_augmented_forward(x, tokens, TokenIdLookup(n=n), table)
    np.testing.assert_allclose(out.data, x.data + tokens[:, None], rtol=1e-12)


def test_memory_forward_matches_scripted_formula():
    rng = np.random.default_rng(17)
    seq, d, n, k, rank = 3, 4, 3, 2, 2
    us = rng.standard_normal((n, d, rank))
    vs = rng.standard_normal((n, d, rank))
    w = rng.standard_normal((n, d))
    x = rng.standard_normal((seq, d))
    layer_m = rng.standard_normal((d, d))

    table = MemoryTable(U=Tensor(us), V=Tensor(vs))
    router = SoftmaxRouterParams(W=Tensor(w.T), k=k)  # stored (d_in, n)
    got = (Tensor(x) @ Tensor(layer_m.T)
           + memory_augmented_forward(Tensor(x), None, router, table)).data

    for t in range(seq):
        probs = np.exp(w @ x[t]) / np.exp(w @ x[t]).sum()
        top = sorted(range(n), key=lambda i: (-probs[i], i))[:k]
        expected = layer_m @ x[t]
        for i in top:
            expected = expected + probs[i] * (vs[i] @ np.maximum(us[i].T @ x[t], 0.0))
        np.testing.assert_allclose(got[t], expected, rtol=1e-12)


def test_memory_forward_router_gradient_nonzero():
    rng = np.random.default_rng(23)
    d, n = 4, 4
    table = MemoryTable.init(n, d, rank=2, seed=5)
    router = SoftmaxRouterParams.init(n, d, k=2, seed=6)
    x = Tensor(rng.standard_normal((3, d)))
    out = x + memory_augmented_forward(x, None, router, table)
    (out * out).sum().backward()
    assert router.W.grad is not None and np.abs(router.W.grad).max() > 0


def test_memory_forward_rejects_index_outside_table():
    table = MemoryTable.init(4, 3, rank=1, seed=0)
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="outside table"):
        memory_augmented_forward(x, [1, 5], TokenIdLookup(n=8), table)


def test_route_purity_same_inputs_same_result():
    rng = np.random.default_rng(29)
    x = Tensor(rng.standard_normal((4, 6)))
    tokens = np.array([5, 1, 5, 7])
    lookups = [
        TokenIdLookup(n=8),
        SoftmaxRouterParams.init(8, 6, k=3, seed=1),
        HyperplaneLshParams.init(6, 4, 1.0, 8, seed=2),
        SphericalLshParams.init(8, 6, seed=3),
    ]
    for lk in lookups:
        a = route(x, tokens, lk)
        b = route(x, tokens, lk)
        assert a.indices.tolist() == b.indices.tolist()
        assert len(a.indices) == 4 * getattr(lk, "k", 1)
        if a.weights is not None:
            np.testing.assert_array_equal(a.weights.data, b.weights.data)
    with pytest.raises(ValueError, match="unknown lookup kind"):
        route(x, tokens, MinHashParams.init(8, 8, seed=4))


def test_routes_are_flat_intp_arrays():
    # the memory layer reshapes them to (rows, k) without a conversion, and a
    # 1-D array is what set.update() accepts element by element
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((2, 3, 6)))
    tokens = np.array([[5, 1, 5], [7, 0, 2]])
    lookups = [
        TokenIdLookup(n=8),
        SoftmaxRouterParams.init(8, 6, k=3, seed=1),
        HyperplaneLshParams.init(6, 4, 1.0, 8, seed=2),
        SphericalLshParams.init(8, 6, seed=3),
    ]
    results = [route(x, tokens, lk).indices for lk in lookups]
    results.append(minhash_lookup({1, 5}, MinHashParams.init(8, 4, seed=4)).indices)
    for idx, rows_k in zip(results, [6, 18, 6, 6, 1]):
        assert isinstance(idx, np.ndarray)
        assert idx.dtype == np.intp
        assert idx.shape == (rows_k,)


# -- parameter count formula ----------------------------------------------------------

def test_partial_expert_param_count_values():
    assert partial_expert_param_count(128, 128, 512)[0] == 32768  # 2**15
    assert partial_expert_param_count(0, 777, 64)[0] == 777
    assert partial_expert_param_count(4, 1024, 64)[0] == 8192
    comparison, full = partial_expert_param_count(4, 32, 16)
    assert (comparison, full) == (256, 4096)
    assert partial_expert_param_count(0, 10, 7) == (10, 70)


def test_partial_expert_param_count_validation():
    with pytest.raises(ValueError):
        partial_expert_param_count(-1, 1, 1)
    with pytest.raises(ValueError):
        partial_expert_param_count(0, 0, 1)


def test_memory_table_homogeneity_enforced():
    with pytest.raises(ValueError, match="either"):
        MemoryTable(U=Tensor(np.zeros((2, 4, 1))), V=Tensor(np.zeros((2, 4, 1))),
                    b=Tensor(np.zeros((2, 4))))
    with pytest.raises(ValueError, match="share a shape"):
        MemoryTable(U=Tensor(np.zeros((2, 4, 1))), V=Tensor(np.zeros((2, 4, 2))))
    with pytest.raises(ValueError, match="both U and V"):
        MemoryTable(U=Tensor(np.zeros((2, 4, 1))))
    with pytest.raises(ValueError):
        MemoryTable(U=Tensor(np.zeros((4, 1))), V=Tensor(np.zeros((4, 1))))
    with pytest.raises(ValueError):
        MemoryTable(b=Tensor(np.zeros(4)))
