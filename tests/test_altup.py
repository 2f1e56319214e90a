"""Predict-compute-correct algebra against scripted numpy oracles."""

import numpy as np
import pytest

from sparse_memory_lab.altup import (
    BlockSelection,
    DivideProjectParams,
    PccFullParams,
    PccSimplifiedParams,
    WideRepresentation,
    altup_stack_forward,
    divide_and_project,
    pcc_forward_full,
    pcc_forward_simplified,
    pcc_simplified_multiplies,
    select_block,
)
from sparse_memory_lab.autodiff import Tensor
from sparse_memory_lab.nn import transformer_block_multiplies


def wide(blocks):
    return WideRepresentation(blocks=[Tensor(b) for b in blocks])


# -- block selection --------------------------------------------------------

def test_select_block_alternating_cycles():
    sel = BlockSelection(mode="alternating")
    assert [select_block(i, 2, sel) for i in range(6)] == [0, 1, 0, 1, 0, 1]
    assert select_block(7, 3, sel) == 1


def test_select_block_same_is_fixed():
    sel = BlockSelection(mode="same", fixed_index=0)
    assert all(select_block(i, 3, sel) == 0 for i in range(10))


def test_select_block_fixed_index_bound():
    with pytest.raises(ValueError):
        select_block(0, 2, BlockSelection(mode="same", fixed_index=2))


# -- full predict-compute-correct ------------------------------------------------

def block_selector_gain(K, d, j_star):
    """G that writes the innovation into block j_star only."""
    g = np.zeros((K * d, d))
    g[j_star * d:(j_star + 1) * d] = np.eye(d)
    return g


def test_full_identity_p_selector_g_replaces_computed_block():
    K, d = 3, 4
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal(d) for _ in range(K)]
    j = 1
    params = PccFullParams(P=Tensor(np.eye(K * d)),
                           G=Tensor(block_selector_gain(K, d, j)))
    m = rng.standard_normal((d, d))
    out = pcc_forward_full(wide(blocks), params, lambda x: Tensor(m) @ x, j)
    np.testing.assert_allclose(out.blocks[j].data, m @ blocks[j], rtol=1e-12)
    np.testing.assert_allclose(out.blocks[0].data, blocks[0], rtol=1e-12)
    np.testing.assert_allclose(out.blocks[2].data, blocks[2], rtol=1e-12)


def test_full_identity_layer_identity_p_is_noop():
    K, d = 2, 3
    rng = np.random.default_rng(1)
    blocks = [rng.standard_normal(d) for _ in range(K)]
    params = PccFullParams(P=Tensor(np.eye(K * d)),
                           G=Tensor(rng.standard_normal((K * d, d))))
    out = pcc_forward_full(wide(blocks), params, lambda x: x, 0)
    np.testing.assert_allclose(out.to_flat().data, np.concatenate(blocks), atol=1e-12)


def test_full_matches_three_step_script():
    K, d = 2, 3
    rng = np.random.default_rng(2)
    blocks = [rng.standard_normal(d) for _ in range(K)]
    p = rng.standard_normal((K * d, K * d))
    g = rng.standard_normal((K * d, d))
    m = rng.standard_normal((d, d))
    j = 1
    out = pcc_forward_full(wide(blocks), PccFullParams(P=Tensor(p), G=Tensor(g)),
                           lambda x: Tensor(m) @ x, j).to_flat().data

    flat = np.concatenate(blocks)
    predicted = p @ flat
    computed = m @ blocks[j]
    expected = predicted + g @ (computed - predicted[j * d:(j + 1) * d])
    np.testing.assert_allclose(out, expected, rtol=1e-12)


# -- simplified form ---------------------------------------------------------------

def test_simplified_identity_grid_replaces_selected_block():
    K, d = 2, 4
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal(d) for _ in range(K)]
    j = 0
    params = PccSimplifiedParams(p=Tensor(np.eye(K)),
                                 g=Tensor(np.array([1.0, 0.0])))
    m = rng.standard_normal((d, d))
    out = pcc_forward_simplified(wide(blocks), params, lambda x: Tensor(m) @ x, j)
    np.testing.assert_allclose(out.blocks[0].data, m @ blocks[0], rtol=1e-12)
    np.testing.assert_allclose(out.blocks[1].data, blocks[1], rtol=1e-12)


def test_simplified_identity_layer_is_noop():
    K, d = 3, 2
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal(d) for _ in range(K)]
    params = PccSimplifiedParams(p=Tensor(np.eye(K)),
                                 g=Tensor(rng.standard_normal(K)))
    out = pcc_forward_simplified(wide(blocks), params, lambda x: x, 2)
    for got, exp in zip(out.blocks, blocks):
        np.testing.assert_allclose(got.data, exp, atol=1e-12)


def test_simplified_equals_full_under_block_structure():
    rng = np.random.default_rng(5)
    for K in (2, 3, 4):
        for d in (2, 4, 8):
            for _ in range(5):
                blocks = [rng.standard_normal(d) for _ in range(K)]
                simp = PccSimplifiedParams(p=Tensor(rng.standard_normal((K, K))),
                                           g=Tensor(rng.standard_normal(K)))
                full = simp.to_full(d)
                m = rng.standard_normal((d, d))
                j = int(rng.integers(0, K))
                layer = lambda x: Tensor(m) @ x
                a = pcc_forward_simplified(wide(blocks), simp, layer, j).to_flat().data
                b = pcc_forward_full(wide(blocks), full, layer, j).to_flat().data
                assert np.abs(a - b).max() <= 1e-12


def test_simplified_zero_gain_gives_pure_prediction():
    K, d = 3, 4
    rng = np.random.default_rng(6)
    blocks = [rng.standard_normal(d) for _ in range(K)]
    p = rng.standard_normal((K, K))
    params = PccSimplifiedParams(p=Tensor(p), g=Tensor(np.zeros(K)))
    out = pcc_forward_simplified(wide(blocks), params,
                                 lambda x: x * 100.0, 1)
    stacked = np.stack(blocks)
    for i in range(K):
        np.testing.assert_allclose(out.blocks[i].data, p[i] @ stacked, rtol=1e-12)


def test_pcc_works_on_sequence_shaped_blocks():
    K, d, seq = 2, 3, 4
    rng = np.random.default_rng(7)
    blocks = [rng.standard_normal((seq, d)) for _ in range(K)]
    simp = PccSimplifiedParams(p=Tensor(rng.standard_normal((K, K))),
                               g=Tensor(rng.standard_normal(K)))
    m = rng.standard_normal((d, d))
    layer = lambda x: x @ Tensor(m)
    a = pcc_forward_simplified(wide(blocks), simp, layer, 1).to_flat().data
    b = pcc_forward_full(wide(blocks), simp.to_full(d), layer, 1).to_flat().data
    np.testing.assert_allclose(a, b, atol=1e-12)


# -- divide and project ----------------------------------------------------------------

def test_divide_project_empty_when_no_augmentation():
    params = DivideProjectParams(e=0, projections=[])
    assert divide_and_project(Tensor(np.zeros(0)), params) == []


def test_divide_project_shapes():
    params = DivideProjectParams.init(e=96, k_minus_1=2, d=64, seed=0)
    out = divide_and_project(Tensor(np.random.default_rng(9).standard_normal(96)), params)
    assert len(out) == 2
    assert all(b.shape == (64,) for b in out)
    assert all(m.shape == (48, 64) for m in params.projections)


def test_divide_project_matches_chunkwise_matmul():
    rng = np.random.default_rng(10)
    e, km1, d = 12, 3, 5
    mats = [rng.standard_normal((4, d)) for _ in range(km1)]
    params = DivideProjectParams(e=e, projections=[Tensor(m) for m in mats])
    aug = rng.standard_normal(e)
    out = divide_and_project(Tensor(aug), params)
    for i in range(km1):
        np.testing.assert_allclose(out[i].data, aug[4 * i: 4 * (i + 1)] @ mats[i],
                                   rtol=1e-12)


def test_divide_project_divisibility_enforced():
    with pytest.raises(ValueError):
        DivideProjectParams.init(e=10, k_minus_1=3, d=4, seed=0)


# -- stack forward ------------------------------------------------------------------------

def test_stack_k1_equals_plain_composition():
    rng = np.random.default_rng(11)
    d, seq = 4, 3
    mats = [rng.standard_normal((d, d)) for _ in range(3)]
    layers = [lambda x, m=m: x @ Tensor(m) for m in mats]
    x = rng.standard_normal((seq, d))
    final, trace = altup_stack_forward(wide([x]), layers,
                                       BlockSelection(mode="alternating"), None)
    expected = x.copy()
    for m in mats:
        expected = expected @ m
    assert np.abs(final.blocks[0].data - expected).max() <= 1e-12
    assert trace == [0, 0, 0]


def test_stack_alternating_trace():
    rng = np.random.default_rng(12)
    d = 3
    layers = [lambda x: x for _ in range(2)]
    pcc = [PccSimplifiedParams.identity_init(2) for _ in range(2)]
    blocks = [rng.standard_normal(d) for _ in range(2)]
    _, trace = altup_stack_forward(wide(blocks), layers,
                                   BlockSelection(mode="alternating"), pcc)
    assert trace == [0, 1]


def test_stack_matches_scripted_trace():
    rng = np.random.default_rng(13)
    K, d, seq, n_layers = 2, 4, 3, 2
    mats = [rng.standard_normal((d, d)) for _ in range(n_layers)]
    layers = [lambda x, m=m: (x @ Tensor(m)).relu() for m in mats]
    pcc = [PccSimplifiedParams(p=Tensor(rng.standard_normal((K, K))),
                               g=Tensor(rng.standard_normal(K)))
           for _ in range(n_layers)]
    blocks = [rng.standard_normal((seq, d)) for _ in range(K)]
    final, trace = altup_stack_forward(wide(blocks), layers,
                                       BlockSelection(mode="alternating"), pcc)
    assert trace == [0, 1]

    # independent numpy trace of the simplified three-step recursion
    cur = [b.copy() for b in blocks]
    for i in range(n_layers):
        j = i % K
        p = pcc[i].p.data
        g = pcc[i].g.data
        predicted = [sum(p[a, b] * cur[b] for b in range(K)) for a in range(K)]
        computed = np.maximum(cur[j] @ mats[i], 0.0)
        innovation = computed - predicted[j]
        cur = [predicted[a] + g[a] * innovation for a in range(K)]
    for got, exp in zip(final.blocks, cur):
        np.testing.assert_allclose(got.data, exp, rtol=1e-10, atol=1e-12)


def test_stack_k_greater_one_requires_params():
    with pytest.raises(ValueError):
        altup_stack_forward(wide([np.zeros(2), np.zeros(2)]), [lambda x: x],
                            BlockSelection(), None)


# -- cost accounting --------------------------------------------------------------------------

def test_pcc_cost_below_block_cost_for_shipped_configs():
    for K in (1, 2, 3, 4):
        for d in (8, 16, 32, 64):
            for seq in (4, 16, 64):
                assert pcc_simplified_multiplies(K, d) == K * K * d + 2 * K * d + d
                assert pcc_simplified_multiplies(K, d) < transformer_block_multiplies(d, seq)
