"""Predict-compute-correct algebra against scripted numpy oracles."""

import numpy as np
import pytest

from sparse_memory_lab.altup import (
    PccFullParams,
    PccSimplifiedParams,
    WideRepresentation,
    altup_stack_forward,
    divide_and_project,
    pcc_forward,
    pcc_forward_full,
    pcc_forward_simplified,
)
from sparse_memory_lab.autodiff import Tensor, concat
from sparse_memory_lab.config import parse_config
from sparse_memory_lab.model import LanguageModel

from oracles import pcc_simplified_multiplies, transformer_block_multiplies


def wide(blocks):
    return WideRepresentation(blocks=[Tensor(b) for b in blocks])


def graph_size(root):
    """Distinct nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# -- the flat representation --------------------------------------------------

@pytest.mark.parametrize("K", [1, 2, 3])
def test_wide_representation_round_trip(K):
    rng = np.random.default_rng(16)
    bs = [Tensor(rng.standard_normal((3, 4))) for _ in range(K)]
    x = WideRepresentation(blocks=bs)
    assert (x.K, x.d) == (K, 4)
    for j, b in enumerate(bs):
        np.testing.assert_array_equal(x.block(j).data, b.data)
    np.testing.assert_array_equal(x.to_flat().data, np.concatenate([b.data for b in bs], -1))
    np.testing.assert_array_equal(x.view().data, np.stack([b.data for b in bs], -2))
    if K == 1:
        assert x.to_flat() is bs[0]


def test_wide_representation_rejects_bad_blocks():
    with pytest.raises(ValueError, match="at least one block"):
        WideRepresentation(blocks=[])
    with pytest.raises(ValueError, match="share a shape"):
        wide([np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError, match="not divisible"):
        WideRepresentation(flat=Tensor(np.zeros(5)), K=2)


# -- block selection --------------------------------------------------------

def selection_trace(K, n_layers, selection):
    pcc = [PccSimplifiedParams.identity_init(K) for _ in range(n_layers)]
    x = wide([np.zeros(2) for _ in range(K)])
    return altup_stack_forward(x, [lambda b: b] * n_layers, selection, pcc)[1]


def test_select_block_alternating_cycles():
    assert selection_trace(2, 6, "alternating") == [0, 1, 0, 1, 0, 1]
    assert selection_trace(3, 8, "alternating")[7] == 1


def test_select_block_same_is_fixed():
    assert selection_trace(3, 10, "same") == [0] * 10


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
    np.testing.assert_allclose(out.block(j).data, m @ blocks[j], rtol=1e-12)
    np.testing.assert_allclose(out.block(0).data, blocks[0], rtol=1e-12)
    np.testing.assert_allclose(out.block(2).data, blocks[2], rtol=1e-12)


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
    np.testing.assert_allclose(out.block(0).data, m @ blocks[0], rtol=1e-12)
    np.testing.assert_allclose(out.block(1).data, blocks[1], rtol=1e-12)


def test_simplified_identity_layer_is_noop():
    K, d = 3, 2
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal(d) for _ in range(K)]
    params = PccSimplifiedParams(p=Tensor(np.eye(K)),
                                 g=Tensor(rng.standard_normal(K)))
    out = pcc_forward_simplified(wide(blocks), params, lambda x: x, 2)
    for j, exp in enumerate(blocks):
        np.testing.assert_allclose(out.block(j).data, exp, atol=1e-12)


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
        np.testing.assert_allclose(out.block(i).data, p[i] @ stacked, rtol=1e-12)


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


@pytest.mark.parametrize("variant", ["simplified", "full"])
def test_pcc_graph_size_does_not_grow_with_k(variant):
    d, seq = 4, 3
    rng = np.random.default_rng(15)
    sizes = []
    for K in (2, 4):
        # constant blocks, so the count is the pcc ops and their parameters only
        x = wide([rng.standard_normal((seq, d)) for _ in range(K)])
        if variant == "simplified":
            out = pcc_forward_simplified(x, PccSimplifiedParams.identity_init(K),
                                         lambda b: b, 1)
        else:
            out = pcc_forward_full(x, PccFullParams.identity_init(K, d), lambda b: b, 1)
        sizes.append(graph_size(out.to_flat()))
    assert sizes[0] == sizes[1], sizes


# -- the one step's input checks ------------------------------------------------

def test_both_forms_share_one_step():
    assert pcc_forward_full is pcc_forward
    assert pcc_forward_simplified is pcc_forward


@pytest.mark.parametrize("params", [
    PccSimplifiedParams.identity_init(3),
    PccFullParams.identity_init(3, 4),
    PccFullParams.identity_init(2, 3),
], ids=["simplified-K3", "full-K3", "full-d3"])
def test_pcc_forward_rejects_params_built_for_another_shape(params):
    x = wide([np.zeros((3, 4)), np.zeros((3, 4))])
    calls = []
    with pytest.raises(ValueError, match=f"^{type(params).__name__} does not fit K=2, d=4$"):
        pcc_forward(x, params, calls.append, 0)
    assert not calls


@pytest.mark.parametrize("params", [PccSimplifiedParams.identity_init(2),
                                    PccFullParams.identity_init(2, 4)],
                         ids=["simplified", "full"])
@pytest.mark.parametrize("j_star", [2, -1])
def test_pcc_forward_rejects_a_block_outside_the_representation(params, j_star):
    x = wide([np.zeros((3, 4)), np.zeros((3, 4))])
    calls = []
    with pytest.raises(ValueError, match=rf"^j_star {j_star} outside \[0, 2\)$"):
        pcc_forward(x, params, calls.append, j_star)
    assert not calls


# -- divide and project ----------------------------------------------------------------

def test_divide_project_empty_when_no_augmentation():
    model = LanguageModel.build(parse_config(
        "model.vocab = 12\nmodel.d = 4\nmodel.heads = 1\n"
        "memory.consumption = altup\naltup.K = 3\n"))
    assert model.aug_table is None and model.dp_proj is None
    assert "dp_proj" not in model.parameters()
    tokens = np.array([[3, 1, 4], [1, 5, 9]])
    x0 = model.initial_representation(tokens)
    np.testing.assert_array_equal(x0.to_flat().data, model.embed0.data[tokens])


def test_divide_project_shapes():
    rng = np.random.default_rng(9)
    proj = Tensor(rng.standard_normal((2, 48, 64)))
    for lead in [(5,), (3, 5)]:
        out = divide_and_project(Tensor(rng.standard_normal((*lead, 96))), proj)
        assert out.shape == (*lead, 128)


def chunkwise(aug, mats):
    """The reference: one matmul per chunk, concatenated."""
    chunk = mats[0].shape[0]
    return concat([aug.narrow(aug.ndim - 1, i * chunk, chunk) @ m
                   for i, m in enumerate(mats)], axis=aug.ndim - 1)


def test_divide_project_matches_chunkwise_matmul():
    # bit for bit, values and gradients, against one matmul per chunk
    rng = np.random.default_rng(10)
    e, km1, d = 12, 3, 5
    for lead in [(6,), (3, 6)]:
        aug = rng.standard_normal((*lead, e))
        proj = rng.standard_normal((km1, e // km1, d))
        w = rng.standard_normal((*lead, km1 * d))
        a, p = Tensor(aug, requires_grad=True), Tensor(proj, requires_grad=True)
        out = divide_and_project(a, p)
        (out * w).sum().backward()
        ra = Tensor(aug, requires_grad=True)
        mats = [Tensor(m, requires_grad=True) for m in proj]
        ref = chunkwise(ra, mats)
        (ref * w).sum().backward()
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(a.grad, ra.grad)
        np.testing.assert_array_equal(p.grad, np.stack([m.grad for m in mats]))


def test_divide_project_divisibility_enforced():
    with pytest.raises(ValueError, match="must divide altup.e"):
        parse_config("memory.consumption = altup\naltup.K = 4\naltup.e = 10\n")
    with pytest.raises(ValueError, match="expected augmentation width 9"):
        divide_and_project(Tensor(np.zeros((2, 10))), Tensor(np.zeros((3, 3, 4))))


# -- stack forward ------------------------------------------------------------------------

def test_stack_k1_equals_plain_composition():
    rng = np.random.default_rng(11)
    d, seq = 4, 3
    mats = [rng.standard_normal((d, d)) for _ in range(3)]
    layers = [lambda x, m=m: x @ Tensor(m) for m in mats]
    x = rng.standard_normal((seq, d))
    final, trace = altup_stack_forward(wide([x]), layers,
                                       "alternating", None)
    expected = x.copy()
    for m in mats:
        expected = expected @ m
    assert np.abs(final.block(0).data - expected).max() <= 1e-12
    assert trace == [0, 0, 0]


def test_stack_alternating_trace():
    rng = np.random.default_rng(12)
    d = 3
    layers = [lambda x: x for _ in range(2)]
    pcc = [PccSimplifiedParams.identity_init(2) for _ in range(2)]
    blocks = [rng.standard_normal(d) for _ in range(2)]
    _, trace = altup_stack_forward(wide(blocks), layers,
                                   "alternating", pcc)
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
                                       "alternating", pcc)
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
    for j, exp in enumerate(cur):
        np.testing.assert_allclose(final.block(j).data, exp, rtol=1e-10, atol=1e-12)


def test_stack_k_greater_one_requires_params():
    with pytest.raises(ValueError):
        altup_stack_forward(wide([np.zeros(2), np.zeros(2)]), [lambda x: x],
                            "alternating", None)


# -- cost accounting --------------------------------------------------------------------------

def test_pcc_cost_below_block_cost_for_shipped_configs():
    for K in (1, 2, 3, 4):
        for d in (8, 16, 32, 64):
            for seq in (4, 16, 64):
                assert pcc_simplified_multiplies(K, d) == K * K * d + 2 * K * d + d
                assert pcc_simplified_multiplies(K, d) < transformer_block_multiplies(d, seq)
