"""The batched memory layer against a per-position reference.

The reference is the layer written one token at a time: narrow each row out
of the (seq, d) block, route that vector alone, evaluate each selected
expert on it with its own U, V or b slice, and stack the rows. The batched
layer must route identically and agree within 1e-12 in its output and in
every gradient, with the softmax jitter drawn from the same generator seed:
one (seq, d) block for the batched layer, one d-vector per position for the
reference.
"""

import numpy as np
import pytest

from sparse_memory_lab.autodiff import Tensor, concat
from sparse_memory_lab.lookup import (
    HyperplaneLshParams,
    MemoryTable,
    SoftmaxRouterParams,
    SphericalLshParams,
    JITTER_EPSILON,
    MIX_SEED,
    TokenIdLookup,
    fold_cells,
    memory_augmented_forward,
    route,
)

SEQ, D, VOCAB, RANK = 7, 6, 9, 3


def reference_route(xt: Tensor, token: int, lookup, train_mode: bool, rng):
    """(indices, weights or None) for one token vector."""
    if isinstance(lookup, TokenIdLookup):
        if not 0 <= token < lookup.n:
            raise ValueError(f"token id {token} out of vocabulary")
        return [token], None
    if isinstance(lookup, SoftmaxRouterParams):
        routed = xt
        if train_mode:
            eps = JITTER_EPSILON
            routed = xt * rng.uniform(1.0 - eps, 1.0 + eps, size=xt.shape)
        probs = (lookup.W.swapaxes(-2, -1) @ routed).softmax(axis=-1)
        top = [int(i) for i in np.argsort(-probs.data, kind="stable")[: lookup.k]]
        return top, probs.take(top)
    vec = xt.data
    if isinstance(lookup, HyperplaneLshParams):
        cells = np.floor((lookup.directions @ vec + lookup.offsets) / lookup.width)
        bucket = fold_cells(cells.astype(np.int64), MIX_SEED) % np.uint64(lookup.n)
        return [int(bucket)], None
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("spherical lookup is undefined for the zero vector")
    return [int(np.argmax(lookup.anchors @ (vec / norm)))], None


def reference_expert(xt: Tensor, table: MemoryTable, i: int) -> Tensor:
    d = table.d_in
    if table.rank == 0:
        return table.b.narrow(0, i, 1).reshape(d)
    u = table.U.narrow(0, i, 1).reshape(d, table.rank)
    v = table.V.narrow(0, i, 1).reshape(d, table.rank)
    return v @ (u.swapaxes(-2, -1) @ xt).relu()


def reference_layer(layer, x: Tensor, tokens, lookup, table, train_mode, rng):
    """(layer output, routed indices) computed position by position."""
    seq, d = x.shape
    rows, routed = [], []
    for t in range(seq):
        xt = x.narrow(0, t, 1).reshape(d)
        indices, weights = reference_route(xt, int(tokens[t]), lookup, train_mode, rng)
        yt = Tensor(np.zeros(d))
        for pos, i in enumerate(indices):
            expert = reference_expert(xt, table, i)
            yt = yt + (expert if weights is None else weights.narrow(0, pos, 1) * expert)
        rows.append(yt.reshape(1, d))
        routed.extend(indices)
    return layer(x) + concat(rows, axis=0), routed


LOOKUPS = {
    "token_id": lambda: TokenIdLookup(n=VOCAB),
    "softmax_k1": lambda: SoftmaxRouterParams.init(5, D, 1, seed=1, std=0.5),
    "softmax_k2": lambda: SoftmaxRouterParams.init(5, D, 2, seed=2, std=0.5),
    "hyperplane": lambda: HyperplaneLshParams.init(D, 4, 1.0, 16, seed=3),
    "spherical": lambda: SphericalLshParams.init(12, D, seed=4),
}


def _setup(kind: str, rank: int):
    rng = np.random.default_rng(5)
    lookup = LOOKUPS[kind]()
    n = lookup.n
    if rank == 0:
        table = MemoryTable(b=Tensor(rng.standard_normal((n, D)), requires_grad=True))
    else:
        table = MemoryTable.init(n, D, rank, seed=6)
    x = Tensor(rng.standard_normal((SEQ, D)), requires_grad=True)
    tokens = rng.integers(0, VOCAB, size=SEQ)
    layer_w = Tensor(rng.standard_normal((D, D)) / np.sqrt(D), requires_grad=True)
    probe = rng.standard_normal((SEQ, D))
    params = {"x": x, "layer_w": layer_w, **table.parameters()}
    if isinstance(lookup, SoftmaxRouterParams):
        params["router_W"] = lookup.W
    return lookup, table, x, tokens, layer_w, probe, params


def _run(forward, probe, params):
    for t in params.values():
        t.zero_grad()
    out, routed = forward()
    (out * Tensor(probe)).sum().backward()
    grads = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
             for k, t in params.items()}
    return out.data, routed, grads


@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("rank", [0, RANK])
@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_batched_layer_matches_per_position_reference(kind, rank, train_mode):
    lookup, table, x, tokens, layer_w, probe, params = _setup(kind, rank)

    def layer(v):
        return v @ layer_w

    def batched():
        rng = np.random.default_rng(11)
        jitter = None
        if train_mode and isinstance(lookup, SoftmaxRouterParams):
            eps = JITTER_EPSILON
            jitter = rng.uniform(1.0 - eps, 1.0 + eps, size=x.shape)
        routed = route(x, tokens, lookup, jitter=jitter).indices.tolist()
        out = layer(x) + memory_augmented_forward(x, tokens, lookup, table, jitter=jitter)
        return out, (routed, rng.random())

    def reference():
        rng = np.random.default_rng(11)
        out, routed = reference_layer(layer, x, tokens, lookup, table, train_mode, rng)
        return out, (routed, rng.random())

    out_b, (routed_b, next_b), grads_b = _run(batched, probe, params)
    out_r, (routed_r, next_r), grads_r = _run(reference, probe, params)

    assert routed_b == routed_r
    assert next_b == next_r  # both consumed the same jitter stream
    np.testing.assert_allclose(out_b, out_r, rtol=0, atol=1e-12)
    for name in params:
        np.testing.assert_allclose(grads_b[name], grads_r[name], rtol=0, atol=1e-12,
                                   err_msg=name)
    if isinstance(lookup, SoftmaxRouterParams):
        assert np.abs(grads_b["router_W"]).max() > 0
        assert len(set(routed_b)) > 1  # the setup exercises more than one expert
