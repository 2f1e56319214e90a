"""Every gather by integer index checks its indices with autodiff.index_array:
a float or bool dtype and an index outside the table raise a ValueError
that names the dtype or shows the index as given, at each call site."""

import numpy as np
import pytest

from sparse_memory_lab.autodiff import Tensor, cross_entropy, index_array
from sparse_memory_lab.config import ExperimentConfig, ModelConfig
from sparse_memory_lab.lookup import MinHashParams, minhash_lookup, token_id_lookup
from sparse_memory_lab.model import LanguageModel
from sparse_memory_lab.nn import MemoryTable, apply_expert


def _model():
    return LanguageModel.build(ExperimentConfig(model=ModelConfig(d=8, layers=1, heads=2,
                                                                  vocab=5, seq_len=4)))


# site: (call on a 1-D array of indices, table size, plural noun, range message)
SITES = {
    "take": (lambda v: Tensor(np.zeros((5, 2))).take(v), 5, "take indices", "take index"),
    "cross_entropy": (lambda v: cross_entropy(Tensor(np.zeros((len(v), 5))), v), 5,
                      "targets", "target"),
    "forward": (lambda v: _model().forward(v), 5, "token ids", "token id"),
    "token_id_lookup": (lambda v: token_id_lookup(v, 5), 5, "token ids", "token id"),
    "minhash_lookup": (lambda v: minhash_lookup(list(v), MinHashParams.init(5, 3, seed=0)), 5,
                       "set elements", "set element"),
    "apply_expert": (lambda v: apply_expert(Tensor(np.ones((len(v), 4))),
                                            MemoryTable.init(5, 4, 1, seed=0),
                                            np.asarray(v).reshape(-1, 1)),
                     5, "routed indices", "routed index"),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("values", [np.array([1.9, 2.2]), np.array([1.0, 2.0], dtype=np.float32),
                                    np.array([True, False])],
                         ids=["float64", "float32", "bool"])
def test_a_float_or_bool_index_names_its_dtype(site, values):
    # unchecked, 1.9 and 2.2 were truncated to rows 1 and 2, and True, False read as 1, 0
    call, _, plural, _ = SITES[site]
    with pytest.raises(ValueError, match=f"^{plural} must have an integer dtype, "
                                         f"got {values.dtype}$"):
        call(values)


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("values, bad", [
    (np.array([0, -1]), "-1"), (np.array([4, 5]), "5"),
    (np.array([2**64 - 1], dtype=np.uint64), "18446744073709551615"),
], ids=["negative", "n", "uint64-max"])
def test_an_index_outside_the_table_is_shown_as_given(site, values, bad):
    # a cast to intp before the check showed uint64 2**64 - 1 as -1
    call, _, _, singular = SITES[site]
    with pytest.raises(ValueError, match=f"^{singular} {bad} "):
        call(values)


def _array(out):
    """A site's result as an array: a route's indices or a tensor's data."""
    return out.indices if hasattr(out, "indices") else out.data


@pytest.mark.parametrize("site", SITES)
def test_an_index_inside_the_table_of_any_integer_dtype_gathers_alike(site):
    call, n, _, _ = SITES[site]
    values = np.array([n - 1, 0, 2])
    expected = _array(call(values)).tobytes()
    for dtype in (np.int8, np.uint8, np.int32, np.uint64):
        assert _array(call(values.astype(dtype))).tobytes() == expected


@pytest.mark.parametrize("site", ["take", "token_id_lookup", "apply_expert"])
def test_an_empty_list_still_gathers_nothing(site):
    assert _array(SITES[site][0]([])).size == 0


@pytest.mark.parametrize("tokens", [[], [[]], np.zeros((3, 0), dtype=int)])
def test_forward_rejects_a_sequence_of_no_tokens(tokens):
    # it passes the index check, and would fail inside the attention softmax
    with pytest.raises(ValueError, match="with seq >= 1$"):
        _model().forward(tokens)


def test_index_array_keeps_the_shape_as_intp():
    assert index_array([], 3, "ids", "id {}").dtype == np.intp
    out = index_array(np.array([[2, 0], [1, 1]], dtype=np.uint8), 3, "ids", "id {}")
    assert out.dtype == np.intp and out.tolist() == [[2, 0], [1, 1]]
    assert index_array(np.uint16(2), 3, "ids", "id {}").shape == ()


def test_minhash_picks_the_element_of_least_rank():
    params = MinHashParams.init(16, 5, seed=3)
    for elems in ({0, 7, 9}, {15}, set(range(16))):
        winner = min(elems, key=lambda e: params.ranks[e])
        assert minhash_lookup(elems, params).indices.tolist() == [winner % 5]
