"""Flat config format: parsing, validation, strict unknown-key handling."""

import pytest

from sparse_memory_lab.config import (
    ExperimentConfig,
    format_config,
    load_config,
    parse_config,
)


def test_defaults_validate():
    ExperimentConfig().validate()


def test_parse_roundtrip():
    cfg = parse_config("""
# toy run
model.d = 16
model.heads = 4
memory.consumption = altup
altup.K = 2
altup.head = proj
training.learning_rate = 0.005
memory.share_table = true
""")
    assert cfg.model.d == 16
    assert cfg.altup.K == 2
    assert cfg.memory.share_table is True
    assert cfg.training.learning_rate == 0.005
    again = parse_config(format_config(cfg))
    assert again == cfg


def test_unknown_key_is_error():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("model.dd = 8\n")
    with pytest.raises(ValueError, match="unknown config section"):
        parse_config("modle.d = 8\n")


def test_duplicate_key_is_error():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("model.d = 8\nmodel.d = 16\n")


def test_malformed_line_is_error():
    with pytest.raises(ValueError, match="expected"):
        parse_config("model.d 8\n")


def test_validation_errors():
    with pytest.raises(ValueError, match="divide"):
        parse_config("model.d = 10\nmodel.heads = 4\n")
    with pytest.raises(ValueError, match="memory.lookup"):
        parse_config("memory.lookup = fancy\n")
    with pytest.raises(ValueError, match="altup.K"):
        parse_config("altup.K = 0\nmemory.consumption = altup\n")
    with pytest.raises(ValueError, match="altup.e"):
        parse_config("memory.consumption = altup\naltup.K = 4\naltup.e = 100\n")


@pytest.mark.parametrize("key", ["training.learning_rate", "memory.width"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_is_error(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        parse_config(f"{key} = {value}\n")


def test_altup_k1_is_allowed():
    parse_config("memory.consumption = altup\naltup.K = 1\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tm_path := tmp_path / "nope.cfg")
    path = tmp_path / "ok.cfg"
    path.write_text("model.d = 8\n")
    assert load_config(path).model.d == 8


@pytest.mark.parametrize("lookup", ["softmax", "hyperplane", "spherical"])
def test_share_table_only_with_token_id(lookup):
    with pytest.raises(ValueError, match="memory.share_table = true needs"):
        parse_config(f"memory.lookup = {lookup}\nmemory.share_table = true\n")
    parse_config("memory.lookup = token_id\nmemory.share_table = true\n")


@pytest.mark.parametrize("lookup", ["token_id", "hyperplane", "spherical"])
def test_k_only_with_softmax(lookup):
    with pytest.raises(ValueError, match="memory.k != 1 needs"):
        parse_config(f"memory.lookup = {lookup}\nmemory.k = 2\n")
    parse_config("memory.lookup = softmax\nmemory.buckets = 4\nmemory.k = 2\n")


def test_lookup_none_ignores_memory_settings():
    parse_config("memory.share_table = true\nmemory.k = 2\n")
