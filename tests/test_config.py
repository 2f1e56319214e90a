"""Flat config format: parsing, validation, strict unknown-key handling."""

import re
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sparse_memory_lab import config
from sparse_memory_lab.config import (
    ExperimentConfig,
    config_keys,
    format_config,
    load_config,
    parse_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"


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


@given(out_dir=st.text(), corpus_file=st.text(),
       learning_rate=st.floats(min_value=1e-300, max_value=1e300),
       seed=st.integers(0, 2 ** 63 - 1))
def test_format_config_round_trips_every_valid_config(out_dir, corpus_file, learning_rate,
                                                      seed):
    cfg = ExperimentConfig()
    cfg.io.out_dir, cfg.training.corpus_file = out_dir, corpus_file
    cfg.training.learning_rate, cfg.training.seed = learning_rate, seed
    try:
        cfg.validate()
    except ValueError:
        assume(False)
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("key", ["io.out_dir", "training.corpus_file"])
@pytest.mark.parametrize("value", ["runs/a#1", "a\nmodel.d = 8", "a\rb", "a\u2028b",
                                   " runs", "runs\t"])
def test_string_that_config_txt_cannot_carry_is_error(key, value):
    cfg = ExperimentConfig()
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, value)
    with pytest.raises(ValueError, match=rf"{key} cannot hold a '#', a line break, or "
                                         r"leading or trailing whitespace"):
        cfg.validate()


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


def test_negative_seed_is_error():
    # numpy's seeding would reject it later, naming neither the key nor the value
    with pytest.raises(ValueError, match="^training.seed must be non-negative, got -1$"):
        parse_config("training.seed = -1\n")


@pytest.mark.parametrize("key", ["training.learning_rate", "memory.width"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_is_error(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        parse_config(f"{key} = {value}\n")


def test_one_symbol_vocabulary_needs_a_corpus_file():
    # the Markov generator needs two symbols; a corpus file of zeros does not
    with pytest.raises(ValueError, match="^model.vocab must be at least 2 for the generated "
                                         "corpus, got 1$"):
        parse_config("model.vocab = 1\n")
    assert parse_config("model.vocab = 1\ntraining.corpus_file = zeros.txt\n").model.vocab == 1


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


@pytest.mark.parametrize("lookup", ["token_id", "softmax", "spherical"])
def test_width_only_with_hyperplane(lookup):
    with pytest.raises(ValueError, match=r"memory.width != 1.0 needs"):
        parse_config(f"memory.lookup = {lookup}\nmemory.buckets = 64\nmemory.width = 5.0\n")
    parse_config("memory.lookup = hyperplane\nmemory.buckets = 64\nmemory.width = 5.0\n")


def test_lookup_none_ignores_memory_settings():
    parse_config("memory.share_table = true\nmemory.k = 2\nmemory.width = 5.0\n")


@pytest.mark.parametrize("consumption", ["none", "sum"])
def test_altup_k_above_one_needs_a_wide_consumption(consumption):
    with pytest.raises(ValueError, match="altup.K > 1 needs memory.consumption"):
        parse_config(f"memory.consumption = {consumption}\naltup.K = 4\n")
    for wide in ("sameup", "altup"):
        parse_config(f"memory.consumption = {wide}\naltup.K = 4\n")


def test_token_id_buckets_are_one_or_the_vocabulary():
    with pytest.raises(ValueError, match="token_id lookup requires memory.buckets"):
        parse_config("model.vocab = 32\nmemory.lookup = token_id\nmemory.buckets = 7\n")
    for buckets in (1, 32):
        parse_config(f"model.vocab = 32\nmemory.lookup = token_id\nmemory.buckets = {buckets}\n")


# the config key whose allowed values each *_KINDS tuple lists
KIND_KEYS = {
    "memory.lookup": "LOOKUP_KINDS",
    "memory.consumption": "CONSUMPTION_KINDS",
    "altup.selection": "SELECTION_KINDS",
    "altup.variant": "VARIANT_KINDS",
    "altup.head": "HEAD_KINDS",
    "training.optimizer": "OPTIMIZER_KINDS",
}


def readme_config_table() -> dict[str, list[tuple[str, str]]]:
    """section -> [(key, its parenthesized kinds or "")] from README's "Config keys" table."""
    lines = README.read_text().split("## Config keys", 1)[1].strip().splitlines()
    table: dict[str, list[tuple[str, str]]] = {}
    for line in lines[2:]:  # below the header and its rule
        if not line.startswith("|"):
            break
        section, keys = (cell.strip() for cell in line.strip("|").split("|"))
        table[section] = re.findall(r"(\w+)(?: \(([^)]*)\))?", keys)
    return table


def test_readme_lists_every_config_key():
    table = readme_config_table()
    documented = [f"{section}.{key}" for section, keys in table.items() for key, _ in keys]
    assert documented == [key for key, _typ in config_keys()]


def test_readme_kind_lists_match_config():
    assert sorted(KIND_KEYS.values()) == sorted(n for n in dir(config) if n.endswith("_KINDS"))
    listed = {f"{section}.{key}": kinds for section, keys in readme_config_table().items()
              for key, kinds in keys if kinds}
    assert sorted(listed) == sorted(KIND_KEYS)
    for key, name in KIND_KEYS.items():
        assert tuple(listed[key].split("/")) == getattr(config, name), key
