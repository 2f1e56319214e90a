"""Experiment configuration: typed sections plus a flat text format.

The on-disk format is one `section.key = value` per line; unknown keys are
hard errors because a silently ignored typo corrupts an entire sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

LOOKUP_KINDS = ("none", "token_id", "softmax", "hyperplane", "spherical")
CONSUMPTION_KINDS = ("none", "sum", "sameup", "altup")
SELECTION_KINDS = ("same", "alternating")
VARIANT_KINDS = ("simplified", "full")
HEAD_KINDS = ("block0", "mean", "proj")
OPTIMIZER_KINDS = ("adam", "sgd")


@dataclass
class ModelConfig:
    d: int = 32
    layers: int = 2
    heads: int = 2
    vocab: int = 64
    seq_len: int = 16


@dataclass
class MemoryConfig:
    lookup: str = "none"
    rank: int = 0
    buckets: int = 1
    consumption: str = "none"
    share_table: bool = False
    k: int = 1          # selected experts for softmax routing
    width: float = 1.0  # hyperplane grid spacing (unit-norm input scale)


@dataclass
class AltUpConfig:
    K: int = 1
    selection: str = "alternating"
    variant: str = "simplified"
    head: str = "block0"
    e: int = 0


@dataclass
class TrainingConfig:
    steps: int = 200
    batch: int = 8
    learning_rate: float = 1e-2
    optimizer: str = "adam"
    seed: int = 0
    corpus_length: int = 65536
    eval_tokens: int = 4096
    corpus_file: str = ""  # optional token-id file; replaces the generated corpus


@dataclass
class IoConfig:
    out_dir: str = "out"
    checkpoint_interval: int = 50


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    altup: AltUpConfig = field(default_factory=AltUpConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    io: IoConfig = field(default_factory=IoConfig)

    def validate(self) -> "ExperimentConfig":
        m, mem, alt, tr, io = self.model, self.memory, self.altup, self.training, self.io
        for section in _SECTIONS:
            obj = getattr(self, section)
            for f in fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{section}.{f.name} must be finite, got {value}")
                # what format_config writes must parse back to the same string
                if isinstance(value, str) and ("#" in value or value != value.strip()
                                               or len(value.splitlines()) > 1):
                    raise ValueError(f"{section}.{f.name} cannot hold a '#', a line break, "
                                     f"or leading or trailing whitespace, got {value!r}")
        for name, value in (("model.d", m.d), ("model.layers", m.layers),
                            ("model.heads", m.heads), ("model.vocab", m.vocab),
                            ("model.seq_len", m.seq_len), ("training.steps", tr.steps),
                            ("training.batch", tr.batch),
                            ("training.corpus_length", tr.corpus_length),
                            ("training.eval_tokens", tr.eval_tokens),
                            ("io.checkpoint_interval", io.checkpoint_interval)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if m.vocab < 2 and not tr.corpus_file:
            raise ValueError(f"model.vocab must be at least 2 for the generated corpus, "
                             f"got {m.vocab}")
        if m.d % m.heads != 0:
            raise ValueError(f"model.heads={m.heads} must divide model.d={m.d}")
        if tr.corpus_length < m.seq_len + 1 or tr.eval_tokens < m.seq_len + 1:
            raise ValueError("corpus_length and eval_tokens must cover at least "
                             "one (seq_len + 1)-token window")
        if tr.seed < 0:
            raise ValueError(f"training.seed must be non-negative, got {tr.seed}")
        if tr.learning_rate <= 0:
            raise ValueError("training.learning_rate must be positive")
        if mem.lookup not in LOOKUP_KINDS:
            raise ValueError(f"memory.lookup must be one of {LOOKUP_KINDS}")
        if mem.consumption not in CONSUMPTION_KINDS:
            raise ValueError(f"memory.consumption must be one of {CONSUMPTION_KINDS}")
        if mem.rank < 0 or mem.buckets < 1 or mem.k < 1:
            raise ValueError("memory.rank must be >= 0, memory.buckets and memory.k >= 1")
        if mem.width <= 0:
            raise ValueError("memory.width must be positive")
        if mem.lookup == "softmax" and mem.k > mem.buckets:
            raise ValueError("memory.k cannot exceed memory.buckets")
        # settings a lookup would silently ignore; lookup = none ignores them all
        if mem.share_table and mem.lookup in ("softmax", "hyperplane", "spherical"):
            raise ValueError("memory.share_table = true needs memory.lookup = token_id")
        if mem.k != 1 and mem.lookup in ("token_id", "hyperplane", "spherical"):
            raise ValueError("memory.k != 1 needs memory.lookup = softmax")
        if mem.width != 1.0 and mem.lookup in ("token_id", "softmax", "spherical"):
            raise ValueError("memory.width != 1.0 needs memory.lookup = hyperplane")
        if mem.lookup == "token_id" and mem.buckets not in (1, m.vocab):
            raise ValueError(
                "token_id lookup requires memory.buckets equal to the vocabulary "
                f"size ({m.vocab}) or left at the default 1")
        if alt.selection not in SELECTION_KINDS:
            raise ValueError(f"altup.selection must be one of {SELECTION_KINDS}")
        if alt.variant not in VARIANT_KINDS:
            raise ValueError(f"altup.variant must be one of {VARIANT_KINDS}")
        if alt.head not in HEAD_KINDS:
            raise ValueError(f"altup.head must be one of {HEAD_KINDS}")
        if alt.K < 1:
            raise ValueError("altup.K must be at least 1 (K=1 degenerates to the baseline)")
        if alt.K > 1 and mem.consumption not in ("sameup", "altup"):
            raise ValueError("altup.K > 1 needs memory.consumption = sameup or altup")
        if alt.e < 0:
            raise ValueError("altup.e must be nonnegative")
        if alt.e > 0 and alt.K < 2:
            raise ValueError("altup.e > 0 requires altup.K >= 2")
        if alt.e > 0 and alt.e % (alt.K - 1) != 0:
            raise ValueError(f"altup.K-1={alt.K - 1} must divide altup.e={alt.e}")
        if tr.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"training.optimizer must be one of {OPTIMIZER_KINDS}")
        return self


_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}


def config_keys() -> list[tuple[str, str]]:
    """All known `section.key` names with their annotations: "int", "float", "bool" or "str"."""
    out = []
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            out.append((f"{section}.{f.name}", f.type))
    return out


def _parse_value(raw: str, typ: str) -> object:
    raw = raw.strip()
    if typ == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    return raw


def set_config_value(config: ExperimentConfig, key: str, raw: str) -> None:
    """Assign one `section.key` from its textual value; unknown keys raise."""
    if "." not in key:
        raise ValueError(f"config key {key!r} must look like section.key")
    section_name, field_name = key.split(".", 1)
    section = getattr(config, section_name, None)
    if section_name not in _SECTIONS or section is None:
        raise ValueError(f"unknown config section {section_name!r}")
    matching = {f.name: f for f in fields(_SECTIONS[section_name])}
    if field_name not in matching:
        raise ValueError(f"unknown config key {key!r}")
    typ = matching[field_name].type
    try:
        value = _parse_value(raw, typ)
    except ValueError:
        article = "an" if typ == "int" else "a"
        raise ValueError(f"{key} takes {article} {typ} value, got {raw.strip()!r}") from None
    setattr(section, field_name, value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat `section.key = value` format; '#' starts a comment."""
    config = ExperimentConfig()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'section.key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            set_config_value(config, key, raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return config.validate()


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    return parse_config(p.read_text())


def format_config(config: ExperimentConfig) -> str:
    """Serialize back to the flat format (stable key order)."""
    lines = []
    for section, cls in _SECTIONS.items():
        obj = getattr(config, section)
        for f in fields(cls):
            value = getattr(obj, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{section}.{f.name} = {value}")
    return "\n".join(lines) + "\n"
