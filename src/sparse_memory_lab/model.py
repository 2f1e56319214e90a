"""Toy decoder-only language model wiring the table lookups, partial experts,
and wide-representation stacks behind one config-driven builder.

Parameter draws use a fixed SeedSequence spawn-key layout so that configs
which should coincide (e.g. the K=1 wide stack vs. the plain baseline) draw
bit-identical initializations from the same master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .altup import (
    PccFullParams,
    PccParams,
    PccSimplifiedParams,
    WideRepresentation,
    altup_stack_forward,
    divide_and_project,
)
from .autodiff import Tensor, at_stage, concat, cross_entropy
from .config import ExperimentConfig
from .lookup import (
    JITTER_EPSILON,
    LookupParams,
    MemoryTable,
    init_lookup,
    memory_augmented_forward,
)
from .nn import TransformerBlockParams, lecun_normal_init, transformer_block_forward


def _seed(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=key)


def _token_ids(tokens) -> np.ndarray:
    """tokens as an int64 array; a float or bool dtype raises rather than
    being truncated to ids."""
    ids = np.asarray(tokens)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"token ids must have an integer dtype, got {ids.dtype}")
    return ids.astype(np.int64, copy=False)


@dataclass
class LanguageModel:
    config: ExperimentConfig
    embed0: Tensor               # (V, K*d) when K > 1 and e = 0, else (V, d)
    aug_table: Tensor | None     # (V, e)
    dp_proj: Tensor | None       # (K-1, e/(K-1), d)
    sum_table: Tensor | None
    out_table: Tensor            # (head width, V)
    blocks: list[TransformerBlockParams]
    pcc: list[PccParams] | None  # None exactly when K = 1
    lookups: list[LookupParams] | None
    tables: list[MemoryTable] | None
    selection: str               # "same" or "alternating"

    @property
    def K(self) -> int:
        # validate() allows K > 1 only with memory.consumption sameup or altup
        return self.config.altup.K

    @property
    def wide(self) -> bool:
        return self.K > 1

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config: ExperimentConfig) -> "LanguageModel":
        config.validate()
        m, mem, alt, tr = config.model, config.memory, config.altup, config.training
        master = tr.seed
        V, d = m.vocab, m.d

        K = alt.K
        wide = K > 1

        # at e = 0 block k of the wide table is the (V, d) draw of seed (0, k)
        n_tables = K if alt.e == 0 else 1
        draws = [lecun_normal_init((V, d), _seed(master, 0, k), fan_in=d).data
                 for k in range(n_tables)]
        embed0 = Tensor(np.concatenate(draws, axis=1), requires_grad=True)
        aug_table = dp_proj = None
        if alt.e > 0:  # validate() allows it with K > 1 only
            aug_table = lecun_normal_init((V, alt.e), _seed(master, 0, 1), fan_in=alt.e)
            chunk = alt.e // (K - 1)
            dp_proj = Tensor(np.stack([
                np.random.default_rng(s).standard_normal((chunk, d)) / np.sqrt(chunk)
                for s in _seed(master, 6).spawn(K - 1)]), requires_grad=True)

        sum_table = None
        if mem.consumption == "sum":
            sum_table = lecun_normal_init((V, d), _seed(master, 1), fan_in=d)

        head_width = K * d if (wide and alt.head == "proj") else d
        # drawn (V, head width) from its seed, stored transposed so the head's
        # matmul reads it with no transpose node
        drawn = lecun_normal_init((V, head_width), _seed(master, 2), fan_in=head_width)
        out_table = Tensor(drawn.data.T.copy(), requires_grad=True)

        blocks = [
            TransformerBlockParams.init(d, m.heads, _seed(master, 3, i))
            for i in range(m.layers)
        ]

        pcc: list[PccParams] | None = None
        if wide:
            if alt.variant == "full":
                pcc = [PccFullParams.identity_init(K, d) for _ in range(m.layers)]
            else:
                pcc = [PccSimplifiedParams.identity_init(K) for _ in range(m.layers)]

        lookups: list[LookupParams] | None = None
        tables: list[MemoryTable] | None = None
        if mem.lookup != "none":
            lookups = [init_lookup(mem, V, d, _seed(master, 5, i)) for i in range(m.layers)]
            tables = [MemoryTable.init(lk.n, d, mem.rank, _seed(master, 4, i))
                      for i, lk in enumerate(lookups[:1] if mem.share_table else lookups)]
            if mem.share_table:  # validate() allows it for token_id only
                tables *= m.layers

        selection = "same" if mem.consumption == "sameup" else alt.selection

        return cls(config=config, embed0=embed0, aug_table=aug_table, dp_proj=dp_proj,
                   sum_table=sum_table, out_table=out_table, blocks=blocks,
                   pcc=pcc, lookups=lookups, tables=tables, selection=selection)

    # -- parameters -----------------------------------------------------------

    def embedding_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {"embed0": self.embed0}
        if self.aug_table is not None:
            out["embed_aug"] = self.aug_table
        if self.sum_table is not None:
            out["embed_sum"] = self.sum_table
        out["out_table"] = self.out_table
        return out

    def non_embedding_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, block in enumerate(self.blocks):
            for name, t in block.parameters().items():
                out[f"block{i}_{name}"] = t
        if self.pcc is not None:
            for i, p in enumerate(self.pcc):
                for name, t in p.parameters().items():
                    out[f"pcc{i}_{name}"] = t
        if self.dp_proj is not None:
            out["dp_proj"] = self.dp_proj
        out.update(self.memory_parameters())
        if self.config.memory.lookup == "softmax":
            for i, router in enumerate(self.lookups):
                out[f"router{i}_W"] = router.W
        return out

    def memory_parameters(self) -> dict[str, Tensor]:
        """The expert tables; row i of each is expert i's own parameters."""
        out: dict[str, Tensor] = {}
        seen: set[int] = set()
        for i, table in enumerate(self.tables or []):
            if id(table) in seen:
                continue
            seen.add(id(table))
            for name, t in table.parameters().items():
                out[f"mem{i}_{name}"] = t
        return out

    def parameters(self) -> dict[str, Tensor]:
        return {**self.embedding_parameters(), **self.non_embedding_parameters()}

    # -- forward ---------------------------------------------------------------

    def _layer_fn(self, layer_index: int, tokens: np.ndarray,
                  jitter: np.ndarray | None) -> Callable[[Tensor], Tensor]:
        block = self.blocks[layer_index]
        lookup = self.lookups[layer_index] if self.lookups else None
        table = self.tables[layer_index] if self.tables else None

        def layer(x: Tensor) -> Tensor:
            if lookup is None:
                return transformer_block_forward(x, block)
            # the block is the always-on main expert; each position adds its
            # routed partial experts on the block *input*, per the layer contract
            memory = memory_augmented_forward(x, tokens, lookup, table, jitter=jitter)
            out = transformer_block_forward(x, block)
            at_stage("memory add")
            return out + memory

        return layer

    def _router_jitter(self, tokens: np.ndarray,
                       rng: np.random.Generator | None) -> np.ndarray | None:
        """Softmax-router jitter for every layer, (..., layers, seq, d), drawn
        from `rng`; None without a generator or a softmax router.

        One draw, sequence-major then layer, is the stream that one forward
        per sequence would draw layer by layer, so a batch routes each
        sequence exactly as running it alone would.
        """
        if rng is None or self.config.memory.lookup != "softmax":
            return None
        *lead, seq = tokens.shape
        return rng.uniform(1.0 - JITTER_EPSILON, 1.0 + JITTER_EPSILON,
                           size=(*lead, len(self.blocks), seq, self.config.model.d))

    def initial_representation(self, tokens: np.ndarray) -> WideRepresentation:
        flat = self.embed0.take(tokens)
        if self.sum_table is not None:
            flat = flat + self.sum_table.take(tokens)
        if self.aug_table is not None:
            projected = divide_and_project(self.aug_table.take(tokens), self.dp_proj)
            flat = concat([flat, projected], axis=-1)
        return WideRepresentation(flat=flat, K=self.K)

    def forward(self, tokens: np.ndarray, rng: np.random.Generator | None = None) -> Tensor:
        """Logits (..., seq, vocab) for a (seq,) token sequence or a (B, seq) batch;
        a given `rng` draws the router's training jitter, None routes as eval does."""
        tokens = _token_ids(tokens)
        if tokens.ndim not in (1, 2):
            raise ValueError("forward expects a (seq,) sequence or a (B, seq) batch of tokens")
        vocab = self.config.model.vocab
        bad = tokens[(tokens < 0) | (tokens >= vocab)]
        if bad.size:
            raise ValueError(f"token id {int(bad[0])} outside the vocabulary [0, {vocab})")
        at_stage("embed")
        x0 = self.initial_representation(tokens)
        jitter = self._router_jitter(tokens, rng)
        fns = [self._layer_fn(i, tokens, None if jitter is None else jitter[..., i, :, :])
               for i in range(len(self.blocks))]
        final, _ = altup_stack_forward(x0, fns, self.selection, self.pcc)
        at_stage("head")
        head = self.config.altup.head if self.wide else "block0"
        if head == "proj":
            read = final.to_flat()
        elif head == "mean":
            read = final.view().mean(axis=-2)
        else:
            read = final.block(0)
        return read @ self.out_table

    def sequence_loss(self, window: np.ndarray,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Mean next-token cross-entropy (nats) over one (seq+1)-token window,
        or over every token of a (B, seq+1) batch of windows; `rng` as in forward."""
        window = _token_ids(window)
        logits = self.forward(window[..., :-1], rng=rng)
        at_stage("loss")
        return cross_entropy(logits, window[..., 1:])


def count_params(model: LanguageModel) -> tuple[int, int]:
    """(embedding, non-embedding) trainable scalar counts; sums to the total."""
    emb = sum(t.size for t in model.embedding_parameters().values())
    non = sum(t.size for t in model.non_embedding_parameters().values())
    return emb, non
