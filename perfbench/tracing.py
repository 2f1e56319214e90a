"""Span tracing for traced benchmark runs.

`Tracer.install` replaces the package's public functions and methods with
timing wrappers at the names their callers look up, and `uninstall` puts the
originals back, so untraced runs execute the package untouched. Spans
(name, start, end, parent) are kept in memory and written out once, at the
end of the run. Operation spans (a training step, an eval pass, a set-up, an
lshsim grid call) are opened by the benchmark itself; every span nested in
one is attributed to that operation.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name). Each attribute is looked up by its
# callers at call time, so replacing it there sees every call.
TARGETS = (
    ("sparse_memory_lab.train", "Trainer.batch_loss", "train.forward"),
    ("sparse_memory_lab.train", "Trainer.sample_batch", "train.sample_batch"),
    ("sparse_memory_lab.train", "AdamState.step", "train.optimizer"),
    ("sparse_memory_lab.train", "sample_markov", "markov.sample"),
    ("sparse_memory_lab.autodiff", "Tensor.backward", "autodiff.backward"),
    ("sparse_memory_lab.model", "LanguageModel.forward", "model.forward"),
    ("sparse_memory_lab.model", "LanguageModel.initial_representation", "model.embed"),
    ("sparse_memory_lab.model", "transformer_block_forward", "nn.block_forward"),
    ("sparse_memory_lab.model", "memory_augmented_forward", "lookup.memory_forward"),
    ("sparse_memory_lab.lookup", "route", "lookup.route"),
    ("sparse_memory_lab.lookup", "apply_expert", "nn.expert"),
    ("sparse_memory_lab.lookup", "fold_cells", "lookup.fold_cells"),
    ("sparse_memory_lab.lshsim", "fold_cells", "lookup.fold_cells"),
    ("sparse_memory_lab.altup", "pcc_forward", "altup.pcc"),
    ("sparse_memory_lab.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("sparse_memory_lab.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("sparse_memory_lab.lshsim", "hyperplane_collision_width", "lshsim.width_calibration"),
)

# Constructions are counted, not spanned: there are thousands per step.
TENSOR_INIT = ("sparse_memory_lab.autodiff", "Tensor.__init__")

LOOKUP_KINDS = {
    "TokenIdLookup": "token_id",
    "SoftmaxRouterParams": "softmax",
    "HyperplaneLshParams": "hyperplane",
    "SphericalLshParams": "spherical",
}


class MissingTargetError(RuntimeError):
    """A wrapped name no longer exists in the package."""


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value or None) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    return owner, attr, getattr(owner, attr, None)


def _graph_size(root) -> int:
    """Distinct nodes reachable from `root` through `_parents`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters = {"tensors": 0, "graph_nodes": 0}
        # per operation name: counter deltas summed over its spans
        self.op_counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        # (lookup kind, table id) -> routed buckets, while recording is on
        self.buckets: dict[tuple[str, int], set[int]] | None = None
        self.table_sizes: dict[tuple[str, int], int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._op_names: set[str] = set()

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def op(self, name: str) -> "_OpSpan":
        """Span for one benchmark operation; counter deltas are charged to it."""
        self._op_names.add(name)
        return _OpSpan(self, name)

    def fired(self) -> set[str]:
        return set(self.names)

    # -- wrappers -----------------------------------------------------------

    def install(self) -> None:
        missing = []
        for module_name, path, span in TARGETS:
            owner, attr, fn = _resolve(module_name, path)
            if fn is None:
                missing.append(f"{module_name}.{path}")
                continue
            self._patch(owner, attr, self._wrap(fn, span))
        owner, attr, init = _resolve(*TENSOR_INIT)
        if init is None:
            missing.append(".".join(TENSOR_INIT))
        else:
            counters = self.counters

            def counted_init(tensor, *args, **kwargs):
                counters["tensors"] += 1
                init(tensor, *args, **kwargs)

            self._patch(owner, attr, counted_init)
        if missing:
            self.uninstall()
            raise MissingTargetError("traced names no longer exist: " + ", ".join(missing))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, span: str):
        enter, exit_ = self.enter, self.exit
        if span == "autodiff.backward":
            counters = self.counters

            def wrapper(loss, *args, **kwargs):
                counters["graph_nodes"] += _graph_size(loss)
                idx = enter(span)
                try:
                    return fn(loss, *args, **kwargs)
                finally:
                    exit_(idx)
        elif span == "lookup.route":
            def wrapper(*args, **kwargs):
                idx = enter(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(idx)
                if self.buckets is not None:
                    lookup = args[2] if len(args) > 2 else kwargs["lookup"]
                    key = (LOOKUP_KINDS.get(type(lookup).__name__, type(lookup).__name__),
                           id(lookup))
                    self.buckets.setdefault(key, set()).update(result.indices)
                    self.table_sizes[key] = lookup.n
                return result
        else:
            def wrapper(*args, **kwargs):
                idx = enter(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(idx)
        return wrapper

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict[tuple[str, str | None], list[float]]:
        """(span name, enclosing operation) -> [self ns, inclusive ns, calls]."""
        child_ns = [0] * len(self.starts)
        op_of: list[str | None] = [None] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
                op_of[i] = op_of[parent]
            if self.names[i] in self._op_names:
                op_of[i] = self.names[i]
        out: dict[tuple[str, str | None], list[float]] = defaultdict(lambda: [0, 0, 0])
        for i, name in enumerate(self.names):
            incl = self.ends[i] - self.starts[i]
            row = out[(name, op_of[i])]
            row[0] += incl - child_ns[i]
            row[1] += incl
            row[2] += 1
        return out

    def write(self, path: Path) -> None:
        """Spans as [name index, start ns, end ns, parent index], gzipped JSON."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[n], s, e, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "spans": spans}, fh, separators=(",", ":"))


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        self.before = dict(self.tracer.counters)
        self.idx = self.tracer.enter(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.idx)
        totals = self.tracer.op_counters[self.name]
        for key, value in self.tracer.counters.items():
            totals[key] += value - self.before[key]
