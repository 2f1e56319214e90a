"""Benchmark for sparse-memory-lab: one workload per process.

    python3 perfbench/run.py --workload train-dense --seed 0 --seconds 30 --trace 0

With --trace 0 the run measures the end-to-end metrics with the package
untouched. With --trace 1 it wraps the package's public functions, records
spans, and reports the per-layer metrics and the tracing overhead instead.
Either way it checks the outputs and exits non-zero if a check fails. The
last line of stdout is one JSON object: {correct, attempted, failed, metrics}.
perfbench/README.md explains the workloads and every metric.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SPARSE_MEMORY_LAB_THREADS")

# -- workload definitions ------------------------------------------------------

# Every cell uses the package defaults for the model (d=32, 2 layers, 2 heads,
# vocab 64, seq 16, batch 8, Adam, generated Markov corpus); eval is cut to
# 512 tokens so that a run fits several eval passes of every memory cell.
EVAL_TOKENS = 512
DENSE_CELLS = {
    "baseline": {},
    "altup-simplified": {"memory.consumption": "altup", "altup.K": 2},
    "altup-full": {"memory.consumption": "altup", "altup.K": 2, "altup.variant": "full"},
}
MEMORY_CELLS = {
    "token_id": {"memory.lookup": "token_id", "memory.rank": 4},
    "softmax": {"memory.lookup": "softmax", "memory.rank": 4, "memory.buckets": 64,
                "memory.k": 2},
    "hyperplane": {"memory.lookup": "hyperplane", "memory.rank": 4, "memory.buckets": 64},
    "spherical": {"memory.lookup": "spherical", "memory.rank": 4, "memory.buckets": 64},
}
SETUP_REPS = 5        # set-ups per run; setup_s takes their median
STEPS_PER_ROUND = 6  # per cell, then one eval pass; round 0 is the checked one
MIN_TIMED_STEPS = 100  # leaves ten step samples beyond p90

# lshsim: the grid `sml lshsim --family X --n 1024` runs. Trial counts keep
# spherical above hyperplane by more than 4 stderr at f=0.25 and make each
# family's grid call take about a second or more; min-hash, the cheapest,
# makes several calls per round, so that its rate has more samples.
LSH_F_GRID = (0.25, 0.5, 0.75)
LSH_N, LSH_L, LSH_D = 1024, 32, 64
LSH_TRIALS = {"spherical": 8000, "hyperplane": 8000, "minhash": 100000}
LSH_CALLS = {"spherical": 1, "hyperplane": 1, "minhash": 3}  # grid calls per round
LSH_MIN_ROUNDS = 2  # the per-family rates take slow_time over rounds

# Every workload reports every end-to-end metric, so each also runs a small
# companion of the other kind between its operations: train-* run one lshsim
# cell (f=0.75, width given, so no calibration; the families in turn) after a
# row of steps or an eval pass whenever the cells have had less than
# COMPANION_SHARE of the time, and lshsim trains the baseline cell after each
# family's grid calls.
COMPANION_F = 0.75
COMPANION_TRIALS = {"spherical": 500, "hyperplane": 500, "minhash": 50000}
COMPANION_SHARE = 0.2
COMPANION_CELLS = {"baseline": {}}
# training rounds after each family: 6 x 6 steps x 3 families x LSH_MIN_ROUNDS >= 100,
# and 36 eval passes, so that one slow burst cannot set their p90
COMPANION_TRAIN_ROUNDS = 6
# hyperplane_collision_width(64, 32); the lshsim workload checks it still is.
HYPERPLANE_WIDTH = 55.29777863700906

# Machine-speed scaling (see SpeedProbe): a fixed pure-Python loop, timed
# between operations, and its reference time, about its slow_time on the VM
# the benchmark was tuned on.
PROBE_LOOP = 20000
PROBE_REF_S = 0.002
SCALED_TIMES = ("setup_s", "step_ms_p50", "step_ms_p90")  # multiplied by the scale
# every *_per_s metric is divided by it; peak_rss_mb is left as measured

# Correctness tolerances. Reordering a float sum moves the checked eval loss
# by ~1e-14 nats; a wrong route or a dropped gradient moved it by 6e-4 or more.
EVAL_LOSS_TOL = 1e-8
LSH_STDERRS = 4.0

# workload -> its training cells; lshsim's main work is the collision grid
WORKLOADS = {"train-dense": DENSE_CELLS, "train-memory": MEMORY_CELLS, "lshsim": None}

# Spans that must fire (or must not) in the traced part of each workload.
TRAIN_SPANS = {"train.step", "train.evaluate", "train.setup", "train.forward",
               "train.sample_batch", "train.optimizer", "markov.sample",
               "autodiff.backward", "model.forward", "model.embed", "nn.block_forward",
               "checkpoint.save", "checkpoint.load"}
MEMORY_SPANS = {"lookup.route", "lookup.memory_forward", "nn.expert", "lookup.fold_cells"}
EXPECTED_SPANS = {
    "train-dense": (TRAIN_SPANS | {"altup.pcc"}, MEMORY_SPANS - {"lookup.fold_cells"}),
    "train-memory": (TRAIN_SPANS | MEMORY_SPANS, {"altup.pcc"}),
    "lshsim": ({"lshsim.width_calibration", "lookup.fold_cells"}
               | {f"lshsim.{fam}" for fam in LSH_TRIALS},
               {"train.step", "autodiff.backward", "nn.block_forward", "lookup.route"}),
}


# -- bookkeeping ---------------------------------------------------------------

class Checks:
    """Operations attempted, the failed ones with their reasons, and the values
    compared against the committed references."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.observed: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def near_reference(self, key: str, value: float, tolerance: float) -> bool:
        """True when `key` has no reference for this seed or `value` is within it."""
        self.observed.setdefault(key, value)
        ref = self.references.get(key)
        return ref is None or abs(value - ref) <= tolerance


def cap_threads() -> int:
    """Cap BLAS and package thread counts at nproc before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def git_rev() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def slow_time(times: list[float]) -> float:
    """The 90th percentile of one operation's times. On the shared 2-vCPU VM
    this benchmark was tuned on, the CPU switches between a fast and a slow
    state about 1.5x apart; medians follow how long a run spent in the fast
    state and varied 6-25% between runs, the 90th percentile mostly 4-12%."""
    return statistics.quantiles(times, n=10, method="inclusive")[8]


class SpeedProbe:
    """Times a fixed pure-Python loop between the timed operations.

    The VM's speed changes over seconds and minutes by up to 1.5x, for every
    operation at once; a run inside a fast minute reads fast on every metric.
    The loop's slow_time over a run tracks that speed, so metrics are scaled
    to the speed at which the loop takes PROBE_REF_S. The benchmark, not the
    program, runs the loop, so a change to the program does not move it
    unless the program leaves work running between operations.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """PROBE_REF_S over the loop's slow_time in this run."""
        return PROBE_REF_S / slow_time(self.times)


def span(tracer, name: str):
    return tracer.op(name) if tracer is not None else nullcontext()


class Job:
    """Work repeated in identical rounds; round 0 is the one checked against references."""

    rounds = 0
    # called between the operations of a round; the companion job runs there,
    # so that both sample the whole run
    between = staticmethod(lambda: None)

    def run(self, seconds: float, min_rounds: int) -> tuple[int, float]:
        """Rounds while the next would end within `seconds`, but at least
        `min_rounds`; returns the rounds run and their operation time."""
        start, before, done = time.perf_counter(), self.op_seconds(), 0
        while done < min_rounds or (
                (time.perf_counter() - start) * (done + 1) / done <= seconds):
            self.run_round()
            self.rounds += 1
            done += 1
        return done, self.op_seconds() - before


# -- training --------------------------------------------------------------------

class TrainJob(Job):
    """One Trainer per cell; a round is STEPS_PER_ROUND steps and one eval per cell."""

    def __init__(self, sml, cells: dict, seed: int, checks: Checks, tracer,
                 probe: SpeedProbe) -> None:
        self.sml, self.cells, self.seed = sml, cells, seed
        self.checks, self.tracer, self.probe = checks, tracer, probe
        self.trainers: dict = {}
        # per cell: seconds of each timed step and eval pass, tokens one pass scores
        self.step_s: dict[str, list[float]] = {name: [] for name in cells}
        self.eval_s: dict[str, list[float]] = {name: [] for name in cells}
        self.eval_tokens: dict[str, int] = {}
        self.checkpoint_bytes: list[int] = []
        # (lookup kind, table id) -> (buckets routed in the evals of round
        # `record_round`, table size); traced runs set the round
        self.record_round: int | None = None
        self.used_buckets: dict[tuple[str, int], tuple[int, int]] = {}
        self.first_loss: dict[str, float] = {}
        self.last_loss: dict[str, float] = {}

    def config(self, overrides: dict):
        cfg = self.sml.config.ExperimentConfig()
        cfg.training.seed = self.seed
        cfg.training.eval_tokens = EVAL_TOKENS
        for key, value in overrides.items():
            self.sml.config.set_config_value(cfg, key, str(value))
        return cfg.validate()

    def setup(self) -> float:
        """Build every cell's Trainer; returns the summed build time."""
        total = 0.0
        for name, overrides in self.cells.items():
            cfg = self.config(overrides)
            t0 = time.perf_counter()
            with span(self.tracer, "train.setup"):
                self.trainers[name] = self.sml.train.Trainer(cfg)
            total += time.perf_counter() - t0
        return total

    def warm_up(self) -> None:
        for name, trainer in self.trainers.items():
            loss = trainer.step()
            self.checks.check(math.isfinite(loss), f"{name}: warm-up loss {loss!r}")

    def run_round(self) -> None:
        # cells take turns step by step, so every cell's samples span the round
        for _ in range(STEPS_PER_ROUND):
            for name, trainer in self.trainers.items():
                t0 = time.perf_counter()
                with span(self.tracer, "train.step"):
                    loss = trainer.step()
                self.step_s[name].append(time.perf_counter() - t0)
                self.checks.check(math.isfinite(loss), f"{name}: step loss {loss!r}")
            self.probe.sample()
            self.between()
        for name, trainer in self.trainers.items():
            record = self.tracer is not None and self.rounds == self.record_round
            if record:
                self.tracer.buckets = {}
            t0 = time.perf_counter()
            with span(self.tracer, "train.evaluate"):
                loss, _, _ = trainer.evaluate()
            self.eval_s[name].append(time.perf_counter() - t0)
            if record:
                for key, buckets in self.tracer.buckets.items():
                    self.used_buckets[key] = (len(buckets), self.tracer.table_sizes[key])
                self.tracer.buckets = None
            model = trainer.config.model
            self.eval_tokens[name] = (len(trainer.eval_tokens) // (model.seq_len + 1)) \
                * model.seq_len
            ok = math.isfinite(loss)
            if self.rounds == 0:
                self.first_loss[name] = loss
                ok = self.checks.near_reference(f"train/{name}", loss, EVAL_LOSS_TOL) and ok
            self.last_loss[name] = loss
            self.checks.check(ok, f"{name}: eval loss {loss!r} in round {self.rounds}")
            self.probe.sample()
            self.between()

    def check_learning(self) -> None:
        """Training must have lowered each cell's eval loss since round 0."""
        for name, first in self.first_loss.items():
            last = self.last_loss[name]
            self.checks.check(last < first, f"{name}: final eval loss {last!r} is not below "
                                            f"the round-0 eval loss {first!r}")

    def checkpoint_round_trip(self) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        ckpt = self.sml.checkpoint
        for name, trainer in self.trainers.items():
            path = OUT / f"{os.getpid()}-{name}.smlb"
            tensors = {k: p.data for k, p in trainer.params.items()}
            try:
                ckpt.save_checkpoint(path, tensors)
                loaded = ckpt.load_checkpoint(path)
                self.checkpoint_bytes.append(path.stat().st_size)
            finally:
                path.unlink(missing_ok=True)
            same = loaded.keys() == tensors.keys() and all(
                loaded[k].shape == v.shape and (loaded[k] == v).all()
                for k, v in tensors.items())
            self.checks.check(same, f"{name}: checkpoint round trip changed the parameters")

    def op_seconds(self) -> float:
        return sum(map(sum, self.step_s.values())) + sum(map(sum, self.eval_s.values()))


# -- lshsim ------------------------------------------------------------------------

class LshJob(Job):
    """LSH_CALLS collision_grid calls per family per round, all with the same seed."""

    def __init__(self, sml, seed: int, checks: Checks, tracer, probe: SpeedProbe) -> None:
        self.sml, self.seed = sml, seed
        self.checks, self.tracer, self.probe = checks, tracer, probe
        self.family_s: dict[str, list[float]] = {fam: [] for fam in LSH_TRIALS}
        self.first: dict[tuple[str, float], float] = {}

    def setup(self) -> float:
        """Width calibration, which every new process pays once."""
        t0 = time.perf_counter()
        width = self.sml.lshsim.hyperplane_collision_width(LSH_D, LSH_L)
        elapsed = time.perf_counter() - t0
        self.checks.check(abs(width - HYPERPLANE_WIDTH) <= 1e-12 * HYPERPLANE_WIDTH,
                          f"hyperplane width {width!r}, expected {HYPERPLANE_WIDTH!r}")
        return elapsed

    def run_round(self) -> None:
        for fam, trials in LSH_TRIALS.items():
            for _ in range(LSH_CALLS[fam]):
                t0 = time.perf_counter()
                with span(self.tracer, f"lshsim.{fam}"):
                    rows = self.sml.lshsim.collision_grid(
                        [fam], LSH_F_GRID, [LSH_N], LSH_L, LSH_D, trials, self.seed)
                self.family_s[fam].append(time.perf_counter() - t0)
                self.probe.sample()
                for row in rows:
                    key = (fam, row["f"])
                    check_cell(self.checks, f"collision_grid/{fam}/{row['f']}", fam,
                               row["f"], row["p_hat"], row["stderr"])
                    if key in self.first:
                        self.checks.check(row["p_hat"] == self.first[key],
                                          f"{fam} f={row['f']}: p_hat changed between calls")
                    else:
                        self.first[key] = row["p_hat"]
            self.between()
        if self.rounds == 0:
            check_order(self.checks, self.first, LSH_F_GRID)

    def op_seconds(self) -> float:
        return sum(map(sum, self.family_s.values()))

    def trials_per_s(self) -> dict:
        """Family -> (trials of one grid call / its slow_time, trials timed)."""
        return {fam: (trials * len(LSH_F_GRID) / slow_time(self.family_s[fam]),
                      trials * len(LSH_F_GRID) * len(self.family_s[fam]))
                for fam, trials in LSH_TRIALS.items()}


def check_cell(checks: Checks, key: str, family: str, f: float, p_hat: float,
               stderr: float) -> bool:
    """p_hat against its reference and, for min-hash, against the Jaccard index."""
    bound = LSH_STDERRS * stderr
    ok = 0.0 <= p_hat <= 1.0 and checks.near_reference(key, p_hat, bound)
    if family == "minhash":
        # ids stay below the table size here, so E[p_hat] is exactly the Jaccard index
        shared = round(f * LSH_L)
        ok = ok and abs(p_hat - shared / (2 * LSH_L - shared)) <= bound
    return checks.check(ok, f"{key}: p_hat {p_hat!r}, reference {checks.references.get(key)!r}")


def check_order(checks: Checks, p_hats: dict, f_grid) -> None:
    for f in f_grid:
        token_id = round(f * LSH_L) / LSH_L
        sph, hyp = p_hats[("spherical", f)], p_hats[("hyperplane", f)]
        checks.check(token_id >= sph >= hyp,
                     f"f={f}: token_id {token_id} >= spherical {sph} >= hyperplane {hyp} fails")


class LshCompanion:
    """One f=0.75 cell at a given width per call, the families in turn, each
    family with the same seed every time."""

    def __init__(self, sml, np, seed: int, checks: Checks) -> None:
        self.sml, self.np, self.seed, self.checks = sml, np, seed, checks
        self.family_s: dict[str, list[float]] = {fam: [] for fam in COMPANION_TRIALS}
        self.p_hats: dict[tuple[str, float], float] = {}
        self.calls = 0
        self.start = time.perf_counter()

    def between(self) -> None:
        """The next cell, if the cells have had less than COMPANION_SHARE of
        the time since the companion was made."""
        spent = sum(map(sum, self.family_s.values()))
        if spent < COMPANION_SHARE * (time.perf_counter() - self.start):
            self.next_cell()

    def finish(self) -> None:
        """Enough cells that every family has two timings for slow_time."""
        while self.calls < 2 * len(COMPANION_TRIALS):
            self.next_cell()

    def next_cell(self) -> None:
        i = self.calls % len(COMPANION_TRIALS)
        fam, trials = list(COMPANION_TRIALS.items())[i]
        self.calls += 1
        # a fresh SeedSequence per call: spawning from one advances it
        cell_seed = self.np.random.SeedSequence(entropy=self.seed, spawn_key=(i,))
        t0 = time.perf_counter()
        est = self.sml.lshsim.estimate_collision(
            fam, COMPANION_F, LSH_N, LSH_L, LSH_D, trials, cell_seed, width=HYPERPLANE_WIDTH)
        self.family_s[fam].append(time.perf_counter() - t0)
        check_cell(self.checks, f"estimate_collision/{fam}/{COMPANION_F}", fam,
                   COMPANION_F, est.p_hat, est.stderr)
        self.p_hats[(fam, COMPANION_F)] = est.p_hat

    def trials_per_s(self) -> dict:
        """Family -> (trials of one cell / its slow_time, trials timed)."""
        return {fam: (trials / slow_time(self.family_s[fam]),
                      trials * len(self.family_s[fam]))
                for fam, trials in COMPANION_TRIALS.items()}


# -- metrics -------------------------------------------------------------------

def train_metrics(job: TrainJob) -> dict:
    """End-to-end training metrics as name -> (value, sample count).

    Throughputs divide the work of one step (one eval pass) of every cell by
    the sum of the cells' slow_time for it.
    """
    steps = [t for times in job.step_s.values() for t in times]
    batch = next(iter(job.trainers.values())).config.training.batch
    step_s = sum(slow_time(times) for times in job.step_s.values())
    eval_s = sum(slow_time(times) for times in job.eval_s.values())
    passes = sum(map(len, job.eval_s.values()))
    return {
        "train_examples_per_s": (batch * len(job.cells) / step_s, len(steps)),
        "step_ms_p50": (statistics.median(steps) * 1e3, len(steps)),
        "step_ms_p90": (statistics.quantiles(steps, n=10)[8] * 1e3, len(steps)),
        "eval_tokens_per_s": (sum(job.eval_tokens.values()) / eval_s, passes),
    }


def layer_metrics(tracer, job: Job, traced: tuple[int, float],
                  untraced: tuple[int, float]) -> dict:
    """Per-layer metrics from the spans of the traced rounds (see README.md)."""
    agg = tracer.aggregate()

    def total(name: str, op: str | None, column: int) -> float:
        """Self ns (0), inclusive ns (1) or calls (2) of `name` inside `op`, or anywhere."""
        if op is not None:
            return agg.get((name, op), (0, 0, 0))[column]
        return sum(row[column] for (n, _), row in agg.items() if n == name)

    def per(numerator: float, count: float) -> float:
        return numerator / count if count else 0.0

    ms = 1e-6
    steps = total("train.step", None, 2)
    evals = total("train.evaluate", None, 2)
    out = {}
    for metric, name, column in (
            ("autodiff.backward_ms", "autodiff.backward", 0),
            ("nn.block_forward_ms", "nn.block_forward", 0),
            ("nn.expert_ms", "nn.expert", 0),
            ("lookup.route_ms", "lookup.route", 0),
            ("lookup.memory_forward_ms", "lookup.memory_forward", 1),
            ("altup.pcc_ms", "altup.pcc", 0),
            ("model.forward_ms", "model.forward", 1),
            ("model.embed_ms", "model.embed", 0),
            ("train.forward_ms", "train.forward", 1),
            ("train.optimizer_ms", "train.optimizer", 1),
            ("train.sample_batch_ms", "train.sample_batch", 1)):
        out[metric] = per(total(name, "train.step", column) * ms, steps)
    for metric, name in (("nn.block_calls", "nn.block_forward"),
                         ("nn.expert_calls", "nn.expert"),
                         ("lookup.route_calls", "lookup.route")):
        out[metric] = per(total(name, "train.step", 2), steps)
    counters = tracer.op_counters
    out["autodiff.graph_nodes"] = per(counters["train.step"]["graph_nodes"], steps)
    out["autodiff.tensors_per_step"] = per(counters["train.step"]["tensors"], steps)
    out["autodiff.tensors_per_eval"] = per(counters["train.evaluate"]["tensors"], evals)
    out["train.evaluate_ms"] = per(total("train.evaluate", None, 1) * ms, evals)
    out["markov.sample_ms"] = per(total("markov.sample", "train.setup", 1) * ms,
                                  total("train.setup", None, 2))
    for op in ("save", "load"):
        name = f"checkpoint.{op}"
        out[f"{name}_ms"] = per(total(name, None, 1) * ms, total(name, None, 2))
    sizes = getattr(job, "checkpoint_bytes", [])
    out["checkpoint.bytes"] = statistics.mean(sizes) if sizes else 0
    out["lshsim.width_calibration_s"] = total("lshsim.width_calibration", None, 1) * 1e-9
    for fam in LSH_TRIALS:
        name = f"lshsim.{fam}"
        out[f"{name}_cell_ms"] = per(total(name, None, 1) * ms,
                                     total(name, None, 2) * len(LSH_F_GRID))
    # fold_cells runs inside a training step (hyperplane routing) or a hyperplane grid
    out["lookup.fold_cells_ms"] = (
        per(total("lookup.fold_cells", "train.step", 0) * ms, steps)
        + per(total("lookup.fold_cells", "lshsim.hyperplane", 0) * ms,
              total("lshsim.hyperplane", None, 2) * len(LSH_F_GRID)))
    used = getattr(job, "used_buckets", {})
    for kind in ("token_id", "softmax", "hyperplane", "spherical"):
        tables = [v for (k, _), v in used.items() if k == kind]
        out[f"lookup.buckets_used_frac.{kind}"] = per(sum(u for u, _ in tables),
                                                      sum(n for _, n in tables))
    traced_round = traced[1] / traced[0]
    untraced_round = untraced[1] / untraced[0]
    out["trace_overhead_frac"] = (traced_round - untraced_round) / untraced_round
    return out


# -- main --------------------------------------------------------------------------

def load_references(path: Path, seed: int) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get("seeds", {}).get(str(seed), {})


def measure(args, sml, np, checks: Checks, tracer, import_s: float, raw: dict) -> dict:
    """Run one workload; returns metric name -> (value, sample count) and puts
    the seconds of every timed operation and probe loop, the scale and the
    unscaled metrics in `raw`."""
    cells = WORKLOADS[args.workload]
    metrics: dict[str, tuple[float, int]] = {}
    calibration_s = 0.0
    train_job = None
    probe = SpeedProbe()
    if cells is None:
        main_job = LshJob(sml, args.seed, checks, tracer, probe)
        calibration_s = main_job.setup()
        if not args.trace:
            train_job = TrainJob(sml, COMPANION_CELLS, args.seed, checks, None, probe)
    else:
        main_job = train_job = TrainJob(sml, cells, args.seed, checks, tracer, probe)
    if train_job is not None:
        # built SETUP_REPS times; the last build is the one that runs
        builds = [train_job.setup() for _ in range(SETUP_REPS)]
        metrics["setup_s"] = (import_s + calibration_s + statistics.median(builds), SETUP_REPS)
        train_job.warm_up()
    else:
        metrics["setup_s"] = (import_s + calibration_s, 1)

    min_rounds = 1 if args.trace else LSH_MIN_ROUNDS
    if isinstance(main_job, TrainJob):
        min_rounds = math.ceil(MIN_TIMED_STEPS / (STEPS_PER_ROUND * len(main_job.cells)))
    if args.trace:
        # The same fixed number of rounds untraced, then traced: fixed rounds keep
        # the per-layer counts exact, and spans kept from the traced rounds
        # cannot slow the untraced ones.
        tracer.uninstall()
        main_job.tracer = None
        untraced = main_job.run(0, min_rounds)
        tracer.install()
        main_job.tracer = tracer
        if isinstance(main_job, TrainJob):
            main_job.record_round = main_job.rounds
        traced = main_job.run(0, min_rounds)
        if isinstance(main_job, TrainJob):
            main_job.checkpoint_round_trip()
            main_job.check_learning()
        fired = tracer.fired()
        must, must_not = EXPECTED_SPANS[args.workload]
        for name in sorted(must - fired):
            checks.check(False, f"span coverage: {name} never fired")
        for name in sorted(must_not & fired):
            checks.check(False, f"span coverage: {name} fired but must not")
        layers = layer_metrics(tracer, main_job, traced, untraced)
        metrics.update({name: (value, traced[0]) for name, value in layers.items()})
        return metrics

    if isinstance(main_job, TrainJob):
        lsh_job = LshCompanion(sml, np, args.seed, checks)
        main_job.between = lsh_job.between
        main_job.run(args.seconds, min_rounds)
        lsh_job.finish()
        main_job.checkpoint_round_trip()
        check_order(checks, lsh_job.p_hats, (COMPANION_F,))
    else:
        lsh_job = main_job
        main_job.between = lambda: train_job.run(0, COMPANION_TRAIN_ROUNDS)
        main_job.run(args.seconds, min_rounds)
    lsh = lsh_job.trials_per_s()
    train_job.check_learning()
    metrics.update(train_metrics(train_job))
    metrics.update({f"{fam}_trials_per_s": rate for fam, rate in lsh.items()})
    scale = probe.scale()
    raw.update(step_s=train_job.step_s, eval_s=train_job.eval_s, lshsim_s=lsh_job.family_s,
               probe_s=probe.times, scale=scale,
               unscaled={name: value for name, (value, _) in metrics.items()})
    for name, (value, count) in metrics.items():
        if name in SCALED_TIMES:
            metrics[name] = (value * scale, count)
        elif name.endswith("_per_s"):
            metrics[name] = (value / scale, count)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's checked values as the references for "
                             "--seed instead of comparing against them")
    args = parser.parse_args(argv)

    nproc = cap_threads()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sparse_memory_lab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/sparse_memory_lab or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import sparse_memory_lab.checkpoint
    import sparse_memory_lab.config
    import sparse_memory_lab.lshsim
    import sparse_memory_lab.train
    sml = sparse_memory_lab
    import_s = time.perf_counter() - PROCESS_START

    ref_path = HERE / "reference.json"
    checks = Checks({} if args.update_reference else load_references(ref_path, args.seed))
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(np), **{var: os.environ[var] for var in THREAD_VARS},
    }
    tracer = None
    metrics: dict[str, tuple[float, int]] = {}
    raw: dict = {}
    try:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        metrics = measure(args, sml, np, checks, tracer, import_s, raw)
    except Exception:  # an operation raised: it counts as failed, and the run reports it
        traceback.print_exc()
        checks.check(False, "raised " + traceback.format_exc().strip().splitlines()[-1])
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")

    if args.update_reference:
        return update_reference(ref_path, args.seed, checks)

    spec = json.loads(spec_path.read_text())
    result_metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if not checks.check(m["name"] in metrics, f"metric {m['name']} was not measured"):
            continue
        value, count = metrics[m["name"]]
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(metric_line(m["name"], value, m["unit"], count, raw))
    # printed for reading, but not in BENCHMARK.json: step_ms_p50 spreads up to
    # the largest bound allowed between runs (see slow_time), failed_frac is 0
    if "step_ms_p50" in metrics and not args.trace:
        value, count = metrics["step_ms_p50"]
        print(metric_line("step_ms_p50", value, "ms", count, raw) + " not gated")
    failed = len(checks.failures)
    print(f"{'failed_frac':>34} {failed / max(checks.attempted, 1):14.6g} "
          f"{'failed/attempted':<12} (n={checks.attempted})")
    for reason in checks.failures:
        print(f"FAILED: {reason}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": max(checks.attempted, 1),
              "failed": failed, "metrics": result_metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, **result, "raw": raw}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def metric_line(name: str, value: float, unit: str, count: int, raw: dict) -> str:
    line = f"{name:>34} {value:14.6g} {unit:<12} (n={count})"
    if name in raw.get("unscaled", {}):
        line += f" unscaled {raw['unscaled'][name]:.6g}, scale {raw['scale']:.4f}"
    return line


def update_reference(path: Path, seed: int, checks: Checks) -> int:
    """Store the checked values this run produced as the references for `seed`."""
    if checks.failures:
        print("not updating references: " + "; ".join(checks.failures), file=sys.stderr)
        return 1
    data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    data["seeds"].setdefault(str(seed), {}).update(checks.observed)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(checks.observed)} reference values for seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
