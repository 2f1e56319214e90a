"""Monte Carlo estimation of same-bucket collision rates for the lookup
families, driven by synthetic sentence pairs with a controlled overlap
fraction.

Two mixed sentence averages only interact with a random hash function
through their 2-D span, so the spherical and hyperplane estimators sample
(direction . u, direction . v) pairs directly (exactly bivariate normal for
Gaussian directions, anchor norms recovered with an independent
chi-square(d-2) term) instead of materializing d-dimensional hash
parameters per trial. This is equal in law to the literal construction and
roughly 20x faster; the cell-to-bucket mixing hash is shared verbatim with
the lookup ops, and the test suite cross-checks both routes.

Every sampler draws its trials in fixed-size batches through one helper.
`collision_grid`, `estimate_collision` and `estimate_mixing_dot` reject an
unknown family and an out-of-range f, n, l, d or trial count before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .lookup import MIX_SEED, fold_cells
from .nn import as_seedseq

FAMILIES = ("token_id", "spherical", "hyperplane", "minhash")

DEFAULT_SENTENCE_LEN = 32
DEFAULT_EMBED_DIM = 64

_CALIBRATION_N = 256
_CALIBRATION_F = 0.9
_CALIBRATION_TARGET = 0.5
_CALIBRATION_TRIALS = 20000
_CALIBRATION_SEED = 20240917

_PAIR_BATCH = 2048
# hyperplane_collision_width(64, 32), pinned so that a process using the
# defaults skips the bisection; a slow test re-derives it.
_width_cache: dict[tuple[int, int], float] = {
    (DEFAULT_EMBED_DIM, DEFAULT_SENTENCE_LEN): 55.29777863700906,
}


@dataclass(frozen=True)
class SentencePairSpec:
    """Two synthetic length-l sentences sharing round(f*l) wordpiece ids."""

    l: int
    f: float
    d: int
    seed: int

    def __post_init__(self) -> None:
        if self.l < 1:
            raise ValueError("sentence length must be at least 1")
        if not (0.0 <= self.f <= 1.0):
            raise ValueError("overlap fraction must lie in [0, 1]")
        if self.d < 1:
            raise ValueError("embedding dimension must be at least 1")

    @property
    def shared(self) -> int:
        return round(self.f * self.l)


@dataclass(frozen=True)
class LshAnalysisParams:
    """Near/far thresholds and the collision-probability exponent they induce."""

    r1: float
    r2: float
    p1: float
    p2: float
    c: float = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.r2 > self.r1 > 0):
            raise ValueError("need r2 > r1 > 0")
        if not (0.0 < self.p2 <= self.p1 <= 1.0):
            raise ValueError("need 0 < p2 <= p1 <= 1")
        object.__setattr__(self, "c", self.r2 / self.r1)
        object.__setattr__(self, "rho", math.log(1.0 / self.p1) / math.log(1.0 / self.p2))


@dataclass(frozen=True)
class CollisionEstimate:
    """Empirical same-bucket frequency for one lookup family at one grid cell."""

    family: str
    n: int
    f: float
    p_hat: float
    stderr: float
    trials: int
    l: int
    d: int


def make_sentence_pair(spec: SentencePairSpec) -> tuple[list[int], list[int], dict[int, np.ndarray]]:
    """Two token-id lists sharing exactly round(f*l) ids, plus unit embeddings.

    Ids are structural: shared ids come first, then each sentence's own ids;
    only the embeddings are random.
    """
    s = spec.shared
    own = spec.l - s
    ids1 = list(range(s)) + list(range(s, s + own))
    ids2 = list(range(s)) + list(range(s + own, s + 2 * own))
    rng = np.random.default_rng(spec.seed)
    emb: dict[int, np.ndarray] = {}
    for token in range(s + 2 * own):
        v = rng.standard_normal(spec.d)
        emb[token] = v / np.linalg.norm(v)
    return ids1, ids2, emb


def mix_average(embeddings: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of a sentence's wordpiece embeddings."""
    if len(embeddings) == 0:
        raise ValueError("cannot average an empty sentence")
    return np.mean(np.asarray(embeddings, dtype=np.float64), axis=0)


def mixing_dot(ids1: Sequence[int], ids2: Sequence[int],
               emb: dict[int, np.ndarray]) -> float:
    """Dot product of the two averages, each rescaled to unit expected norm.

    A sentence average of l random unit vectors has expected squared norm
    1/l, so both averages are multiplied by sqrt(l); the result is an
    unbiased estimate of the overlap fraction f.
    """
    if len(ids1) != len(ids2):
        raise ValueError("sentences must have equal length")
    l = len(ids1)
    a1 = mix_average([emb[t] for t in ids1])
    a2 = mix_average([emb[t] for t in ids2])
    return float(l * np.dot(a1, a2))


def estimate_mixing_dot(f: float, l: int, d: int, pairs: int, seed) -> tuple[float, float]:
    """Mean and standard error of the rescaled average dot over fresh pairs."""
    _check_cells((), [f], (), l, d, pairs)
    rng = np.random.default_rng(as_seedseq(seed))

    def draw(start: int, stop: int) -> np.ndarray:
        a1, a2 = _sentence_sums(f, l, d, stop - start, rng)
        return l * np.einsum("td,td->t", a1 / l, a2 / l)

    dots = _batched(pairs, _PAIR_BATCH, draw)
    mean = float(dots.mean())
    stderr = float(dots.std(ddof=1) / math.sqrt(pairs)) if pairs > 1 else 0.0
    return mean, stderr


def _batched(total: int, batch: int, draw: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """draw(start, stop) for consecutive runs of at most `batch` of `total`
    trials, in order, concatenated; the batch size sets the random stream."""
    return np.concatenate([draw(start, min(start + batch, total))
                           for start in range(0, total, batch)])


def _sentence_sums(f: float, l: int, d: int, size: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the unit wordpiece embeddings of `size` fresh sentence pairs
    sharing round(f*l) of their l ids: two (size, d) arrays."""
    s = round(f * l)
    own = l - s
    e = rng.standard_normal((size, s + 2 * own, d))
    e /= np.linalg.norm(e, axis=2, keepdims=True)
    a1 = e[:, : s + own].sum(axis=1)
    a2 = np.concatenate([e[:, :s], e[:, s + own:]], axis=1).sum(axis=1)
    return a1, a2


def _pair_cosines(f: float, l: int, d: int, trials: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Realized cosine between the two unit-normalized mixed averages, per trial."""
    if round(f * l) == l:
        # identical sentences: the averages are literally the same vector
        return np.ones(trials)

    def draw(start: int, stop: int) -> np.ndarray:
        a1, a2 = _sentence_sums(f, l, d, stop - start, rng)
        cos = np.einsum("td,td->t", a1, a2)
        cos /= np.linalg.norm(a1, axis=1) * np.linalg.norm(a2, axis=1)
        return np.clip(cos, -1.0, 1.0)

    return _batched(trials, _PAIR_BATCH, draw)


def default_num_projections(n: int) -> int:
    """Hyperplane count for an n-bucket table.

    Grows as n^0.85: with the width pinned by the near-pair calibration,
    logarithmic growth would leave hyperplane collisions above spherical
    ones at large n, masking the families' different decay rates.
    """
    if n < 1:
        raise ValueError("table size must be at least 1")
    return max(1, round(n ** 0.85))


def _spherical_collisions(cosines: np.ndarray, n: int, d: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Same-argmax indicator per trial over n fresh uniform anchors; d >= 2."""
    def draw(start: int, stop: int) -> np.ndarray:
        t = cosines[start:stop, None]
        b = stop - start
        w1 = rng.standard_normal((b, n))
        w2 = rng.standard_normal((b, n))
        resid = rng.chisquare(d - 2, (b, n)) if d > 2 else np.zeros((b, n))
        inv = 1.0 / np.sqrt(w1 * w1 + w2 * w2 + resid)
        du = w1 * inv
        dv = (t * w1 + np.sqrt(np.maximum(0.0, 1.0 - t * t)) * w2) * inv
        return np.argmax(du, axis=1) == np.argmax(dv, axis=1)

    return _batched(cosines.size, max(1, int(2e7 / n)), draw)


def _hyperplane_collisions(cosines: np.ndarray, n: int, k: int, width: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Same-bucket indicator per trial: k fresh projections, real mixing hash."""
    def draw(start: int, stop: int) -> np.ndarray:
        t = cosines[start:stop, None]
        b = stop - start
        w1 = rng.standard_normal((b, k))
        w2 = rng.standard_normal((b, k))
        offs = rng.uniform(0.0, width, (b, k))
        pu = w1
        pv = t * w1 + np.sqrt(np.maximum(0.0, 1.0 - t * t)) * w2
        cu = np.floor((pu + offs) / width).astype(np.int64)
        cv = np.floor((pv + offs) / width).astype(np.int64)
        bu = fold_cells(cu, MIX_SEED) % np.uint64(n)
        bv = fold_cells(cv, MIX_SEED) % np.uint64(n)
        return bu == bv

    return _batched(cosines.size, max(1, int(2e7 / k)), draw)


def _minhash_collisions(f: float, l: int, n: int, trials: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Fresh permutation per trial; collision iff the min-rank buckets agree."""
    s = round(f * l)
    own = l - s
    universe = s + 2 * own
    cols_a = np.arange(s + own)
    cols_b = np.concatenate([np.arange(s), np.arange(s + own, universe)])

    def draw(start: int, stop: int) -> np.ndarray:
        keys = rng.random((stop - start, universe))
        elem_a = cols_a[np.argmin(keys[:, cols_a], axis=1)]
        elem_b = cols_b[np.argmin(keys[:, cols_b], axis=1)]
        return (elem_a % n) == (elem_b % n)

    return _batched(trials, max(1, int(2e7 / universe)), draw)


def hyperplane_collision_width(d: int = DEFAULT_EMBED_DIM,
                               l: int = DEFAULT_SENTENCE_LEN) -> float:
    """Bucket width tuned so p_hat(f=0.9) is ~0.5 at n=256; memoized per (d, l)."""
    key = (d, l)
    if key in _width_cache:
        return _width_cache[key]
    k = default_num_projections(_CALIBRATION_N)
    ss = np.random.SeedSequence(_CALIBRATION_SEED)
    s_pairs, _ = ss.spawn(2)
    cosines = _pair_cosines(_CALIBRATION_F, l, d, _CALIBRATION_TRIALS,
                            np.random.default_rng(s_pairs))
    lo, hi = 0.5, 2000.0
    for step in range(40):
        mid = 0.5 * (lo + hi)
        hit_rng = np.random.default_rng(np.random.SeedSequence(_CALIBRATION_SEED + 1 + step))
        p = _hyperplane_collisions(cosines, _CALIBRATION_N, k, mid, hit_rng).mean()
        if p < _CALIBRATION_TARGET:
            lo = mid
        else:
            hi = mid
    width = 0.5 * (lo + hi)
    _width_cache[key] = width
    return width


def _check_cells(families: Sequence[str], f_grid: Sequence[float],
                 n_grid: Sequence[int], l: int, d: int, trials: int) -> None:
    """Reject an unknown family or an out-of-range input before any draw."""
    checks = [(fam in FAMILIES, f"unknown family {fam!r}; expected one of {FAMILIES}")
              for fam in families]
    checks += [(0.0 <= f <= 1.0, f"overlap fraction must lie in [0, 1], got {f}") for f in f_grid]
    checks += [(n >= 1, f"table size must be at least 1, got {n}") for n in n_grid]
    checks += [(l >= 1, f"sentence length must be at least 1, got {l}"),
               (d >= 1, f"embedding dimension must be at least 1, got {d}"),
               (d >= 2 or "spherical" not in families, "spherical simulation needs d >= 2"),
               (trials >= 1, f"need at least one trial, got {trials}")]
    for ok, message in checks:
        if not ok:
            raise ValueError(message)


def _cell_p_hat(family: str, f: float, n: int, l: int, d: int, trials: int, hash_seed,
                cosines: Callable[[], np.ndarray], *, width: float | None = None) -> float:
    """Same-bucket frequency of one (family, f, n) cell.

    Token-id collisions are exactly the shared fraction. Hash draws come
    from `hash_seed`; `cosines` supplies the sentence-pair draws, and is
    called only by the families that need them.
    """
    if family == "token_id":
        return round(f * l) / l
    rng = np.random.default_rng(hash_seed)
    if family == "minhash":
        hits = _minhash_collisions(f, l, n, trials, rng)
    elif family == "spherical":
        hits = _spherical_collisions(cosines(), n, d, rng)
    else:
        w = width if width is not None else hyperplane_collision_width(d, l)
        hits = _hyperplane_collisions(cosines(), n, default_num_projections(n), w, rng)
    return float(hits.mean())


def estimate_collision(family: str, f: float, n: int, l: int, d: int,
                       trials: int, seed, *, width: float | None = None) -> CollisionEstimate:
    """Fraction of trials in which the two sentences land in the same bucket.

    Hash parameters are redrawn every trial so p_hat estimates the
    hash-family average. Deterministic per seed. Token-id collisions are
    exact by construction and computed analytically.
    """
    _check_cells([family], [f], [n], l, d, trials)
    s_pairs, s_hash = as_seedseq(seed).spawn(2)
    cosines = partial(_pair_cosines, f, l, d, trials, np.random.default_rng(s_pairs))
    p_hat = _cell_p_hat(family, f, n, l, d, trials, s_hash, cosines, width=width)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return CollisionEstimate(family=family, n=n, f=f, p_hat=p_hat,
                             stderr=stderr, trials=trials, l=l, d=d)


@dataclass(frozen=True)
class RhoEstimate:
    """Per-table-size collision exponents and the log-log regression slope."""

    family: str
    f: float
    n_grid: tuple[int, ...]
    p_hats: tuple[float, ...]
    rho_hats: tuple[float, ...]
    slope: float


def estimate_rho(family: str, f: float, n_grid: Sequence[int], trials: int,
                 l: int = DEFAULT_SENTENCE_LEN, d: int = DEFAULT_EMBED_DIM,
                 seed=0) -> RhoEstimate:
    """rho_hat = -ln(p_hat)/ln(n) per table size, plus the ln p vs ln n slope."""
    if len(n_grid) < 1:
        raise ValueError("need at least one table size")
    p_hats = []
    for i, n in enumerate(n_grid):
        est = estimate_collision(family, f, n, l, d, trials,
                                 np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        if est.p_hat <= 0.0:
            raise ValueError(
                f"zero collisions for {family} at n={n}; raise trials or lower n")
        p_hats.append(est.p_hat)
    rho_hats = tuple(-math.log(p) / math.log(n) if n > 1 else 0.0
                     for p, n in zip(p_hats, n_grid))
    logs_n = np.log(np.asarray(n_grid, dtype=np.float64))
    logs_p = np.log(np.asarray(p_hats))
    if len(n_grid) > 1 and np.ptp(logs_n) > 0:
        slope = float(np.polyfit(logs_n, logs_p, 1)[0])
    else:
        slope = 0.0
    return RhoEstimate(family=family, f=f, n_grid=tuple(int(v) for v in n_grid),
                       p_hats=tuple(p_hats), rho_hats=rho_hats, slope=slope)


def jaccard(a: Iterable[int], b: Iterable[int]) -> float:
    """|A intersect B| / |A union B|, exact."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        raise ValueError("jaccard undefined for two empty sets")
    return len(sa & sb) / len(union)


def collision_grid(families: Sequence[str], f_grid: Sequence[float],
                   n_grid: Sequence[int], l: int, d: int, trials: int,
                   seed) -> list[dict]:
    """One row per (family, f, n) cell with p_hat, stderr, and rho_hat.

    Sentence draws are shared across families and table sizes within an f
    cell (a variance-reduction choice); hash draws stay per cell.
    """
    _check_cells(families, f_grid, n_grid, l, d, trials)
    rows = []
    for fi, f in enumerate(f_grid):
        pair_seed = np.random.SeedSequence(entropy=seed, spawn_key=(fi, 999))
        pair_rng = np.random.default_rng(pair_seed)
        cosines = cache(partial(_pair_cosines, f, l, d, trials, pair_rng))
        for ni, n in enumerate(n_grid):
            for mi, fam in enumerate(families):
                cell_seed = np.random.SeedSequence(entropy=seed, spawn_key=(fi, ni, mi))
                p_hat = _cell_p_hat(fam, f, n, l, d, trials, cell_seed, cosines)
                stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
                rho = -math.log(p_hat) / math.log(n) if p_hat > 0 and n > 1 else float("nan")
                rows.append({
                    "family": fam, "f": f, "n": n, "l": l, "d": d,
                    "trials": trials, "p_hat": p_hat, "stderr": stderr,
                    "rho_hat": rho,
                })
    return rows
