"""Monte Carlo estimation of same-bucket collision rates for the lookup
families, driven by synthetic sentence pairs with a controlled overlap
fraction.

A pair's cosine is drawn from its law rather than from its (s + 2 own) d
embedding coordinates. The two sentence sums are S + A and S + B, where S
sums the s shared unit embeddings and A and B each sentence's own ones; the
three sums have independent uniform directions, independent of their norms.
So a trial needs three unit-walk norms (two uniforms per step, which give
the step's cosine with the sum so far) and the three pairwise cosines of
three uniform directions (a Bartlett factor of a d x 3 Gaussian matrix):
about 3l draws in place of (s + 2 own) d. Below d = 3, where the Bartlett
factor has no chi-square(d - 2) term, and for the hyperplane width
calibration, whose pinned width is a root over its own draws, the
embeddings are summed literally.

Two mixed sentence averages only interact with a random hash function
through their 2-D span, so the spherical and hyperplane estimators sample
(direction . u, direction . v) pairs directly (exactly bivariate normal for
Gaussian directions) instead of materializing d-dimensional hash
parameters per trial. A spherical trial visits its anchors in decreasing
order of their projection's norm r on the rows' plane and stops once no
anchor left can win either argmax: about 16 of n = 1024 at d = 64. Every
uniform angle a sampler draws (an anchor's on that plane, a walk step's
and a hyperplane tail column's) is one uniform u, whose cosine and sine
come from t = tan(pi u) by the half-angle form (`_unit_circle`): numpy's
float64 tan is vectorized and its cos and sin are not, so this runs about
ten times faster than they do. A min-hash trial draws only the union's
argmin and the other sentence's argmin among its ids, not a key per id.
These shortcuts are equal in law to the literal constructions; the
cell-to-bucket mixing hash is shared verbatim with the lookup ops, and the
test suite cross-checks both routes.
A hyperplane estimate draws only the columns that can hold a nonzero
cell, equal in law to drawing them all: those whose offset lies within
B = 3 of a cell edge (band columns) and those whose two normals have norm
above B (tail columns), each as a Bernoulli process of positions. The
width calibration, whose pinned width is a root over its own draws, keeps
the literal sampler: a block draws both rows' projections into one array,
then its offsets per chunk of rows, and makes the cells in place, so about
two (trials, k) arrays are alive at once. Either hashes both rows with one
`fold_cells` call, and rejects a width whose cells leave its int64 range.

The pair, hyperplane and min-hash samplers draw their trials in blocks
through one helper; the spherical one draws (live trials, 8) arrays per
round, and wider ones at d = 2. `collision_grid`, `estimate_collision`
and `estimate_mixing_dot` reject an unknown family and an out-of-range f,
n, l, d or trial count before any draw, and the width calibration rejects
l <= 4, whose calibration pairs are identical sentences.

`collision_grid` calibrates the hyperplane width in the calling thread,
then draws each f's pair cosines and runs its (f, n, family) cells on one
worker thread per CPU this process may use. Each draw comes from its own
seed, so the rows, and the bytes `sml lshsim` writes, do not depend on the
worker count; numpy's draws and ufuncs release the GIL. The sparse
hyperplane sampler makes a block's cells a chunk of band columns at a
time, and `fold_cells` finds the nonzero ones a chunk of rows at a time,
so a cell at n = 1024 and 8000 trials peaks near 8.1 MB, not 25 MB, and
two cells in flight fit in what one took.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .lookup import MIX_SEED, check_cell_range, fold_cells
from .nn import as_seedseq

FAMILIES = ("token_id", "spherical", "hyperplane", "minhash")
_COSINE_FAMILIES = ("spherical", "hyperplane")  # the families that read a pair's cosine

_CALIBRATION_N = 256
_CALIBRATION_F = 0.9
_CALIBRATION_TARGET = 0.5
_CALIBRATION_TRIALS = 20000
_CALIBRATION_SEED = 20240917

_PAIR_BATCH = 2048
# spherical anchors visited per live trial per round: chunks of 4-8 ran
# fastest, larger or doubling chunks slower at n = 1024
_SPHERICAL_CHUNK = 8
# at d = 2, where no trial stops early, anchors per live trial per round are
# as many as keep one round's (live trials, anchors) draw of uniform angles
# under this many, and never fewer than _SPHERICAL_CHUNK: the round's
# (2, live trials, anchors) products then stay under 2**20 doubles
_SPHERICAL_D2_DRAW = 1 << 19
# min-hash trials per block: each block's arrays stay in cache
_MINHASH_BLOCK = 1 << 13
# hyperplane offsets (doubles) drawn per chunk of rows, so that no third
# (trials, k) block is alive; chunks of 2**12 to 2**18 ran alike at n = 1024
_OFFSET_CHUNK = 1 << 15
# band columns whose cells the sparse hyperplane sampler makes per chunk, so
# that only the band's offsets and first row of normals are whole-band
# arrays; a chunk's temporaries stay under 0.5 MB
_SPARSE_CHUNK = 1 << 13
# the sparse hyperplane sampler's radius B: a column with |w| <= B and an
# offset at least B from both cell edges puts both rows in cell 0. 2.5 to 3.5
# ran alike at n = 1024 and width 55.3
_SPARSE_RADIUS = 3.0
# and the share of band columns from which drawing every column ran faster:
# at n = 256 and 1024 the two samplers ran alike at a share of 0.38 (width 16)
_SPARSE_MAX_BAND = 1.0 / 3.0
# hyperplane_collision_width(64, 32), pinned so that a process at `sml lshsim`'s
# default d and l skips the bisection; a slow test re-derives it.
_width_cache: dict[tuple[int, int], float] = {(64, 32): 55.29777863700906}


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


def estimate_mixing_dot(f: float, l: int, d: int, pairs: int, seed) -> tuple[float, float]:
    """Mean and standard error of the rescaled average dot over fresh pairs."""
    _check_cells((), [f], (), l, d, pairs)
    rng = np.random.default_rng(as_seedseq(seed))

    def draw(start: int, stop: int) -> np.ndarray:
        if d < 3:
            a1, a2 = _sentence_sums(f, l, d, stop - start, rng)
            return l * np.einsum("td,td->t", a1 / l, a2 / l)
        dot, _, _ = _pair_gram(f, l, d, stop - start, rng)
        return dot / l

    dots = _batched(pairs, _PAIR_BATCH, draw)
    mean = float(dots.mean())
    stderr = float(dots.std(ddof=1) / math.sqrt(pairs)) if pairs > 1 else 0.0
    return mean, stderr


def _batched(total: int, batch: int, draw: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """draw(start, stop) for consecutive runs of at most `batch` of `total`
    trials, in order, concatenated. A sampler that draws one array per run
    gets the same stream at any batch size, since the generator fills it row
    by row; for one that draws several arrays per run, the batch size sets
    the random stream."""
    return np.concatenate([draw(start, min(start + batch, total))
                           for start in range(0, total, batch)])


def _unit_circle(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2 pi u, sin 2 pi u) of uniforms u, the sine made in place in u.

    With t = tan(pi u) they are ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)),
    made as h - 1 and t h from h = 2 / (1 + t^2); both agree with numpy's
    cosine and sine of 2 pi u within 1e-15. numpy runs float64 tan as a
    vector loop and cos and sin as scalar libm calls: about 2 ns per element
    against about 21 on an AVX-512 x86 core (numpy 2.4).
    """
    t = np.multiply(u, math.pi, out=u)
    np.tan(t, out=t)
    h = t * t
    h += 1.0
    np.divide(2.0, h, out=h)
    t *= h
    h -= 1.0
    return h, t


def _step_cosines(u: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The cosine c of a uniform unit step in R^d with a fixed direction, and
    1 - c^2, made in place from a (2, ...) block of uniforms; d >= 3.

    c is a uniform unit vector's first coordinate: its first two coordinates
    have squared norm 1 - U^(2/(d-2)) ~ Beta(1, (d-2)/2) and a uniform
    angle 2 pi V in their plane, so c = sqrt(1 - U^(2/(d-2))) cos(2 pi V),
    the cosine taken by `_unit_circle`.
    """
    c, x = u
    np.power(c, 2.0 / (d - 2), out=c)
    np.subtract(1.0, c, out=c)
    np.sqrt(c, out=c)
    cos, _ = _unit_circle(x)
    c *= cos
    np.multiply(c, c, out=x)
    np.subtract(1.0, x, out=x)  # 1 - c^2 >= 0, since |c| <= 1
    return c, x


def _walk_norms(m: int, d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """|e_1 + ... + e_m| for `size` sums of m iid uniform unit vectors in R^d, d >= 3.

    Each step's cosine c with the sum so far (`_step_cosines`) is independent
    of it, so |S + e|^2 = (|S| + c)^2 + 1 - c^2: one (2, m-1, size) block of
    uniforms per walk, step-major, so each step reads contiguous rows.
    """
    if m == 0:
        return np.zeros(size)
    c, x = _step_cosines(rng.random((2, m - 1, size)), d)
    r = np.ones(size)
    for k in range(m - 1):
        r += c[k]
        r *= r
        r += x[k]
        np.sqrt(r, out=r)
    return r


def _pair_gram(f: float, l: int, d: int, size: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a1.a2, |a1|^2 and |a2|^2 of the sentence sums a1 = S + A and a2 = S + B
    of `size` fresh pairs sharing round(f*l) of their l ids, drawn from their
    law; d >= 3.

    The norms of S, A and B are unit-walk norms, drawn in that order. Their
    directions are three iid uniform unit vectors, whose pairwise cosines are
    those of the columns of a Bartlett factor R of a d x 3 Gaussian matrix:
    R22 = sqrt(chi2(d-1)), R33 = sqrt(chi2(d-2)) and normal R12, R13, R23
    (R11 cancels).
    """
    s = round(f * l)
    own = l - s
    rs, ra, rb = (_walk_norms(m, d, size, rng) for m in (s, own, own))
    r22 = np.sqrt(rng.chisquare(d - 1, size))
    r33 = np.sqrt(rng.chisquare(d - 2, size))
    r12, r13, r23 = rng.standard_normal((3, size))
    n2 = np.sqrt(r12 * r12 + r22 * r22)
    n3 = np.sqrt(r13 * r13 + r23 * r23 + r33 * r33)
    # the cosines of S and A, of S and B, and of A and B
    sa = r12 / n2
    sb = r13 / n3
    ab = (r12 * r13 + r22 * r23) / (n2 * n3)
    ss = rs * rs
    dot = ss + rs * (ra * sa + rb * sb) + ra * rb * ab
    sq1 = ss + ra * ra + 2.0 * rs * ra * sa
    sq2 = ss + rb * rb + 2.0 * rs * rb * sb
    return dot, sq1, sq2


def _sentence_sums(f: float, l: int, d: int, size: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sums of the unit wordpiece embeddings of `size` fresh sentence pairs
    sharing round(f*l) of their l ids, built literally: two (size, d) arrays."""
    s = round(f * l)
    own = l - s
    e = rng.standard_normal((size, s + 2 * own, d))
    e /= np.linalg.norm(e, axis=2, keepdims=True)
    a1 = e[:, : s + own].sum(axis=1)
    a2 = np.concatenate([e[:, :s], e[:, s + own:]], axis=1).sum(axis=1)
    return a1, a2


def _pair_cosines(f: float, l: int, d: int, trials: int, rng: np.random.Generator,
                  *, literal: bool = False) -> np.ndarray:
    """Realized cosine between the two unit-normalized mixed averages, per trial.

    Drawn from its law (`_pair_gram`) when d >= 3; from the literal sentence
    sums when d < 3 or `literal` is set.
    """
    if round(f * l) == l:
        # identical sentences: the averages are literally the same vector
        return np.ones(trials)

    def literal_draw(start: int, stop: int) -> np.ndarray:
        a1, a2 = _sentence_sums(f, l, d, stop - start, rng)
        cos = np.einsum("td,td->t", a1, a2)
        cos /= np.linalg.norm(a1, axis=1) * np.linalg.norm(a2, axis=1)
        return np.clip(cos, -1.0, 1.0)

    def law_draw(start: int, stop: int) -> np.ndarray:
        dot, sq1, sq2 = _pair_gram(f, l, d, stop - start, rng)
        dot /= np.sqrt(sq1 * sq2)
        return np.clip(dot, -1.0, 1.0, out=dot)

    return _batched(trials, _PAIR_BATCH, literal_draw if literal or d < 3 else law_draw)


def default_num_projections(n: int) -> int:
    """Hyperplane count for an n-bucket table.

    Grows as n^0.85: with the width pinned by the near-pair calibration,
    logarithmic growth would leave hyperplane collisions above spherical
    ones at large n, masking the families' different decay rates. The
    callers check n >= 1.
    """
    return max(1, round(n ** 0.85))


def _descending_radii(log_v: np.ndarray, u: np.ndarray, n: int, k: int,
                      d: int) -> tuple[np.ndarray, np.ndarray]:
    """The next u.shape[1] of n descending radii per row, after k visited; d > 2.

    An anchor's squared projection on the rows' plane is Beta(1, a) with
    a = (d-2)/2, whose quantile at v is 1 - (1-v)^(1/a). log_v (rows,) holds
    the log of the last uniform order statistic visited (0 before the
    first); the j-th largest of n uniforms is the (j-1)-th times U^(1/(n-j+1))
    for a fresh uniform U, drawn as the columns of u. Returns the last log
    order statistic per row and the (rows, c) radii.
    """
    c = u.shape[1]
    steps = np.log(u)
    steps /= np.arange(n - k, n - k - c, -1)
    np.cumsum(steps, axis=1, out=steps)
    steps += log_v[:, None]  # log V of each visited anchor
    r = np.log(-np.expm1(steps))  # log(1 - V)
    r /= 0.5 * (d - 2)
    np.expm1(r, out=r)
    np.negative(r, out=r)  # r^2
    return steps[:, -1], np.sqrt(r, out=r)


def _spherical_collisions(cosines: np.ndarray, n: int, d: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Same-argmax indicator per trial over n fresh uniform anchors; d >= 2.

    An anchor's products with two unit rows of cosine t = cos(phi) are
    r cos(theta) and r cos(theta - phi): r^2 ~ Beta(1, (d-2)/2) is its
    squared projection on the rows' plane (r = 1 at d = 2) and theta, the
    projection's angle, is uniform and independent of r. The hit depends on
    the n pairs (r, theta) only as a set, so the anchors are visited in
    decreasing r (`_descending_radii`), each with a fresh uniform angle, a
    chunk of anchors per live trial per round. An angle is one uniform, whose
    cosine and sine `_unit_circle` makes, so the products are r cos(theta)
    and r (t cos(theta) + s sin(theta)) with s = sin(phi). A trial is
    decided once the last r visited is below both running maxima: no anchor
    left, whose products are at most its r, can win either argmax. At d = 2
    only k = n decides a trial, so a round there visits as many anchors as
    one bounded draw holds.
    """
    t = cosines
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    hits = np.zeros(t.size, dtype=bool)
    live = np.arange(t.size)
    log_v = np.zeros(t.size)
    best = np.full((2, t.size), -np.inf)  # running maximum product with each row
    arg = np.zeros((2, t.size), dtype=np.intp)  # and the visit index of its anchor
    r = last_r = 1.0  # at d = 2 every r is 1, so only k = n decides a trial
    k = 0
    while live.size:
        c = _SPHERICAL_CHUNK if d > 2 else max(_SPHERICAL_CHUNK,
                                                _SPHERICAL_D2_DRAW // live.size)
        c = min(c, n - k)
        p = np.empty((2, live.size, c))
        if d > 2:  # the radii's uniforms go into p[0], which the products then overwrite
            log_v, r = _descending_radii(log_v, rng.random(out=p[0]), n, k, d)
            last_r = r[:, -1]
        cos, sin = _unit_circle(rng.random(out=p[1]))
        np.multiply(cos, r, out=p[0])
        cos *= t[:, None]
        sin *= s[:, None]
        sin += cos
        sin *= r  # p: the anchors' products r cos(theta) and r cos(theta - phi)
        j = np.argmax(p, axis=2)
        top = p.max(axis=2)
        wins = top > best
        best[wins] = top[wins]
        arg[wins] = k + j[wins]
        k += c
        done = (last_r < best.min(axis=0)) | (k == n)
        hits[live[done]] = arg[0, done] == arg[1, done]
        keep = ~done
        live, t, s, log_v = live[keep], t[keep], s[keep], log_v[keep]
        best, arg = best[:, keep], arg[:, keep]
    return hits


def _hyperplane_collisions(cosines: np.ndarray, n: int, k: int, width: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Same-bucket indicator per trial: k fresh projections, real mixing hash.

    A block's two (b, k) normal draws fill one (2, b, k) array, which
    `_column_cells` makes both rows' cells in place, a chunk of rows at a
    time. The offsets come per chunk:
    they are the block's last draw and the generator fills row by row, so
    the stream is that of one (b, k) draw. One fold hashes both rows.
    """
    def draw(start: int, stop: int) -> np.ndarray:
        t = cosines[start:stop, None]
        w = np.empty((2, stop - start, k))
        rng.standard_normal(out=w[0])
        rng.standard_normal(out=w[1])
        rows = max(1, _OFFSET_CHUNK // k)
        for lo in range(0, stop - start, rows):
            chunk = slice(lo, lo + rows)
            offsets = rng.uniform(0.0, width, w[0, chunk].shape)
            cells = _column_cells(t[chunk], w[:, chunk], offsets, width)
            check_cell_range(np.abs(cells).max(), width)
        h = fold_cells(w, MIX_SEED) % np.uint64(n)
        return h[0] == h[1]

    return _batched(cosines.size, max(1, int(2e7 / k)), draw)


def _bernoulli_positions(m: int, q: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions in [0, m) of a Bernoulli(q) process over m cells,
    0 < q < 1, in the smallest dtype that holds m: partial sums of geometric
    gaps, drawn in runs of the expected count plus 4 sd and 16, so one run
    almost always covers the m cells."""
    run = int(m * q + 4.0 * math.sqrt(m * q * (1.0 - q))) + 16
    pos = rng.geometric(q, run)
    np.cumsum(pos, out=pos)
    pos -= 1
    while pos[-1] < m:
        more = rng.geometric(q, run)
        np.cumsum(more, out=more)
        more += pos[-1]
        pos = np.concatenate([pos, more])
    return pos[:np.searchsorted(pos, m)].astype(np.min_scalar_type(m))


def _tail_normals(size: int, r: float, rng: np.random.Generator) -> np.ndarray:
    """`size` pairs (2, size) of iid standard normals conditioned on |w| > r:
    |w|^2 ~ chi-square(2) is exponential with mean 2, so memoryless, and
    |w|^2 = r^2 + 2 Exp(1) at a uniform angle."""
    radius = np.sqrt(r * r + 2.0 * rng.standard_exponential(size))
    return radius * np.stack(_unit_circle(rng.random(size)))


def _column_cells(t: np.ndarray, w: np.ndarray, offsets: np.ndarray,
                  width: float) -> np.ndarray:
    """Both rows' cells (2, ...) of columns with normal pairs w (2, ...)
    and offsets, for rows of cosine t per column (t broadcasts against w[0]):
    floor((p + offset) / width) of the projections p1 = w1 and p2 = t w1 +
    s w2, with s = sqrt(1 - t^2). Made in place in w."""
    w[1] *= np.sqrt(np.maximum(0.0, 1.0 - t * t))
    w[1] += t * w[0]
    w += offsets
    w /= width
    return np.floor(w, out=w)


def _sparse_hyperplane_collisions(cosines: np.ndarray, n: int, k: int, width: float,
                                  rng: np.random.Generator) -> np.ndarray:
    """Same law as `_hyperplane_collisions`, drawing only the (trial,
    column) cells that can be nonzero.

    A column's projections satisfy |p_i| <= |w|, so with B = _SPARSE_RADIUS
    it puts both rows in cell 0 when its offset lies in [B, width - B) and
    |w| <= B. A block draws two independent Bernoulli processes over its
    trials * k columns (`_bernoulli_positions`): band columns, whose offset
    lies within B of a cell edge (probability 2B/width), each with an offset
    uniform on that band and an unconditional w; and tail columns, whose |w|
    exceeds B (probability exp(-B^2/2)), each with an offset uniform on
    [B, width - B) and a w drawn past B (`_tail_normals`). `_sparse_cells`
    puts them in a (2, b, k) array and one `fold_cells` call hashes both
    rows. Where band columns would be _SPARSE_MAX_BAND of the columns or
    more (every one at width <= 2B), the literal sampler draws the trials.
    """
    band_q = 2.0 * _SPARSE_RADIUS / width
    if band_q >= _SPARSE_MAX_BAND:
        return _hyperplane_collisions(cosines, n, k, width, rng)

    def draw(start: int, stop: int) -> np.ndarray:
        t = cosines[start:stop]
        cells = _sparse_cells(t, k, width, rng)
        h = fold_cells(cells.reshape(2, t.size, k), MIX_SEED) % np.uint64(n)
        return h[0] == h[1]

    return _batched(cosines.size, max(1, int(2e7 / k)), draw)


def _sparse_cells(t: np.ndarray, k: int, width: float, rng: np.random.Generator) -> np.ndarray:
    """Both rows' cells (2, t.size * k) of the band and tail columns of
    `_sparse_hyperplane_collisions`' block of trials with cosines t, zero
    elsewhere; int8 when every drawn cell fits.

    The draws are band positions, tail positions, the band's draws
    (`_band_cells`), then the tail's offsets and normals. A tail column that
    is also a band column is dropped: the band's cells, written last,
    overwrite it. `take` gathers each column's cosine: indexing with the
    positions' compact dtype took twice as long.
    """
    r = _SPARSE_RADIUS
    m = t.size * k
    band = _bernoulli_positions(m, 2.0 * r / width, rng)
    tail = _bernoulli_positions(m, math.exp(-0.5 * r * r), rng)
    band_cells = _band_cells(t, k, band, width, rng)
    tail_offsets = rng.uniform(r, width - r, tail.size)
    tail_cells = _fitted_cells(t.take(tail // k), _tail_normals(tail.size, r, rng),
                               tail_offsets, width)
    cells = np.zeros((2, m), dtype=np.result_type(tail_cells, *band_cells))
    cells[:, tail] = tail_cells
    for lo, c in zip(range(0, band.size, _SPARSE_CHUNK), band_cells):
        cells[:, band[lo:lo + _SPARSE_CHUNK]] = c
    return cells


def _band_cells(t: np.ndarray, k: int, band: np.ndarray, width: float,
                rng: np.random.Generator) -> list[np.ndarray]:
    """The cells of the band columns at positions `band`, one array per
    _SPARSE_CHUNK of them: offsets uniform on the band, then one (2, band)
    draw of normals, whose second row is drawn a chunk at a time, so no band
    draw outlives the call."""
    r = _SPARSE_RADIUS
    offsets = rng.uniform(0.0, 2.0 * r, band.size)
    offsets[offsets >= r] += width - 2.0 * r
    w0 = rng.standard_normal(band.size)
    cells = []
    for lo in range(0, band.size, _SPARSE_CHUNK):
        chunk = slice(lo, lo + _SPARSE_CHUNK)
        w = np.empty((2, w0[chunk].size))
        w[0] = w0[chunk]
        rng.standard_normal(out=w[1])
        cells.append(_fitted_cells(t.take(band[chunk] // k), w, offsets[chunk], width))
    return cells


def _fitted_cells(t: np.ndarray, w: np.ndarray, offsets: np.ndarray,
                  width: float) -> np.ndarray:
    """`_column_cells`, range-checked, as int8 when each fits, else int64."""
    cells = _column_cells(t, w, offsets, width)
    largest = np.abs(cells).max(initial=0.0)
    check_cell_range(largest, width)
    return cells.astype(np.int8 if largest <= 127 else np.int64)


def _minhash_collisions(f: float, l: int, n: int, trials: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Fresh permutation per trial; collision iff the min-rank buckets agree.

    Sentence A holds ids [0, l), B the s shared ids and [s + own, s + 2 own).
    A trial draws only what decides it: w, the union's argmin, uniform on
    its s + 2 own ids, and o, the other sentence's argmin as a position
    among its l ids. Whether the union's min lies in A's own ids depends on
    B's keys only through their min, so B's argmin is then uniform on B and
    independent of w, and likewise with A and B swapped. A shared w is a
    hit; otherwise the hit is w = the other argmin mod n. Each block draws
    (w, o) as one (b, 2) array, so the stream is that of one (trials, 2)
    draw at any block size: scaled and truncated uniforms, uniform up to
    2**-53 (`integers` with two bounds runs per element, several times
    slower).
    """
    s = round(f * l)
    own = l - s
    scale = np.array([s + 2 * own, l], dtype=np.float64)

    def draw(start: int, stop: int) -> np.ndarray:
        wo = rng.random((stop - start, 2))
        wo *= scale
        wo = wo.astype(np.intp)
        w, o = wo.T
        o[(o >= s) & (w < s + own)] += own  # B's o-th id, when w is A's own
        hit = w < s
        np.remainder(wo, n, out=wo)
        hit |= w == o
        return hit

    return _batched(trials, _MINHASH_BLOCK, draw)


def hyperplane_collision_width(d: int, l: int) -> float:
    """Bucket width tuned so p_hat(f=0.9) is ~0.5 at n=256; memoized per (d, l).

    At l <= 4, where round(0.9 l) = l, the calibration pairs are identical
    sentences, which collide at every width: that raises a ValueError before
    any draw.
    """
    if round(_CALIBRATION_F * l) == l:
        raise ValueError(f"hyperplane width calibration needs round({_CALIBRATION_F} * l) < l, "
                         f"so that its sentence pairs differ; l = {l} gives identical "
                         "sentences, which collide at every width")
    key = (d, l)
    if key in _width_cache:
        return _width_cache[key]
    k = default_num_projections(_CALIBRATION_N)
    ss = np.random.SeedSequence(_CALIBRATION_SEED)
    s_pairs, _ = ss.spawn(2)
    # literal pairs: the pinned (64, 32) width is the root over these draws
    cosines = _pair_cosines(_CALIBRATION_F, l, d, _CALIBRATION_TRIALS,
                            np.random.default_rng(s_pairs), literal=True)
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
                 n_grid: Sequence[int], l: int, d: int, trials: int,
                 width: float | None = None) -> None:
    """Reject an unknown family or an out-of-range input before any draw."""
    checks = [(fam in FAMILIES, f"unknown family {fam!r}; expected one of {FAMILIES}")
              for fam in families]
    checks += [(0.0 <= f <= 1.0, f"overlap fraction must lie in [0, 1], got {f}") for f in f_grid]
    checks += [(n >= 1, f"table size must be at least 1, got {n}") for n in n_grid]
    checks += [(l >= 1, f"sentence length must be at least 1, got {l}"),
               (d >= 1, f"embedding dimension must be at least 1, got {d}")]
    # at d = 1 a sentence sum is 0 with positive probability, and its cosine NaN
    checks += [(d >= 2, f"{fam} simulation needs d >= 2")
               for fam in _COSINE_FAMILIES if fam in families]
    checks += [(trials >= 1, f"need at least one trial, got {trials}")]
    checks += [(width is None or 0 < width < math.inf,  # NaN too
                f"bucket width must be positive and finite, got {width}")]
    for ok, message in checks:
        if not ok:
            raise ValueError(message)


def _cell_p_hat(family: str, f: float, n: int, l: int, d: int, trials: int, hash_seed,
                cosines: np.ndarray | None, width: float | None) -> float:
    """Same-bucket frequency of one (family, f, n) cell.

    Token-id collisions are exactly the shared fraction. Hash draws come from
    `hash_seed`; `cosines` holds the sentence pairs' cosines (None for the
    families outside _COSINE_FAMILIES, which do not read them), and `width`
    the hyperplane bucket width, which only that family reads.
    """
    if family == "token_id":
        return round(f * l) / l
    rng = np.random.default_rng(hash_seed)
    if family == "minhash":
        hits = _minhash_collisions(f, l, n, trials, rng)
    elif family == "spherical":
        hits = _spherical_collisions(cosines, n, d, rng)
    else:
        hits = _sparse_hyperplane_collisions(cosines, n, default_num_projections(n), width, rng)
    return float(hits.mean())


def estimate_collision(family: str, f: float, n: int, l: int, d: int,
                       trials: int, seed, *, width: float | None = None) -> CollisionEstimate:
    """Fraction of trials in which the two sentences land in the same bucket.

    Hash parameters are redrawn every trial so p_hat estimates the
    hash-family average. Deterministic per seed. Token-id collisions are
    exact by construction and computed analytically. A hyperplane cell
    without a `width` takes `hyperplane_collision_width(d, l)`.
    """
    _check_cells([family], [f], [n], l, d, trials, width)
    if family == "hyperplane" and width is None:
        width = hyperplane_collision_width(d, l)
    s_pairs, s_hash = as_seedseq(seed).spawn(2)
    cosines = (_pair_cosines(f, l, d, trials, np.random.default_rng(s_pairs))
               if family in _COSINE_FAMILIES else None)
    p_hat = _cell_p_hat(family, f, n, l, d, trials, s_hash, cosines, width)
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return CollisionEstimate(family=family, n=n, f=f, p_hat=p_hat,
                             stderr=stderr, trials=trials, l=l, d=d)


def jaccard(a: Iterable[int], b: Iterable[int]) -> float:
    """|A intersect B| / |A union B|, exact."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        raise ValueError("jaccard undefined for two empty sets")
    return len(sa & sb) / len(union)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def collision_grid(families: Sequence[str], f_grid: Sequence[float],
                   n_grid: Sequence[int], l: int, d: int, trials: int,
                   seed) -> list[dict]:
    """One row per (family, f, n) cell with p_hat, stderr, and rho_hat.

    Sentence draws are shared across families and table sizes within an f
    cell (a variance-reduction choice); hash draws stay per cell. The
    hyperplane width is calibrated first, in the calling thread; then each
    f's cosines and each cell, every one with its own seed, are drawn on one
    worker thread per CPU this process may use, so the rows do not depend on
    the worker count.
    """
    _check_cells(families, f_grid, n_grid, l, d, trials)
    width = hyperplane_collision_width(d, l) if "hyperplane" in families else None
    needs_cosines = any(fam in _COSINE_FAMILIES for fam in families)
    cells = [(fam, f, n, np.random.SeedSequence(entropy=seed, spawn_key=(fi, ni, mi)), fi)
             for fi, f in enumerate(f_grid)
             for ni, n in enumerate(n_grid) for mi, fam in enumerate(families)]

    def pair_cosines(fi: int) -> np.ndarray | None:
        pair_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(fi, 999)))
        return _pair_cosines(f_grid[fi], l, d, trials, pair_rng) if needs_cosines else None

    # imported here: it loads logging, about 0.5 MB resident that a process
    # running no grid, such as a training run, never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, min(_cpu_count(), len(cells)))) as pool:
        # queued ahead of every cell, so the cosines a cell waits for have
        # started on another worker or are done
        cosines = [pool.submit(pair_cosines, fi) for fi in range(len(f_grid))]

        def p_hat(cell) -> float:
            fam, f, n, cell_seed, fi = cell
            return _cell_p_hat(fam, f, n, l, d, trials, cell_seed, cosines[fi].result(), width)

        p_hats = list(pool.map(p_hat, cells))
    rows = []
    for (fam, f, n, _, _), p in zip(cells, p_hats):
        rho = -math.log(p) / math.log(n) if p > 0 and n > 1 else float("nan")
        rows.append({
            "family": fam, "f": f, "n": n, "l": l, "d": d,
            "trials": trials, "p_hat": p, "stderr": math.sqrt(p * (1.0 - p) / trials),
            "rho_hat": rho,
        })
    return rows
