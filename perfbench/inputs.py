"""Seeded inputs: the skewed F1 corpus and the serving query mix.

The corpus rows come from the program's own F1 generator
(``synthetic_sequences_row``); the benchmark picks each row's length so
that every seed has the same length make-up, and adds the gap runs, the
too-short rows and the long rows itself.  The program receives only the
Parquet file written here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

W = 32
GAP = -1                 # the gap sentinel of stages.gapfill
N_SHORT = 1000           # F1 rows, 64..4096 tokens
N_TOO_SHORT = 4          # rows with w < n < 2w: emitted with valid=False
LONG_LENGTHS = (32768, 49152)
LONG_THRESHOLD = 8192    # rows above it take the state.chunked fan-out
GAP_ROW_FRAC = 0.1


@dataclass(eq=False)
class Row:
    doc_id: str
    source: str
    tokens: np.ndarray           # as written, gap sentinels included
    motif: tuple | None = None   # planted (a, b), intact in the written row
    gaps: list = field(default_factory=list)   # (start, length) runs


def _stratified_lengths(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """Log-uniform lengths, one per stratum: every seed gets the same
    length distribution (so the same kernel work) up to jitter inside
    each stratum."""
    u = (np.arange(n) + rng.random(n)) / n
    lens = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return rng.permutation(np.floor(lens).astype(np.int64))


def _f1_row(seed: int, i: int, length: int, **kw) -> Row:
    from matrixprofile_1_ray.sources.sequences import synthetic_sequences_row

    # min_len == max_len == length + 0.5: the generator's log-uniform
    # draw collapses to exactly ``length`` tokens
    doc_id, tokens, source, plants = synthetic_sequences_row(
        seed, i, min_len=length + 0.5, max_len=length + 0.5,
        return_plants=True, **kw)
    motif = plants["motif"]
    d = plants["discord"]
    if motif is not None and d is not None and any(
            abs(d - m) < W for m in motif):
        motif = None    # the discord overwrote part of a motif copy
    return Row(doc_id, source, tokens, motif)


def _add_gaps(rng, row: Row) -> None:
    """One to three sentinel runs of 1..8 tokens, off the motif windows
    and never at position 0."""
    n = row.tokens.size
    busy = np.zeros(n, bool)
    busy[0] = True
    if row.motif is not None:
        for m in row.motif:
            busy[m : m + W] = True
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.integers(1, 9))
        start = int(rng.integers(1, n - length))
        if busy[start : start + length].any():
            continue
        row.tokens[start : start + length] = GAP
        busy[start : start + length] = True
        row.gaps.append((start, length))


def skewed_corpus(seed: int) -> list[Row]:
    rng = np.random.default_rng([seed, 0x5EED])
    rows = [_f1_row(seed, i, int(n)) for i, n in
            enumerate(_stratified_lengths(rng, N_SHORT, 64, 4096))]
    rows += [_f1_row(seed, N_SHORT + k, int(n), motif_frac=0.0,
                     discord_frac=0.0)
             for k, n in enumerate(rng.integers(W + 1, 2 * W,
                                                size=N_TOO_SHORT))]
    longs = [_f1_row(seed, 10 * N_SHORT + k, n, motif_frac=1.0,
                     discord_frac=0.0)
             for k, n in enumerate(LONG_LENGTHS)]
    for r in rng.choice(N_SHORT, size=int(GAP_ROW_FRAC * N_SHORT),
                        replace=False):
        _add_gaps(rng, rows[int(r)])
    _add_gaps(rng, longs[0])
    # long rows sit mid-file, as a straggler would in a real shard
    for k, r in enumerate(longs):
        rows.insert((k + 1) * len(rows) // (len(longs) + 1), r)
    return rows


def warm_corpus(seed: int) -> list[Row]:
    """A small corpus on the same code paths (one long row) for the
    warm pass."""
    rng = np.random.default_rng([seed, 0xA11])
    rows = [_f1_row(seed, 20 * N_SHORT + i, int(n))
            for i, n in enumerate(_stratified_lengths(rng, 40, 64, 1024))]
    rows.append(_f1_row(seed, 30 * N_SHORT, LONG_THRESHOLD + 1024,
                        motif_frac=0.0, discord_frac=0.0))
    _add_gaps(rng, rows[0])
    return rows


def write_corpus(rows: list[Row], path: str) -> None:
    lens = np.array([r.tokens.size for r in rows], np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        pa.array(np.concatenate([r.tokens for r in rows]), pa.int32()))
    pq.write_table(pa.table({
        "doc_id": pa.array([r.doc_id for r in rows], pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(lens, pa.int32()),
        "source": pa.array([r.source for r in rows], pa.string()),
    }), path, row_group_size=128)


# ---- tiered_serve ---------------------------------------------------------

# The default 1m/1h/1d ladder puts its only 1m seam on a multiple of
# 3600 s, past every sf0.1 document (<= 577 tokens), so no query could
# cross a seam with data on both sides.  A 5m tier makes the seam fall
# inside the data.
LADDER = {"1m": 60, "5m": 300, "1h": 3600, "1d": 86400}
EPOCH_SEC = 60
NOW = 600
MAX_AGE = {"1m": 300, "5m": None, "1h": None, "1d": None}
SEAM = 300           # aligned 1m horizon: floor((NOW - 300) / 300) * 300
EDGES = (0, 300, 360, 420, 480, 540, 600)   # range ends every tier aligns to


@dataclass(frozen=True)
class Query:
    op: str                 # "tiered" or "downsample"
    kind: str               # "token" or "mp"
    t_lo: int
    t_hi: int
    max_points: int = 0


def query_round(rng) -> list[Query]:
    """One round of twenty reads in seeded order, the same make-up for
    every seed: for each kind, a stitched read of each interval between
    neighbouring edges, two stitched reads across the seam, and two
    downsampled reads over a seeded two-interval range with a seeded
    ``max_points`` that decides between a fine and a coarse tier."""
    out = []
    for kind in ("token", "mp"):
        out += [Query("tiered", kind, lo, hi)
                for lo, hi in zip(EDGES, EDGES[1:])]
        out += [Query("tiered", kind, 0, hi) for hi in (360, 420)]
        for _ in range(2):
            i = int(rng.integers(len(EDGES) - 2))
            out.append(Query("downsample", kind, EDGES[i], EDGES[i + 2],
                             int(rng.integers(1, 4))))
    return [out[i] for i in rng.permutation(len(out))]


def expected_downsample_tier(q: Query) -> str:
    """Finest tier retained at ``t_lo`` whose bucket count over the range
    fits ``max_points``; the coarsest retained one when none fits."""
    order = sorted(LADDER, key=LADDER.get)
    retained = [t for t in order if t != "1m" or q.t_lo >= SEAM]
    for t in retained:
        if math.ceil((q.t_hi - q.t_lo) / LADDER[t]) <= q.max_points:
            return t
    return retained[-1]
