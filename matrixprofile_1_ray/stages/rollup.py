"""Retention-tier rollups: raw -> 1m -> 1h -> 1d continuous aggregates.

Token index = time (SURVEY.md §2.11): tier buckets are non-overlapping index
ranges over the token stream (60 / 3600 / 86400 tokens at the
1-token-per-second interpretation).  Bucket statistics reuse the reference's
``moving_*`` semantics evaluated on disjoint buckets (reference
core.py:282-394); the matrix-profile bucket stats (min distance + argmin
profile index) have no reference analog and are mandated by the north rule.

Because each input row carries a complete series, the whole rollup is a
single vectorized ``map_batches`` — no shuffle.  The chunked-long-series
path (series split across rows) goes through state/chunked.py, which
pre-aggregates per chunk with these same functions and min/merges partial
buckets under ``groupby(doc_id)``.

The entire batch is reduced with ``np.ufunc.reduceat`` over one flat value
array — no Python loop over rows or buckets.  The first-argmin pass runs
once, at the finest tier: each coarser tier's argmin folds from the
partials of a finer tier whose width divides it (the hierarchical
continuous-aggregate pattern), bit-identical to a direct reduce
(:func:`_tier_stats`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tokenize import list_column_to_numpy

TIERS = {"1m": 60, "1h": 3600, "1d": 86400}


def _bucket_layout(lengths: np.ndarray, bucket: int):
    """reduceat segment starts + per-row bucket counts for one tier."""
    n_buckets = (lengths + bucket - 1) // bucket
    total = int(n_buckets.sum())
    row_of_bucket = np.repeat(np.arange(len(lengths)), n_buckets)
    # bucket index within each row: global arange minus each row's first slot
    first_slot = np.concatenate(([0], np.cumsum(n_buckets)))[:-1]
    bucket_idx = np.arange(total) - np.repeat(first_slot, n_buckets)
    return row_of_bucket, bucket_idx, n_buckets


def _first_where(is_hit: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Per segment, the first position where ``is_hit`` holds (int64 max
    where it never does)."""
    pos = np.where(is_hit, np.arange(is_hit.shape[0]), np.iinfo(np.int64).max)
    return np.minimum.reduceat(pos, seg_starts)


def _fold_argmin(f_bidx, f_mins, f_arg, k: int, mins) -> np.ndarray:
    """First-argmin of width ``k * fine width`` from the fine buckets'
    indices, mins and argmins.  Coarse bucket ``b`` of a row is its fine
    buckets ``b*k .. b*k+k-1``, contiguous in the row-major bucket order
    and always including bucket ``b*k``, so each coarse segment starts
    where ``bucket % k == 0``; its argmin is the fine argmin of the first
    fine bucket whose min equals the coarse min ``mins`` (none does when
    that min is NaN: the caller pins the sentinel, and a fine NaN bucket's
    sentinel is never picked)."""
    seg = np.flatnonzero(f_bidx % k == 0)
    sizes = np.diff(np.append(seg, f_mins.shape[0]))
    first = _first_where(f_mins == np.repeat(mins, sizes), seg)
    return f_arg[np.minimum(first, f_mins.shape[0] - 1)]


def _tier_stats(values: np.ndarray, offsets: np.ndarray, widths,
                argmin: bool) -> list:
    """Per-bucket (row, bucket, min, max, sum, count, argmin) of every width
    in ``widths``, in that order, across a ragged batch.

    Min, max and sum are one direct ``reduceat`` each per width over the
    raw values: folding min/max from finer partials would change the sign
    of a zero or the bits of a NaN wherever the two reduction orders
    settle a +0/-0 or NaN tie differently, and the float sums keep the
    raw summation order.  The first-argmin, a full pass over the values,
    runs once, at the finest width; each coarser width folds it from the
    largest already-computed width that divides it (a width that none
    divides is reduced directly).  A bucket holding NaN has a NaN min
    (minimum propagates NaN) and therefore no position equal to it: its
    argmin is the sentinel -1 (the min/max/sum columns surface the NaN,
    the argmin must not invent a location)."""
    if values.size == 0:
        z, i = np.empty(0), np.empty(0, np.int64)
        return [(i, i, z, z, z, i, i if argmin else None) for _ in widths]
    vd = values.astype("d", copy=False)
    lengths = np.diff(offsets)
    done = {}
    for width in sorted(set(widths)):
        row, bidx, n_buckets = _bucket_layout(lengths, width)
        starts = (offsets[row] + bidx * width).astype(np.int64)
        ends = np.minimum(starts + width, np.repeat(offsets[1:], n_buckets))
        counts = ends.astype(np.int64) - starts
        mins = np.minimum.reduceat(values, starts)
        maxs = np.maximum.reduceat(values, starts)
        with np.errstate(invalid="ignore"):     # inf + -inf: a NaN sum
            sums = np.add.reduceat(vd, starts)
        arg = None
        if argmin:
            base = max((c for c in done if width % c == 0), default=None)
            if base:
                _, f_bidx, f_mins, _, _, _, f_arg = done[base]
                arg = _fold_argmin(f_bidx, f_mins, f_arg, width // base, mins)
            else:
                is_min = values == np.repeat(mins, counts)
                arg = _first_where(is_min, starts) - offsets[row]
            arg = np.where(np.isnan(mins), np.int64(-1), arg)
        done[width] = (row, bidx, mins, maxs, sums, counts, arg)
    return [done[width] for width in widths]


def bucket_reduce(values: np.ndarray, offsets: np.ndarray, bucket: int):
    """Vectorized per-bucket (min, max, sum, count, argmin) across a ragged
    batch.  ``argmin`` is the index *within the row* of the first minimum."""
    return _tier_stats(values, offsets, [bucket], argmin=True)[0]


def _const(name: str, n: int) -> pa.Array:
    return pa.repeat(pa.scalar(name, pa.string()), n)


def rollup_batch(batch: pa.Table, tiers=None,
                 value_col: str = "tokens") -> pa.Table:
    """sequences batch -> long-format tier rollups (one row per
    doc × tier × bucket) with SQL-matching column names."""
    tiers = tiers or TIERS
    values, offsets = list_column_to_numpy(batch[value_col])
    values = values.astype("d")
    doc_ids = batch["doc_id"]
    sources = batch["source"]

    parts = []
    stats = _tier_stats(values, offsets, list(tiers.values()), argmin=False)
    for tier_name, (row_of_bucket, bucket_idx, mins, maxs, sums, counts,
                    _) in zip(tiers, stats):
        take = pa.array(row_of_bucket, pa.int64())
        parts.append(pa.table({
            "doc_id": doc_ids.take(take),
            "source": sources.take(take),
            "tier": _const(tier_name, len(bucket_idx)),
            "bucket": pa.array(bucket_idx, pa.int64()),
            "t_min": pa.array(mins, pa.float64()),
            "t_max": pa.array(maxs, pa.float64()),
            "t_sum": pa.array(sums, pa.float64()),
            "t_count": pa.array(counts, pa.int64()),
            "t_mean": pa.array(sums / counts, pa.float64()),
        }))
    return pa.concat_tables(parts)


def mp_rollup_batch(batch: pa.Table, tiers=None) -> pa.Table:
    """profiles batch -> tier rollups over the matrix-profile column:
    per-bucket min distance and the (row-local) argmin profile index."""
    tiers = tiers or TIERS
    # filter only the columns read below: the pi lists are as large as mp
    batch = batch.select(["doc_id", "source", "w", "valid", "mp"]) \
        .filter(batch["valid"])
    values, offsets = list_column_to_numpy(batch["mp"])
    values = values.astype("d")

    parts = []
    stats = _tier_stats(values, offsets, list(tiers.values()), argmin=True)
    for tier_name, (row_of_bucket, bucket_idx, mins, _maxs, sums, counts,
                    argmins) in zip(tiers, stats):
        take = pa.array(row_of_bucket, pa.int64())
        parts.append(pa.table({
            "doc_id": batch["doc_id"].take(take),
            "source": batch["source"].take(take),
            "w": batch["w"].take(take),
            "tier": _const(tier_name, len(bucket_idx)),
            "bucket": pa.array(bucket_idx, pa.int64()),
            "mp_min": pa.array(mins, pa.float64()),
            "mp_mean": pa.array(sums / counts, pa.float64()),
            "mp_count": pa.array(counts, pa.int64()),
            "mp_argmin": pa.array(argmins, pa.int64()),
        }))
    return pa.concat_tables(parts)
