"""Chunked-series execution: series too long for one row/block.

Two scale paths, both exact:

* **Rollups**: chunks are disjoint index ranges; every bucket statistic
  (min/max/sum/count) is associative, so per-chunk partials merge under one
  ``groupby((doc_id, tier, bucket))`` — the hash-partitioned shuffle moves
  only bucket rows, never tokens.  Buckets spanning a chunk boundary are
  merged by the aggregate, which is what makes chunk size a free parameter.

* **Matrix profiles**: the reference's own partial+final aggregate over
  MPX's per-thread diagonal ranges (cympx.pyx:82-112), merged by
  elementwise max-correlation.  ``distributed_mpx`` puts the series
  state in the object store once, runs one module-level leaf task per
  diagonal range and reduces the partials task-side in an ordered
  fan-in-8 tree, so its output equals the serial walk at any partition
  count, ties included.  Beyond one worker's object-store slice (8 GB per
  10^9 points) ``distributed_tiled_mpx`` applies the tiled
  decomposition, absorbing its strip-local partials on the driver.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.tokenize import list_column_to_numpy
from ..kernels.mpx import (
    merge_pearson_partials,
    merge_tile_partial,
    mpx_diag_range,
    mpx_precompute,
    tile_pair_partials,
)
from ..stages.rollup import TIERS


def chunk_sequences_batch(batch: pa.Table, chunk_tokens: int = 4096) -> pa.Table:
    """Explode rows into disjoint chunks: (doc_id, source, start, tokens)."""
    values, offsets = list_column_to_numpy(batch["tokens"])
    doc_rows, starts, chunks = [], [], []
    for i in range(len(batch)):
        row = values[offsets[i] : offsets[i + 1]]
        for s in range(0, max(len(row), 1), chunk_tokens):
            doc_rows.append(i)
            starts.append(s)
            chunks.append(row[s : s + chunk_tokens])
    lens = np.array([len(c) for c in chunks], dtype=np.int64)
    off = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
    flat = np.concatenate(chunks) if chunks else np.empty(0, values.dtype)
    take = pa.array(np.array(doc_rows, dtype=np.int64), pa.int64())
    return pa.table({
        "doc_id": batch["doc_id"].take(take),
        "source": batch["source"].take(take),
        "start": pa.array(np.array(starts, dtype=np.int64), pa.int64()),
        "tokens": pa.ListArray.from_arrays(pa.array(off, pa.int32()),
                                           pa.array(flat)),
    })


def chunked_rollup(chunks_ds, tiers=None):
    """Tier rollups over chunked rows -> identical output to the single-row
    rollup (partition-count invariance).  Partial bucket stats per chunk,
    merged by a keyed aggregate."""
    tiers = tiers or TIERS

    def partials(batch: pa.Table) -> pa.Table:
        values, offsets = list_column_to_numpy(batch["tokens"])
        values = values.astype("d")
        starts_col = batch["start"].to_numpy()
        lengths = np.diff(offsets)
        parts = []
        for tier_name, bucket in tiers.items():
            # segment boundaries aligned to GLOBAL bucket edges: a chunk
            # whose start is mid-bucket emits a partial edge bucket that the
            # keyed aggregate merges with its sibling from the previous chunk
            seg_starts, seg_buckets, seg_rows = [], [], []
            for i in range(len(batch)):
                s, L, o = int(starts_col[i]), int(lengths[i]), int(offsets[i])
                if L == 0:
                    continue
                lead = (bucket - s % bucket) % bucket
                internal = np.arange(lead if lead else bucket, L, bucket)
                row_starts = np.concatenate(([0], internal))
                seg_starts.append(o + row_starts)
                seg_buckets.append(s // bucket + ((s % bucket) + row_starts) // bucket)
                seg_rows.append(np.full(row_starts.shape[0], i, dtype=np.int64))
            if not seg_starts:
                continue
            flat_starts = np.concatenate(seg_starts)
            bucket_ids = np.concatenate(seg_buckets)
            row_of_bucket = np.concatenate(seg_rows)

            mins = np.minimum.reduceat(values, flat_starts)
            maxs = np.maximum.reduceat(values, flat_starts)
            sums = np.add.reduceat(values, flat_starts)
            # rows abut in the flat array, so each segment ends at the next
            # start (or the array end) — also exactly the row boundary
            seg_ends = np.concatenate((flat_starts[1:], [len(values)]))
            counts = seg_ends - flat_starts
            take = pa.array(row_of_bucket, pa.int64())
            parts.append(pa.table({
                "doc_id": batch["doc_id"].take(take),
                "source": batch["source"].take(take),
                "tier": pa.array([tier_name] * len(bucket_ids), pa.string()),
                "bucket": pa.array(bucket_ids, pa.int64()),
                "p_min": pa.array(mins, pa.float64()),
                "p_max": pa.array(maxs, pa.float64()),
                "p_sum": pa.array(sums, pa.float64()),
                "p_count": pa.array(counts.astype(np.int64), pa.int64()),
            }))
        if not parts:
            # a batch of only empty-token docs contributes no buckets —
            # return an empty table with the output schema (concat_tables
            # on an empty list raises)
            return pa.table({
                "doc_id": batch["doc_id"].slice(0, 0),
                "source": batch["source"].slice(0, 0),
                "tier": pa.array([], pa.string()),
                "bucket": pa.array([], pa.int64()),
                "p_min": pa.array([], pa.float64()),
                "p_max": pa.array([], pa.float64()),
                "p_sum": pa.array([], pa.float64()),
                "p_count": pa.array([], pa.int64()),
            })
        return pa.concat_tables(parts)

    from ray.data.aggregate import Max, Min, Sum

    merged = (chunks_ds.map_batches(partials, batch_format="pyarrow")
              .groupby(["doc_id", "source", "tier", "bucket"])
              .aggregate(Min("p_min", alias_name="t_min"),
                         Max("p_max", alias_name="t_max"),
                         Sum("p_sum", alias_name="t_sum"),
                         Sum("p_count", alias_name="t_count")))

    def finish(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "t_mean", pc.divide(batch["t_sum"], batch["t_count"]))

    return merged.map_batches(finish, batch_format="pyarrow")


# Merge-tree fan-in: each merge task left-folds up to FAN_IN contiguous
# partials.  Fan-in 8 beats a binary tree (fewer object-store writes:
# (N-1)/7 vs N-1 intermediate partials) and a driver fold (merges run
# worker-side in parallel; the driver holds refs only) — measured at
# pl=2e6 x 16 partials: 0.64 s vs 0.87-3.1 s driver fold vs 1.9-4.4 s
# binary tree.
FAN_IN = 8


@ray.remote
def _mpx_leaf(lo, hi, state):
    seed, df, dg, sig = state
    mp = np.full(sig.shape[0], -1.0)
    mpi = np.full(sig.shape[0], -1, dtype=np.int64)
    mpx_diag_range(lo, hi, seed, df, dg, sig, mp, mpi)
    return mp, mpi


@ray.remote
def _merge_group(*parts):
    return functools.reduce(merge_pearson_partials, parts)


def distributed_mpx(ts, w: int, n_partitions: int | None = None):
    """Exact MPX self-join over one long series, fanned out over the
    diagonal axis — the reference parallelizes the same axis with OpenMP
    threads (cympx.pyx:82-112); here each task walks a contiguous diagonal
    range against the broadcast per-series state and the partials merge by
    elementwise max-correlation (merge_pearson_partials).

    The per-series state is ``ray.put`` once, one leaf task runs per
    non-empty range, and the partials reduce task-side in a FAN_IN-ary
    tree of contiguous groups.  Each merge task left-folds its group in
    range order, and the strict-``>`` merge is associative and
    left-biased, so the result equals the serial walk at any partition
    count, ties included.  ``n_partitions=None`` plans two ranges per
    cluster CPU.

    Ranges are sized so each carries ~equal work: diagonal d costs
    (pl - d) updates, so boundaries follow the quantiles of the cumulative
    work curve rather than equal diagonal counts.  Raw tasks rather than
    the Dataset API: Dataset block accounting added ~8x overhead on this
    per-series scatter-gather in measurement.
    """
    ts = np.ascontiguousarray(ts, dtype="d")
    seed, df, dg, sig, minlag = mpx_precompute(ts, w)
    pl = sig.shape[0]
    d0 = minlag + 1

    if d0 >= pl:
        # no admissible diagonals (series barely longer than w): same
        # all-unmatched profile mpx_self returns, no tasks to launch
        mp = np.full(pl, -1.0)
        return np.sqrt(2.0 * w * (1.0 - mp)), np.full(pl, -1, dtype=np.int64)

    state = ray.put((seed, df, dg, sig))
    if n_partitions is None:
        n_partitions = 2 * int(ray.cluster_resources().get("CPU", 4))
    # equal-work boundaries: cumulative work W(d) = sum_{d0..d}(pl - d);
    # np.unique drops the empty ranges of a series shorter than the plan
    cum = np.cumsum(pl - np.arange(d0, pl))
    cuts = d0 + np.searchsorted(
        cum, np.linspace(0, cum[-1], n_partitions + 1)[1:-1])
    bounds = np.unique(np.concatenate(([d0], cuts, [pl])))
    refs = [_mpx_leaf.remote(int(lo), int(hi), state)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
    while len(refs) > 1:
        refs = [_merge_group.remote(*refs[i : i + FAN_IN])
                for i in range(0, len(refs), FAN_IN)]
    mp, mpi = ray.get(refs[0])
    mp = np.minimum(mp, 1.0)
    # ray.get hands back read-only views of the object store; the caller
    # gets a writable index array, as from mpx_self
    return np.sqrt(2.0 * w * (1.0 - mp)), mpi.copy()


def distributed_tiled_mpx(ts, w: int, tile: int, max_in_flight: int = 64):
    """Exact self-join MP for series too large for one worker's memory:
    the SCAMP-style tile decomposition (kernels.mpx.tiled_mpx_self) with
    each strip placed in the object store ONCE and every tile-pair task
    fetching exactly the two strips it touches — peak per-task memory is
    O(tile + w), independent of series length.  Partials merge by
    max-correlation on the driver as tasks complete (bounded in-flight
    window so the driver never holds all partials)."""
    ts = np.ascontiguousarray(ts, dtype="d")
    n = ts.shape[0]
    pl = n - w + 1
    minlag = int(math.ceil(w / 4.0))

    starts = list(range(0, pl, tile))
    strips = {r: ray.put(np.ascontiguousarray(ts[r : min(r + tile, pl) - 1 + w]))
              for r in starts}
    bounds = {r: min(r + tile, pl) for r in starts}

    @ray.remote
    def run_pair(a_lo, a_hi, b_lo, b_hi, strip_a, strip_b):
        return (a_lo, a_hi, b_lo, b_hi) + tile_pair_partials(
            strip_a, strip_b, w, delta=a_lo - b_lo, minlag=minlag)

    mp = np.full(pl, -1.0)
    mpi = np.full(pl, -1, dtype=np.int64)

    def absorb(result):
        a_lo, a_hi, b_lo, b_hi, mp_a, mpi_a, mp_b, mpi_b = result
        merge_tile_partial(mp, mpi, a_lo, a_hi, mp_a, mpi_a, b_lo)
        merge_tile_partial(mp, mpi, b_lo, b_hi, mp_b, mpi_b, a_lo)

    pending = []
    for r in starts:
        for c in starts:
            if c < r:
                continue
            pending.append(run_pair.remote(r, bounds[r], c, bounds[c],
                                           strips[r], strips[c]))
            if len(pending) >= max_in_flight:
                done, pending = ray.wait(pending, num_returns=1)
                absorb(ray.get(done[0]))
    for result in ray.get(pending):
        absorb(result)

    np.minimum(mp, 1.0, out=mp)
    return np.sqrt(2.0 * w * (1.0 - mp)), mpi
