"""Retention + downsampled serving over the tiered rollup store.

The north rule asks for a rollup + **downsample + retention** engine, not
just continuous aggregates: old fine-grained data must expire without a
rewrite, and reads must transparently stitch each time range from the
finest tier still retained (the TimescaleDB / M3DB continuous-aggregate
pattern).  The reference library has no storage layer at all — retention
semantics here are engine-original; only the per-bucket VALUES come from
the reference's moving-stats kernels (reference core.py:282-394 via
stages/rollup.py).

Time model (SURVEY.md §2.11): token index = seconds, so a tier bucket
``b`` spans ``[b*tier_sec, (b+1)*tier_sec)`` and "age" is measured from a
caller-supplied watermark ``now_sec`` (ingest time at 10^12-sequence
scale; the max series length in tests).

**Horizons are coarse-aligned.**  A tier's raw policy horizon is floored
to the bucket boundary of the tier that actually SERVES below it (the
first coarser tier retained past the seam — not merely the next width in
the ladder, which the stitch skips when a finer tier outlives a coarser
one; a tier with nothing retained below it floors to its own width) —
by expiry AND by serving, through the same :func:`aligned_horizons`.
That single rule is what makes stitched reads exact: every seam between
two tiers falls on the serving tier's bucket edge, so no served bucket
straddles into the finer tier's range, each wall-clock instant is
aggregated by exactly one served bucket, and ``SUM(t_sum)`` over a
stitched result equals the raw total (pinned by
tests/test_retention.py).  It requires each coarser tier's width to be a
multiple of the next finer one's — validated at write time.

Scale design — why the store is partitioned by ``kind/tier/epoch``:

* **Expiry is file-level**: dropping an epoch directory deletes every
  bucket that ended before the horizon without reading, shuffling or
  rewriting a single row.  At 100 TB a rewrite-based TTL is a non-starter;
  directory deletion is O(files), metadata-only.
* **Reads prune before bytes move**: a serving read lists one
  ``kind/tier`` directory, keeps only the epochs intersecting the query
  range × tier horizon and reads their files in the calling process
  (no Ray job per query), so a "last 7 days from 1m, older from 1h"
  query never opens a cold epoch file.  The result is one Dataset that
  is already executed (``materialize()`` of the ``from_arrow`` source
  takes Ray's no-executor fast path), so iterating or counting it
  reuses the one in-memory block instead of starting a streaming
  executor: every caller collects it in the driver anyway.
* **Parquet arguments**: the store write passes :data:`PARQUET_ARGS`.
  Its ``row_group_size`` is pyarrow's own row-group cap, so each write
  task writes one row group per partition it touches instead of one per
  256-row map batch, and a serving scan reads one footer and one group
  per file.  Every column chunk is zstd (default level) and none has a
  dictionary page: zstd alone packs the repeated string keys tighter
  than a dictionary does, and on the float rollups a dictionary only
  adds bytes.  The file count still follows the write tasks (one per
  block).
* **Epoch width AND the tier->seconds map are stored in the layout**
  (``_store_meta.json``), so a reader can never prune with different
  arithmetic than the writer used.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..io.fsutil import fs_and_path, guarded_clean_dir
from .rollup import TIERS as DEFAULT_TIERS

_META_NAME = "_store_meta.json"
_LOG_NAME = "_retention_log.jsonl"
# the store's Parquet writer arguments: row groups of up to pyarrow's own
# cap (1 Mi rows), so a write task's rows for one partition land in one
# row group; zstd at its default level; no dictionary pages, not even on
# the string keys (pyarrow's default puts one on every column: the sf0.1
# store at 1 CPU is 1 073 622 B with them, 999 852 B with them on
# doc_id/source only and 956 622 B with none; zstd level 9 saves 3.6 %
# at 2.6x the encode time)
PARQUET_ARGS = {"row_group_size": 1024 * 1024, "compression": "zstd",
                "use_dictionary": False}


@dataclass(frozen=True)
class RetentionPolicy:
    """Per-tier maximum age in seconds (``None`` = keep forever).

    Tiers absent from the mapping are treated as keep-forever.  The
    default mirrors the classic metrics-store ladder: fine tiers are
    short-lived, the daily tier is permanent.
    """

    max_age: dict = field(default_factory=lambda: {
        "1m": 7 * 86400, "1h": 90 * 86400, "1d": None})

    def horizon(self, tier: str, now_sec: float):
        """Oldest timestamp tier ``tier`` still retains (None = -inf),
        BEFORE coarse alignment — almost every caller wants
        :func:`aligned_horizons` instead."""
        age = self.max_age.get(tier)
        return None if age is None else now_sec - age


def tier_order_of(widths: dict) -> list:
    """Tier names fine -> coarse."""
    return sorted(widths, key=lambda t: widths[t])


def aligned_horizons(policy: RetentionPolicy, now_sec: float,
                     widths: dict) -> dict:
    """tier -> oldest instant the tier retains/serves, each finite
    horizon floored to the bucket boundary of the tier that will ACTUALLY
    serve below it.  Shared by expiry and serving so they can never
    disagree: the finer tier keeps (and serves) down to exactly where the
    serving coarser tier's last whole bucket ends.

    Walking coarse -> fine: the serving tier below a seam is the first
    coarser tier whose own (already-aligned) horizon reaches at/below the
    candidate seam — NOT simply the next tier in the width ladder, which
    the stitch plan skips whenever a finer tier is retained longer than a
    coarser one (that skip used to misalign the seam and double-count the
    straddling bucket).  A tier with nothing retaining below it — the
    coarsest, or any tier whose coarser neighbors all expire sooner —
    floors to its OWN width, so the straddling bucket the expiry pass
    keeps is actually served instead of being clipped away."""
    order = tier_order_of(widths)
    out = {}
    for i in range(len(order) - 1, -1, -1):
        tier = order[i]
        h = policy.horizon(tier, now_sec)
        if h is None:
            out[tier] = None
            continue
        aligned = None
        for j in range(i + 1, len(order)):
            w_j = widths[order[j]]
            cand = math.floor(h / w_j) * w_j
            below = out[order[j]]
            # strict: a tier whose horizon lands EXACTLY on the candidate
            # seam retains nothing below it, so the stitch skips it and
            # some coarser tier serves there instead
            if below is None or below < cand:
                aligned = cand
                break
        if aligned is None:
            # Every coarser tier's horizon sits at/above its candidate
            # seam.  Floor to our own width — but a coarser tier can
            # still retain BELOW that floor (horizon in [cand, floor)),
            # and it would then serve under the seam with misaligned
            # buckets.  The seam must drop to that tier's own (already
            # aligned) horizon: the only multiple of its width left
            # at/below h, and aligned by construction to whatever serves
            # beneath IT.
            aligned = math.floor(h / widths[tier]) * widths[tier]
            for j in range(i + 1, len(order)):
                below = out[order[j]]   # never None here (None matches
                if below < aligned:     # the main loop above)
                    aligned = below
                    break
        out[tier] = aligned
    return out


def add_epoch_column(batch: pa.Table, widths: dict,
                     epoch_sec: int) -> pa.Table:
    """Vectorized ``epoch = bucket_start // epoch_sec`` over a unified
    rollup batch (long format with ``tier`` + ``bucket`` columns)."""
    names = list(widths)
    idx = pc.index_in(batch["tier"], value_set=pa.array(names, pa.string()))
    if idx.null_count:
        missing = pc.unique(pc.filter(batch["tier"], pc.is_null(idx)))
        raise ValueError(f"tier(s) {missing.to_pylist()} not in the store's "
                         f"widths {widths}")
    tier_sec = np.array([widths[t] for t in names], np.int64)
    buckets = batch["bucket"].to_numpy()
    return batch.append_column(
        "epoch", pa.array(buckets * tier_sec[idx.to_numpy()] // epoch_sec,
                          pa.int64()))


def write_tiered_store(sf_dir: str, store_dir: str, w: int = 32,
                       tiers: dict = None, epoch_sec: int = 86400) -> dict:
    """One corpus pass -> hive store ``kind=*/tier=*/epoch=*``.

    Reuses the fused flagship transform (token + matrix-profile rollups in
    a single streaming pass, ``pipelines.flagship.flagship_batch``) in
    256-row map batches and only appends the epoch partition key.
    ``tiers`` is a name->seconds mapping (default: the raw->1m/1h/1d
    ladder of stages/rollup.py); each coarser width must be a multiple of
    the next finer one so retention seams can align.
    Returns the store metadata that was persisted.
    """
    from ..pipelines.flagship import flagship_batch, sequences_pipeline

    widths = dict(tiers or DEFAULT_TIERS)
    order = tier_order_of(widths)
    for fine, coarse in zip(order, order[1:]):
        if widths[coarse] % widths[fine]:
            raise ValueError(
                f"tier {coarse!r} ({widths[coarse]}s) is not a multiple of "
                f"{fine!r} ({widths[fine]}s); stitched serving needs "
                f"aligned bucket edges")

    guarded_clean_dir(
        store_dir,
        lambda names: all(n.startswith("kind=") or n.startswith("_")
                          for n in names),
        "a tiered rollup store (kind=* partitions + _store_meta.json)")

    ds = sequences_pipeline(sf_dir)
    unified = ds.map_batches(
        lambda b: add_epoch_column(flagship_batch(b, w=w, tiers=widths),
                                   widths, epoch_sec),
        batch_format="pyarrow", batch_size=256)
    unified.write_parquet(store_dir, partition_cols=["kind", "tier", "epoch"],
                          **PARQUET_ARGS)

    meta = {"epoch_sec": int(epoch_sec), "w": int(w), "tiers": widths}
    filesystem, rel = fs_and_path(store_dir)
    with filesystem.open_output_stream(f"{rel}/{_META_NAME}") as f:
        f.write(json.dumps(meta).encode())
    return meta


def store_meta(store_dir: str) -> dict:
    filesystem, rel = fs_and_path(store_dir)
    with filesystem.open_input_stream(f"{rel}/{_META_NAME}") as f:
        return json.loads(f.read().decode())


def store_layout(store_dir: str) -> dict:
    """``{"files", "row_groups", "bytes"}`` over every Parquet file of the
    store's leaf partitions; row groups come from each file's footer."""
    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    filesystem, _ = fs_and_path(store_dir)
    files = row_groups = nbytes = 0
    for _kind, _tier, _epoch, path in _list_epoch_dirs(store_dir):
        for info in filesystem.get_file_info(pafs.FileSelector(path)):
            if info.type != pafs.FileType.File or \
                    not info.base_name.endswith(".parquet"):
                continue
            with filesystem.open_input_file(info.path) as f:
                row_groups += pq.ParquetFile(f).metadata.num_row_groups
            files += 1
            nbytes += info.size
    return {"files": files, "row_groups": row_groups, "bytes": nbytes}


def _epoch_dirs(filesystem, tier_dir: str):
    """Yield (epoch, path) for every ``epoch=E`` dir under one
    ``kind=K/tier=T`` dir (none when that dir does not exist)."""
    from pyarrow import fs as pafs

    for info in filesystem.get_file_info(
            pafs.FileSelector(tier_dir, allow_not_found=True)):
        if info.type == pafs.FileType.Directory and \
                info.base_name.startswith("epoch="):
            yield int(info.base_name.split("=", 1)[1]), info.path


def _list_epoch_dirs(store_dir: str):
    """Yield (kind, tier, epoch, relative_dir) for every leaf partition."""
    from pyarrow import fs as pafs

    filesystem, rel = fs_and_path(store_dir)
    for kind_info in filesystem.get_file_info(pafs.FileSelector(rel)):
        kname = kind_info.base_name
        if kind_info.type != pafs.FileType.Directory or \
                not kname.startswith("kind="):
            continue
        for tier_info in filesystem.get_file_info(
                pafs.FileSelector(kind_info.path)):
            tname = tier_info.base_name
            if not tname.startswith("tier="):
                continue
            for epoch, path in _epoch_dirs(filesystem, tier_info.path):
                yield (kname.split("=", 1)[1], tname.split("=", 1)[1],
                       epoch, path)


def _append_log(filesystem, log_path: str, record: dict) -> None:
    """Crash-safe audit append: a real O(1) append where the filesystem
    supports it (local), else write-to-temp + atomic move so a kill can
    never destroy the prior trail mid-rewrite."""
    from pyarrow import fs as pafs

    line = json.dumps(record).encode() + b"\n"
    try:
        with filesystem.open_append_stream(log_path) as f:
            f.write(line)
        return
    except (NotImplementedError, OSError):
        pass
    prior = b""
    if filesystem.get_file_info(log_path).type != pafs.FileType.NotFound:
        with filesystem.open_input_stream(log_path) as f:
            prior = f.read()
    tmp = f"{log_path}.tmp"
    with filesystem.open_output_stream(tmp) as f:
        f.write(prior + line)
    filesystem.move(tmp, log_path)


def apply_retention(store_dir: str, now_sec: float,
                    policy: RetentionPolicy = None) -> dict:
    """Expire epoch directories entirely older than each tier's ALIGNED
    horizon (:func:`aligned_horizons` — the same boundary the read path
    stitches at, so expiry can never eat a bucket a stitched read still
    needs).

    An epoch is expired iff the latest data instant any of its buckets can
    reach is <= that horizon.  Epochs are keyed by bucket START, so that
    end is ``ceil((epoch+1)*epoch_sec / tier_sec) * tier_sec`` — equal
    to ``(epoch+1)*epoch_sec`` when buckets align with epochs, and the
    single bucket's own end when ``tier_sec > epoch_sec``.  A
    partially-retained epoch is kept whole (retention never truncates
    inside a file; the read path applies the exact boundary).  Deletion is
    directory-level: no row is read or rewritten.
    Idempotent — a re-run after a crash deletes nothing new and appends a
    fresh log record, so the ``_retention_log.jsonl`` audit trail shows
    every pass.  Concurrent passes are safe: on a local store the whole
    pass (deletes + log append) runs under an ``flock`` next to the log,
    and an epoch a racing pass already removed counts as deleted-by-other
    instead of aborting this pass.  Returns ``{"deleted": [...],
    "kept": n}``.
    """
    import contextlib

    from pyarrow import fs as pafs

    policy = policy or RetentionPolicy()
    meta = store_meta(store_dir)
    epoch_sec, widths = meta["epoch_sec"], meta["tiers"]
    horizons = aligned_horizons(policy, now_sec, widths)
    filesystem, rel = fs_and_path(store_dir)

    @contextlib.contextmanager
    def pass_mutex():
        # flock is kernel-released on holder death (no stale state); on
        # non-local stores this degrades to the tolerate-missing deletes
        if not isinstance(filesystem, pafs.LocalFileSystem):
            yield
            return
        import fcntl

        fd = os.open(f"{rel}/.retention_lock", os.O_CREAT | os.O_WRONLY,
                     0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:
                pass
            os.close(fd)

    with pass_mutex():
        deleted, kept = [], 0
        for kind, tier, epoch, path in _list_epoch_dirs(store_dir):
            horizon = horizons.get(tier)
            tier_sec = widths[tier]
            data_end = math.ceil(
                (epoch + 1) * epoch_sec / tier_sec) * tier_sec
            if horizon is not None and data_end <= horizon:
                try:
                    filesystem.delete_dir(path)
                except FileNotFoundError:
                    pass    # a concurrent pass got there first
                deleted.append({"kind": kind, "tier": tier, "epoch": epoch})
            else:
                kept += 1

        record = {"now_sec": now_sec, "deleted": deleted, "kept": kept,
                  "policy": {k: v for k, v in policy.max_age.items()}}
        _append_log(filesystem, f"{rel}/{_LOG_NAME}", record)
    return record


def _read_tier_range(store_dir: str, kind: str, tier: str, lo: float,
                     hi: float, widths: dict, epoch_sec: int) -> pa.Table:
    """One tier restricted to ``bucket_start`` in ``[lo, hi)``, read in
    this process: list ``kind=K/tier=T`` once, keep the epoch dirs that
    can hold a bucket starting in range, list only those, and scan their
    files with the bucket range pushed into the Parquet scan.  A range
    with no file yields a 0-row table holding only ``tier`` and
    ``bucket_start``."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    from pyarrow import fs as pafs

    tier_sec = widths[tier]
    # buckets b whose start b * tier_sec lies in [lo, hi), compared
    # exactly: a fractional lo must not admit the bucket starting before it
    b_lo = math.ceil(lo / tier_sec)
    b_hi = math.ceil(hi / tier_sec)                # exclusive
    # epochs are keyed by bucket start: those of the first and last start
    ep_lo = b_lo * tier_sec // epoch_sec
    ep_hi = (b_hi - 1) * tier_sec // epoch_sec     # inclusive
    filesystem, rel = fs_and_path(store_dir)
    files = []
    for epoch, path in sorted(_epoch_dirs(
            filesystem, f"{rel}/kind={kind}/tier={tier}")):
        if ep_lo <= epoch <= ep_hi:
            files += sorted(
                f.path for f in filesystem.get_file_info(
                    pafs.FileSelector(path))
                if f.type == pafs.FileType.File
                and f.base_name.endswith(".parquet"))
    if not files:
        return pa.table({"tier": pa.array([], pa.string()),
                         "bucket_start": pa.array([], pa.int64())})
    bucket = pads.field("bucket")
    table = pads.dataset(files, filesystem=filesystem,
                         format="parquet").to_table(
        filter=(bucket >= b_lo) & (bucket < b_hi))
    return table.append_column(
        "tier", pa.array([tier] * len(table), pa.string())).append_column(
        "bucket_start", pc.multiply(table["bucket"], tier_sec))


def _served(parts: list):
    """The concatenated parts as one executed Dataset.  Parts with no
    rows are dropped first, so a part that found no file (no data
    columns) cannot reshape the others' schema.  ``materialize()`` of a
    ``from_arrow`` source stores the plan's snapshot without an executor;
    without it every later iteration starts a streaming executor."""
    import ray.data

    tables = [t for t in parts if t.num_rows] or parts[:1]
    return ray.data.from_arrow(
        pa.concat_tables(tables).combine_chunks()).materialize()


def stitch_plan(policy: RetentionPolicy, now_sec: float, t_lo: float,
                t_hi: float, widths: dict = None) -> list:
    """Pure serving plan for :func:`tiered_read`: ``[(tier, lo, hi), ...]``
    walking fine -> coarse, each tier serving ``[max(t_lo, aligned
    horizon), finer tier's lower bound)``.  Because the horizons are
    coarse-aligned, every seam falls on a coarse-bucket edge: intervals
    are disjoint, abut exactly, respect each tier's horizon, and no served
    bucket's SPAN crosses a seam — so aggregating across the stitched
    result counts each wall-clock instant exactly once (property-tested in
    tests/test_retention.py)."""
    widths = widths or dict(DEFAULT_TIERS)
    horizons = aligned_horizons(policy, now_sec, widths)
    plan = []
    upper = t_hi
    for tier in tier_order_of(widths):
        if upper <= t_lo:
            break
        horizon = horizons[tier]
        lo = t_lo if horizon is None else max(t_lo, horizon)
        if lo < upper:
            cap = now_sec if math.isinf(upper) else upper
            if lo < cap:
                plan.append((tier, lo, cap))
            upper = lo
        if horizon is None:   # keep-forever tier serves everything left
            break
    return plan


def tiered_read(store_dir: str, kind: str, now_sec: float,
                policy: RetentionPolicy = None, t_lo: float = 0.0,
                t_hi: float = None):
    """Serve ``[t_lo, t_hi)`` stitching the FINEST retained tier per range.

    Walking tiers fine -> coarse (order derived from the store's persisted
    tier widths), each tier serves down to its coarse-aligned horizon —
    the standard continuous-aggregate read: recent data at 1m grain, older
    at 1h, ancient at 1d, with exact non-overlapping wall-clock coverage
    (see :func:`stitch_plan`).  Each per-tier read lists only the epoch
    dirs that exist and intersect its range, so the cost is proportional
    to the data actually served.  Returns one materialized Dataset tagged
    by ``tier`` + ``bucket_start``.
    """
    policy = policy or RetentionPolicy()
    meta = store_meta(store_dir)
    epoch_sec, widths = meta["epoch_sec"], meta["tiers"]
    t_hi = float("inf") if t_hi is None else t_hi

    plan = stitch_plan(policy, now_sec, t_lo, t_hi, widths)
    if not plan:
        if t_hi <= t_lo:
            raise ValueError(
                f"empty range: t_lo={t_lo} must be < t_hi={t_hi}")
        raise ValueError("requested range is entirely past every tier's "
                         "retention horizon (or entirely after now_sec)")
    return _served([
        _read_tier_range(store_dir, kind, tier, lo, hi, widths, epoch_sec)
        for tier, lo, hi in plan])


def downsample_read(store_dir: str, kind: str, t_lo: float, t_hi: float,
                    max_points: int, now_sec: float = None,
                    policy: RetentionPolicy = None):
    """Grafana-style serving: the finest tier whose point count over
    ``[t_lo, t_hi)`` fits ``max_points``.  With ``now_sec`` + ``policy``,
    tiers whose aligned horizon has expired past ``t_lo`` are skipped, so
    a post-retention read falls back to a coarser tier that still holds
    the whole range instead of silently serving a truncated suffix.  One
    pruned read, no stitching; returns one materialized Dataset."""
    if (policy is None) != (now_sec is None):
        raise ValueError(
            "pass BOTH now_sec and policy (or neither): with only one, "
            "retention would be silently ignored and a post-retention "
            "read would serve exactly the truncated suffix this guard "
            "exists to prevent")
    meta = store_meta(store_dir)
    epoch_sec, widths = meta["epoch_sec"], meta["tiers"]
    order = tier_order_of(widths)
    horizons = (aligned_horizons(policy, now_sec, widths)
                if policy is not None
                else {t: None for t in order})

    candidates = [t for t in order
                  if horizons[t] is None or horizons[t] <= t_lo]
    if not candidates:
        raise ValueError("no tier retains the requested range start; "
                         "raise t_lo past the coarsest tier's horizon")
    chosen = candidates[-1]
    for tier in candidates:
        if math.ceil((t_hi - t_lo) / widths[tier]) <= max_points:
            chosen = tier
            break
    return _served([_read_tier_range(store_dir, kind, chosen, t_lo, t_hi,
                                     widths, epoch_sec)])
