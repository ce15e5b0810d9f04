"""Flagship pipeline: sequences -> gap-fill -> matrix profiles ->
retention-tier rollups.

All stages are streaming ``map_batches`` over Arrow batches; nothing
materializes the corpus.  At 100 TB the same graph holds: the read prunes
columns, every transform is per-row so blocks flow independently, and the
only all-to-all steps live in the optional corpus-level top-k and the
chunked-series merge (state/chunked.py).  The token codec
(stages/codec_stage.py) is not in the chain: no stored byte depends on it.
"""

from __future__ import annotations

from ..functions.tokenize import list_column_to_numpy
from ..sources.sequences import sequences_from_documents
from ..stages.gapfill import gapfill_batch
from ..stages.profile import compute_profiles_batch
from ..stages.rollup import mp_rollup_batch, rollup_batch


def sequences_pipeline(sf_dir: str):
    """sequences source -> forward-fill gap-fill.

    Single-file inputs are split into 2 x cluster CPUs blocks so the
    kernel stages downstream can use every core (a 100 TB corpus already
    arrives in thousands of files; the split matters only for the small
    test inputs).
    """
    import ray

    ds = sequences_from_documents(sf_dir)
    blocks = 2 * int(ray.cluster_resources().get("CPU", 4))
    # a corpus that already arrives in >= blocks files has all the read
    # parallelism it needs and must NOT pay this all-to-all (metadata
    # check only — input_files never triggers execution)
    try:
        split = len(ds.input_files()) < blocks
    except Exception:
        split = True
    if split:
        ds = ds.repartition(blocks)
    return ds.map_batches(gapfill_batch, batch_format="pyarrow")


def token_rollup_pipeline(sf_dir: str, tiers=None):
    """Tier rollups of the raw token values (min/max/sum/count/mean)."""
    ds = sequences_pipeline(sf_dir)
    return ds.map_batches(lambda b: rollup_batch(b, tiers=tiers),
                          batch_format="pyarrow")


def profiles_pipeline(sf_dir: str, w: int = 32, algorithm: str = "mpx",
                      keep_tokens: bool = False):
    ds = sequences_pipeline(sf_dir)
    return ds.map_batches(
        lambda b: compute_profiles_batch(b, w=w, algorithm=algorithm,
                                         keep_tokens=keep_tokens),
        batch_format="pyarrow", batch_size=256)


def mp_rollup_pipeline(sf_dir: str, w: int = 32, tiers=None):
    """Tier rollups of the matrix-profile distances (min/mean/count/argmin)."""
    ds = profiles_pipeline(sf_dir, w=w)
    return ds.map_batches(lambda b: mp_rollup_batch(b, tiers=tiers),
                          batch_format="pyarrow")


def _profile_row_table(row, mp, pi, w: int, valid: bool = True):
    """One profiles-schema row (same columns AND column types as
    compute_profiles_batch — doc_id/source/n_tok pass through untouched so
    short- and long-routed blocks always unify) from an externally-computed
    (mp, pi) — the assembly shared by the skew-aware pipeline and the
    rollup job's tail path."""
    import numpy as np
    import pyarrow as pa

    off = pa.array(np.array([0, mp.shape[0]], np.int32), pa.int32())
    return pa.table({
        "doc_id": row["doc_id"],
        "source": row["source"],
        "n_tok": row["n_tok"],
        "w": pa.array([w], pa.int32()),
        "valid": pa.array([valid]),
        "mp": pa.ListArray.from_arrays(off, pa.array(mp, pa.float64())),
        "pi": pa.ListArray.from_arrays(off, pa.array(pi, pa.int64())),
        "algorithm": pa.array(["mpx"], pa.string()),
        "metric": pa.array(["euclidean"], pa.string()),
    })


# Long rows above TILE_THRESHOLD points take the SCAMP-tile decomposition
# in TILE-point strips, so no single worker ever holds the series.
TILE_THRESHOLD = 1 << 22
TILE = 1 << 16


def compute_long_row_profile(ts, w: int):
    """(mp, pi) for one giant series via the whole-cluster fan-out:
    diagonal-range tasks normally, the SCAMP-tile decomposition above
    ``TILE_THRESHOLD``."""
    from ..state.chunked import distributed_mpx, distributed_tiled_mpx

    if ts.shape[0] > TILE_THRESHOLD:
        return distributed_tiled_mpx(ts, w, tile=TILE)
    return distributed_mpx(ts, w)


def long_row_profile_table(row, w: int):
    """Profiles-schema table for ONE long row via the cluster fan-out,
    under the same lossless-row contract as ``compute_profiles_batch``:
    a row shorter than ``2*w`` (possible when ``long_threshold < 2*w - 1``)
    is emitted with an empty profile and ``valid=False`` instead of being
    dropped or crashing the fan-out kernels."""
    import numpy as np

    # zero-copy view of the row's tokens (sliced rows and large_list too)
    values, offsets = list_column_to_numpy(row["tokens"])
    ts = np.asarray(values[offsets[0]:offsets[1]], dtype="d")
    if ts.shape[0] < 2 * w:
        return _profile_row_table(row, np.empty(0, "d"),
                                  np.empty(0, np.int64), w, valid=False)
    mp, pi = compute_long_row_profile(ts, w)
    return _profile_row_table(row, mp, pi, w)


def iter_long_corpus_rows(source, long_threshold: int, preprocess=None):
    """Pushdown scan of the tail rows (``n_tok > long_threshold``) of a
    tokenized-corpus parquet layout, one single-row table at a time — the
    shared discovery loop of the skew-aware pipeline and the rollup job's
    tail path.  Parquet row-group statistics prune the scan, so a corpus
    with no long row reads ~0 bytes.  Null ``n_tok`` never matches the
    predicate: those rows belong to the short (streaming) side."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    scanner = pads.dataset(source).scanner(
        columns=["doc_id", "source", "tokens", "n_tok"],
        filter=pads.field("n_tok") > long_threshold,
        batch_size=1)
    for rb in scanner.to_batches():
        for i in range(rb.num_rows):
            row = pa.Table.from_batches([rb.slice(i, 1)])
            yield preprocess(row) if preprocess else row


def flagship_tail_rows(row, w: int, tiers=None):
    """Unified flagship rollup rows (token + mp kinds) for ONE long row,
    profile computed via the distributed fan-out — the tail-side
    counterpart of ``flagship_batch`` (a too-short row contributes its
    token rollups only, exactly as the batch path's invalid rows do)."""
    import pyarrow as pa

    token_rolls = rollup_batch(row, tiers=tiers)
    token_rolls = token_rolls.append_column(
        "kind", pa.array(["token"] * len(token_rolls), pa.string()))
    mp_rolls = mp_rollup_batch(long_row_profile_table(row, w),
                               tiers=tiers)
    mp_rolls = mp_rolls.append_column(
        "kind", pa.array(["mp"] * len(mp_rolls), pa.string()))
    return pa.concat_tables([token_rolls, mp_rolls],
                            promote_options="default")


def profiles_skew_aware(ds, w: int = 32, *, long_threshold: int = 1 << 17,
                        corpus_path: str | None = None,
                        preprocess=None):
    """Length-routed matrix profiles: same output schema/values as
    ``profiles_pipeline``'s stage, different execution per row size.

    The per-row batch kernel is right for the corpus's typical ~1k-token
    rows, but the self-join is O(n^2) and a row is atomic — ONE 1M-token
    row costs ~10^6x the median and no block split helps, so its task
    straggles the whole stage.  Rows with ``n_tok > long_threshold`` are
    therefore routed to the whole-cluster diagonal fan-out
    (state.chunked.distributed_mpx; the SCAMP-tiled variant above
    ``TILE_THRESHOLD``, where one worker should not hold the series),
    driven one row at a time from the driver: each tail row individually
    saturates the cluster, so serial iteration adds no idle time, and the
    driver holds at most one long row's tokens.  Short rows stream through
    the vectorized batch stage untouched.

    Long-row discovery: with ``corpus_path`` (the standard tokenized
    corpus layout, which carries ``n_tok``) the tail is found by parquet
    predicate pushdown — only row groups containing a long row are read
    again, so the "second pass" touches ~0 bytes on a healthy corpus.
    ``preprocess`` (e.g. the gap-fill ``ds`` was built with) is applied to
    each pushed-down row for parity with the short side.  Without
    ``corpus_path`` the tail is filtered out of ``ds`` itself (a second
    streaming pass over the derived sequences — fine at test scale, use
    the pushdown at corpus scale)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data

    # untyped scalar: pyarrow promotes the comparison to the wider type, so
    # a huge threshold (the natural way to disable routing) compares instead
    # of overflowing an int32 cast
    thr = pa.scalar(long_threshold)

    def short_side(batch: pa.Table) -> pa.Table:
        # null n_tok stays on the short side (fill_null True): the pushdown
        # predicate below never matches null, so without this the row would
        # vanish from BOTH routes — compute_profiles_batch's lossless-row
        # contract forbids that
        keep = batch.filter(
            pc.fill_null(pc.less_equal(batch["n_tok"], thr), True))
        return compute_profiles_batch(keep, w=w)

    short = ds.map_batches(short_side, batch_format="pyarrow",
                           batch_size=256)

    if corpus_path is not None:
        def iter_long():
            yield from iter_long_corpus_rows(corpus_path, long_threshold,
                                             preprocess)
    else:
        def iter_long():
            tail = ds.map_batches(
                lambda b: b.filter(
                    pc.fill_null(pc.greater(b["n_tok"], thr), False))
                           .select(["doc_id", "source", "tokens", "n_tok"]),
                batch_format="pyarrow")
            for b in tail.iter_batches(batch_size=1, batch_format="pyarrow"):
                if len(b):
                    yield b

    # each finished long-row table goes straight to the object store
    # (ray.put) — the driver keeps only ObjectRefs, holding at most the ONE
    # in-flight row's tokens+profile, however many tail rows exist (the
    # store spills; a driver-side list of profile tables would not)
    long_refs = []
    for row in iter_long():
        long_refs.append(ray.put(long_row_profile_table(row, w)))

    if not long_refs:
        return short
    return short.union(ray.data.from_arrow_refs(long_refs))


TOKEN_ROLLUP_COLS = ["doc_id", "source", "tier", "bucket",
                     "t_min", "t_max", "t_sum", "t_count", "t_mean"]
MP_ROLLUP_COLS = ["doc_id", "source", "w", "tier", "bucket",
                  "mp_min", "mp_mean", "mp_count", "mp_argmin"]


def flagship_batch(batch, w: int = 32, tiers=None):
    """Single-pass flagship transform: token tier rollups AND matrix-profile
    tier rollups from one batch, unified into one long-format table tagged
    by ``kind`` ('token' rows carry null mp_* columns and vice versa).  One
    streaming pass over the corpus instead of two."""
    import pyarrow as pa

    token_rolls = rollup_batch(batch, tiers=tiers)
    token_rolls = token_rolls.append_column(
        "kind", pa.array(["token"] * len(token_rolls), pa.string()))
    prof = compute_profiles_batch(batch, w=w)
    mp_rolls = mp_rollup_batch(prof, tiers=tiers)
    mp_rolls = mp_rolls.append_column(
        "kind", pa.array(["mp"] * len(mp_rolls), pa.string()))
    return pa.concat_tables([token_rolls, mp_rolls],
                            promote_options="default")


def _select_kind(ds, kind: str, cols):
    import pyarrow.compute as pc

    def f(b):
        sub = b.filter(pc.equal(b["kind"], kind))
        return sub.select([c for c in cols if c in sub.column_names])

    return ds.map_batches(f, batch_format="pyarrow")


# write_parquet(partition_cols=...) creates a kind=<k> directory only when
# that kind produced rows; a corpus whose docs are all shorter than the
# profile window yields no mp rollups, so the pruned read must fall back
# to an empty (typed) dataset rather than FileNotFoundError.
_ROLLUP_TYPES = {"doc_id": "string", "source": "string", "w": "int32",
                 "tier": "string", "bucket": "int64", "t_min": "double",
                 "t_max": "double", "t_sum": "double", "t_count": "int64",
                 "t_mean": "double", "mp_min": "double", "mp_mean": "double",
                 "mp_count": "int64", "mp_argmin": "int64"}


def _read_kind_dir(out_dir: str, kind: str, cols):
    import os

    import pyarrow as pa
    import ray.data
    from pyarrow import fs as pafs

    from ..io.fsutil import fs_and_path

    sub = f"{out_dir}/kind={kind}"
    filesystem, rel = fs_and_path(sub)
    if filesystem.get_file_info(rel).type == pafs.FileType.NotFound:
        empty = pa.table(
            {c: pa.array([], type=_ROLLUP_TYPES[c]) for c in cols})
        return ray.data.from_arrow(empty)
    reorder = lambda b: b.select(  # noqa: E731 — hive read loses order
        [c for c in cols if c in b.column_names])
    return ray.data.read_parquet(sub).map_batches(reorder,
                                                  batch_format="pyarrow")


def flagship_rollup(sf_dir: str, w: int = 32, tiers=None, out_dir=None):
    """The end-to-end rollup in ONE corpus pass (``flagship_batch`` fuses
    the token and MP rollups, so read, tokenize and gap-fill run once).

    With ``out_dir`` the unified table streams straight to Parquet
    partitioned by kind/tier (resumable layout) and the returned pair of
    Datasets are pruned reads of what was written — zero recompute.
    Without it the unified ROLLUP result (bucket-factor smaller than the
    corpus; the corpus itself never materializes) is materialized once so
    both returned views share the single pass.

    Returns ``(token_rollups, mp_rollups)``."""
    ds = sequences_pipeline(sf_dir)
    unified = ds.map_batches(lambda b: flagship_batch(b, w=w, tiers=tiers),
                             batch_format="pyarrow", batch_size=64)
    if out_dir:
        import ray.data

        from ..io.fsutil import guarded_clean_dir
        from ..stages.retention import ROW_GROUP_ROWS

        # write_parquet APPENDS uniquely-named files, so a re-run into the
        # same out_dir would double every rollup row in the returned reads:
        # rebuild from clean when the target is a prior flagship layout
        # (kind=* hive partitions only), refuse anything else.  Resolved
        # via pyarrow.fs so URI targets are guarded too.
        guarded_clean_dir(
            out_dir, lambda names: all(n.startswith("kind=") for n in names),
            "a flagship rollup layout (only kind=* partitions expected)")
        unified.write_parquet(out_dir, partition_cols=["kind", "tier"],
                              row_group_size=ROW_GROUP_ROWS)
        token = _read_kind_dir(out_dir, "token", TOKEN_ROLLUP_COLS)
        mp = _read_kind_dir(out_dir, "mp", MP_ROLLUP_COLS)
        return token, mp
    unified = unified.materialize()
    return (_select_kind(unified, "token", TOKEN_ROLLUP_COLS),
            _select_kind(unified, "mp", MP_ROLLUP_COLS))
