"""Explicit partitioned hash join of two Datasets.

The portable large-x-large equi-join pattern: both sides get a coarse
partition id from a shared hash of the key, a side marker tags provenance,
the union shuffles once on the partition id, and each part joins its two
sides with a vectorized pandas merge.  Hot keys can be salted by raising
``num_partitions`` (a key never spans parts, so per-part memory is bounded
by its keys' rows).  Small-side joins should use the broadcast pattern
instead (``ray.put`` + merge per batch — see stages/ann.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# The side-tagged union holds blocks of BOTH schemas, so Arrow backfills
# each side's missing columns with nulls; a plain to_pandas would promote
# the nulled int columns to float64, silently corrupting integers above
# 2^53 (and diverging dtypes across parts).  Mapping integer/bool Arrow
# types to pandas nullable dtypes keeps the values exact end-to-end.
_NULLABLE_DTYPES = {
    "int8": pd.Int8Dtype(), "int16": pd.Int16Dtype(),
    "int32": pd.Int32Dtype(), "int64": pd.Int64Dtype(),
    "uint8": pd.UInt8Dtype(), "uint16": pd.UInt16Dtype(),
    "uint32": pd.UInt32Dtype(), "uint64": pd.UInt64Dtype(),
    "bool": pd.BooleanDtype(),
}


def _nullable_mapper(arrow_type):
    return _NULLABLE_DTYPES.get(str(arrow_type))


def _group_to_pandas(t) -> pd.DataFrame:
    return t.to_pandas(types_mapper=_nullable_mapper)


def _denullify(df: pd.DataFrame) -> pd.DataFrame:
    """Downcast nullable columns that carry no NA back to their plain numpy
    dtypes so join outputs keep the input schema (int64 in, int64 out);
    columns with real nulls stay nullable (exact, Arrow-null-backed)."""
    for c in df.columns:
        dt = df[c].dtype
        if isinstance(dt, pd.api.extensions.ExtensionDtype) \
                and hasattr(dt, "numpy_dtype") and not df[c].isna().any():
            df[c] = df[c].astype(dt.numpy_dtype)
    return df


def _tag_arrow(batch, keys, num_partitions: int, side: str):
    """Tag a side and emit it as an ARROW block (pyarrow in AND out):
    Ray's Arrow shuffle merge null-fills the other side's missing columns
    with typed nulls, keeping int64 columns exact.  Any pandas block on
    this path — pandas input format, pandas-carrying schema metadata —
    makes the fused sort stage round-trip blocks through pandas, whose
    NaN backfill promotes int64 to float64 and corrupts ints above 2^53
    (measured; see test_join big-int case)."""
    import pyarrow as pa

    df = _with_part(batch.to_pandas(types_mapper=_nullable_mapper),
                    keys, num_partitions, side)
    t = pa.Table.from_pandas(df, preserve_index=False)
    return t.replace_schema_metadata(None)


def _with_part(df: pd.DataFrame, keys, num_partitions: int,
               side: str) -> pd.DataFrame:
    key = df[keys[0]].astype(str)
    for k in keys[1:]:
        key = key + "\x00" + df[k].astype(str)
    hashed = pd.util.hash_pandas_object(key, index=False)
    df = df.copy()
    df["_part"] = (hashed % num_partitions).astype(np.int64)
    df["_side"] = side
    return df


def hash_join(ds_a, ds_b, keys, how: str = "inner",
              num_partitions: int = 16, suffixes=("_a", "_b"),
              left_cols=None, right_cols=None):
    """Join two Datasets on ``keys`` -> Dataset of merged rows.

    Each side's column list is recorded up front (``left_cols`` /
    ``right_cols``, defaulting to the Dataset schemas) so a part can split
    the unioned rows back into sides by explicit column selection — never
    by ``dropna``, which would silently drop a column that is legitimately
    all-null within one part and make per-part schemas diverge.  Outer
    parts with a missing side are reindexed to the full merged schema."""
    if how not in ("inner", "left", "right"):
        # outer would need empty-side parts to emit the *other* side's rows
        # reindexed to the merged schema; nothing here exercises that path,
        # so reject it instead of silently dropping rows
        raise ValueError(f"hash_join supports inner/left/right, got {how!r}")
    if isinstance(keys, str):
        keys = [keys]
    if left_cols is None:
        left_cols = list(ds_a.schema().names)
    if right_cols is None:
        right_cols = list(ds_b.schema().names)
    # The merged schema pandas will produce: keys once, then non-key
    # columns of each side, suffixed where the names collide.
    a_val = [c for c in left_cols if c not in keys]
    b_val = [c for c in right_cols if c not in keys]
    overlap = set(a_val) & set(b_val)
    out_cols = (list(keys)
                + [c + suffixes[0] if c in overlap else c for c in a_val]
                + [c + suffixes[1] if c in overlap else c for c in b_val])
    # target nullable dtype per OUTPUT column, captured from the input
    # schemas: a part whose right side is empty reindexes the missing
    # columns as float64 NaN, and one such part poisons the whole result's
    # type unify (int64 blocks + float64 blocks -> float64, corrupting
    # ints above 2^53 in MATCHED rows of other parts)
    a_types = dict(zip(ds_a.schema().names, map(str, ds_a.schema().types)))
    b_types = dict(zip(ds_b.schema().names, map(str, ds_b.schema().types)))
    out_dtypes = {}
    for c in a_val:
        out_dtypes[c + suffixes[0] if c in overlap else c] = \
            _NULLABLE_DTYPES.get(a_types.get(c, ""))
    for c in b_val:
        out_dtypes[c + suffixes[1] if c in overlap else c] = \
            _NULLABLE_DTYPES.get(b_types.get(c, ""))

    def _enforce(df: pd.DataFrame) -> pd.DataFrame:
        for col, dt in out_dtypes.items():
            if dt is not None and col in df.columns \
                    and not isinstance(df[col].dtype, type(dt)):
                df[col] = df[col].astype(dt)
        return _denullify(df)

    a_tagged = ds_a.map_batches(
        lambda t: _tag_arrow(t, keys, num_partitions, "a"),
        batch_format="pyarrow")
    b_tagged = ds_b.map_batches(
        lambda t: _tag_arrow(t, keys, num_partitions, "b"),
        batch_format="pyarrow")

    both = a_tagged.union(b_tagged)

    def join_part(t) -> pd.DataFrame:
        g = _group_to_pandas(t)
        left = g[g["_side"] == "a"].reindex(columns=left_cols)
        right = g[g["_side"] == "b"].reindex(columns=right_cols)
        if left.empty or right.empty:
            if how == "inner" or (how == "left" and left.empty):
                # _enforce even the zero-row frame: bare object-dtype
                # columns become null/object-typed Arrow blocks and rely
                # on permissive promotion at unify time
                return _enforce(pd.DataFrame(columns=out_cols))
            merged = left if how == "left" else right
            merged = merged.rename(
                columns={c: c + (suffixes[0] if how == "left" else suffixes[1])
                         for c in overlap})
            return _enforce(merged.reindex(columns=out_cols))
        return _enforce(
            left.merge(right, on=keys, how=how, suffixes=suffixes)
            .reindex(columns=out_cols))

    return both.groupby("_part").map_groups(join_part, batch_format="pyarrow")


def broadcast_semi_join(ds, key_values, key, anti: bool = False):
    """Semi (or anti) join against a broadcast key set: the keys go to the
    object store once (`ray.put`), every batch filters with a vectorized
    ``isin`` — no shuffle at all.  The small side must fit in memory; at
    larger small-sides swap the set for a Bloom filter with the same
    plumbing."""
    import ray

    keys_ref = ray.put(sorted(set(key_values)))

    def filt(batch: pa.Table) -> pa.Table:
        # Arrow-native: zero-copy block in, one vectorized pc.is_in, and
        # the value set deserializes from the object store per batch
        # (dedup.shingle_side_batch broadcasts a ready Arrow array instead)
        import pyarrow.compute as pc

        # explicit type: an empty key set would otherwise infer the null
        # type, which is_in rejects against a typed key column
        mask = pc.is_in(batch[key], value_set=pa.array(
            ray.get(keys_ref), type=batch[key].type))
        if anti:
            mask = pc.invert(pc.fill_null(mask, False))
        return batch.filter(mask)

    return ds.map_batches(filt, batch_format="pyarrow")


_BLOOM_KEYS = (3141592653589793, 2718281828459045)


def _bloom_positions(series: pd.Series, num_bits: int, num_hashes: int):
    """k bit positions per key via double hashing (two independent pandas
    hashes, h1 + i*h2) — deterministic across processes."""
    s = series.astype(str)
    h1 = pd.util.hash_pandas_object(s, index=False,
                                    hash_key=str(_BLOOM_KEYS[0])).to_numpy()
    h2 = (pd.util.hash_pandas_object(s, index=False,
                                     hash_key=str(_BLOOM_KEYS[1])).to_numpy()
          | np.uint64(1))
    i = np.arange(num_hashes, dtype=np.uint64)[:, None]
    return ((h1[None, :] + i * h2[None, :]) % np.uint64(num_bits))


def build_bloom_filter(keys_ds, key: str, num_bits: int = 1 << 23,
                       num_hashes: int = 4):
    """Distributed Bloom build: each block of the key Dataset sets its bits
    locally, partial filters OR-combine in a task tree — the driver never
    sees the keys, only (num_bits/8)-byte filters.  -> ObjectRef to the
    packed uint8 bit array (pass to :func:`bloom_semi_join`)."""
    import ray

    @ray.remote
    def block_bloom(df: pd.DataFrame):
        bits = np.zeros(num_bits // 8, dtype=np.uint8)
        pos = _bloom_positions(df[key], num_bits, num_hashes).ravel()
        np.bitwise_or.at(bits, (pos // 8).astype(np.int64),
                         np.left_shift(np.uint8(1), (pos % 8).astype(np.uint8)))
        return bits

    @ray.remote
    def or_pair(a, b):
        return np.bitwise_or(a, b)

    parts = [block_bloom.remote(b) for b in keys_ds.to_pandas_refs()]
    while len(parts) > 1:
        parts = ([or_pair.remote(parts[i], parts[i + 1])
                  for i in range(0, len(parts) - 1, 2)]
                 + ([parts[-1]] if len(parts) % 2 else []))
    return parts[0]


def bloom_semi_join(ds, keys_ds, key: str, num_bits: int = 1 << 23,
                    num_hashes: int = 4, exact: bool = True,
                    num_partitions: int = 16):
    """Semi join against a LARGE key side: a distributed-built Bloom filter
    prefilters every batch with zero shuffle (no false negatives — rows
    the filter drops are definitely non-members), then, with ``exact=True``,
    only the small surviving fraction pays a partitioned verification join
    to remove the filter's false positives.  This is the scale path when
    the key side no longer fits one ``ray.put`` set for
    :func:`broadcast_semi_join`."""
    import ray

    bloom_ref = build_bloom_filter(keys_ds, key, num_bits=num_bits,
                                   num_hashes=num_hashes)

    def prefilter(df: pd.DataFrame) -> pd.DataFrame:
        bits = ray.get(bloom_ref)
        pos = _bloom_positions(df[key], num_bits, num_hashes)
        hit = (bits[(pos // 8).astype(np.int64)]
               >> (pos % 8).astype(np.uint8)) & 1
        return df[hit.all(axis=0).astype(bool)]

    survivors = ds.map_batches(prefilter, batch_format="pandas")
    if not exact:
        return survivors

    # exact verification: shuffle only survivors + keys on a coarse hash
    left_cols = list(ds.schema().names)
    left_tagged = survivors.map_batches(
        lambda t: _tag_arrow(t, [key], num_partitions, "a"),
        batch_format="pyarrow")
    keys_only = keys_ds.map_batches(
        lambda t: _tag_arrow(t.select([key]), [key],
                             num_partitions, "b"),
        batch_format="pyarrow")
    both = left_tagged.union(keys_only)

    def verify_part(t) -> pd.DataFrame:
        g = _group_to_pandas(t)
        left = g[g["_side"] == "a"].reindex(columns=left_cols)
        right_keys = g.loc[g["_side"] == "b", key]
        return _denullify(left[left[key].isin(set(right_keys.dropna()))])

    return both.groupby("_part").map_groups(verify_part,
                                            batch_format="pyarrow")


def asof_join(ds_left, ds_right, key, on, right_cols,
              num_partitions: int = 16, left_cols=None,
              allow_exact_matches: bool = True):
    """As-of join: for each left row, the latest right row with the same
    ``key`` and ``on``-value <= the left's (< with
    ``allow_exact_matches=False`` — e.g. a self-join for "previous event"
    must not match the row itself).  Same coarse hash-partition shuffle as
    :func:`hash_join`; within each part both sides sort by ``on`` and a
    vectorized ``pd.merge_asof`` does the matching.

    Both sides' column lists are explicit (``right_cols`` required,
    ``left_cols`` defaulting to the left schema) so a part never infers
    sides via ``dropna`` — an all-null-in-part left column must survive,
    and a part with no right rows still yields the full (null-filled)
    schema."""
    if left_cols is None:
        left_cols = [c for c in ds_left.schema().names
                     if c not in right_cols]
    left_tagged = ds_left.map_batches(
        lambda t: _tag_arrow(t, [key], num_partitions, "a"),
        batch_format="pyarrow")
    right_tagged = ds_right.map_batches(
        lambda t: _tag_arrow(t, [key], num_partitions, "b"),
        batch_format="pyarrow")
    both = left_tagged.union(right_tagged)
    out_cols = list(left_cols) + [c for c in right_cols
                                  if c not in left_cols]
    # driver-captured right-side dtypes: a part with no right rows must
    # emit typed NA (not float64 NaN) or its block poisons the whole
    # result's type unify — see the same guard in hash_join
    r_types = dict(zip(ds_right.schema().names,
                       map(str, ds_right.schema().types)))
    out_dtypes = {c: _NULLABLE_DTYPES.get(r_types.get(c, ""))
                  for c in right_cols}

    def _enforce(df: pd.DataFrame) -> pd.DataFrame:
        for col, dt in out_dtypes.items():
            if dt is not None and col in df.columns \
                    and not isinstance(df[col].dtype, type(dt)):
                df[col] = df[col].astype(dt)
        return _denullify(df)

    def join_part(t) -> pd.DataFrame:
        g = _group_to_pandas(t)
        left = g[g["_side"] == "a"].reindex(columns=left_cols)
        # reindex: a part whose blocks are all left-side may lack the right
        # columns entirely (union of heterogeneous schemas)
        right = (g[g["_side"] == "b"]
                 .reindex(columns=[key, on] + list(right_cols)))
        if left.empty:
            return pd.DataFrame(columns=out_cols)
        # merge_asof rejects nullable-int `on`; within its own side the
        # column has no nulls, so the exact numpy cast is safe
        for side_df in (left, right):
            if isinstance(side_df[on].dtype, pd.api.extensions.ExtensionDtype):
                side_df[on] = side_df[on].astype(
                    side_df[on].dtype.numpy_dtype)
        left = left.sort_values(on)
        if right.empty:
            out = left.copy()
            for c in right_cols:
                out[c] = np.nan
            return _enforce(out.reindex(columns=out_cols))
        right = right.sort_values(on)
        return _enforce(
            pd.merge_asof(left, right, on=on, by=key,
                          direction="backward",
                          allow_exact_matches=allow_exact_matches)
            .reindex(columns=out_cols))

    return both.groupby("_part").map_groups(join_part, batch_format="pyarrow")
