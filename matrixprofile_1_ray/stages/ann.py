"""Similarity search over the embeddings table.

Baseline: brute-force cosine top-k — the query matrix is normalized and
broadcast once (``ray.put`` on the driver, its ref passed to a module-level
batch function through ``fn_kwargs`` and fetched per batch), each batch is
one BLAS matmul, per-batch top-k candidates flow into a tiny
``groupby(query_id)`` refine.  The shuffle carries k rows per query per
batch, never the embeddings.

Scale path: IVF as a PERSISTED PARTITIONED INDEX — a one-time build stage
fits centroids on a sample (k-means, a few Lloyd iterations), assigns every
vector in one ``map_batches`` pass, and writes the corpus hive-partitioned
by centroid id (``write_parquet(partition_cols=["centroid"])``).  A query
then probes the closest ``nprobe`` centroids and reads ONLY those partition
directories (``partition_filter`` prunes at file discovery, before any
bytes move) — scan cost is proportional to nprobe/n_centroids of the
corpus, not corpus size.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenize import list_column_to_numpy


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _emb_matrix(batch: pa.Table) -> np.ndarray:
    if len(batch) == 0:
        # reshape(0, -1) raises on empty input; callers early-return before
        # touching the matrix, this is just a typed placeholder
        return np.empty((0, 0))
    emb, _ = list_column_to_numpy(batch["embedding"])
    return emb.astype("d").reshape(len(batch), -1)


_EMPTY_CANDIDATES = pa.table({
    "query_id": pa.array([], pa.int64()),
    "vec_id": pa.array([], pa.int64()),
    "score": pa.array([], pa.float64()),
})


def _strip_block_metadata(batch: pa.Table) -> pa.Table:
    return batch.replace_schema_metadata(None)


def strip_schema_metadata(ds):
    """Drop parquet-origin schema metadata (pandas index blobs etc.) from
    every block.  Such metadata makes ``pa.Schema`` unhashable, which
    defeats Ray's block-schema dedup and logs a warning per downstream
    batch concat.  ``batch_size=None`` maps whole blocks, so this fuses
    with the read and never itself concatenates mixed-schema blocks."""
    return ds.map_batches(_strip_block_metadata, batch_format="pyarrow",
                          batch_size=None)


def topk_candidates_batch(batch: pa.Table, queries_ref,
                          k: int = 10) -> pa.Table:
    """Per-batch top-k candidates of every query against the batch's
    embeddings; ``queries_ref`` holds the normalized query matrix."""
    import ray

    if len(batch) == 0:
        return _EMPTY_CANDIDATES
    queries = ray.get(queries_ref)
    mat = _normalize(_emb_matrix(batch))
    sims = queries @ mat.T                               # [n_q, n_batch]
    k = min(k, sims.shape[1])
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    n_q = sims.shape[0]
    qid = np.repeat(np.arange(n_q), k)
    cand = top.reshape(-1)
    vec_ids = batch["vec_id"].to_numpy()
    return pa.table({
        "query_id": pa.array(qid, pa.int64()),
        "vec_id": pa.array(vec_ids[cand], pa.int64()),
        "score": pa.array(sims[qid, cand], pa.float64()),
    })


def _refine_topk(candidates, k: int, num_partitions: int = 32):
    """Global top-k per query from per-batch candidates: queries shuffle
    inside COARSE hash partitions and each part refines ALL its queries in
    one vectorized pandas pass (sort + groupby.head + cumcount) — a
    per-query ``map_groups`` would pay Python dispatch per query id, which
    dominates at thousands of queries."""

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_part"] = (df["query_id"] % num_partitions).astype(np.int64)
        return df

    def refine_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["query_id", "score", "vec_id"],
                          ascending=[True, False, True])
        g = g.groupby("query_id", sort=False).head(k).reset_index(drop=True)
        g["rank"] = g.groupby("query_id", sort=False).cumcount()
        return g.drop(columns=["_part"])

    return (candidates.map_batches(add_part, batch_format="pandas")
            .groupby("_part").map_groups(refine_part, batch_format="pandas"))


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     batch_size: int = 4096):
    """-> (query_id, vec_id, score, rank) global top-k per query."""
    import ray

    queries_ref = ray.put(_normalize(np.asarray(queries, dtype="d")))

    candidates = strip_schema_metadata(ds).map_batches(
        topk_candidates_batch,
        fn_kwargs={"queries_ref": queries_ref, "k": k},
        batch_format="pyarrow", batch_size=batch_size)

    return _refine_topk(candidates, k)


def ivf_index_ident(path: str, n_centroids: int = 16, seed: int = 13,
                    sample_size: int = 2048) -> tuple:
    """(input_fingerprint, short tag) for a persisted IVF index over the
    Parquet file at ``path``.  The BUILD PARAMS are part of the identity:
    two callers sharing a /tmp dir but building with different
    n_centroids/seed would otherwise silently reuse each other's index
    (the staleness check compares only this fingerprint).  So is a digest
    of the build code (:func:`_build_source_digest`): an index written by
    an older fit/assign/persist path is rebuilt, not reused."""
    import hashlib
    import os as _os

    st = _os.stat(path)
    ident = (f"{path}:{st.st_size}:{st.st_mtime_ns}"
             f":c{n_centroids}:s{seed}:n{sample_size}"
             f":b{_build_source_digest()}")
    return ident, hashlib.sha1(ident.encode()).hexdigest()[:10]


def _build_source_digest() -> str:
    """Short sha1 of the source of every function that decides what an IVF
    index holds: the centroid fit and seeds, the assign pass and the
    persist."""
    import hashlib
    import inspect

    src = "".join(inspect.getsource(f) for f in (
        _normalize, _emb_matrix, fit_centroids, seed_centroids_by_vec_id,
        assign_centroid_batch, build_ivf_index))
    return hashlib.sha1(src.encode()).hexdigest()[:12]


def fit_centroids(sample: np.ndarray, n_centroids: int = 16,
                  iters: int = 10, seed: int = 13) -> np.ndarray:
    """Driver-side mini k-means on a corpus sample (spherical)."""
    rng = np.random.default_rng(seed)
    sample = _normalize(np.asarray(sample, dtype="d"))
    # degrade on tiny corpora instead of crashing rng.choice
    n_centroids = min(n_centroids, len(sample))
    cent = sample[rng.choice(len(sample), size=n_centroids, replace=False)]
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(n_centroids):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def seed_centroids_by_vec_id(path: str, n_centroids: int = 8) -> np.ndarray:
    """Deterministic, SQL-replayable centroid seeds: the (normalized)
    embeddings of the ``n_centroids`` smallest vec_ids, in vec_id order.
    Used by the build-path gate oracle — a DuckDB query can reproduce this
    seed set exactly (ORDER BY vec_id LIMIT n), which the rng-seeded
    k-means fit cannot be, so assignment == argmax-cosine becomes
    SQL-checkable end to end through the real assign/persist path."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    ids = pq.read_table(path, columns=["vec_id"])["vec_id"].to_numpy()
    pos = np.sort(np.argsort(ids, kind="stable")[:n_centroids])
    tab = pads.dataset(path).take(pa.array(pos, pa.int64()),
                                  columns=["vec_id", "embedding"])
    order = np.argsort(tab["vec_id"].to_numpy(), kind="stable")
    tab = tab.take(pa.array(order, pa.int64()))
    return _normalize(_emb_matrix(tab))


def assign_centroid_batch(batch: pa.Table, centroids_ref) -> pa.Table:
    """The batch plus its rows' nearest-centroid id (``centroid`` int64);
    ``centroids_ref`` holds the normalized centroid matrix."""
    import ray

    # Strip source schema metadata (e.g. parquet pandas metadata): it
    # makes pa.Schema unhashable, which defeats Ray's block-schema dedup
    # and logs a warning per batch downstream.
    batch = batch.replace_schema_metadata(None)
    if len(batch) == 0:
        return batch.append_column("centroid", pa.array([], pa.int64()))
    mat = _normalize(_emb_matrix(batch))
    assign = np.argmax(mat @ ray.get(centroids_ref).T, axis=1)
    return batch.append_column("centroid",
                               pa.array(assign.astype(np.int64)))


def build_ivf_index(ds, index_dir: str, n_centroids: int = 16,
                    sample_size: int = 2048, seed: int = 13,
                    input_fingerprint: str = "",
                    centroids: np.ndarray | None = None) -> np.ndarray:
    """One-time IVF build: fit centroids on a sample, assign every vector to
    its centroid in one streaming ``map_batches`` pass, and persist the
    corpus hive-partitioned by centroid id.  The tiny centroid matrix lands
    at ``<index_dir>/_centroids.parquet``.  Returns the centroids.

    At 100 TB this is the only full-corpus pass ANN ever makes; every query
    afterwards touches ``nprobe/n_centroids`` of the bytes."""
    import ray

    from ..io.fsutil import guarded_clean_dir

    if centroids is None:
        # sample BEFORE clearing any prior index: an empty corpus must
        # fail here with a clear error, not after the old index is gone
        sample_rows = ds.limit(sample_size).take_all()
        if not sample_rows:
            raise ValueError("cannot build an IVF index over an empty "
                             "embeddings dataset")
        sample = np.stack([np.asarray(r["embedding"], dtype="d")
                           for r in sample_rows])
        centroids = fit_centroids(sample, n_centroids=n_centroids, seed=seed)
    else:
        # caller-supplied centroids (e.g. the SQL-replayable gate seeds)
        # still flow through the identical assign/persist path below
        centroids = _normalize(np.asarray(centroids, dtype="d"))

    # a partial dir from a crashed build would get appended to — rebuild
    # from clean (the centroids file is written LAST, so its presence is
    # the build-complete marker ivf_topk keys on).  Refuse to clobber a
    # directory that is not recognizably an index (marker or hive
    # centroid=* layout): --index-dir pointed at the wrong place must
    # raise, not silently delete an unrelated tree.  Runs AFTER the
    # centroid fit so a failed fit never destroys the previous index.
    guarded_clean_dir(
        index_dir,
        lambda names: ("_centroids.parquet" in names
                       or any(n.startswith("centroid=") for n in names)),
        "an IVF index (no _centroids.parquet marker, no centroid=* "
        "partitions)")

    # no strip_schema_metadata(ds) wrapper here: assign_centroid_batch
    # already strips per batch, so the extra pass would be dead weight
    (ds
     .map_batches(assign_centroid_batch,
                  fn_kwargs={"centroids_ref": ray.put(centroids)},
                  batch_format="pyarrow", batch_size=4096)
     .write_parquet(index_dir, partition_cols=["centroid"]))

    import pyarrow.parquet as pq
    meta_table = pa.table({
        "centroid": pa.array(np.arange(len(centroids)), pa.int64()),
        "vector": pa.array(list(centroids), pa.list_(pa.float64())),
    })
    meta_table = meta_table.replace_schema_metadata(
        {b"input_fingerprint": input_fingerprint.encode()})
    pq.write_table(meta_table, os.path.join(index_dir, "_centroids.parquet"))
    return centroids


def ivf_index_fingerprint(index_dir: str) -> str:
    """The input fingerprint recorded at build time ('' if none)."""
    import pyarrow.parquet as pq

    meta = pq.read_schema(
        os.path.join(index_dir, "_centroids.parquet")).metadata or {}
    return meta.get(b"input_fingerprint", b"").decode()


def load_ivf_centroids(index_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(index_dir, "_centroids.parquet"))
    order = np.argsort(t["centroid"].to_numpy())
    return np.stack([np.asarray(v, dtype="d")
                     for v in t["vector"].to_pylist()])[order]


def probe_scan_batch(batch: pa.Table, probe_ref, k: int = 10) -> pa.Table:
    """Per-batch top-k candidates of the queries probing each row's
    centroid list.  Rows arrive pre-partitioned, so the batch's centroid
    column (hive key, no recompute) routes them.  ``probe_ref`` holds
    ``(queries, groups)``: the normalized query matrix and, per distinct
    probe-set, ``(centroid ids, query indices)``.  Each group pays one row
    mask and one [n_masked, n_group] BLAS matmul per batch — at 10^5
    queries a per-query loop would dominate."""
    import ray

    if len(batch) == 0:
        return _EMPTY_CANDIDATES
    queries, groups = ray.get(probe_ref)
    mat = _normalize(_emb_matrix(batch))
    assign = batch["centroid"].to_numpy(zero_copy_only=False).astype(np.int64)
    vec_ids = batch["vec_id"].to_numpy()
    out_q, out_v, out_s = [], [], []
    for probe_arr, qidx in groups:
        mask = np.isin(assign, probe_arr)
        nm = int(np.count_nonzero(mask))
        if nm == 0:
            continue
        sims = mat[mask] @ queries[qidx].T                # [nm, g]
        kk = min(k, nm)
        top = np.argpartition(-sims, kk - 1, axis=0)[:kk]  # [kk, g]
        rows = top.T.reshape(-1)                          # per-query blocks
        cols = np.repeat(np.arange(len(qidx)), kk)
        out_q.append(np.repeat(qidx, kk))
        out_v.append(vec_ids[mask][rows])
        out_s.append(sims[rows, cols])
    if not out_q:
        return _EMPTY_CANDIDATES
    return pa.table({
        "query_id": pa.array(np.concatenate(out_q), pa.int64()),
        "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
        "score": pa.array(np.concatenate(out_s), pa.float64()),
    })


def ivf_search(index_dir: str, queries: np.ndarray, k: int = 10,
               nprobe: int = 4):
    """Query a built IVF index: read ONLY the nprobe-probed centroid
    partitions (``partition_filter`` prunes files before any read), exact
    cosine rerank inside them.  -> (query_id, vec_id, score, rank)."""
    from ray.data.datasource.partitioning import PathPartitionFilter

    import ray
    import ray.data

    centroids = load_ivf_centroids(index_dir)
    queries = _normalize(np.asarray(queries, dtype="d"))
    nprobe = min(nprobe, len(centroids))
    probes = np.argsort(-(queries @ centroids.T), axis=1)[:, :nprobe]
    probe_union = {str(c) for c in probes.ravel()}
    # queries grouped by identical probe-set: the per-batch loop runs over
    # the handful of distinct probe-sets, not over the queries
    by_set: dict = {}
    for qi, probe in enumerate(probes):
        by_set.setdefault(frozenset(probe), []).append(qi)
    groups = [(np.fromiter(fs, dtype=np.int64),
               np.asarray(qis, dtype=np.int64))
              for fs, qis in by_set.items()]

    pf = PathPartitionFilter.of(
        lambda kv: kv.get("centroid") in probe_union, style="hive")
    ds = ray.data.read_parquet(index_dir, partition_filter=pf,
                               file_extensions=["parquet"])

    candidates = ds.map_batches(
        probe_scan_batch,
        fn_kwargs={"probe_ref": ray.put((queries, groups)), "k": k},
        batch_format="pyarrow", batch_size=4096)

    return _refine_topk(candidates, k)


def ivf_topk(ds, queries: np.ndarray, k: int = 10, n_centroids: int = 16,
             nprobe: int = 4, sample_size: int = 2048, seed: int = 13,
             index_dir: str | None = None,
             input_fingerprint: str | None = None):
    """Build-then-query convenience: persist the IVF index (one corpus
    pass) and answer ``queries`` from the probed partitions only.  Pass
    ``index_dir`` to reuse/persist the index across calls and
    ``input_fingerprint`` (any string identifying the corpus version,
    e.g. path+size+mtime) so a cached index built from a DIFFERENT corpus
    is rebuilt instead of silently answering from stale data."""
    import tempfile

    if index_dir is None:
        index_dir = tempfile.mkdtemp(prefix="ivf_index_")
    marker = os.path.join(index_dir, "_centroids.parquet")

    def _needs_build() -> bool:
        if not os.path.exists(marker):
            return True
        return (input_fingerprint is not None
                and ivf_index_fingerprint(index_dir) != input_fingerprint)

    if _needs_build():
        # cross-process build mutex: two concurrent callers sharing the
        # dir would otherwise both clean+rebuild, one deleting partitions
        # while the other scans them.  (A reader that validated BEFORE a
        # rebuild started can still race it — acceptable for a cache dir;
        # use per-corpus-version dirs for full isolation.)
        _locked_build(index_dir, _needs_build,
                      lambda: build_ivf_index(
                          ds, index_dir, n_centroids=n_centroids,
                          sample_size=sample_size, seed=seed,
                          input_fingerprint=input_fingerprint or ""))
    return ivf_search(index_dir, queries, k=k, nprobe=nprobe)


def _locked_build(index_dir: str, needs_build, build_fn,
                  timeout_s: float = 600.0):
    """Run ``build_fn`` under an exclusive ``flock`` on a persistent lock
    file next to the index; re-checks ``needs_build()`` after acquiring
    (the previous holder may have already built it).

    ``flock`` is released by the kernel when the holder dies, so there is
    no stale-lock state and therefore no steal path — the earlier
    mtime-check-then-steal scheme was a TOCTOU no matter how the steal
    itself was made atomic (two waiters observing the same stale lock
    could retire each other's FRESH locks).  The lock file itself is
    never unlinked (unlinking would let a late waiter lock a dead inode
    while a new waiter locks the fresh one).  Advisory-lock caveat: on
    network filesystems without flock semantics this degrades to
    best-effort, same as any local lock would."""
    import fcntl
    import time as _time

    lock = index_dir.rstrip("/") + ".build_lock"
    parent = os.path.dirname(lock)
    if parent:
        os.makedirs(parent, exist_ok=True)
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY, 0o644)
    t0 = _time.time()
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except (BlockingIOError, InterruptedError):
                if _time.time() - t0 > timeout_s:
                    raise TimeoutError(
                        f"IVF build lock held too long: {lock}")
                _time.sleep(0.2)
        if needs_build():
            build_fn()
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass
        os.close(fd)
