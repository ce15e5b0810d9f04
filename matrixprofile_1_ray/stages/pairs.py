"""Pair operators: distributed MPDist pairs table, all-pairs condensed
matrix, hierarchical clustering.

Scale design (vs the reference's corpus-in-memory pairwise_dist.py:36-101):
each series is its own object-store entry (``ray.put`` per doc, once), so a
batch of pairs fetches only the series its pairs name — no whole-corpus
broadcast; the i<j pair table is GENERATED INSIDE tasks from the id list
(never enumerated on the driver), or supplied as a Dataset (e.g. LSH
candidates from stages/dedup.py) when all-pairs is too many."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.tokenize import (
    list_column_from_parts,
    list_column_to_numpy,
)
from ..kernels.hierarchical import hierarchical_clusters
from ..kernels.mpdist import mpdist


def _series_refs(sequences: pa.Table) -> dict:
    """One object-store entry PER SERIES (not one corpus dict): a batch of
    pairs fetches only its operands, and the object store spills what no
    task currently needs."""
    import ray

    values, offsets = list_column_to_numpy(sequences["tokens"])
    ids = sequences["doc_id"].to_pylist()
    return {d: ray.put(np.ascontiguousarray(
        values[offsets[i] : offsets[i + 1]], dtype="d"))
        for i, d in enumerate(ids)}


def all_pairs_dataset(ids, rows_per_task: int = 128):
    """(doc_a, doc_b) for all i<j as a Dataset whose rows are GENERATED
    inside tasks — the driver ships only the id list (M strings), never the
    O(M^2) pair list."""
    import ray
    import ray.data

    ids_arr = np.asarray(list(ids))
    n = len(ids_arr)
    ids_ref = ray.put(ids_arr)
    starts = pa.table({"start": pa.array(
        list(range(0, max(n - 1, 0), rows_per_task)), pa.int64())})

    def gen(batch: pa.Table) -> pa.Table:
        ids_l = ray.get(ids_ref)
        out_a, out_b = [], []
        for s in batch["start"].to_pylist():
            for i in range(s, min(s + rows_per_task, n - 1)):
                out_a.append(np.full(n - i - 1, i, dtype=np.int64))
                out_b.append(np.arange(i + 1, n, dtype=np.int64))
        if not out_a:
            return pa.table({"doc_a": pa.array([], pa.string()),
                             "doc_b": pa.array([], pa.string())})
        return pa.table({
            "doc_a": pa.array(ids_l[np.concatenate(out_a)]),
            "doc_b": pa.array(ids_l[np.concatenate(out_b)]),
        })

    return ray.data.from_arrow(starts).map_batches(
        gen, batch_format="pyarrow", batch_size=1)


def mpdist_pairs(sequences: pa.Table, w: int, threshold: float = 0.05,
                 pairs=None, batch_size: int = 64):
    """-> Dataset (doc_a, doc_b, mpdist).  ``pairs`` may be a Dataset of
    candidate pairs (the 100 TB path: LSH candidates, not all-pairs), an
    explicit small list, or None for task-generated all i<j pairs."""
    import ray
    import ray.data

    refs_ref = ray.put(_series_refs(sequences))

    if pairs is None:
        pairs_ds = all_pairs_dataset(sequences["doc_id"].to_pylist())
    elif hasattr(pairs, "map_batches"):
        pairs_ds = pairs
    else:
        pairs_ds = ray.data.from_arrow(pa.table({
            "doc_a": pa.array([p[0] for p in pairs], pa.string()),
            "doc_b": pa.array([p[1] for p in pairs], pa.string()),
        }))

    return pairs_ds.map_batches(
        pair_dist_batch,
        fn_kwargs={"refs_ref": refs_ref, "w": w, "threshold": threshold},
        batch_format="pyarrow", batch_size=batch_size)


def pair_dist_batch(batch: pa.Table, refs_ref, w: int,
                    threshold: float = 0.05) -> pa.Table:
    """The batch of (doc_a, doc_b) pairs plus their ``mpdist``.
    ``refs_ref`` holds the doc_id -> series-ref dict; the batch's distinct
    operands come in one ``ray.get`` (each doc appears in many pairs).  A
    series shorter than ``w`` has no window to match, so its pairs get
    ``inf`` — the "no edge" value :func:`condensed_from_pairs` fills."""
    import ray

    docs_a = batch["doc_a"].to_pylist()
    docs_b = batch["doc_b"].to_pylist()
    refs = ray.get(refs_ref)
    ids = list(dict.fromkeys(docs_a + docs_b))
    series = dict(zip(ids, ray.get([refs[d] for d in ids])))
    dists = [mpdist(series[a], series[b], w, threshold=threshold)
             if min(len(series[a]), len(series[b])) >= w else np.inf
             for a, b in zip(docs_a, docs_b)]
    return batch.append_column("mpdist", pa.array(dists, pa.float64()))


def condensed_from_pairs(pairs_df, ids, value_col: str = "mpdist",
                         fill: float = np.inf) -> np.ndarray:
    """Condensed distance matrix (scipy ``pdist`` layout over ``ids``
    order) filled from a (doc_a, doc_b, value) pair frame — vectorized
    column arithmetic, no per-row Python.  Slots without a pair row keep
    ``fill`` (inf = "no edge": single linkage at a finite cut then never
    merges them, matching a no-edge graph-components oracle)."""
    index = {d: i for i, d in enumerate(ids)}
    m = len(ids)
    dm = np.full((m * (m - 1)) // 2, fill, dtype="d")
    if m < 2 or len(pairs_df) == 0:
        return dm
    i = pairs_df["doc_a"].map(index).to_numpy(dtype=np.int64)
    j = pairs_df["doc_b"].map(index).to_numpy(dtype=np.int64)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    dm[m * lo + hi - ((lo + 2) * (lo + 1)) // 2] = \
        pairs_df[value_col].to_numpy(dtype="d")
    return dm


def pairwise_dist_distributed(sequences: pa.Table, w: int,
                              threshold: float = 0.05) -> np.ndarray:
    """Condensed distance matrix via the distributed pairs table — same
    layout as kernels.mpdist.pairwise_dist."""
    ids = sequences["doc_id"].to_pylist()
    if len(ids) < 2:
        # no pairs: the empty Dataset's to_pandas is column-less (Ray
        # 2.49), so indexing doc_a downstream would KeyError
        return np.empty(0, dtype="d")
    out = mpdist_pairs(sequences, w, threshold=threshold).to_pandas()
    return condensed_from_pairs(out, ids)


def hierarchical_clusters_distributed(sequences: pa.Table, w: int, t,
                                      threshold: float = 0.05, **kwargs):
    """Distributed pairwise MPDist + driver-side linkage finish
    (the condensed matrix is tiny relative to the corpus)."""
    dm = pairwise_dist_distributed(sequences, w, threshold=threshold)
    return hierarchical_clusters(None, w, t, threshold=threshold,
                                 precomputed_distances=dm, **kwargs)


def ab_join_stage(ds, query: np.ndarray, w: int):
    """Similarity join of every row against one broadcast query series
    (reference cympx.pyx:122-284 semantics per row)."""
    import ray

    return ds.map_batches(
        ab_join_batch,
        fn_kwargs={"query_ref": ray.put(np.asarray(query, dtype="d")),
                   "w": w},
        batch_format="pyarrow")


def ab_join_batch(batch: pa.Table, query_ref, w: int) -> pa.Table:
    """(doc_id, w, mp, pi) AB-join profile of each row against the query
    series in ``query_ref``; rows (or a query) shorter than ``w`` are
    dropped."""
    import ray

    from ..kernels.mpx import mpx_ab

    values, offsets = list_column_to_numpy(batch["tokens"])
    query = ray.get(query_ref)
    out_mp, out_pi, keep = [], [], []
    for i in range(len(batch)):
        ts = values[offsets[i] : offsets[i + 1]].astype("d")
        if ts.shape[0] < w or query.shape[0] < w:
            continue
        mp, mpi, _mpb, _mpib = mpx_ab(ts, query, w)
        out_mp.append(mp)
        out_pi.append(mpi)
        keep.append(i)
    take = pa.array(np.array(keep, dtype=np.int64), pa.int64())
    return pa.table({
        "doc_id": batch["doc_id"].take(take),
        "w": pa.array(np.full(len(keep), w, np.int32)),
        "mp": list_column_from_parts(out_mp, pa.float64()),
        "pi": list_column_from_parts(out_pi, pa.int64()),
    })


# canonical definition lives with the rest of the cross-engine slice
# contract; alias kept for existing importers
from .slice_rule import doc_window_stats as _doc_window_stats  # noqa: E402
from .slice_rule import iter_slice_docs, rows_table  # noqa: E402


def pick_oracle_query_doc(sf_dir: str, w: int = 16, min_n: int = 96,
                          max_n: int = 256, sig2_floor: float = 1e-3):
    """The deterministic query-doc rule shared with the DuckDB oracles:
    smallest doc_id (VARCHAR order) whose length is in [min_n, max_n] and
    whose every w-window has sig^2 >= sig2_floor.  -> (doc_id, tokens).

    Texts stream in lexicographic chunks (:func:`iter_docs_lex`) — only
    the scanned prefix of the corpus ever reaches the driver."""
    from ..sources.sequences import iter_docs_lex

    for tab in iter_docs_lex(sf_dir, ("doc_id", "text")):
        texts = tab["text"].to_pylist()
        for i, text in enumerate(texts):
            if not (min_n <= len(text) <= max_n):
                continue
            ts = np.array([ord(c) for c in text], dtype="d")
            _, sig2 = _doc_window_stats(ts, w)
            if sig2.min() >= sig2_floor:
                return str(tab["doc_id"][i].as_py()), ts
    raise ValueError("no document satisfies the oracle query-doc rule")


def pick_small_slice_docs(sf_dir: str, w: int = 16, lo: int = 32,
                          hi: int = 256, sig2_floor: float = 1e-3,
                          limit: int = 8) -> pa.Table:
    """The first ``limit`` docs (lexicographic doc_id order) of the
    bounded oracle slice (length in [lo, hi], no near-constant window) as
    a tokenized sequences table — the fixture rule shared with the DuckDB
    mpdist oracle.  Streams lexicographic chunks; stops at ``limit``."""
    from ..sources.sequences import iter_docs_lex, tokenize_documents_batch

    kept = []
    n_kept = 0
    for tab in iter_docs_lex(sf_dir, ("doc_id", "text", "source")):
        texts = tab["text"].to_pylist()
        for i, text in enumerate(texts):
            if not (lo <= len(text) <= hi):
                continue
            ts = np.array([ord(c) for c in text], dtype="d")
            _, sig2 = _doc_window_stats(ts, w)
            if sig2.min() < sig2_floor:
                continue
            kept.append(tab.slice(i, 1))
            n_kept += 1
            if n_kept == limit:
                break
        if n_kept == limit:
            break
    if not kept:
        return tokenize_documents_batch(
            pa.table({"doc_id": pa.array([], pa.string()),
                      "text": pa.array([], pa.string()),
                      "source": pa.array([], pa.string())}))
    return tokenize_documents_batch(pa.concat_tables(kept))


def mpdist_vector_small_batch(batch: pa.Table, w: int = 16,
                              sub_len: int = 64, lo: int = 160,
                              hi: int = 256, round_dp: int = 4,
                              sig2_floor: float = 1e-3) -> pa.Table:
    """Bounded-slice sliding-MPDist rows (doc_id, offset, mpdist) through
    the real ``mpdist_vector`` kernel (query = each doc's own first
    ``sub_len`` tokens) — oracle-able: the DuckDB side rebuilds the MASS
    distance matrix from diagonal windowed sums, the per-offset pooled
    profile (moving minima + right histogram slice), and the reference's
    UNdecremented order statistic ceil(0.05*2*sub_len)."""
    from ..kernels.mpdist import mpdist_vector

    parts = []
    for doc, ts, _mu, _sig2 in iter_slice_docs(batch, w, min_n=lo, max_n=hi,
                                               sig2_floor=sig2_floor):
        vec = np.round(mpdist_vector(ts, ts[:sub_len], w), round_dp)
        parts.append((np.repeat(doc, vec.shape[0]),
                      np.arange(vec.shape[0], dtype=np.int64), vec))
    return rows_table([("doc_id", pa.string()), ("offset", pa.int64()),
                       ("mpdist", pa.float64())], parts)


def mass_topk_rows_batch(batch: pa.Table, query: np.ndarray, k: int = 2,
                         round_dp: int = 4,
                         sig2_floor: float = 1e-3) -> pa.Table:
    """Oracle-able MASS top-k: per doc, the k best z-normalized matches of
    ``query`` with exclusion-zone suppression (ez = ceil(w/2), reference
    mass2 search semantics), selected on ROUNDED distances so the DuckDB
    brute-force oracle makes the identical picks.  Distances are clamped at
    0 (instead of the reference's sqrt-of-tiny-negative NaN at perfect
    matches) because SQL's ``greatest(x, 0)`` is the only cross-engine
    reproducible convention; docs with a near-constant window are excluded
    in both engines (shared guard, see :func:`_doc_window_stats`)."""
    from ..kernels.mass import exact_sliding_dot_product

    query = np.asarray(query, dtype="d")
    w = query.shape[0]
    ez = int(np.ceil(w / 2.0))
    mu_q = query.mean()
    sig_q = float(np.sqrt(max(query @ query / w - mu_q * mu_q, 0.0)))
    doc_ids, ranks, idxs, dists = [], [], [], []
    for doc, ts, mu, sig2 in iter_slice_docs(batch, w, min_n=w,
                                             sig2_floor=sig2_floor):
        sig = np.sqrt(sig2)
        prod = exact_sliding_dot_product(ts, query)
        corr = (prod - w * mu * mu_q) / (w * sig * sig_q)
        dp = np.round(np.sqrt(np.maximum(2.0 * w * (1.0 - np.minimum(corr, 1.0)),
                                         0.0)), round_dp)
        alive = np.ones(dp.shape[0], dtype=bool)
        for rank in range(min(k, dp.shape[0])):
            if not alive.any():
                break
            cand = np.flatnonzero(alive)
            j = int(cand[np.argmin(dp[cand])])  # argmin: first = lowest idx
            doc_ids.append(doc)
            ranks.append(rank)
            idxs.append(j)
            dists.append(float(dp[j]))
            alive[max(0, j - ez) : j + ez + 1] = False
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.string()),
        "rank": pa.array(ranks, pa.int64()),
        "match_idx": pa.array(idxs, pa.int64()),
        "distance": pa.array(dists, pa.float64()),
    })


def ab_profile_rows_batch(batch: pa.Table, query: np.ndarray, w: int = 16,
                          max_n: int = 256, round_dp: int = 4,
                          sig2_floor: float = 1e-3) -> pa.Table:
    """Bounded-slice AB-join profile rows (doc_id, idx, ab_mp) through the
    real ``mpx_ab`` kernel, rounded for the DuckDB brute-force oracle
    (cross-join of doc windows x query windows, min distance per doc
    window).  Same doc bounds + near-constant guard as the self-join
    oracle."""
    from ..kernels.mpx import mpx_ab

    query = np.asarray(query, dtype="d")
    parts = []
    for doc, ts, _mu, _sig2 in iter_slice_docs(batch, w, min_n=2 * w,
                                               max_n=max_n,
                                               sig2_floor=sig2_floor):
        mp, _mpi, _mpb, _mpib = mpx_ab(ts, query, w)
        parts.append((np.repeat(doc, mp.shape[0]),
                      np.arange(mp.shape[0], dtype=np.int64),
                      np.round(mp, round_dp)))
    return rows_table([("doc_id", pa.string()), ("idx", pa.int64()),
                       ("ab_mp", pa.float64())], parts)


def mass_search_stage(ds, query: np.ndarray, k: int = 3):
    """Find the k best matches of a query pattern in every document via
    MASS2 (reference mass2.py:14-96), exclusion-zone suppressed."""
    import ray

    return ds.map_batches(
        mass_search_batch,
        fn_kwargs={"query_ref": ray.put(np.asarray(query, dtype="d")),
                   "k": k},
        batch_format="pyarrow")


def mass_search_batch(batch: pa.Table, query_ref, k: int = 3) -> pa.Table:
    """(doc_id, rank, match_idx, distance): the k best MASS2 matches per
    row of the query series in ``query_ref``; rows shorter than the query
    are dropped."""
    import ray

    from ..kernels.mass import apply_exclusion_zone, mass2

    values, offsets = list_column_to_numpy(batch["tokens"])
    query = ray.get(query_ref)
    w = len(query)
    ez = int(np.ceil(w / 2.0))
    doc_ids, ranks, idxs, dists = [], [], [], []
    for i in range(len(batch)):
        ts = values[offsets[i] : offsets[i + 1]].astype("d")
        if ts.shape[0] < w:
            continue
        dp = np.real(mass2(ts, query))
        for rank in range(min(k, dp.shape[0])):
            j = int(np.nanargmin(dp))
            if not np.isfinite(dp[j]):
                break
            doc_ids.append(batch["doc_id"][i].as_py())
            ranks.append(rank)
            idxs.append(j)
            dists.append(float(dp[j]))
            apply_exclusion_zone(ez, False, w, ts.shape[0], j, dp)
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.string()),
        "rank": pa.array(ranks, pa.int32()),
        "match_idx": pa.array(idxs, pa.int64()),
        "distance": pa.array(dists, pa.float64()),
    })
