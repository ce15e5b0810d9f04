"""Distributed deduplication over the sequences table.

Exact dedup: content-hash per row in ``map_batches`` (vectorized), then one
``groupby(content_hash)`` keeping the lexicographically-first doc — the
hash-partition + per-group-first pattern.  At 100 TB the shuffle moves only
(hash, doc_id, source) triples, never the tokens.

MinHash-LSH near-dup: shingle -> minhash -> band keys per batch, explode to
(band, band_key, doc_id) rows, ``groupby`` the band buckets, emit candidate
pairs, then verify exact shingle Jaccard for candidate pairs only.

SimHash near-dup: one fingerprint per row; identical fingerprints bucket
together via the same groupby machinery.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.dedup import (
    band_keys,
    jaccard,
    minhash_signatures,
    shingle_hashes,
    simhash,
)
from ..functions.tokenize import list_column_to_numpy


def content_hash_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, source, content_hash) — sha1 of the raw token bytes."""
    values, offsets = list_column_to_numpy(batch["tokens"])
    values = np.ascontiguousarray(values, dtype=np.int32)
    hashes = [
        hashlib.sha1(values[offsets[i] : offsets[i + 1]].tobytes()).hexdigest()
        for i in range(len(batch))
    ]
    return pa.table({
        "doc_id": batch["doc_id"],
        "source": batch["source"],
        "content_hash": pa.array(hashes, pa.string()),
    })


def exact_dedup(ds, num_partitions: int = 16):
    """-> (rep_doc_id, dup_count) one row per distinct content.

    Explicit hash partitioning: every key maps to one of ``num_partitions``
    coarse parts, the shuffle groups on the part id, and the per-part UDF
    does a *vectorized* pandas groupby over all of its keys at once.
    (A bare ``groupby(content_hash).map_groups`` invokes the UDF once per
    key — at millions of tiny groups that Python dispatch dominates wall
    time; coarse parts cap UDF invocations at num_partitions.)"""
    hashed = ds.map_batches(content_hash_batch, batch_format="pyarrow")

    def add_part(batch: pa.Table) -> pa.Table:
        # hash digests are uniform, so re-hashing them stays uniform —
        # Arrow-native, no pandas round-trip
        part = (_hash_str_arrow(batch["content_hash"])
                % np.uint64(num_partitions)).astype(np.int64)
        return batch.append_column("_part", pa.array(part, pa.int64()))

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("content_hash", as_index=False).agg(
            rep_doc_id=("doc_id", "min"), dup_count=("doc_id", "size"))
        g["dup_count"] = g["dup_count"].astype(np.int64)
        return g[["rep_doc_id", "dup_count"]]

    return (hashed.map_batches(add_part, batch_format="pyarrow")
            .groupby("_part")
            .map_groups(reduce_part, batch_format="pandas"))


def minhash_band_batch(batch: pa.Table, k: int = 5, num_perm: int = 64,
                       bands: int = 16, seed: int = 7) -> pa.Table:
    """Explode each row to its LSH band rows: (band, band_key, doc_id)."""
    values, offsets = list_column_to_numpy(batch["tokens"])
    flat, sh_off = shingle_hashes(values, offsets, k=k)
    sig = minhash_signatures(flat, sh_off, num_perm=num_perm, seed=seed)
    keys = band_keys(sig, bands=bands)
    n_rows = len(batch)
    doc_rep = batch["doc_id"].take(
        pa.array(np.repeat(np.arange(n_rows), bands), pa.int64()))
    return pa.table({
        "band": pa.array(np.tile(np.arange(bands), n_rows), pa.int32()),
        "band_key": pa.array(keys.reshape(-1), pa.uint64()),
        "doc_id": doc_rep,
    })


def minhash_candidates(ds, k: int = 5, num_perm: int = 64, bands: int = 16,
                       seed: int = 7, num_partitions: int = 16):
    """-> candidate near-dup pairs (doc_a, doc_b) from shared LSH buckets.

    Two coarse hash-partitioned shuffles, both with vectorized per-part
    reductions: bucket rows by (band, band_key) -> emit pairs per multi-doc
    bucket; then bucket the pair rows -> drop duplicates (a pair can
    surface from several bands).  Shuffled payload is (band_key, doc_id)
    pairs only — tokens never move."""
    band_rows = ds.map_batches(
        lambda b: minhash_band_batch(b, k=k, num_perm=num_perm, bands=bands,
                                     seed=seed),
        batch_format="pyarrow")
    band_rows = band_rows.map_batches(
        lambda b: b.append_column(
            "_part", pa.array((b["band_key"].to_numpy()
                               % np.uint64(num_partitions)).astype(np.int64),
                              pa.int64())),
        batch_format="pyarrow")

    def pairs_block(tbl: pa.Table) -> pa.Table:
        """All i<j pairs within each multi-doc bucket, vectorized by SIZE
        CLASS: buckets of equal size share one triu index pattern, so the
        loop runs over the handful of distinct bucket sizes — not over the
        (potentially millions of) buckets themselves.  Arrow end to end:
        the sort, the boundary scan and the pair gathers all stay on the
        zero-copy block; doc ids are gathered with ``pc.take`` so the
        strings are never round-tripped through pandas objects."""
        import pyarrow.compute as pc

        order = pc.sort_indices(tbl, sort_keys=[("band", "ascending"),
                                                ("band_key", "ascending"),
                                                ("doc_id", "ascending")])
        tbl = tbl.take(order)
        band = tbl["band"].to_numpy(zero_copy_only=False)
        bkey = tbl["band_key"].to_numpy(zero_copy_only=False)
        docs = tbl["doc_id"].combine_chunks()
        n = len(tbl)
        key_change = np.ones(n, dtype=bool)
        if n > 1:
            key_change[1:] = (band[1:] != band[:-1]) | (bkey[1:] != bkey[:-1])
        starts = np.flatnonzero(key_change)
        sizes = np.diff(np.concatenate((starts, [n])))
        idx_a, idx_b = [], []
        for s in np.unique(sizes[sizes > 1]):
            grp_starts = starts[sizes == s]
            ii, jj = np.triu_indices(int(s), 1)
            idx_a.append((grp_starts[:, None] + ii[None, :]).ravel())
            idx_b.append((grp_starts[:, None] + jj[None, :]).ravel())
        if not idx_a:
            return pa.table({"doc_a": pa.array([], pa.string()),
                             "doc_b": pa.array([], pa.string())})
        return pa.table({
            "doc_a": pc.take(docs, pa.array(np.concatenate(idx_a))),
            "doc_b": pc.take(docs, pa.array(np.concatenate(idx_b))),
        })

    cand = band_rows.groupby("_part").map_groups(pairs_block,
                                                 batch_format="pyarrow")

    def add_pair_part(tbl: pa.Table) -> pa.Table:
        part = ((_hash_str_arrow(tbl["doc_a"]) * np.uint64(0x9E3779B97F4A7C15)
                 ^ _hash_str_arrow(tbl["doc_b"]))
                % np.uint64(num_partitions)).astype(np.int64)
        return tbl.append_column("_part", pa.array(part, pa.int64()))

    def uniq_block(tbl: pa.Table) -> pa.Table:
        # Arrow group_by with no aggregates = exact distinct on the keys
        return (tbl.select(["doc_a", "doc_b"])
                .group_by(["doc_a", "doc_b"]).aggregate([]))

    uniq = (cand.map_batches(add_pair_part, batch_format="pyarrow")
            .groupby("_part")
            .map_groups(uniq_block, batch_format="pyarrow"))
    # schema anchor: on a dup-free corpus the groupby has no groups, no
    # UDF ever runs, and the resulting zero-block Dataset forgets its
    # columns (to_pandas returns a column-less frame); one typed empty
    # block pins (doc_a, doc_b) at zero cost
    import ray.data

    anchor = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([], pa.string()),
        "doc_b": pa.array([], pa.string()),
    }))
    return uniq.union(anchor)


def verify_jaccard_pairs(pairs_df: pd.DataFrame, sequences: pa.Table,
                         k: int = 5, threshold: float = 0.8) -> pd.DataFrame:
    """Exact n-gram Jaccard for candidate pairs (driver-side or per-bucket;
    the candidate set is orders of magnitude smaller than the corpus)."""
    values, offsets = list_column_to_numpy(sequences["tokens"])
    flat, sh_off = shingle_hashes(values, offsets, k=k)
    index = {d: i for i, d in enumerate(sequences["doc_id"].to_pylist())}

    def row_set(doc):
        i = index[doc]
        return flat[sh_off[i] : sh_off[i + 1]]

    sims = [jaccard(row_set(a), row_set(b))
            for a, b in zip(pairs_df["doc_a"], pairs_df["doc_b"])]
    out = pairs_df.copy()
    out["jaccard"] = sims
    return out[out["jaccard"] >= threshold].reset_index(drop=True)


def verify_jaccard_bucketed(pairs_ds, sequences_ds, k: int = 5,
                            threshold: float = 0.8,
                            num_partitions: int = 16):
    """Exact n-gram Jaccard verification of a candidate-pair DATASET
    against a sequences DATASET — the 100 TB path, with NO driver-side
    corpus materialization anywhere:

    1. the candidate doc-id set (orders of magnitude smaller than the
       corpus) is collected batch-wise and broadcast once (``ray.put``) —
       at the extreme where even that set outgrows one broadcast, swap the
       ``isin`` prefilter for :func:`~.join.bloom_semi_join` with the same
       downstream plumbing;
    2. ONLY the candidate docs' shingle sets are computed (streaming
       ``map_batches`` over the sequences) and shuffled — once by
       hash(doc_id) to meet the exploded pair halves, once by
       hash(pair_id) to bring each pair's two operands together;
    3. each part verifies all of its pairs vectorized and only
       (doc_a, doc_b, jaccard >= threshold) rows survive.

    The corpus tokens never broadcast, never pass through the driver, and
    non-candidate docs never shuffle."""
    import ray

    # the pair table is orders of magnitude smaller than the corpus, and
    # it is consumed twice below (candidate-id collection + pair halves) —
    # materialize so a lazy pairs pipeline (e.g. the full LSH candidate
    # chain) is never re-executed
    pairs_ds = pairs_ds.materialize()

    cand_ids: set = set()
    for b in pairs_ds.map_batches(
            lambda df: pd.DataFrame({"doc_id": pd.unique(
                pd.concat([df["doc_a"], df["doc_b"]], ignore_index=True))}),
            batch_format="pandas").iter_batches(batch_format="pandas"):
        cand_ids.update(b["doc_id"])
    keep_ref = ray.put(pa.array(sorted(cand_ids), pa.string()))

    def pair_halves(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        a, b = (batch[c].cast(pa.string()).combine_chunks()
                for c in ("doc_a", "doc_b"))
        pid = pc.binary_join_element_wise(a, b, "\x00")
        return _jaccard_side(
            "h", num_partitions, pair_id=pa.concat_arrays([pid, pid]),
            doc_a=pa.concat_arrays([a, a]), doc_b=pa.concat_arrays([b, b]),
            slot=["a"] * len(a) + ["b"] * len(a),
            doc_id=pa.concat_arrays([a, b]))

    both = (sequences_ds.map_batches(
                shingle_side_batch,
                fn_kwargs={"keep_ref": keep_ref, "k": k,
                           "num_partitions": num_partitions},
                batch_format="pyarrow")
            .union(pairs_ds.map_batches(pair_halves, batch_format="pyarrow")))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        sh = g[g["_side"] == "s"]
        lookup = dict(zip(sh["doc_id"], sh["shingles"]))
        hv = g[g["_side"] == "h"].copy()
        hv["shingles"] = hv["doc_id"].map(lookup)
        # a candidate pair can reference a doc absent from the sequences
        # view (stale candidates, filtered corpus); its half maps to NaN
        # and would crash np.frombuffer in judge — drop the orphan half
        # here, which drops the pair (judge intersects the two halves)
        hv = hv[hv["shingles"].notna()]
        hv["_part"] = _hash_part(hv["pair_id"], num_partitions)
        return hv[["pair_id", "doc_a", "doc_b", "slot", "shingles", "_part"]]

    attached = both.groupby("_part").map_groups(attach, batch_format="pandas")

    def judge(g: pd.DataFrame) -> pa.Table:
        a = g[g["slot"] == "a"].set_index("pair_id")
        b = g[g["slot"] == "b"].set_index("pair_id")
        common = a.index.intersection(b.index)
        a, b = a.loc[common], b.loc[common]
        sims = np.array([jaccard(np.frombuffer(x, np.uint64),
                                 np.frombuffer(y, np.uint64))
                         for x, y in zip(a["shingles"], b["shingles"])])
        keep = sims >= threshold
        # typed Arrow columns: a part with no surviving pair would
        # otherwise emit empty object columns, which carry no type
        return pa.table({
            "doc_a": pa.array(a["doc_a"].to_numpy()[keep], pa.string()),
            "doc_b": pa.array(a["doc_b"].to_numpy()[keep], pa.string()),
            "jaccard": pa.array(sims[keep], pa.float64()),
        })

    return attached.groupby("_part").map_groups(judge, batch_format="pandas")


def shingle_side_batch(batch: pa.Table, keep_ref, k: int = 5,
                       num_partitions: int = 16) -> pa.Table:
    """The shingle side of the Jaccard-verify union: (doc_id, shingles)
    rows for the batch's candidate docs.  ``keep_ref`` holds the
    candidate doc ids as an Arrow string array, so the filter is one
    vectorized ``pc.is_in`` on the Arrow column."""
    import pyarrow.compute as pc
    import ray

    sub = batch.filter(pc.is_in(batch["doc_id"],
                                value_set=ray.get(keep_ref)))
    values, offsets = list_column_to_numpy(sub["tokens"])
    flat, sh_off = shingle_hashes(values, offsets, k=k)
    # shingle sets travel as BYTES, not ndarrays: Ray's pandas tensor
    # extension rejects object columns of ndarrays during sort-shuffle
    # block merges
    return _jaccard_side(
        "s", num_partitions, doc_id=sub["doc_id"],
        shingles=[flat[sh_off[i] : sh_off[i + 1]].tobytes()
                  for i in range(len(sub))])


# One schema for both sides of the Jaccard-verify union; each side fills
# the other's columns with typed nulls.
_JACCARD_SIDE_SCHEMA = pa.schema([
    ("pair_id", pa.string()), ("doc_a", pa.string()),
    ("doc_b", pa.string()), ("slot", pa.string()),
    ("doc_id", pa.string()), ("shingles", pa.binary()),
    ("_part", pa.uint64()), ("_side", pa.string())])


def _jaccard_side(side: str, num_partitions: int, **cols) -> pa.Table:
    doc_id = cols["doc_id"].cast(pa.string())
    n = len(doc_id)
    cols.update(doc_id=doc_id, _side=[side] * n,
                _part=_hash_part(doc_id.to_pandas(), num_partitions))
    return pa.table({f.name: cols.get(f.name, pa.nulls(n, f.type))
                     for f in _JACCARD_SIDE_SCHEMA}).cast(_JACCARD_SIDE_SCHEMA)


def dedup_groups(pairs_ds, driver_threshold: int = 1_000_000):
    """Candidate pairs -> duplicate groups.

    Hybrid per the standard playbook: when the candidate set is provably
    small (it is orders of magnitude smaller than the corpus — count it
    first), a driver-side union-find labels everything in one pass; only
    a pathologically large candidate graph falls back to the distributed
    iterative min-label propagation (:func:`connected_components`)."""
    # materialize before count(): the candidate chain upstream carries two
    # shuffles, and count() + to_pandas()/connected_components would
    # otherwise execute it twice
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs <= driver_threshold:
        import pandas as pd_

        if n_pairs == 0:
            # Ray's to_pandas on an all-empty dataset drops the columns,
            # so a dup-free corpus would KeyError on df["doc_a"] below;
            # short-circuit with a Dataset whose SCHEMA is the contract
            # (to_pandas on any empty Dataset is column-less in Ray 2.49)
            import ray.data

            return ray.data.from_arrow(pa.table({
                "doc_id": pa.array([], pa.string()),
                "component": pa.array([], pa.string()),
            }))
        df = pairs_ds.to_pandas()
        parent: dict = {}

        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(df["doc_a"], df["doc_b"]):
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = sorted((ra, rb))
                parent[hi] = lo
        nodes = sorted(parent)
        import ray.data

        return ray.data.from_pandas(pd_.DataFrame({
            "doc_id": nodes,
            "component": [find(n) for n in nodes],
        }))
    return connected_components(pairs_ds)


def _hash_str_arrow(col) -> np.ndarray:
    """Deterministic uint64 hash per string of an Arrow string column,
    vectorized over the flat UTF-8 data buffer (no pandas, no Python-level
    per-row loop).  Polynomial rolling hash with position-in-segment
    powers (uint64 wraparound) — used only for partition assignment, where
    uniformity matters and cryptographic strength does not."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.zeros(0, dtype=np.uint64)
    col = col.cast(pa.large_string())
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + len(col) + 1]
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    starts, ends = offs[:-1], offs[1:]
    lengths = ends - starts
    lo, hi = int(starts[0]), int(ends[-1])
    if hi == lo:
        return np.full(len(col), np.uint64(0xCBF29CE484222325))
    chunk = data[lo:hi].astype(np.uint64)
    pos = np.arange(hi - lo, dtype=np.int64) - np.repeat(
        starts - lo, lengths)
    max_len = int(lengths.max())
    powers = np.empty(max_len, dtype=np.uint64)
    powers[0] = np.uint64(1)
    base = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for i in range(1, max_len):  # O(max string length), not O(rows)
            powers[i] = powers[i - 1] * base
        terms = (chunk + np.uint64(1)) * powers[pos]
        # reduceat over segment starts; empty segments (reduceat would
        # grab the next segment's first term) are zeroed explicitly
        seg = np.add.reduceat(terms, (starts - lo)[lengths > 0]) \
            if (lengths > 0).any() else np.zeros(0, np.uint64)
        out = np.full(len(col), np.uint64(0xCBF29CE484222325))
        out[lengths > 0] = seg * base + lengths[lengths > 0].astype(np.uint64)
    return out


def _hash_part(series: pd.Series, num_partitions: int) -> np.ndarray:
    """Deterministic cross-process partition id (pandas hash, fixed key;
    not categorized: pandas' factorize equates strings that differ only
    after a NUL, as the pair ids of ``verify_jaccard_bucketed`` do)."""
    return (pd.util.hash_pandas_object(series.astype(str), index=False,
                                       categorize=False)
            % num_partitions).to_numpy()


def connected_components(pairs_ds, max_iters: int = 8,
                         num_partitions: int = 16,
                         check_fixpoint: bool = True):
    """Duplicate GROUPS from candidate pairs via BSP min-label propagation
    WITH pointer doubling, as raw Ray task waves over hash partitions.

    The iterative loop is the one pipeline shape Dataset operators handle
    badly — each round would re-execute upstream chains and pay several
    sort-shuffles of fixed overhead — so this drops to ``@ray.remote``
    scatter/gather (partitioning assumption: edges by hash(src), labels by
    hash(node); the two are co-partitioned because every node appears as
    src of its own edges).  Per round: (A) each part joins its edges with
    its labels and scatters messages by hash(dst) plus pointer-doubling
    lookups by hash(label); (B) each part answers lookups from its label
    table, scattering replies by hash(node); (C) each part min-reduces
    own labels + messages + replies and emits a tiny signature.  Label
    distance covered after r rounds is 2^r - 1, so ``max_iters=8`` covers
    diameter 255.  ``check_fixpoint=True`` (default) stops on a signature
    fixpoint and RAISES if ``max_iters`` runs out unconverged — silent
    non-convergence was the round-1 failure mode.  Driver holds only
    object refs; partitions stay in the object store.

    -> Dataset (doc_id, component) with component = lexicographic-min
    member of the connected component."""
    import ray
    import ray.data

    # num_returns=1 would hand the next wave a ref to the whole 1-list
    # instead of per-part refs, so a single partition is widened to two
    # (same result; the code-review repro showed pd.concat crashing on the
    # list element)
    P = max(2, num_partitions)

    @ray.remote
    def scatter_edges(df: pd.DataFrame):
        e = pd.DataFrame({
            "src": pd.concat([df["doc_a"], df["doc_b"]], ignore_index=True),
            "dst": pd.concat([df["doc_b"], df["doc_a"]], ignore_index=True),
        })
        p = _hash_part(e["src"], P)
        return [e[p == i].reset_index(drop=True) for i in range(P)]

    @ray.remote
    def build_part(*pieces):
        e = pd.concat(pieces, ignore_index=True) if pieces else pd.DataFrame(
            columns=["src", "dst"])
        nodes = pd.Index(e["src"].unique())
        labels = pd.DataFrame({"node": nodes, "label": nodes})
        return e, labels

    @ray.remote
    def wave_a(part):
        """-> 2P returns: P message frames (by hash(dst)), P doubling
        lookups (by hash(label))."""
        edges_p, labels_p = part
        m = edges_p.merge(labels_p, left_on="src", right_on="node")
        msgs = pd.DataFrame({"node": m["dst"], "label": m["label"]})
        pm = _hash_part(msgs["node"], P)
        reqs = labels_p[labels_p["node"] != labels_p["label"]]
        reqs = pd.DataFrame({"node": reqs["node"], "via": reqs["label"]})
        pr = _hash_part(reqs["via"], P)
        return ([msgs[pm == i].reset_index(drop=True) for i in range(P)]
                + [reqs[pr == i].reset_index(drop=True) for i in range(P)])

    @ray.remote
    def wave_b(part, *req_frames):
        """Answer doubling lookups from this part's label table ->
        P reply frames (node, label) scattered by hash(node)."""
        _, labels_p = part
        reqs = pd.concat(req_frames, ignore_index=True)
        rep = reqs.merge(labels_p.rename(columns={"node": "via"}), on="via")
        rep = pd.DataFrame({"node": rep["node"], "label": rep["label"]})
        pr = _hash_part(rep["node"], P)
        return [rep[pr == i].reset_index(drop=True) for i in range(P)]

    @ray.remote(num_returns=2)
    def wave_c(part, *cand_frames):
        """Min-reduce own labels + incoming candidates -> (new part, sig)."""
        edges_p, labels_p = part
        allc = pd.concat([labels_p, *cand_frames], ignore_index=True)
        new_labels = allc.groupby("node", as_index=False)["label"].min()
        sig = int(pd.util.hash_pandas_object(
            new_labels["label"], index=False).sum() % (2**61))
        return (edges_p, new_labels), sig

    @ray.remote
    def finish(part):
        _, labels_p = part
        return pd.DataFrame({"doc_id": labels_p["node"],
                             "component": labels_p["label"]})

    block_refs = pairs_ds.to_pandas_refs()
    scattered = [scatter_edges.options(num_returns=P).remote(b)
                 for b in block_refs]
    parts = [build_part.remote(*[s[p] for s in scattered]) for p in range(P)]

    prev_sig = None
    converged = False
    for _ in range(max_iters):
        outs = [wave_a.options(num_returns=2 * P).remote(part)
                for part in parts]
        replies = [wave_b.options(num_returns=P).remote(
            parts[q], *[o[P + q] for o in outs]) for q in range(P)]
        new_parts, sigs = [], []
        for r in range(P):
            cands = [o[r] for o in outs] + [rep[r] for rep in replies]
            np_ref, sig_ref = wave_c.remote(parts[r], *cands)
            new_parts.append(np_ref)
            sigs.append(sig_ref)
        parts = new_parts
        if not check_fixpoint:
            continue
        sig = sum(ray.get(sigs))
        if sig == prev_sig:
            converged = True
            break
        prev_sig = sig
    if check_fixpoint and not converged:
        raise RuntimeError(
            f"connected_components: no fixpoint after {max_iters} "
            "pointer-doubling rounds (graph diameter > 2^max_iters?)")

    return ray.data.from_pandas_refs([finish.remote(part) for part in parts])


def simhash_batch(batch: pa.Table, k: int = 5) -> pa.Table:
    """(doc_id, simhash) fingerprints.  31-bit values — int64 output for
    DuckDB-oracle parity (the oracle recomputes the majority vote in SQL)."""
    values, offsets = list_column_to_numpy(batch["tokens"])
    flat, sh_off = shingle_hashes(values, offsets, k=k)
    fp = simhash(flat, sh_off)
    return pa.table({
        "doc_id": batch["doc_id"],
        "fingerprint": pa.array(fp.astype(np.int64), pa.int64()),
    })


def embedding_near_dup(ds, threshold: float = 0.95, planes: int = 16,
                       seed: int = 11, dim: int = 64,
                       num_partitions: int = 16):
    """Embedding-cosine near-dup: random-hyperplane LSH bucket per vector,
    exact cosine verification inside each bucket.

    Buckets shuffle inside COARSE hash partitions (one ``groupby("_part")``,
    vectorized per-bucket verify within each part) rather than a per-bucket
    ``map_groups`` — per-key dispatch is Python-per-bucket, and one hot
    bucket (e.g. all-zero vectors) would otherwise skew a whole task."""
    rng = np.random.default_rng(seed)
    hyper = rng.normal(size=(dim, planes))

    def bucket(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            # reshape(0, -1) cannot infer the row width on empty input
            return pa.table({
                "vec_id": batch["vec_id"],
                "bucket": pa.array([], pa.int64()),
                "_part": pa.array([], pa.int64()),
                "embedding": batch["embedding"],
            })
        emb, offsets = list_column_to_numpy(batch["embedding"])
        mat = emb.astype("d").reshape(len(batch), -1)
        signs = (mat @ hyper) > 0
        key = (signs << np.arange(planes)).sum(axis=1).astype(np.int64)
        return pa.table({
            "vec_id": batch["vec_id"],
            "bucket": pa.array(key, pa.int64()),
            "_part": pa.array(key % num_partitions, pa.int64()),
            "embedding": batch["embedding"],
        })

    def verify_part(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _b, grp in g.groupby("bucket", sort=False):
            if len(grp) < 2:
                continue
            mat = np.stack(grp["embedding"].to_numpy()).astype("d")
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1
            sims = (mat / norms) @ (mat / norms).T
            ids = grp["vec_id"].to_numpy()
            ii, jj = np.where(np.triu(sims, 1) >= threshold)
            outs.append(pd.DataFrame({
                "vec_a": ids[ii].astype(np.int64),
                "vec_b": ids[jj].astype(np.int64),
                "cosine": sims[ii, jj],
            }))
        if not outs:
            return pd.DataFrame({"vec_a": pd.Series(dtype=np.int64),
                                 "vec_b": pd.Series(dtype=np.int64),
                                 "cosine": pd.Series(dtype="d")})
        return pd.concat(outs, ignore_index=True)

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_part")
            .map_groups(verify_part, batch_format="pandas"))
