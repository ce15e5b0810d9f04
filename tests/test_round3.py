"""Round-3 additions: oracle-able bounded-slice MP rows, strict self-asof
(non-hollow fixture), corpus-free Jaccard verify wiring, destructive-op
guards, mpf packed-chunk decoding, fused flagship rollup."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _df(x):
    import ray.data

    if isinstance(x, ray.data.Dataset):
        return x.to_pandas()
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x


def _seq_batch(tokens_list):
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(tokens_list))]),
        "tokens": pa.array([t.tolist() for t in tokens_list],
                           pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in tokens_list], pa.int32()),
        "source": pa.array(["s"] * len(tokens_list)),
    })


def test_mp_rows_small_matches_bruteforce():
    """The rounded small-slice rows equal an O(n^2) literal z-norm ED brute
    force (minlag exclusion, population sigma) — independent of every mpx
    kernel path."""
    from matrixprofile_1_ray.stages.profile import mp_rows_small_batch

    rng = np.random.default_rng(3)
    toks = rng.integers(32, 127, size=120).astype(np.int32)
    out = (mp_rows_small_batch(_seq_batch([toks]), w=16)
           .to_pandas().sort_values("idx"))
    w, minlag = 16, 4
    ts = toks.astype("d")
    pl = len(ts) - w + 1
    wins = np.lib.stride_tricks.sliding_window_view(ts, w)
    z = (wins - wins.mean(axis=1, keepdims=True)) / wins.std(axis=1,
                                                            keepdims=True)
    ref = np.full(pl, np.inf)
    for i in range(pl):
        for j in range(pl):
            if abs(i - j) > minlag:
                ref[i] = min(ref[i], np.sqrt(((z[i] - z[j]) ** 2).sum()))
    assert len(out) == pl
    np.testing.assert_allclose(out.mp.to_numpy(), np.round(ref, 4),
                               atol=2e-4)


def test_mp_rows_small_excludes_out_of_slice_docs():
    from matrixprofile_1_ray.stages.profile import mp_rows_small_batch

    rng = np.random.default_rng(4)
    short = rng.integers(32, 127, size=20).astype(np.int32)      # < 2w
    longd = rng.integers(32, 127, size=300).astype(np.int32)     # > max_n
    const = np.concatenate([rng.integers(32, 127, 40),
                            np.full(20, 65)]).astype(np.int32)   # flat window
    ok = rng.integers(32, 127, size=64).astype(np.int32)
    out = mp_rows_small_batch(_seq_batch([short, longd, const, ok]),
                              w=16).to_pandas()
    assert set(out.doc_id) == {"d3"}


def test_mp_discord_top1_is_argmax_of_rows():
    from matrixprofile_1_ray.stages.profile import (
        mp_discord_top1_batch,
        mp_rows_small_batch,
    )

    rng = np.random.default_rng(5)
    batch = _seq_batch([rng.integers(32, 127, size=n).astype(np.int32)
                        for n in (64, 100, 200)])
    rows = mp_rows_small_batch(batch, w=16).to_pandas()
    top = mp_discord_top1_batch(batch, w=16).to_pandas()
    assert len(top) == 3
    for _, r in top.iterrows():
        sub = rows[rows.doc_id == r.doc_id]
        best = sub.sort_values(["mp", "idx"],
                               ascending=[False, True]).iloc[0]
        assert r.discord_idx == best.idx and r.discord_dist == best.mp


def test_prev_event_asof_nonhollow_and_correct(ray_session):
    """The round-2 asof fixture matched 0 of 150k rows (order dates predate
    every event) — the re-based self-asof must match most rows, and agree
    with a literal per-user previous-strictly-smaller-ts computation."""
    import pyarrow.parquet as pq

    import __ray_entry__ as m

    out = _df(m.queries()["prev_event_asof"](SF))
    assert out.prev_event_ts.notna().sum() > 0
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"]).to_pandas()
    ev["ts"] = ev["ts"].values.astype("datetime64[us]").astype(np.int64)
    expected = {}
    for _uid, g in ev.groupby("user_id"):
        uniq = np.unique(g.ts.to_numpy())
        for eid, t in zip(g.event_id, g.ts):
            pos = np.searchsorted(uniq, t)
            expected[eid] = float(uniq[pos - 1]) if pos > 0 else np.nan
    got = dict(zip(out.event_id, out.prev_event_ts))
    assert len(got) == len(expected)
    for eid, want in expected.items():
        have = got[eid]
        assert (np.isnan(want) and np.isnan(have)) or want == have


def test_small_slice_queries_nonempty(ray_session):
    import __ray_entry__ as m

    qs = m.queries()
    for name in ("mp_profiles_small", "mp_discords_small",
                 "mass_topk", "ab_join_small", "pmp_small",
                 "corrected_profile_small", "mpdist_pairs_small",
                 "mp_rollup_small", "mp_stomp_small", "mp_scrimp_small",
                 "mpdist_vector_small", "regimes_small", "snippets_small",
                 "motifs_small", "corpus_discords_small",
                 "pick_mp_small", "hclust_small",
                 "maximum_subsequence_small"):
        assert len(_df(qs[name](SF))) > 0, name


def test_regimes_small_matches_kernel_directly():
    """The gate variant's regimes equal extract_regimes on the same doc
    (the margin guard only filters docs, never changes kernel output)."""
    from matrixprofile_1_ray.kernels.discover import extract_regimes
    from matrixprofile_1_ray.kernels.mpx import mpx_self
    from matrixprofile_1_ray.stages.profile import regimes_small_batch

    rng = np.random.default_rng(11)
    toks = rng.integers(32, 127, size=200).astype(np.int32)
    out = regimes_small_batch(_seq_batch([toks])).to_pandas()
    if len(out) == 0:
        pytest.skip("doc filtered by margin guard")
    mp, pi = mpx_self(toks.astype("d"), 16)
    prof = extract_regimes({"class": "MatrixProfile", "mp": mp, "pi": pi,
                            "w": 16})
    assert list(out.sort_values("rank").regime_idx) == \
        [int(x) for x in prof["regimes"]]


def test_pick_mp_small_equals_w32_rows():
    """pick_mp over the assembled two-window PMP is lossless: its rows
    equal mp_rows_small_batch at w=32 exactly (the padding/trim round-trip
    of reference utils.py pick_mp cannot change a value)."""
    from matrixprofile_1_ray.stages.profile import (
        mp_rows_small_batch,
        pick_mp_small_batch,
    )

    rng = np.random.default_rng(7)
    toks = rng.integers(32, 127, size=180).astype(np.int32)
    got = pick_mp_small_batch(_seq_batch([toks])).to_pandas()
    want = mp_rows_small_batch(_seq_batch([toks]), w=32).to_pandas()
    assert len(got) == len(want) > 0
    np.testing.assert_array_equal(got.mp.to_numpy(), want.mp.to_numpy())


def test_hclust_small_is_connected_components(ray_session):
    """Single-linkage distance-cut assignments equal the connected
    components of the mpdist<=t graph (computed independently in numpy),
    and the cut is non-trivial at the test SF."""
    import __ray_entry__ as m

    out = _df(m.queries()["hclust_small"](SF)).sort_values("doc_id")
    pairs = _df(m.queries()["mpdist_pairs_small"](SF))
    ids = sorted(out.doc_id)
    parent = {d: d for d in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, v in zip(pairs.doc_a, pairs.doc_b, pairs.mpdist):
        if v <= 0.6:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    want = [find(d) for d in ids]
    assert list(out.cluster) == want
    assert len(set(want)) < len(ids)  # at least one real merge


def test_maxsubseq_small_matches_probe_rule():
    """The guarded kernel walk lands exactly on min{w in refine grid:
    corr_max(w) < thr} — the rule the SQL oracle replays."""
    from matrixprofile_1_ray.stages.pairs import _doc_window_stats
    from matrixprofile_1_ray.stages.pmp import maxsubseq_small_batch
    from matrixprofile_1_ray.stages.profile import _banded_corr

    rng = np.random.default_rng(5)
    # planted repeats make corr(8) high; noise keeps corr(16) lower
    toks = rng.integers(32, 127, size=200).astype(np.int32)
    toks[50:58] = toks[100:108]  # exact 8-token repeat -> corr(8) = 1
    out = maxsubseq_small_batch(_seq_batch([toks])).to_pandas()
    if len(out) == 0:
        pytest.skip("doc filtered by walk guards")
    thr = 0.985
    ts = toks.astype("d")
    expect = None
    for w in (10, 12, 14, 16):
        mu, sig2 = _doc_window_stats(ts, w)
        cb = _banded_corr(ts, w, mu, np.sqrt(np.maximum(sig2, 0)),
                          -(-w // 4) + 1)
        if np.max(cb) < thr:
            expect = w
            break
    assert out.upper_window.iloc[0] == expect


def test_stomp_small_perfect_match_guard():
    """A doc with an identical window pair outside STOMP's exclusion zone
    must be dropped (the reference kernel NaN-skips the perfect match, so
    its value is not oracle-reproducible); mpx keeps the doc."""
    from matrixprofile_1_ray.stages.profile import mp_rows_small_batch

    rng = np.random.default_rng(9)
    toks = rng.integers(32, 127, size=100).astype(np.int32)
    toks[60:80] = toks[10:30]          # exact repeat at distance 50 > ez
    batch = _seq_batch([toks])
    assert len(mp_rows_small_batch(batch, algorithm="stomp")) == 0
    assert len(mp_rows_small_batch(batch, algorithm="mpx")) > 0


def test_stomp_small_drops_partnerless_center_window():
    """n_tok == 2*w exactly: STOMP's ez = ceil(w/2) leaves the center
    window with NO admissible partner, so the kernel reports mp[8] = inf
    while the SQL brute force emits no row for it (GROUP BY over zero
    corr rows).  Both engines must therefore drop the doc entirely —
    the slice floor is w + 2*ez + 1 = 33 for stomp; mpx (minlag 4) keeps
    it and emits only finite values."""
    from matrixprofile_1_ray.stages.profile import mp_rows_small_batch

    rng = np.random.default_rng(11)
    batch = _seq_batch([rng.integers(32, 127, size=32).astype(np.int32),
                        rng.integers(32, 127, size=33).astype(np.int32)])
    stomp_rows = mp_rows_small_batch(batch, algorithm="stomp").to_pandas()
    assert set(stomp_rows.doc_id) == {"d1"}
    assert np.isfinite(stomp_rows.mp).all()
    mpx_rows = mp_rows_small_batch(batch, algorithm="mpx").to_pandas()
    assert set(mpx_rows.doc_id) == {"d0", "d1"}
    assert np.isfinite(mpx_rows.mp).all()


def test_snippets_small_margin_guard_drops_ambiguous_docs():
    """Docs whose greedy snippet pick is decided by a sub-margin gap (two
    identical snippet_size blocks -> tied coverage sums) must be dropped:
    engine and SQL sum the coverage in different IEEE op orders, so only
    margin-pinned picks are oracle-comparable.  Healthy docs keep emitting
    the real kernel's picks."""
    import pyarrow as pa

    from matrixprofile_1_ray.stages.summarize import snippets_small_batch

    rng = np.random.default_rng(21)
    block = rng.integers(32, 127, size=64).astype(np.int32)
    amb = np.concatenate([block, block, block,
                          rng.integers(32, 127, size=64)]).astype(np.int32)
    ok = rng.integers(32, 127, size=192).astype(np.int32)
    batch = _seq_batch([amb, ok])
    out = snippets_small_batch(batch).to_pandas()
    assert set(out.doc_id) == {"d1"}
    assert set(out["rank"]) == {0, 1}


def test_hash_join_rejects_outer(ray_session):
    import pandas as pd
    import ray.data

    from matrixprofile_1_ray.stages.join import hash_join

    a = ray.data.from_pandas(pd.DataFrame({"k": [1], "x": [2]}))
    b = ray.data.from_pandas(pd.DataFrame({"k": [1], "y": [3]}))
    with pytest.raises(ValueError, match="inner/left/right"):
        hash_join(a, b, "k", how="outer")


def test_ivf_build_refuses_non_index_dir(ray_session, tmp_path):
    import ray.data

    from matrixprofile_1_ray.stages.ann import build_ivf_index

    target = tmp_path / "precious"
    target.mkdir()
    (target / "keep.txt").write_text("do not delete")
    emb = pa.table({
        "vec_id": pa.array(np.arange(8), pa.int64()),
        "embedding": pa.array([np.random.default_rng(i).normal(size=4)
                               .tolist() for i in range(8)],
                              pa.list_(pa.float64())),
    })
    with pytest.raises(ValueError, match="refusing"):
        build_ivf_index(ray.data.from_arrow(emb), str(target), n_centroids=2,
                        sample_size=8)
    assert (target / "keep.txt").exists()


def test_mpf_packed_field_split_across_chunks():
    """A conforming protobuf writer may split one packed repeated field
    into several length-delimited chunks; the decoder must concatenate."""
    from matrixprofile_1_ray.io import mpf as M

    doubles = (M._f_varint(1, 4)
               + M._f_bytes(3, np.array([1.0, 2.0]).tobytes())
               + M._f_bytes(3, np.array([3.0, 4.0]).tobytes()))
    np.testing.assert_array_equal(M._decode_matrix(doubles, signed=False),
                                  [1.0, 2.0, 3.0, 4.0])
    ints = (M._f_varint(1, 3)
            + M._f_bytes(3, b"\x01\x02")
            + M._f_bytes(3, b"\x03"))
    np.testing.assert_array_equal(M._decode_matrix(ints, signed=True),
                                  [1, 2, 3])


def _oracle_con(sf):
    import duckdb

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    return con


def _hash_compare(engine_df, oracle_df):
    assert sorted(engine_df.columns) == sorted(oracle_df.columns)
    cols = sorted(engine_df.columns)
    a = engine_df[cols].sort_values(cols).reset_index(drop=True)
    b = oracle_df[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b), (len(a), len(b))
    for c in cols:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            np.testing.assert_array_equal(av.astype("d"), bv.astype("d"),
                                          err_msg=c)
        else:
            assert (av == bv).all(), c


def test_jaccard_verified_oracle_parity(ray_session):
    """verify_jaccard_bucketed (candidate broadcast + two keyed shuffles)
    hash-matches the DuckDB exact-Jaccard recomputation; the jaccard value
    is an exact integer ratio so no rounding is involved."""
    import __ray_entry__ as m

    out = _df(m.queries()["dedup_jaccard_verified"](SF))
    assert len(out) > 0  # non-hollow at test scale
    ora = _oracle_con(SF).execute(
        m.oracle_sql()["dedup_jaccard_verified"]).df()
    _hash_compare(out, ora)


def test_embedding_near_dup_oracle_parity_and_margins(ray_session):
    """The planted x2 copies are found with provably exact LSH recall
    (power-of-two scaling preserves hyperplane signs bitwise); output
    hash-matches brute-force SQL, every planted pair is present, and the
    decision margins around the 0.95 cut are wide on both sides."""
    import pyarrow.parquet as pq

    import __ray_entry__ as m

    out = _df(m.queries()["embedding_near_dup"](SF))
    n_vec = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
    assert len(out) == n_vec  # exactly the planted pairs, nothing organic
    assert (out.vec_b - out.vec_a == 100000).all()
    assert (out.cosine == 1.0).all()
    ora = _oracle_con(SF).execute(m.oracle_sql()["embedding_near_dup"]).df()
    _hash_compare(out, ora)
    # margin guard: organic background far below the cut, planted far above
    emb = np.asarray(
        pq.read_table(f"{SF}/embeddings.parquet")["embedding"].to_pylist(),
        dtype="d")
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1
    u = emb / norms
    sims = u @ u.T
    background = sims[np.triu_indices(len(u), 1)]
    assert background.max() < 0.90  # >= 0.05 below the 0.95 threshold


def test_parquet_head_streams_and_handles_empty(tmp_path):
    """parquet_head never materializes the file and a zero-row file yields
    a typed-empty table (not StopIteration) through head_sequences_table."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from matrixprofile_1_ray.sources.sequences import (
        head_sequences_table,
        parquet_head,
        sequences_table_from_documents,
    )

    schema = pa.schema([("doc_id", pa.string()), ("text", pa.string()),
                        ("source", pa.string())])
    full = pa.table({"doc_id": [f"d{i}" for i in range(10)],
                     "text": ["abcdefgh"] * 10,
                     "source": ["s"] * 10}, schema=schema)
    pq.write_table(full, tmp_path / "documents.parquet")
    head = parquet_head(str(tmp_path / "documents.parquet"), 3,
                        ["doc_id", "text"])
    assert head.column_names == ["doc_id", "text"] and len(head) == 3
    # head-of-file rows match the full-read-then-slice reference behavior
    seq = head_sequences_table(str(tmp_path), 4)
    ref = sequences_table_from_documents(str(tmp_path)).slice(0, 4)
    assert seq.equals(ref)

    pq.write_table(schema.empty_table(), tmp_path / "documents.parquet")
    empty = head_sequences_table(str(tmp_path), 5)
    assert len(empty) == 0
    assert empty.column_names == ["doc_id", "tokens", "n_tok", "source"]


def test_list_column_to_numpy_rebases_sliced_arrays():
    """Sliced / non-compacted list columns rebase to a values span of
    exactly offsets[0]:offsets[-1], so whole-array vectorized callers
    (reduceat-to-end mins, arange-based dims) stay correct."""
    import pyarrow as pa

    from matrixprofile_1_ray.functions.tokenize import list_column_to_numpy

    arr = pa.array([[5.0, 6.0], [7.0, 8.0], [9.0, 9.0], [0.5, 0.5]])
    sliced = arr.slice(1, 2)  # rows [7,8], [9,9]
    values, offsets = list_column_to_numpy(sliced)
    assert offsets[0] == 0 and offsets[-1] == len(values)
    assert values.tolist() == [7.0, 8.0, 9.0, 9.0]

    # the original failure: per-row min of the LAST row of a sliced column
    import __ray_entry__ as m

    mins, nz = m._list_col_min(sliced)
    assert mins.tolist() == [7.0, 9.0] and nz.all()

    # empty-row interleaving still segments correctly
    arr2 = pa.array([[3.0], [], [2.0, 4.0]])
    mins2, nz2 = m._list_col_min(arr2)
    assert mins2[0] == 3.0 and not nz2[1] and mins2[2] == 2.0
