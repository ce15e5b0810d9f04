"""Extended operator coverage: PMP, pairs, snippets, AV, multimodal,
profile persistence, plus the new queries() entries end-to-end."""

import numpy as np
import pandas as pd
import pytest

from matrixprofile_1_ray.sources import synthetic_sequences_table

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def entry_mod(ray_session):
    import __ray_entry__

    return __ray_entry__


def _df(x):
    import pyarrow as pa
    import ray.data

    if isinstance(x, ray.data.Dataset):
        return x.to_pandas()
    if isinstance(x, pa.Table):
        return x.to_pandas()
    return x


def test_pmp_and_pick(entry_mod):
    pmp = _df(entry_mod.queries()["pmp"](SF))
    assert set(pmp.w) == {16, 32, 64}
    picked = _df(entry_mod.queries()["pick_mp_w32"](SF))
    assert set(picked.w) == {32}
    # pmp rows for one doc match the kernel directly
    from matrixprofile_1_ray.kernels.mpx import mpx_self
    from matrixprofile_1_ray.sources.sequences import sequences_table_from_documents

    table = sequences_table_from_documents(SF)
    doc = table["doc_id"][0].as_py()
    ts = np.asarray(table["tokens"][0].as_py(), dtype="d")
    row = pmp[(pmp.doc_id == doc) & (pmp.w == 32)]
    if len(row):
        mp, _ = mpx_self(ts, 32)
        np.testing.assert_array_equal(np.asarray(row.iloc[0].mp), mp)


def test_chunked_rollup_query_matches_oracle(entry_mod):
    import duckdb

    out = _df(entry_mod.queries()["rollup_1m_chunked"](SF))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    oracle = con.execute(entry_mod.oracle_sql()["rollup_1m_chunked"]).df()
    cols = sorted(oracle.columns)
    a = out[cols].sort_values(cols).reset_index(drop=True)
    b = oracle[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    for c in cols:
        np.testing.assert_array_equal(a[c].to_numpy(), b[c].to_numpy(), err_msg=c)


def test_snippets_and_maxsubseq(entry_mod):
    snips = _df(entry_mod.queries()["snippets"](SF))
    assert {"doc_id", "rank", "snippet_idx", "fraction"} <= set(snips.columns)
    assert len(snips) > 50
    # reference fraction = hits/(len-ss) with hits counted over len-ss+2
    # positions (snippets.py:122) -> can reach ~1.03 on short docs
    assert ((snips.fraction >= 0) & (snips.fraction <= 1.05)).all()

    upper = _df(entry_mod.queries()["maximum_subsequence"](SF))
    assert (upper.upper_window >= 8).all() or (upper.upper_window == -1).any()


def test_corrected_profile(entry_mod):
    out = _df(entry_mod.queries()["corrected_profile"](SF))
    assert set(out.av_type) == {"complexity"}
    assert (out.cmp_min.dropna() >= -1e-9).all()


def test_mpdist_pairs_and_hclust(entry_mod):
    pairs = _df(entry_mod.queries()["mpdist_pairs"](SF))
    assert len(pairs) == 20 * 19 // 2
    assert (pairs.mpdist >= 0).all()

    clusters = _df(entry_mod.queries()["hierarchical_clusters"](SF))
    assert len(clusters) == 12
    assert clusters.cluster.nunique() <= 4


def test_mpdist_pairs_scales_without_corpus_broadcast(ray_session):
    """150 docs -> 11 175 task-generated pairs, per-series object refs (no
    whole-corpus dict), condensed fill vectorized and equal to the serial
    kernel on a spot-checked subset."""
    import numpy as np

    from matrixprofile_1_ray.kernels import pairwise_dist
    from matrixprofile_1_ray.sources import synthetic_sequences_table
    from matrixprofile_1_ray.stages.pairs import (
        all_pairs_dataset,
        mpdist_pairs,
        pairwise_dist_distributed,
    )

    table = synthetic_sequences_table(150, seed=3, min_len=64, max_len=96)
    n = 150
    pairs_ds = all_pairs_dataset(table["doc_id"].to_pylist())
    assert pairs_ds.count() == n * (n - 1) // 2

    out = mpdist_pairs(table, w=16).to_pandas()
    assert len(out) == n * (n - 1) // 2
    assert (out.mpdist >= -1e-12).all()

    # condensed layout parity with the serial kernel on the first 10 docs
    sub = synthetic_sequences_table(10, seed=3, min_len=64, max_len=96)
    from matrixprofile_1_ray.functions.tokenize import list_column_to_numpy

    values, offsets = list_column_to_numpy(sub["tokens"])
    series = [values[offsets[i]:offsets[i + 1]].astype("d")
              for i in range(10)]
    np.testing.assert_allclose(
        pairwise_dist_distributed(sub, 16), pairwise_dist(series, 16),
        rtol=1e-10, atol=1e-12)


def test_mpdist_pairs_accepts_candidate_dataset(ray_session):
    """The 100 TB path: pairs supplied as a Dataset (e.g. LSH candidates)."""
    import ray.data

    from matrixprofile_1_ray.sources import synthetic_sequences_table
    from matrixprofile_1_ray.stages.pairs import mpdist_pairs

    table = synthetic_sequences_table(8, seed=5, min_len=64, max_len=96)
    ids = table["doc_id"].to_pylist()
    cand = ray.data.from_pandas(pd.DataFrame({
        "doc_a": [ids[0], ids[2]], "doc_b": [ids[1], ids[5]]}))
    out = mpdist_pairs(table, w=16, pairs=cand).to_pandas()
    assert len(out) == 2
    assert set(zip(out.doc_a, out.doc_b)) == {(ids[0], ids[1]),
                                              (ids[2], ids[5])}


def test_ab_join_and_mass_search(entry_mod):
    ab = _df(entry_mod.queries()["ab_join"](SF))
    assert len(ab) > 400
    # doc 0 joined against itself must contain a perfect match
    from matrixprofile_1_ray.sources.sequences import sequences_table_from_documents

    doc0 = sequences_table_from_documents(SF)["doc_id"][0].as_py()
    self_row = ab[ab.doc_id == doc0].iloc[0]
    assert min(self_row.mp) < 1e-6

    ms = _df(entry_mod.queries()["mass_search"](SF))
    assert {"doc_id", "rank", "match_idx", "distance"} <= set(ms.columns)
    best = ms[ms.doc_id == doc0].sort_values("rank").iloc[0]
    assert best.match_idx == 0 or best.distance < 1e-5


def test_media_features(entry_mod):
    # exploded (media_id, dim, feature) rows: 64 payloads x 8 dims
    out = _df(entry_mod.queries()["media_features"](SF))
    assert len(out) == 64 * 8
    assert out.media_id.nunique() == 64
    assert sorted(out[out.media_id == out.media_id.iloc[0]].dim) == list(range(8))
    assert ((out.feature >= 0) & (out.feature < 1)).all()
    # deterministic across runs
    out2 = _df(entry_mod.queries()["media_features"](SF))
    key = ["media_id", "dim"]
    np.testing.assert_array_equal(
        out.sort_values(key).feature.to_numpy(),
        out2.sort_values(key).feature.to_numpy())


def test_media_strict_raises(ray_session):
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import (
        make_fake_media_table,
        media_features_stage,
    )

    media = ray.data.from_arrow(make_fake_media_table(4))
    with pytest.raises(Exception):
        media_features_stage(media, strict=True).take_all()


def test_profiles_persist_roundtrip(ray_session, tmp_path):
    import ray.data

    from matrixprofile_1_ray.io import profile_row_to_dict, read_profiles, write_profiles
    from matrixprofile_1_ray.kernels import top_k_discords
    from matrixprofile_1_ray.stages.profile import compute_profiles_batch

    table = synthetic_sequences_table(6, seed=21)
    prof = compute_profiles_batch(table, w=32)
    ds = ray.data.from_arrow(prof)
    path = str(tmp_path / "profiles")
    write_profiles(ds, path)
    back = read_profiles(path).to_pandas().sort_values("doc_id").reset_index(drop=True)
    orig = prof.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(back) == len(orig)
    np.testing.assert_array_equal(np.concatenate(back.mp.to_numpy()),
                                  np.concatenate(orig.mp.to_numpy()))

    # reference-dict interop: discover ops run on a persisted row
    row = back[back.valid].iloc[0].to_dict()
    prof_dict = profile_row_to_dict(row)
    out = top_k_discords(prof_dict, k=2)
    assert len(out["discords"]) >= 1


def test_resize_stage_clamps_dims(ray_session):
    """Resize plumbing: aspect-preserving clamp of declared dims, opaque
    payload pass-through in stub mode, strict mode raises."""
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import (
        make_fake_media_table,
        resize_stage,
    )

    media = make_fake_media_table(12, seed=3)
    out = (resize_stage(ray.data.from_arrow(media), max_w=64, max_h=48)
           .to_pandas().set_index("media_id").sort_index())
    src = media.to_pandas().set_index("media_id").sort_index()
    assert (out.width <= 64).all() and (out.height <= 48).all()
    # aspect ratio preserved (floor rounding tolerance)
    scale = np.minimum(1.0, np.minimum(64 / src.width, 48 / src.height))
    np.testing.assert_array_equal(out.width.to_numpy(),
                                  np.floor(src.width * scale).astype(int))
    np.testing.assert_array_equal(out.height.to_numpy(),
                                  np.floor(src.height * scale).astype(int))
    # payload untouched in stub mode
    assert (out.payload == src.payload).all()
    # already-small images unchanged
    small = make_fake_media_table(4, seed=9)
    out2 = (resize_stage(ray.data.from_arrow(small), max_w=1024, max_h=1024)
            .to_pandas().set_index("media_id").sort_index())
    src2 = small.to_pandas().set_index("media_id").sort_index()
    assert (out2.width == src2.width).all()
    with pytest.raises(Exception):
        resize_stage(ray.data.from_arrow(small), max_w=8, max_h=8,
                     strict=True).take_all()


def test_split_sql_single_bucket_is_valid_sql(tmp_path):
    """A one-ratio split must not emit a WHEN-less CASE (DuckDB parser
    error); everything lands in the single bucket."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from matrixprofile_1_ray.stages.split import split_sql

    pq.write_table(pa.table({"doc_id": ["a", "b", "c"]}),
                   str(tmp_path / "docs.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/docs.parquet')")
    df = con.execute(split_sql(ratios=(("train", 1.0),))).df()
    assert set(df["split"]) == {"train"} and len(df) == 3
