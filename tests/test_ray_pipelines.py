"""End-to-end Ray Data pipelines on sf0.001, cross-checked against the
DuckDB oracle SQL — the same comparison the driver's correctness gate runs."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="session")
def entry_mod(ray_session):
    import __ray_entry__

    return __ray_entry__


@pytest.fixture(scope="session")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _compare(engine_df: pd.DataFrame, oracle_df: pd.DataFrame):
    assert sorted(engine_df.columns) == sorted(oracle_df.columns), (
        engine_df.columns, oracle_df.columns)
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


def test_entry_smoke(entry_mod):
    ds = entry_mod.entry()
    df = ds.to_pandas()
    assert len(df) > 0
    assert set(df.columns) == {"doc_id", "source", "tier", "bucket", "t_min",
                               "t_max", "t_sum", "t_count", "t_mean"}
    assert set(df.tier) == {"1m", "1h", "1d"}


@pytest.mark.parametrize("name", ["sequences_meta", "rollup_1m", "rollup_1h",
                                  "doc_stats", "quality", "word_counts",
                                  "dedup_exact", "events_rollup_hourly",
                                  "moving_stats_w8", "fingerprints",
                                  "per_source_token_quantiles",
                                  "sliding_event_counts", "ann_topk",
                                  "simhash", "langid"])
def test_oracle_parity(entry_mod, oracle_con, name):
    engine = _to_pandas(entry_mod.queries()[name](SF))
    oracle = oracle_con.execute(entry_mod.oracle_sql()[name]).df()
    _compare(engine, oracle)


def test_mp_profiles_rows(entry_mod):
    df = _to_pandas(entry_mod.queries()["mp_profiles"](SF))
    assert len(df) == 500
    valid = df[df.valid]
    assert len(valid) > 300
    assert (valid.profile_len > 0).all()
    assert (valid.mp_min >= 0).all()


def test_discords_and_regimes_rows(entry_mod):
    discords = _to_pandas(entry_mod.queries()["discords"](SF))
    assert {"doc_id", "rank", "discord_idx", "mp_value"} <= set(discords.columns)
    assert len(discords) > 100

    top = _to_pandas(entry_mod.queries()["corpus_top_discords"](SF))
    assert len(top) == 10
    assert (top.mp_value.values == np.sort(top.mp_value.values)[::-1]).all()


def test_ann_topk(entry_mod):
    df = _to_pandas(entry_mod.queries()["ann_topk"](SF))
    # 8 queries x top-5
    assert len(df) == 40
    # each query's own vector must rank first (cosine = 1 with itself)
    best = df[df["rank"] == 0]
    assert (best.query_id.to_numpy() ==
            np.arange(8)[np.argsort(best.query_id.to_numpy())]).all()
    for q in range(8):
        sub = df[df.query_id == q].sort_values("rank")
        assert sub.iloc[0].vec_id == q  # vec_ids 0..7 are the queries
        assert sub.iloc[0].score >= sub.iloc[-1].score


def test_ivf_index_prunes_and_recalls(entry_mod, tmp_path):
    """The IVF index is a real partitioned layout: the query path reads
    ONLY the probed centroid partitions, and recall@5 vs brute force is
    high for self-queries."""
    import pyarrow.parquet as pq
    import ray.data

    from matrixprofile_1_ray.stages.ann import (
        brute_force_topk,
        build_ivf_index,
        ivf_search,
        load_ivf_centroids,
    )

    head = pq.read_table(f"{SF}/embeddings.parquet").slice(0, 8)
    queries = np.stack([np.asarray(v, dtype="d")
                        for v in head["embedding"].to_pylist()])
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    index_dir = str(tmp_path / "ivf")
    centroids = build_ivf_index(ds, index_dir, n_centroids=8)
    assert load_ivf_centroids(index_dir).shape == centroids.shape
    part_dirs = [d for d in os.listdir(index_dir) if d.startswith("centroid=")]
    assert len(part_dirs) >= 2  # really partitioned on disk

    queries = queries[:3]
    got = _to_pandas(ivf_search(index_dir, queries, k=5, nprobe=2))
    # pruned read: the probed-partition row total < full corpus
    n_total = ds.count()
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    probe_union = set(np.argsort(-(qn @ centroids.T), axis=1)[:, :2].ravel())
    probed_rows = sum(
        pq.read_table(os.path.join(index_dir, d)).num_rows
        for d in part_dirs if int(d.split("=")[1]) in probe_union)
    assert probed_rows < n_total
    assert len(got) == len(got[got.vec_id.notna()])

    bf = _to_pandas(brute_force_topk(ds, queries[:3], k=5))
    hits = 0
    for q in range(3):
        ivf_ids = set(got[got.query_id == q].vec_id)
        bf_ids = set(bf[bf.query_id == q].vec_id)
        hits += len(ivf_ids & bf_ids)
    assert hits >= 0.6 * 3 * 5  # recall@5 >= 60% with nprobe=2/8
    # each query still finds itself (exact within probed lists)
    for q in range(3):
        sub = got[got.query_id == q].sort_values("rank")
        assert sub.iloc[0].vec_id == q


def test_dedup_exact_counts(entry_mod, oracle_con):
    df = _to_pandas(entry_mod.queries()["dedup_exact"](SF))
    n_unique = oracle_con.execute(
        "SELECT count(DISTINCT text) FROM documents").fetchone()[0]
    assert len(df) == n_unique
    assert df.dup_count.sum() == 500


def test_ivf_index_dir_follows_build_source(monkeypatch):
    """The IVF index tag (the gate's ``/tmp/ivf_*_{tag}`` directory) and
    its fingerprint cover the build code: a changed build function
    changes the source digest, and a changed digest names a different
    directory, so no run reuses an index an older build path wrote."""
    from matrixprofile_1_ray.stages import ann

    path = f"{SF}/embeddings.parquet"
    ident, tag = ann.ivf_index_ident(path, n_centroids=8, seed=-1)
    assert ident.endswith(f":b{ann._build_source_digest()}")
    assert ann.ivf_index_ident(path, n_centroids=8, seed=-1) == (ident, tag)

    digest = ann._build_source_digest()
    with monkeypatch.context() as m:
        m.setattr(ann, "assign_centroid_batch", ann.probe_scan_batch)
        assert ann._build_source_digest() != digest
    monkeypatch.setattr(ann, "_build_source_digest", lambda: "0" * 12)
    m_ident, m_tag = ann.ivf_index_ident(path, n_centroids=8, seed=-1)
    assert m_ident != ident and m_tag != tag


def test_ivf_build_assignment_matches_argmax(ray_session):
    """The persisted index's assignments equal argmax cosine vs the
    supplied seed centroids (the SQL-replayable build gate's engine
    side, checked here against a direct NumPy recompute)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data
    from ray.data.datasource.partitioning import PathPartitionFilter

    from matrixprofile_1_ray.stages.ann import (
        build_ivf_index,
        seed_centroids_by_vec_id,
    )

    sf = "/root/testdata/sf0.001"
    path = f"{sf}/embeddings.parquet"
    cents = seed_centroids_by_vec_id(path, 8)
    index_dir = "/tmp/ivf_test_build_assignment"
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    build_ivf_index(ds, index_dir, centroids=cents)

    pf = PathPartitionFilter.of(
        lambda kv: kv.get("centroid") is not None, style="hive")
    got = (ray.data.read_parquet(index_dir, partition_filter=pf,
                                 file_extensions=["parquet"],
                                 columns=["vec_id", "centroid"])
           .to_pandas())
    got["centroid"] = got["centroid"].astype(np.int64)
    got = got.sort_values("vec_id").reset_index(drop=True)

    tab = pq.read_table(path, columns=["vec_id", "embedding"])
    emb = np.stack([np.asarray(v, dtype="d")
                    for v in tab["embedding"].to_pylist()])
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    expect = np.argmax(emb @ cents.T, axis=1)
    order = np.argsort(tab["vec_id"].to_numpy())
    assert len(got) == len(emb)
    np.testing.assert_array_equal(got["centroid"].to_numpy(), expect[order])
