"""Explicit partitioned hash join: parity with DuckDB and join-mode
semantics."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def test_hash_join_inner_counts(ray_session):
    import ray.data

    from matrixprofile_1_ray.stages.join import hash_join

    li = ray.data.read_parquet(f"{SF}/lineitem.parquet",
                               columns=["l_orderkey", "l_quantity"])
    orders = ray.data.read_parquet(
        f"{SF}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus"]).map_batches(
        lambda df: df.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas")
    out = hash_join(li, orders, "l_orderkey").to_pandas()

    con = duckdb.connect()
    exp = con.execute(
        f"SELECT l.l_orderkey, l.l_quantity, o.o_orderstatus "
        f"FROM read_parquet('{SF}/lineitem.parquet') l "
        f"JOIN read_parquet('{SF}/orders.parquet') o "
        f"ON l.l_orderkey = o.o_orderkey").df()
    assert len(out) == len(exp)
    cols = sorted(exp.columns)
    a = out[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        np.testing.assert_array_equal(a[c].to_numpy(), b[c].to_numpy(), err_msg=c)


def test_hash_join_keeps_all_null_columns(ray_session):
    """A column that is all-null within a part (here: globally) must survive
    the join with its nulls — the round-1 dropna side-splitter dropped it."""
    import ray.data

    from matrixprofile_1_ray.stages.join import hash_join

    left = ray.data.from_pandas(pd.DataFrame({
        "k": [1, 2, 3, 4], "lv": [None, None, None, None]}))
    right = ray.data.from_pandas(pd.DataFrame({
        "k": [1, 2, 3], "rv": [10.0, 20.0, 30.0]}))
    out = hash_join(left, right, "k", num_partitions=4).to_pandas()
    assert sorted(out.columns) == ["k", "lv", "rv"]
    assert len(out) == 3
    assert out["lv"].isna().all()


def test_hash_join_left_outer_schema(ray_session):
    """Left-join parts with an empty right side must still carry the right
    columns (null-filled), and unmatched keys survive."""
    import ray.data

    from matrixprofile_1_ray.stages.join import hash_join

    left = ray.data.from_pandas(pd.DataFrame({
        "k": list(range(20)), "lv": list(range(20))}))
    right = ray.data.from_pandas(pd.DataFrame({
        "k": [0, 1], "rv": [100.0, 101.0]}))
    out = hash_join(left, right, "k", how="left",
                    num_partitions=8).to_pandas()
    assert sorted(out.columns) == ["k", "lv", "rv"]
    assert len(out) == 20
    assert out["rv"].notna().sum() == 2


def test_asof_join_query_oracle(ray_session):
    import __ray_entry__ as e

    df = e.queries()["prev_event_asof"](SF).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    odf = con.execute(e.oracle_sql()["prev_event_asof"]).df()
    cols = sorted(odf.columns)
    a = df[cols].sort_values(cols).reset_index(drop=True)
    b = odf[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    for c in cols:
        assert pd.Series(a[c].to_numpy()).equals(pd.Series(b[c].to_numpy())), c


def test_semi_and_anti_join(ray_session):
    import ray.data

    from matrixprofile_1_ray.stages.join import broadcast_semi_join

    li = ray.data.read_parquet(f"{SF}/lineitem.parquet",
                               columns=["l_orderkey"])
    keys = np.arange(0, 100)
    semi = broadcast_semi_join(li, keys, "l_orderkey").to_pandas()
    anti = broadcast_semi_join(li, keys, "l_orderkey", anti=True).to_pandas()
    total = li.count()
    assert len(semi) + len(anti) == total
    assert semi.l_orderkey.isin(keys).all()
    assert not anti.l_orderkey.isin(keys).any()



def test_semi_join_empty_key_set(ray_session):
    """No keys: the semi join is empty and the anti join keeps every row
    (an untyped empty value set raised ArrowTypeError on string keys)."""
    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.stages.join import broadcast_semi_join

    for keys in (pa.array(["a", "b", None, "c"]), pa.array([3, 1, 2])):
        ds = ray.data.from_arrow(pa.table({"k": keys}))
        assert broadcast_semi_join(ds, [], "k").count() == 0
        assert (broadcast_semi_join(ds, [], "k", anti=True).count()
                == len(keys))


def test_asof_join_keeps_all_null_left_column(ray_session):
    """asof_join must not drop a left column that is all-null in a part
    (the dropna side-splitter defect fixed in hash_join existed here too)."""
    import ray.data

    from matrixprofile_1_ray.stages.join import asof_join

    left = ray.data.from_pandas(pd.DataFrame({
        "k": [1, 1, 2, 2], "ts": [10, 20, 10, 20],
        "lv": [None, None, None, None]}))
    right = ray.data.from_pandas(pd.DataFrame({
        "k": [1, 2], "ts": [5, 15], "rv": [1.0, 2.0]}))
    out = asof_join(left, right, "k", "ts", ["rv"],
                    num_partitions=4).to_pandas()
    assert sorted(out.columns) == ["k", "lv", "rv", "ts"]
    assert len(out) == 4
    assert out["lv"].isna().all()
    assert out.sort_values(["k", "ts"]).rv.tolist() == [1.0, 1.0, None, 2.0] \
        or out["rv"].notna().sum() == 3


def test_bloom_semi_join_exact(ray_session):
    """Bloom prefilter + verification must equal the broadcast semi join
    exactly; prefilter alone must have zero false negatives."""
    import ray.data

    from matrixprofile_1_ray.stages.join import (
        bloom_semi_join,
        broadcast_semi_join,
    )

    li = ray.data.read_parquet(f"{SF}/lineitem.parquet",
                               columns=["l_orderkey", "l_quantity"])
    keys = np.arange(0, 2000, 3)
    keys_ds = ray.data.from_pandas(pd.DataFrame({"l_orderkey": keys}))

    exact = (bloom_semi_join(li, keys_ds, "l_orderkey")
             .to_pandas().sort_values(["l_orderkey", "l_quantity"])
             .reset_index(drop=True))
    expected = (broadcast_semi_join(li, keys, "l_orderkey")
                .to_pandas().sort_values(["l_orderkey", "l_quantity"])
                .reset_index(drop=True))
    pd.testing.assert_frame_equal(exact[expected.columns.tolist()], expected)

    pre = bloom_semi_join(li, keys_ds, "l_orderkey", exact=False).to_pandas()
    # no false negatives: every true member survives the prefilter
    assert set(map(tuple, expected.values)) <= set(
        map(tuple, pre[expected.columns.tolist()].values))


def test_semi_join_query_oracle(ray_session):
    import __ray_entry__ as e

    df = e.queries()["open_order_lines_semi"](SF).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    odf = con.execute(e.oracle_sql()["open_order_lines_semi"]).df()
    assert df.n_lines.iloc[0] == odf.n_lines.iloc[0]
    assert df.sum_qty.iloc[0] == odf.sum_qty.iloc[0]


def test_order_join_query_oracle(ray_session):
    import __ray_entry__ as e

    df = e.queries()["order_lines_by_status"](SF).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    odf = con.execute(e.oracle_sql()["order_lines_by_status"]).df()
    cols = sorted(odf.columns)
    a = df[cols].sort_values("o_orderstatus").reset_index(drop=True)
    b = odf[cols].sort_values("o_orderstatus").reset_index(drop=True)
    for c in cols:
        assert pd.Series(a[c].to_numpy()).equals(pd.Series(b[c].to_numpy())), c


def test_join_preserves_big_int64(ray_session):
    """Ints above 2^53 must survive the side-tagged union exactly: a pandas
    block anywhere on the shuffle path would NaN-backfill and promote to
    float64, corrupting them."""
    import ray.data

    from matrixprofile_1_ray.stages.join import (asof_join, bloom_semi_join,
                                                 hash_join)

    big = 2**53 + 1
    a = pd.DataFrame({"k": ["x", "y", "z"], "ida": [big, big + 2, 7]})
    b = pd.DataFrame({"k": ["x", "y"], "idb": [big + 4, 5]})

    out = hash_join(ray.data.from_pandas(a), ray.data.from_pandas(b),
                    "k").to_pandas()
    assert set(out["ida"]) == {big, big + 2}
    assert set(out["idb"]) == {big + 4, 5}

    outl = hash_join(ray.data.from_pandas(a), ray.data.from_pandas(b),
                     "k", how="left").to_pandas()
    assert set(outl["ida"]) == {big, big + 2, 7}

    la = pd.DataFrame({"u": ["a", "a", "b"], "t": [10, 20, 15],
                       "lv": [big, big + 2, 3]})
    ra = pd.DataFrame({"u": ["a", "b"], "t": [5, 12], "rv": [big + 6, 9]})
    oa = asof_join(ray.data.from_pandas(la), ray.data.from_pandas(ra),
                   "u", "t", ["rv"]).to_pandas()
    assert set(oa["lv"]) == {big, big + 2, 3}
    assert set(oa["rv"].dropna()) <= {big + 6, 9}

    bs = bloom_semi_join(ray.data.from_pandas(a),
                         ray.data.from_pandas(pd.DataFrame({"k": ["x"]})),
                         "k").to_pandas()
    assert set(bs["ida"]) == {big}


@pytest.mark.parametrize("seed", [7, 23, 61])
def test_hash_join_random_differential(ray_session, seed):
    """Randomized typed-frame differential vs DuckDB: string keys with
    skew, int64 values spanning past 2^53, floats with NaN — the engine
    join must match the SQL inner/left join row-for-row."""
    import ray.data

    from matrixprofile_1_ray.stages.join import hash_join

    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(12)]
    n_a, n_b = 60, 40
    a = pd.DataFrame({
        "k": rng.choice(keys, n_a),
        "ai": rng.integers(2**53 - 5, 2**53 + 60, n_a),
        "af": np.where(rng.random(n_a) < 0.2, np.nan, rng.random(n_a)),
    })
    b = pd.DataFrame({
        "k": rng.choice(keys[:8], n_b),
        "bi": rng.integers(-2**62, 2**62, n_b),
    })
    con = duckdb.connect()
    con.register("ta", a)
    con.register("tb", b)

    def arrow_pandas(ds):
        """Collect via Arrow (exact) — pandas' own int64-with-null ->
        float64 conversion would corrupt the big ints at the last step."""
        import pyarrow as pa

        tabs = list(ds.iter_batches(batch_format="pyarrow"))
        t = pa.concat_tables(tabs, promote_options="permissive")
        return t.to_pandas(types_mapper=lambda typ: pd.Int64Dtype()
                           if str(typ) == "int64" else None)

    for how, sql_how in (("inner", "JOIN"), ("left", "LEFT JOIN")):
        eng = arrow_pandas(hash_join(ray.data.from_pandas(a),
                                     ray.data.from_pandas(b),
                                     "k", how=how, num_partitions=5))
        # fetch via Arrow: duckdb's .df() converts nullable int64 to
        # float64, corrupting the oracle's own big ints
        ora = con.execute(
            f"SELECT ta.k, ta.ai, ta.af, tb.bi FROM ta {sql_how} tb "
            f"USING (k)").arrow().to_pandas(
            types_mapper=lambda typ: pd.Int64Dtype()
            if str(typ) == "int64" else None)
        cols = ["k", "ai", "af", "bi"]
        ea = (eng[cols].sort_values(cols).reset_index(drop=True))
        oa = (ora[cols].sort_values(cols).reset_index(drop=True))
        assert len(ea) == len(oa), how
        for c in ("k",):
            assert (ea[c].to_numpy() == oa[c].to_numpy()).all(), (how, c)
        for c in ("ai", "bi"):
            ev = pd.Series(ea[c]).astype("Int64")
            ov = pd.Series(oa[c]).astype("Int64")
            assert ev.equals(ov), (how, c)
        np.testing.assert_allclose(ea["af"].to_numpy(dtype="d"),
                                   oa["af"].to_numpy(dtype="d"),
                                   equal_nan=True)


@pytest.mark.parametrize("seed", [11, 37])
def test_asof_join_random_differential(ray_session, seed):
    """Randomized asof differential vs pandas merge_asof ground truth on
    the whole frame (the engine partitions by key, so equality proves the
    partitioned merge loses nothing)."""
    import ray.data

    from matrixprofile_1_ray.stages.join import asof_join

    rng = np.random.default_rng(seed)
    users = [f"u{i}" for i in range(6)]
    left = pd.DataFrame({
        "u": rng.choice(users, 50),
        "t": rng.integers(0, 1000, 50),
        "lv": rng.integers(2**53, 2**53 + 99, 50),
    })
    right = pd.DataFrame({
        "u": rng.choice(users, 30),
        "t": rng.integers(0, 1000, 30),
        "rv": rng.integers(0, 10**6, 30),
    })
    eng = asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    "u", "t", ["rv"], num_partitions=4).to_pandas()
    # ground truth: single global merge_asof (dedupe right like the engine
    # receives it — backward direction keeps the latest t <= left t)
    truth = pd.merge_asof(left.sort_values("t"),
                          right.sort_values("t"),
                          on="t", by="u", direction="backward")
    cols = ["u", "t", "lv", "rv"]
    ea = eng[cols].sort_values(cols).reset_index(drop=True)
    ta = truth[cols].sort_values(cols).reset_index(drop=True)
    assert len(ea) == len(ta)
    assert (ea["lv"].astype("Int64").to_numpy()
            == ta["lv"].astype("Int64").to_numpy()).all()
    np.testing.assert_allclose(ea["rv"].to_numpy(dtype="d"),
                               ta["rv"].to_numpy(dtype="d"), equal_nan=True)
