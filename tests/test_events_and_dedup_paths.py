"""Event windowing (session/sliding) with oracle parity, plus the dedup
paths not covered elsewhere (embedding near-dup, Jaccard verification,
frame sampling)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def entry_mod(ray_session):
    import __ray_entry__

    return __ray_entry__


def test_user_sessions_oracle(entry_mod):
    out = entry_mod.queries()["user_sessions"](SF).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
    oracle = con.execute(entry_mod.oracle_sql()["user_sessions"]).df()
    cols = sorted(oracle.columns)
    a = out[cols].sort_values("user_id").reset_index(drop=True)
    b = oracle[cols].sort_values("user_id").reset_index(drop=True)
    assert len(a) == len(b)
    for c in cols:
        np.testing.assert_array_equal(a[c].to_numpy(), b[c].to_numpy(), err_msg=c)


def test_sliding_window_counts(entry_mod):
    out = entry_mod.queries()["sliding_event_counts"](SF).to_pandas()
    # every event is counted in exactly 4 windows (60m window, 15m slide)
    con = duckdb.connect()
    n_events = con.execute(
        f"SELECT count(*) FROM read_parquet('{SF}/events.parquet')").fetchone()[0]
    assert out.n_events.sum() == 4 * n_events
    assert (out.window_start % (15 * 60 * 1_000_000) == 0).all()



def test_session_windows_null_user_id(ray_session):
    """A null user_id must not crash sessionization: each null-keyed event
    stands alone and every other user's sessions are unaffected."""
    import ray.data

    from matrixprofile_1_ray.stages.events import session_windows

    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    mins = np.array([0, 10, 100, 5, 0, 50], dtype="timedelta64[m]")
    events = pa.table({
        "user_id": pa.array(["a", "a", "a", None, "b", None], pa.string()),
        "ts": pa.array(t0 + mins.astype("timedelta64[us]")),
    })
    out = (session_windows(ray.data.from_arrow(events), gap_minutes=30,
                           num_partitions=1)
           .to_pandas())
    named = out[out.user_id.notna()].set_index("user_id")
    assert named.loc["a", "n_sessions"] == 2
    assert named.loc["a", "n_events"] == 3
    assert named.loc["a", "max_session_events"] == 2
    assert named.loc["b", "n_events"] == 1
    nulls = out[out.user_id.isna()]
    assert nulls.n_events.sum() == 2 and (nulls.n_sessions == 1).all()

def test_connected_components(ray_session):
    import ray.data

    from matrixprofile_1_ray.stages.dedup import connected_components

    # chain a-b-c (diameter 2 -> needs 2 propagation rounds), pair d-e
    pairs = pd.DataFrame({
        "doc_a": ["a", "b", "d"],
        "doc_b": ["b", "c", "e"],
    })
    out = (connected_components(ray.data.from_pandas(pairs), max_iters=3,
                                num_partitions=2)
           .to_pandas().set_index("doc_id")["component"])
    assert out["a"] == out["b"] == out["c"] == "a"
    assert out["d"] == out["e"] == "d"


def test_connected_components_long_chain_pointer_doubling(ray_session):
    """A 20-node chain has diameter 19 — plain min-label propagation needs
    19 rounds, pointer doubling reaches radius 2^(r-1) and converges well
    inside the default max_iters=8 (and the default check_fixpoint raises
    instead of silently returning unconverged)."""
    import ray.data

    from matrixprofile_1_ray.stages.dedup import connected_components

    nodes = [f"n{i:02d}" for i in range(20)]
    pairs = pd.DataFrame({"doc_a": nodes[:-1], "doc_b": nodes[1:]})
    out = (connected_components(ray.data.from_pandas(pairs),
                                num_partitions=2)
           .to_pandas().set_index("doc_id")["component"])
    assert (out == "n00").all()


def test_connected_components_single_partition(ray_session):
    """num_partitions=1 is widened internally (num_returns=1 would hand a
    whole-list ref to the next wave) — must not crash."""
    import ray.data

    from matrixprofile_1_ray.stages.dedup import connected_components

    pairs = pd.DataFrame({"doc_a": ["a", "b"], "doc_b": ["b", "c"]})
    out = (connected_components(ray.data.from_pandas(pairs),
                                num_partitions=1)
           .to_pandas().set_index("doc_id")["component"])
    assert (out == "a").all()


def test_dedup_groups_end_to_end(ray_session):
    """LSH candidates -> dedup groups over the sf corpus (driver
    union-find path for the small candidate set)."""
    import __ray_entry__ as e

    from matrixprofile_1_ray.stages.dedup import dedup_groups

    pairs = e.queries()["dedup_minhash_lsh"](SF)
    groups = dedup_groups(pairs).to_pandas()
    assert groups.component.nunique() < len(groups)  # real grouping happened
    reps = set(groups.component)
    assert reps <= set(groups.doc_id)


def test_dedup_groups_paths_agree(ray_session):
    """Driver union-find and distributed min-label produce identical
    groupings."""
    import ray.data

    from matrixprofile_1_ray.stages.dedup import (
        connected_components,
        dedup_groups,
    )

    pairs = pd.DataFrame({
        "doc_a": ["a", "b", "d", "m"],
        "doc_b": ["b", "c", "e", "c"],
    })
    ds = ray.data.from_pandas(pairs)
    fast = dedup_groups(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    dist = (connected_components(ds, max_iters=4, num_partitions=2)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(fast, dist)


def test_embedding_near_dup(ray_session):
    import ray.data

    from matrixprofile_1_ray.stages.dedup import embedding_near_dup

    rng = np.random.default_rng(5)
    base = rng.normal(size=(20, 64)).astype("f")
    # plant two exact near-dup pairs
    vecs = np.vstack([base, base[3] + rng.normal(scale=1e-3, size=64).astype("f"),
                      base[7] + rng.normal(scale=1e-3, size=64).astype("f")])
    table = pa.table({
        "vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float32())),
    })
    out = embedding_near_dup(ray.data.from_arrow(table),
                             threshold=0.99).to_pandas()
    pairs = {tuple(sorted(p)) for p in zip(out.vec_a, out.vec_b)}
    assert (3, 20) in pairs and (7, 21) in pairs
    assert (out.cosine >= 0.99).all()


def test_verify_jaccard_pairs():
    from matrixprofile_1_ray.sources import synthetic_sequences_table
    from matrixprofile_1_ray.stages.dedup import verify_jaccard_pairs

    table = synthetic_sequences_table(4, seed=55)
    # make doc 1 a near-copy of doc 0
    toks = table["tokens"].to_pylist()
    toks[1] = toks[0][:-3] + [1, 2, 3]
    import pyarrow as pa

    table = pa.table({
        "doc_id": table["doc_id"],
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array([len(t) for t in toks], pa.int32()),
        "source": table["source"],
    })
    ids = table["doc_id"].to_pylist()
    pairs = pd.DataFrame({"doc_a": [ids[0], ids[0]], "doc_b": [ids[1], ids[2]]})
    out = verify_jaccard_pairs(pairs, table, threshold=0.5)
    assert list(out.doc_b) == [ids[1]]
    assert out.jaccard.iloc[0] > 0.8


def test_verify_jaccard_bucketed_matches_driver(ray_session):
    """The bucketed scale path takes BOTH operands as Datasets — the
    sequences are never collected on the driver — and must agree exactly
    with the driver-side helper.  The sequences Dataset is deliberately
    built lazily (generator source + transform) so the test fails if the
    verify ever tries to collect it."""
    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.sources import synthetic_sequences_table
    from matrixprofile_1_ray.stages.dedup import (
        verify_jaccard_bucketed,
        verify_jaccard_pairs,
    )

    table = synthetic_sequences_table(12, seed=56, min_len=64, max_len=128)
    ids = table["doc_id"].to_pylist()
    pairs = pd.DataFrame({
        "doc_a": [ids[i] for i in range(0, 10)],
        "doc_b": [ids[i + 1] for i in range(0, 10)],
    })
    drv = verify_jaccard_pairs(pairs, table, threshold=0.0)
    seq_ds = (ray.data.from_arrow(table).repartition(4)
              .map_batches(lambda b: b, batch_format="pyarrow"))
    dist = (verify_jaccard_bucketed(ray.data.from_pandas(pairs), seq_ds,
                                    threshold=0.0)
            .to_pandas().sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True))
    drv = drv.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(dist, drv[dist.columns.tolist()])


def test_verify_jaccard_bucketed_no_surviving_pair_is_typed(ray_session):
    """A part whose only pair falls below the threshold emits an empty
    block that still carries string doc_a/doc_b columns (an untyped empty
    column has no type and makes Ray log a size error)."""
    import ray.data

    from matrixprofile_1_ray.stages.dedup import verify_jaccard_bucketed

    seqs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b"], pa.string()),
        "tokens": pa.array([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]],
                           pa.list_(pa.int64())),
    }))
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(["a"], pa.string()),
        "doc_b": pa.array(["b"], pa.string()),
    }))
    out = verify_jaccard_bucketed(pairs, seqs, threshold=0.5).materialize()
    assert out.count() == 0
    schema = out.schema()
    types = dict(zip(schema.names, schema.types))
    assert types["doc_a"] == pa.string()
    assert types["doc_b"] == pa.string()


def test_frame_sample_batch():
    from matrixprofile_1_ray.stages.multimodal import frame_sample_batch

    batch = pa.table({
        "media_id": pa.array(["a", "b"], pa.string()),
        "frame_count": pa.array([25, 7], pa.int64()),
    })
    out = frame_sample_batch(batch, every=10).to_pandas()
    assert list(out[out.media_id == "a"].frame_idx) == [0, 10, 20]
    assert list(out[out.media_id == "b"].frame_idx) == [0]


def test_sliding_window_counts_nondividing_slide(ray_session):
    """slide that does not divide the window: every covering epoch-grid
    start must be counted (ceil(w/s) candidates, coverage-masked) —
    checked against a brute-force per-event walk."""
    from collections import Counter

    import ray.data

    from matrixprofile_1_ray.stages.events import sliding_window_counts

    rng = np.random.default_rng(0)
    ts = (pd.to_datetime("2024-01-01")
          + pd.to_timedelta(rng.integers(0, 86400, 200), unit="s"))
    ev = pd.DataFrame({"ts": ts, "event_type": rng.choice(["a", "b"], 200)})
    got_df = sliding_window_counts(ray.data.from_pandas(ev),
                                   window_minutes=60,
                                   slide_minutes=25).to_pandas()

    s_us, w_us = 25 * 60 * 1_000_000, 60 * 60 * 1_000_000
    tsi = ts.astype("datetime64[us]").astype(np.int64).to_numpy()
    want = Counter()
    for t, e in zip(tsi, ev["event_type"]):
        g = (t // s_us) * s_us
        while g + w_us > t:
            want[(e, g)] += 1
            g -= s_us
    got = {(r.event_type, r.window_start): r.n_events
           for r in got_df.itertuples()}
    assert got == dict(want)


@pytest.mark.parametrize("wm,sm", [(60, 25), (45, 20), (90, 40), (30, 30)])
def test_sliding_window_counts_param_sweep(ray_session, wm, sm):
    """Window/slide combos (dividing and non-dividing) vs the brute-force
    per-event covering-window walk."""
    from collections import Counter

    import ray.data

    from matrixprofile_1_ray.stages.events import sliding_window_counts

    rng = np.random.default_rng(wm * 100 + sm)
    ts = (pd.to_datetime("2024-03-05")
          + pd.to_timedelta(rng.integers(0, 86400, 120), unit="s"))
    ev = pd.DataFrame({"ts": ts, "event_type": rng.choice(["a", "b", "c"],
                                                          120)})
    got_df = sliding_window_counts(ray.data.from_pandas(ev),
                                   window_minutes=wm,
                                   slide_minutes=sm).to_pandas()
    s_us, w_us = sm * 60 * 1_000_000, wm * 60 * 1_000_000
    tsi = ts.astype("datetime64[us]").astype(np.int64).to_numpy()
    want = Counter()
    for t, e in zip(tsi, ev["event_type"]):
        g = (t // s_us) * s_us
        while g + w_us > t:
            want[(e, g)] += 1
            g -= s_us
    got = {(r.event_type, r.window_start): r.n_events
           for r in got_df.itertuples()}
    assert got == dict(want)


@pytest.mark.parametrize("seed", [3, 41])
def test_session_windows_random_differential(ray_session, seed):
    """Randomized sessionization vs a naive per-user walk (covers session
    breaks at exactly the gap boundary and single-event users)."""
    import ray.data

    from matrixprofile_1_ray.stages.events import session_windows

    rng = np.random.default_rng(seed)
    gap_min = 30
    users = [f"u{i}" for i in range(9)]
    n = 300
    ev = pd.DataFrame({
        "user_id": rng.choice(users, n),
        "ts": (pd.to_datetime("2024-03-05")
               + pd.to_timedelta(rng.integers(0, 6 * 3600, n), unit="s")),
    })
    # plant an exact-gap pair (gap == threshold must NOT break the session)
    ev.loc[0, ["user_id", "ts"]] = ["uX", pd.to_datetime("2024-03-06")]
    ev.loc[1, ["user_id", "ts"]] = [
        "uX", pd.to_datetime("2024-03-06") + pd.Timedelta(minutes=gap_min)]
    got = (session_windows(ray.data.from_pandas(ev), gap_minutes=gap_min)
           .to_pandas().set_index("user_id").sort_index())

    gap = np.timedelta64(gap_min * 60, "s")
    want = {}
    for u, grp in ev.groupby("user_id"):
        t = np.sort(grp["ts"].to_numpy())
        breaks = np.concatenate(([True], np.diff(t) > gap))
        sid = np.cumsum(breaks)
        sizes = np.bincount(sid)[1:]
        want[u] = (int(sid[-1]), len(t), int(sizes.max()))
    assert len(got) == len(want)
    for u, (ns, ne, mx) in want.items():
        row = got.loc[u]
        assert (int(row.n_sessions), int(row.n_events),
                int(row.max_session_events)) == (ns, ne, mx), u
