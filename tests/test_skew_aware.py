"""profiles_skew_aware: length-routed profiles == the batch kernel."""

import numpy as np
import pyarrow as pa
import pytest

from matrixprofile_1_ray.kernels.mpx import mpx_self
from matrixprofile_1_ray.pipelines.flagship import (
    long_row_profile_table,
    profiles_skew_aware,
)
from matrixprofile_1_ray.stages.profile import compute_profiles_batch

W = 16
THRESHOLD = 1000


@pytest.fixture(scope="module")
def skew_corpus():
    """12 typical ~150-token rows plus one 3000-token tail row."""
    rng = np.random.default_rng(3)
    lens = [150 + int(x) for x in rng.integers(0, 50, size=12)] + [3000]
    toks = [rng.integers(0, 50, size=n).astype(np.int32) for n in lens]
    return pa.table({
        "doc_id": pa.array([f"d{i:02d}" for i in range(len(lens))]),
        "tokens": pa.array([t.tolist() for t in toks],
                           pa.list_(pa.int32())),
        "n_tok": pa.array(lens, pa.int32()),
        "source": pa.array(["s0"] * len(lens)),
    })


def _normalize(df):
    return df.sort_values("doc_id").reset_index(drop=True)


def _assert_profiles_equal(got, want):
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["valid"]) == list(want["valid"])
    for g_mp, w_mp, g_pi, w_pi in zip(got["mp"], want["mp"],
                                      got["pi"], want["pi"]):
        np.testing.assert_allclose(np.asarray(g_mp, dtype="d"),
                                   np.asarray(w_mp, dtype="d"),
                                   rtol=0, atol=1e-9)
        np.testing.assert_array_equal(np.asarray(g_pi), np.asarray(w_pi))


def test_skew_aware_matches_batch_kernel(ray_session, skew_corpus):
    import ray.data

    ds = ray.data.from_arrow(skew_corpus)
    got = _normalize(profiles_skew_aware(
        ds, w=W, long_threshold=THRESHOLD).to_pandas())
    want = _normalize(compute_profiles_batch(skew_corpus, w=W).to_pandas())
    assert len(got) == len(skew_corpus)
    _assert_profiles_equal(got, want)


def test_skew_aware_pushdown_discovery(ray_session, skew_corpus, tmp_path):
    """corpus_path branch: the tail is found via parquet predicate
    pushdown instead of a second pass over ds — same result."""
    import pyarrow.parquet as pq
    import ray.data

    path = str(tmp_path / "corpus.parquet")
    pq.write_table(skew_corpus, path, row_group_size=4)
    ds = ray.data.read_parquet(path)
    got = _normalize(profiles_skew_aware(
        ds, w=W, long_threshold=THRESHOLD, corpus_path=path).to_pandas())
    want = _normalize(compute_profiles_batch(skew_corpus, w=W).to_pandas())
    _assert_profiles_equal(got, want)


def test_skew_aware_tiled_route(ray_session, skew_corpus, monkeypatch):
    """Tail rows above TILE_THRESHOLD take the SCAMP-tiled fan-out."""
    import ray.data

    from matrixprofile_1_ray.pipelines import flagship

    monkeypatch.setattr(flagship, "TILE_THRESHOLD", 2000)
    monkeypatch.setattr(flagship, "TILE", 512)
    ds = ray.data.from_arrow(skew_corpus)
    got = _normalize(profiles_skew_aware(
        ds, w=W, long_threshold=THRESHOLD).to_pandas())
    want = _normalize(compute_profiles_batch(skew_corpus, w=W).to_pandas())
    _assert_profiles_equal(got, want)


def test_rollup_job_long_threshold_output_parity(ray_session, skew_corpus,
                                                 tmp_path):
    """The job CLI's tail routing changes execution, never the rollups:
    the same corpus run with the tail engaged (low --long-threshold) and
    disengaged (default) produces identical unified rollup rows."""
    import io
    import json
    import os
    from contextlib import redirect_stdout

    import pandas as pd
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from matrixprofile_1_ray.cli import main

    in_dir = str(tmp_path / "seqs")
    os.makedirs(in_dir)
    pq.write_table(skew_corpus, os.path.join(in_dir, "shard0.parquet"))

    results = {}
    for tag, extra in (("plain", []),
                       ("routed", ["--long-threshold", str(THRESHOLD)])):
        out_dir = str(tmp_path / f"out_{tag}")
        buf = io.StringIO()
        with redirect_stdout(buf):
            main(["rollup", "--input", in_dir, "--output", out_dir,
                  "--window", str(W), "--num-cpus", "4"] + extra)
        status = json.loads(buf.getvalue().strip().splitlines()[-1])
        assert status["done"] == 1
        df = pads.dataset(os.path.join(out_dir, "part-00000")).to_table() \
            .to_pandas()
        key = [c for c in ("kind", "tier", "doc_id", "bucket") if c in df]
        results[tag] = df.sort_values(key).reset_index(drop=True) \
                         .sort_index(axis=1)

    assert len(results["routed"]) == len(results["plain"]) > 0
    pd.testing.assert_frame_equal(results["routed"], results["plain"],
                                  check_like=True)


def test_skew_aware_no_tail_is_plain_stream(ray_session, skew_corpus):
    """With no row over the threshold the result IS the short stream."""
    import ray.data

    ds = ray.data.from_arrow(skew_corpus)
    got = _normalize(profiles_skew_aware(
        ds, w=W, long_threshold=10_000).to_pandas())
    want = _normalize(compute_profiles_batch(skew_corpus, w=W).to_pandas())
    _assert_profiles_equal(got, want)


def test_skew_aware_huge_threshold_disables_routing(ray_session,
                                                    skew_corpus):
    """long_threshold >= 2**31 (the natural opt-out) must compare, not
    overflow an int32 scalar cast."""
    import ray.data

    ds = ray.data.from_arrow(skew_corpus)
    got = _normalize(profiles_skew_aware(
        ds, w=W, long_threshold=1 << 40).to_pandas())
    want = _normalize(compute_profiles_batch(skew_corpus, w=W).to_pandas())
    _assert_profiles_equal(got, want)


def test_skew_aware_null_n_tok_routes_short(ray_session):
    """A null n_tok matches neither route's predicate; it must land on the
    short side (lossless row accounting), not vanish."""
    import ray.data

    rng = np.random.default_rng(7)
    toks = [rng.integers(0, 50, size=n).tolist() for n in (150, 160, 170)]
    corpus = pa.table({
        "doc_id": pa.array(["a", "b", "c"]),
        "tokens": pa.array(toks, pa.list_(pa.int32())),
        "n_tok": pa.array([150, None, 170], pa.int32()),
        "source": pa.array(["s0"] * 3),
    })
    got = _normalize(profiles_skew_aware(
        ray.data.from_arrow(corpus), w=W, long_threshold=100).to_pandas())
    assert list(got["doc_id"]) == ["a", "b", "c"]
    want = _normalize(compute_profiles_batch(corpus, w=W).to_pandas())
    _assert_profiles_equal(got, want)


def test_skew_aware_short_long_routed_row_invalid(ray_session):
    """long_threshold < 2*w - 1 can route a too-short row to the fan-out;
    it must come back valid=False with an empty profile (the batch
    kernel's contract), not crash the fan-out kernels."""
    import ray.data

    rng = np.random.default_rng(9)
    corpus = pa.table({
        "doc_id": pa.array(["a", "b"]),
        "tokens": pa.array([rng.integers(0, 50, size=n).tolist()
                            for n in (20, 300)], pa.list_(pa.int32())),
        "n_tok": pa.array([20, 300], pa.int32()),
        "source": pa.array(["s0"] * 2),
    })
    got = _normalize(profiles_skew_aware(
        ray.data.from_arrow(corpus), w=W, long_threshold=10).to_pandas())
    want = _normalize(compute_profiles_batch(corpus, w=W).to_pandas())
    assert list(got["valid"]) == [False, True]
    _assert_profiles_equal(got, want)


def test_all_filtered_block_schema_stable(ray_session):
    """A block whose rows ALL route long still emits the typed profiles
    schema (string metric, not null) so it unifies with the short stream."""
    empty = compute_profiles_batch(pa.table({
        "doc_id": pa.array([], pa.string()),
        "tokens": pa.array([], pa.list_(pa.int32())),
        "n_tok": pa.array([], pa.int32()),
        "source": pa.array([], pa.string()),
    }), w=W)
    full = compute_profiles_batch(pa.table({
        "doc_id": pa.array(["a"]),
        "tokens": pa.array([list(range(100))], pa.list_(pa.int32())),
        "n_tok": pa.array([100], pa.int32()),
        "source": pa.array(["s0"]),
    }), w=W)
    assert empty.schema.field("metric").type == pa.string()
    merged = pa.concat_tables([empty, full])  # raises on schema drift
    assert len(merged) == 1


def test_skew_aware_route_invariance_fuzz(ray_session):
    """Property: for ANY corpus and ANY threshold, the length-routed
    result is exactly the batch kernel's (values, indices, validity,
    row accounting) — including thresholds that route too-short rows
    long and corpora with null n_tok."""
    import ray.data

    rng = np.random.default_rng(0xC0FFEE)
    w = 8
    for trial in range(6):
        n_rows = int(rng.integers(1, 7))
        lens = rng.integers(5, 80, size=n_rows)
        toks = [rng.integers(0, 9, size=n).tolist() for n in lens]
        n_tok = [int(n) if rng.random() > 0.15 else None for n in lens]
        corpus = pa.table({
            "doc_id": pa.array([f"t{trial}d{i}" for i in range(n_rows)]),
            "tokens": pa.array(toks, pa.list_(pa.int32())),
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(["s"] * n_rows),
        })
        thr = int(rng.integers(5, 80))
        got = _normalize(profiles_skew_aware(
            ray.data.from_arrow(corpus), w=w,
            long_threshold=thr).to_pandas())
        want = _normalize(compute_profiles_batch(corpus, w=w).to_pandas())
        assert len(got) == n_rows, (trial, thr)
        _assert_profiles_equal(got, want)


def test_long_row_table_reads_sliced_and_large_list_rows(ray_session):
    """long_row_profile_table takes a row's tokens as a zero-copy view: a
    row sliced out of a larger table, with list or large_list tokens,
    gets the serial profile of its own tokens, as read through Python
    lists."""
    rng = np.random.default_rng(23)
    lens = [40, 3000, 70]
    toks = [rng.integers(0, 50, size=n).tolist() for n in lens]
    ts = np.asarray(toks[1], dtype="d")
    want_mp, want_pi = mpx_self(ts, W)
    for list_type in (pa.list_, pa.large_list):
        table = pa.table({
            "doc_id": pa.array(["d0", "d1", "d2"]),
            "tokens": pa.array(toks, list_type(pa.int32())),
            "n_tok": pa.array(lens, pa.int32()),
            "source": pa.array(["s0"] * 3),
        })
        row = table.slice(1, 1)
        # the slice's offsets start past row d0's tokens
        assert row["tokens"].chunk(0).offsets[0].as_py() == 40
        assert row["tokens"][0].as_py() == toks[1]
        got = long_row_profile_table(row, W)
        assert got["doc_id"].to_pylist() == ["d1"]
        assert got["valid"].to_pylist() == [True]
        np.testing.assert_array_equal(np.asarray(got["mp"][0].as_py()),
                                      want_mp)
        np.testing.assert_array_equal(np.asarray(got["pi"][0].as_py()),
                                      want_pi)
