"""Scale-path state: chunked rollup/profile invariance and manifest resume."""

import os

import numpy as np
import pandas as pd
import pytest

from matrixprofile_1_ray.sources import synthetic_sequences_table
from matrixprofile_1_ray.state.chunked import chunk_sequences_batch
from matrixprofile_1_ray.state.manifest import (
    LineageManifest,
    file_fingerprint,
    run_partitioned,
)
from matrixprofile_1_ray.stages.rollup import rollup_batch


def test_chunking_is_lossless():
    table = synthetic_sequences_table(6, seed=9)
    chunks = chunk_sequences_batch(table, chunk_tokens=100)
    df = chunks.to_pandas()
    for i, doc in enumerate(table["doc_id"].to_pylist()):
        orig = table["tokens"][i].as_py()
        mine = df[df.doc_id == doc].sort_values("start")
        recon = [t for row in mine.tokens for t in row]
        assert recon == orig


def test_chunked_rollup_equals_plain(ray_session):
    import ray.data

    from matrixprofile_1_ray.state.chunked import chunked_rollup

    table = synthetic_sequences_table(8, seed=10)
    plain = rollup_batch(table).to_pandas()

    # chunk size deliberately NOT a multiple of any bucket size
    chunks = chunk_sequences_batch(table, chunk_tokens=97)
    out = chunked_rollup(ray.data.from_arrow(chunks)).to_pandas()

    cols = ["doc_id", "source", "tier", "bucket"]
    vals = ["t_min", "t_max", "t_sum", "t_count", "t_mean"]
    a = plain.sort_values(cols).reset_index(drop=True)
    b = out[cols + vals].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    pd.testing.assert_frame_equal(a[cols + vals], b, check_dtype=False)


def test_chunked_rollup_all_empty_docs(ray_session):
    """A batch consisting only of empty-token docs must yield an empty
    rollup, not crash in pa.concat_tables([])."""
    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.state.chunked import chunked_rollup

    chunks = pa.table({
        "doc_id": pa.array(["e1", "e2"], pa.string()),
        "source": pa.array(["s", "s"], pa.string()),
        "start": pa.array([0, 0], pa.int64()),
        "tokens": pa.array([[], []], pa.list_(pa.int64())),
    })
    out = chunked_rollup(ray.data.from_arrow(chunks)).to_pandas()
    assert len(out) == 0


def test_chunked_rollup_empty_docs_batch_keeps_typed_schema(ray_session):
    """A batch of only empty-token docs next to a batch of real docs: the
    rollup comes out with the typed output schema (t_mean computed in
    Arrow) and the rows of the real docs alone."""
    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.state.chunked import chunked_rollup

    table = synthetic_sequences_table(3, seed=10)
    empty = pa.table({
        "doc_id": pa.array(["e1", "e2"], pa.string()),
        "source": pa.array(["s", "s"], pa.string()),
        "start": pa.array([0, 0], pa.int64()),
        "tokens": pa.array([[], []], table["tokens"].type),
    })
    chunks = chunk_sequences_batch(table, chunk_tokens=97)
    out = chunked_rollup(ray.data.from_arrow([empty, chunks]))
    schema = out.schema()
    assert dict(zip(schema.names, map(str, schema.types))) == {
        "doc_id": "string", "source": "string", "tier": "string",
        "bucket": "int64", "t_min": "double", "t_max": "double",
        "t_sum": "double", "t_count": "int64", "t_mean": "double"}
    got = out.to_pandas()
    assert len(got) == len(rollup_batch(table))
    assert not set(got["doc_id"]) & {"e1", "e2"}
    np.testing.assert_array_equal(got["t_mean"],
                                  got["t_sum"] / got["t_count"])


def test_distributed_mpx_equals_serial(ray_session, sampledata):
    from matrixprofile_1_ray.kernels.mpx import mpx_self
    from matrixprofile_1_ray.state.chunked import distributed_mpx

    mp_s, pi_s = mpx_self(sampledata, 32)
    mp_d, pi_d = distributed_mpx(sampledata, 32, n_partitions=7)
    np.testing.assert_array_equal(mp_s, mp_d)
    np.testing.assert_array_equal(pi_s, pi_d)


def test_tiled_mpx_equals_serial(sampledata):
    from matrixprofile_1_ray.kernels.mpx import mpx_self, tiled_mpx_self

    mp_s, pi_s = mpx_self(sampledata, 32)
    for tile in (100, 257):
        mp_t, pi_t = tiled_mpx_self(sampledata, 32, tile)
        np.testing.assert_allclose(mp_t, mp_s, atol=1e-9)
        np.testing.assert_array_equal(pi_t, pi_s)


def test_distributed_tiled_mpx(ray_session, sampledata):
    """Strip-shipped tile tasks reproduce the serial profile — the
    beyond-worker-memory path."""
    from matrixprofile_1_ray.kernels.mpx import mpx_self
    from matrixprofile_1_ray.state.chunked import distributed_tiled_mpx

    mp_s, pi_s = mpx_self(sampledata, 32)
    mp_d, pi_d = distributed_tiled_mpx(sampledata, 32, tile=128,
                                       max_in_flight=8)
    np.testing.assert_allclose(mp_d, mp_s, atol=1e-9)
    np.testing.assert_array_equal(pi_d, pi_s)


def test_distributed_mpx_no_admissible_diagonals(ray_session):
    """w close to n leaves zero diagonals outside minlag — must return the
    serial all-unmatched profile, not crash on an empty work curve."""
    from matrixprofile_1_ray.kernels.mpx import mpx_self
    from matrixprofile_1_ray.state.chunked import distributed_mpx

    ts = np.sin(np.arange(100.0))
    mp_s, pi_s = mpx_self(ts, 90)
    mp_d, pi_d = distributed_mpx(ts, 90)
    np.testing.assert_allclose(mp_d, mp_s)
    np.testing.assert_array_equal(pi_d, pi_s)


def test_manifest_resume(ray_session, tmp_path):
    import ray.data

    out_dir = str(tmp_path / "out")
    calls = []

    def make(key):
        calls.append(key)
        table = synthetic_sequences_table(3, seed=int(key[-1]))
        return ray.data.from_arrow(rollup_batch(table, tiers={"1m": 60}))

    parts = {"part0": "fp0", "part1": "fp1"}
    status = run_partitioned(out_dir, parts, make)
    assert status == {"part0": "done", "part1": "done"}
    assert calls == ["part0", "part1"]
    assert os.path.exists(os.path.join(out_dir, "_manifest.jsonl"))

    # resume: nothing re-runs
    status = run_partitioned(out_dir, parts, make)
    assert status == {"part0": "skipped", "part1": "skipped"}
    assert calls == ["part0", "part1"]

    # fingerprint change invalidates exactly one partition
    parts["part1"] = "fp1-changed"
    status = run_partitioned(out_dir, parts, make)
    assert status == {"part0": "skipped", "part1": "done"}
    assert calls == ["part0", "part1", "part1"]

    m = LineageManifest(out_dir)
    assert m.is_done("part0", "fp0")
    assert not m.is_done("part1", "fp1")


def test_crash_mid_job_resume(ray_session, tmp_path):
    """A failure mid-run leaves completed partitions durable; the rerun
    finishes only the remainder and the combined output equals a fresh
    uninterrupted run (resume-equals-fresh-run)."""
    import pyarrow.dataset as pads
    import ray.data

    def make_factory(crash_on):
        def make(key):
            if key == crash_on:
                raise RuntimeError("simulated worker crash")
            table = synthetic_sequences_table(3, seed=int(key[-1]))
            return ray.data.from_arrow(rollup_batch(table, tiers={"1m": 60}))
        return make

    parts = {"part0": "fp0", "part1": "fp1", "part2": "fp2"}

    crashed = str(tmp_path / "crashed")
    with pytest.raises(RuntimeError):
        run_partitioned(crashed, parts, make_factory("part1"))
    # part0 completed before the crash and survives
    m = LineageManifest(crashed)
    assert m.is_done("part0", "fp0") and not m.is_done("part1", "fp1")

    status = run_partitioned(crashed, parts, make_factory(None))
    assert status == {"part0": "skipped", "part1": "done", "part2": "done"}

    fresh = str(tmp_path / "fresh")
    run_partitioned(fresh, parts, make_factory(None))
    for key in parts:
        a = pads.dataset(f"{crashed}/{key}").to_table().to_pandas()
        b = pads.dataset(f"{fresh}/{key}").to_table().to_pandas()
        cols = sorted(a.columns)
        pd.testing.assert_frame_equal(
            a[cols].sort_values(cols).reset_index(drop=True),
            b[cols].sort_values(cols).reset_index(drop=True))


def test_codec_verify_raises_on_corruption():
    """The inline round-trip check actually fires on a broken codec."""
    import pyarrow as pa

    from matrixprofile_1_ray.stages import codec_stage

    table = synthetic_sequences_table(2, seed=60)
    original = codec_stage.decode_int_dod
    codec_stage.decode_int_dod = lambda blob: np.array([1, 2, 3], dtype=np.int32)
    try:
        with pytest.raises(AssertionError, match="round-trip mismatch"):
            codec_stage.verify_roundtrip_batch(table)
    finally:
        codec_stage.decode_int_dod = original


def test_file_fingerprint_changes(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    f1 = file_fingerprint(str(p))
    p.write_bytes(b"abcd")
    assert file_fingerprint(str(p)) != f1


def test_run_partitioned_concurrent_jobs(ray_session, tmp_path):
    """Overlapped partition executions produce the same outputs/manifest
    semantics as the serial path."""
    import pyarrow.dataset as pads
    import ray.data

    def make(key):
        table = synthetic_sequences_table(3, seed=int(key[-1]))
        return ray.data.from_arrow(rollup_batch(table, tiers={"1m": 60}))

    parts = {f"part{i}": f"fp{i}" for i in range(4)}
    serial = str(tmp_path / "serial")
    conc = str(tmp_path / "conc")
    assert set(run_partitioned(serial, parts, make).values()) == {"done"}
    assert set(run_partitioned(conc, parts, make,
                               concurrent_jobs=3).values()) == {"done"}
    for key in parts:
        a = pads.dataset(f"{serial}/{key}").to_table().to_pandas()
        b = pads.dataset(f"{conc}/{key}").to_table().to_pandas()
        cols = sorted(a.columns)
        pd.testing.assert_frame_equal(
            a[cols].sort_values(cols).reset_index(drop=True),
            b[cols].sort_values(cols).reset_index(drop=True))
    # resume skips everything
    assert set(run_partitioned(conc, parts, make,
                               concurrent_jobs=3).values()) == {"skipped"}
