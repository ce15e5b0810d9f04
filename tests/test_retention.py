"""Retention / downsample serving over the tiered rollup store.

Built over a synthetic 3-doc corpus whose token streams span ~5 hours
(token index = seconds) with a CUSTOM 1m/10m/1h tier ladder, so every
tier has many buckets, all three serve in one stitched read, and the
coarse-aligned seams fall mid-corpus.  Values are cross-checked against
rollup_batch on the same gap-filled sequences, so these tests pin the
retention plumbing, not the kernels.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from proctree import kill_tree
from tests.conftest import store_fingerprint

NOW = 19000                                    # ingest watermark (seconds)
WIDTHS = {"1m": 60, "10m": 600, "1h": 3600}
POLICY_AGES = {"1m": 2600, "10m": 13400, "1h": None}
# aligned horizons at NOW: 1m -> floor(16400/600)*600, 10m ->
# floor(5600/3600)*3600, 1h keep-forever
AH_1M = 16200
AH_10M = 3600
DOC_LENGTHS = [19000, 18500, 12000]
SF0001 = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("retention_corpus")
    texts = ["".join(chr(97 + (7 * i + 3 * j) % 26) for j in range(n))
             for i, n in enumerate(DOC_LENGTHS)]
    pq.write_table(pa.table({
        "doc_id": pa.array(list(range(len(texts))), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(["s0", "s1", "s0"], pa.string()),
    }), str(d / "documents.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def store(ray_session, corpus, tmp_path_factory):
    from matrixprofile_1_ray.stages.retention import write_tiered_store

    path = str(tmp_path_factory.mktemp("tiered") / "store")
    meta = write_tiered_store(corpus, path, w=32, tiers=WIDTHS,
                              epoch_sec=600)
    return path, meta


def _policy():
    from matrixprofile_1_ray.stages.retention import RetentionPolicy

    return RetentionPolicy(POLICY_AGES)


def test_store_layout(store):
    path, meta = store
    assert meta["epoch_sec"] == 600 and meta["tiers"] == WIDTHS
    kinds = sorted(n for n in os.listdir(path) if n.startswith("kind="))
    assert kinds == ["kind=mp", "kind=token"]
    tiers = sorted(os.listdir(os.path.join(path, "kind=token")))
    assert tiers == ["tier=10m", "tier=1h", "tier=1m"]
    m_epochs = sorted(int(n.split("=")[1]) for n in
                      os.listdir(os.path.join(path, "kind=token", "tier=1m")))
    assert m_epochs[0] == 0 and m_epochs[-1] == (NOW - 1) // 600  # 31
    # 1h buckets start every 3600 s -> start-keyed epochs every 6
    h_epochs = sorted(int(n.split("=")[1]) for n in
                      os.listdir(os.path.join(path, "kind=token", "tier=1h")))
    assert h_epochs == [0, 6, 12, 18, 24, 30]


def test_write_rejects_unaligned_tier_ladder(corpus, tmp_path):
    from matrixprofile_1_ray.stages.retention import write_tiered_store

    with pytest.raises(ValueError, match="multiple"):
        write_tiered_store(corpus, str(tmp_path / "s"), w=32,
                           tiers={"7s": 7, "10s": 10}, epoch_sec=60)


def test_tiered_read_stitches_at_aligned_seams(store):
    from matrixprofile_1_ray.stages.retention import tiered_read

    path, _ = store
    df = tiered_read(path, "token", NOW, _policy(),
                     t_lo=0, t_hi=NOW).to_pandas()
    assert set(df["tier"]) == {"1m", "10m", "1h"}
    g = df.groupby("tier")["bucket_start"]
    # each tier serves exactly [its ALIGNED horizon, finer tier's bound):
    # seams at 16200 (a 10m edge) and 3600 (a 1h edge), so no coarse
    # bucket's span crosses into a finer tier's range
    assert g.min()["1m"] == AH_1M and g.max()["1m"] < NOW
    assert g.min()["10m"] == AH_10M and g.max()["10m"] == AH_1M - 600
    assert g.min()["1h"] == 0 and g.max()["1h"] == AH_10M - 3600
    one = df[df["doc_id"] == "0"]
    assert one["bucket_start"].is_unique


def test_stitched_sums_count_every_instant_once(store):
    """The aligned seams make stitched aggregation EXACT: summing t_count
    across all served tiers reproduces each doc's full token count."""
    from matrixprofile_1_ray.stages.retention import tiered_read

    path, _ = store
    df = tiered_read(path, "token", NOW, _policy(),
                     t_lo=0, t_hi=NOW).to_pandas()
    got = df.groupby("doc_id")["t_count"].sum().to_dict()
    assert got == {str(i): n for i, n in enumerate(DOC_LENGTHS)}


def test_stitch_fallback_seam_drops_to_coarser_horizon(store):
    """Pathological ladder: every coarser tier's horizon lands EXACTLY on
    its candidate seam (so the main alignment loop skips them all), yet
    the 10m tier still retains below 1m's own-width floor (10980).  The
    seam must drop to the coarser tier's own horizon (10800) — flooring
    to 1m's own width would let the 10m bucket [10800, 11400) straddle
    the seam and double-count [10980, 11400)."""
    from matrixprofile_1_ray.stages.retention import (
        RetentionPolicy,
        aligned_horizons,
        tiered_read,
    )

    path, _ = store
    pol = RetentionPolicy({"1m": 8000, "10m": 7000, "1h": 8200})
    # raw horizons: 1m 11000, 10m 12000, 1h 10800 (own floor).  10m's
    # candidate on the 1h grid is 10800 == 1h's horizon -> skip -> own
    # floor 12000, but 1h retains below it -> 10800.  1m's candidates on
    # the 10m/1h grids are both 10800 == those horizons -> skip -> own
    # floor 10980, but 10m retains below it -> 10800.
    assert aligned_horizons(pol, NOW, WIDTHS) == \
        {"1m": 10800, "10m": 10800, "1h": 10800}
    df = tiered_read(path, "token", NOW, pol, t_lo=0, t_hi=NOW).to_pandas()
    assert set(df["tier"]) == {"1m"}          # nothing serves below 10800
    got = df.groupby("doc_id")["t_count"].sum().to_dict()
    assert got == {str(i): max(0, n - 10800)
                   for i, n in enumerate(DOC_LENGTHS)}


def test_tiered_read_values_match_rollup_batch(store, corpus):
    from matrixprofile_1_ray.sources.sequences import (
        sequences_table_from_documents,
    )
    from matrixprofile_1_ray.stages.gapfill import gapfill_batch
    from matrixprofile_1_ray.stages.retention import tiered_read
    from matrixprofile_1_ray.stages.rollup import rollup_batch

    path, _ = store
    served = tiered_read(path, "token", NOW, _policy(),
                         t_lo=0, t_hi=NOW).to_pandas()
    assert len(served) > 0
    ref = rollup_batch(gapfill_batch(sequences_table_from_documents(corpus)),
                       tiers=WIDTHS).to_pandas()
    merged = served.merge(ref, on=["doc_id", "tier", "bucket"],
                          suffixes=("", "_ref"), how="left")
    assert not merged["t_sum_ref"].isna().any()
    for col in ("t_min", "t_max", "t_sum", "t_count", "t_mean"):
        np.testing.assert_array_equal(merged[col].to_numpy(),
                                      merged[f"{col}_ref"].to_numpy())


def _store_rows(path, kind):
    import pyarrow.dataset as pads

    return pads.dataset(os.path.join(path, f"kind={kind}"),
                        partitioning="hive").to_table().to_pandas()


def test_store_means_match_numpy(store, corpus):
    """mp_mean and t_mean of every stored bucket against NumPy means of the
    serial self-join profile and of the tokens."""
    from matrixprofile_1_ray.kernels.mpx import mpx_self

    path, _ = store
    texts = pq.read_table(os.path.join(corpus, "documents.parquet"))["text"]
    tokens = {str(i): np.array([ord(c) for c in t], "d")
              for i, t in enumerate(texts.to_pylist())}
    profiles = {d: mpx_self(ts, 32)[0] for d, ts in tokens.items()}
    for kind, col, series in (("token", "t_mean", tokens),
                              ("mp", "mp_mean", profiles)):
        rows = _store_rows(path, kind)
        assert set(rows["tier"]) == set(WIDTHS)
        want = [series[d][b * WIDTHS[t]:(b + 1) * WIDTHS[t]].mean()
                for d, t, b in zip(rows["doc_id"], rows["tier"],
                                   rows["bucket"])]
        np.testing.assert_allclose(rows[col].to_numpy(), want, rtol=1e-12)
        n_buckets = sum(-(-len(series[d]) // w) for d in series
                        for w in WIDTHS.values())
        assert len(rows) == n_buckets


def test_epoch_column_is_bucket_start_over_epoch_sec(store):
    """Every tier's stored epoch partition is bucket * width // epoch_sec,
    and add_epoch_column computes the same."""
    from matrixprofile_1_ray.stages.retention import add_epoch_column

    path, meta = store
    for kind in ("token", "mp"):
        rows = _store_rows(path, kind)
        want = rows["bucket"] * rows["tier"].map(WIDTHS).astype(np.int64) \
            // meta["epoch_sec"]
        np.testing.assert_array_equal(rows["epoch"].to_numpy(), want)
    batch = pa.table({"tier": ["1h", "1m", "10m", "1m"],
                      "bucket": pa.array([5, 599, 7, 0], pa.int64())})
    got = add_epoch_column(batch, WIDTHS, 600)["epoch"].to_pylist()
    assert got == [5 * 3600 // 600, 599 * 60 // 600, 7 * 600 // 600, 0]


def test_epoch_column_rejects_unknown_tier():
    from matrixprofile_1_ray.stages.retention import add_epoch_column

    batch = pa.table({"tier": ["1m", "2h", "1m"],
                      "bucket": pa.array([0, 1, 2], pa.int64())})
    with pytest.raises(ValueError, match=r"\['2h'\] not in"):
        add_epoch_column(batch, WIDTHS, 600)


def test_tiered_read_serves_mp_kind(store):
    from matrixprofile_1_ray.stages.retention import tiered_read

    path, _ = store
    df = tiered_read(path, "mp", NOW, _policy(), t_lo=0, t_hi=NOW).to_pandas()
    assert set(df["tier"]) == {"1m", "10m", "1h"}
    assert {"mp_min", "mp_mean", "mp_count", "mp_argmin", "w"} \
        <= set(df.columns)
    g = df.groupby("tier")["bucket_start"]
    assert g.min()["1m"] == AH_1M and g.max()["10m"] < AH_1M \
        and g.max()["1h"] < AH_10M


def test_downsample_read_picks_finest_fitting_tier(store):
    from matrixprofile_1_ray.stages.retention import downsample_read

    path, _ = store
    fine = downsample_read(path, "token", 0, 18000,
                           max_points=400).to_pandas()
    assert set(fine["tier"]) == {"1m"}
    assert fine["bucket_start"].max() < 18000
    coarse = downsample_read(path, "token", 0, 18000,
                             max_points=10).to_pandas()
    assert set(coarse["tier"]) == {"1h"}


def test_apply_retention_deletes_only_expired_epochs(store):
    from matrixprofile_1_ray.stages.retention import (
        apply_retention,
        downsample_read,
        tiered_read,
    )

    path, _ = store
    pol = _policy()
    report = apply_retention(path, NOW, pol)

    # 1m: epochs are bucket-aligned, so data end = (e+1)*600; expired iff
    # <= ALIGNED horizon 16200 -> e <= 26 (raw horizon 16400 would have
    # eaten epoch 26, which the stitched read still serves from 16200)
    gone_1m = {d["epoch"] for d in report["deleted"] if d["tier"] == "1m"}
    assert gone_1m == set(range(27))
    left = sorted(int(n.split("=")[1]) for n in
                  os.listdir(os.path.join(path, "kind=token", "tier=1m")))
    assert left[0] == 27 and left[0] * 600 == AH_1M
    # 10m: aligned horizon 3600 -> epochs ending <= 3600 -> e <= 5
    gone_10m = {d["epoch"] for d in report["deleted"] if d["tier"] == "10m"}
    assert gone_10m == set(range(6))
    # keep-forever tier untouched
    assert not any(d["tier"] == "1h" for d in report["deleted"])

    # idempotent: second pass deletes nothing, audit log has both runs
    report2 = apply_retention(path, NOW, pol)
    assert report2["deleted"] == []
    with open(os.path.join(path, "_retention_log.jsonl")) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    assert len(lines) == 2 and lines[0]["deleted"]

    # stitched reads over the pruned store: same tiers, sums still exact
    df = tiered_read(path, "token", NOW, pol, t_lo=0, t_hi=NOW).to_pandas()
    assert set(df["tier"]) == {"1m", "10m", "1h"}
    got = df.groupby("doc_id")["t_count"].sum().to_dict()
    assert got == {str(i): n for i, n in enumerate(DOC_LENGTHS)}

    # retention-aware downsample: 1m fits max_points but no longer
    # retains t_lo=0, so the read falls back to the keep-forever tier
    # instead of silently serving the surviving suffix
    ds = downsample_read(path, "token", 0, 18000, max_points=400,
                         now_sec=NOW, policy=pol).to_pandas()
    assert set(ds["tier"]) == {"1h"}


def test_fractional_bounds_are_exact(store):
    """``[lo, hi)`` is compared exactly: a bucket starting before a
    fractional ``lo`` is not served, one starting before ``hi`` is."""
    from matrixprofile_1_ray.stages.retention import (
        downsample_read,
        tiered_read,
    )

    path, _ = store
    lo, hi = AH_1M + 0.5, AH_1M + 120.5
    for ds in (tiered_read(path, "token", NOW, _policy(), lo, hi),
               downsample_read(path, "token", lo, hi, max_points=3,
                               now_sec=NOW, policy=_policy())):
        df = ds.to_pandas()
        assert set(df["tier"]) == {"1m"}
        assert sorted(set(df["bucket_start"])) == [AH_1M + 60, AH_1M + 120]
        assert len(df) == 2 * sum(n > AH_1M + 120 for n in DOC_LENGTHS)


def test_range_without_files_serves_zero_rows(store):
    """1h buckets start every 3600 s, so [600, 1800) has no 1h epoch dir:
    both entry points serve 0 rows instead of raising."""
    from matrixprofile_1_ray.stages.retention import (
        downsample_read,
        tiered_read,
    )

    path, _ = store
    assert downsample_read(path, "token", 600, 1800,
                           max_points=1).count() == 0
    assert tiered_read(path, "token", NOW, _policy(), 600, 1800).count() == 0


def test_stitched_read_with_empty_parts_keeps_columns(store):
    """At now=40000 the 1m and 10m parts of the plan fall past the data
    (no epoch dir), so only the 1h part has rows; the result still has
    that part's rows and the stored columns in their stored order."""
    from matrixprofile_1_ray.stages.retention import (
        stitch_plan,
        tiered_read,
    )

    path, meta = store
    now = 40000
    plan = stitch_plan(_policy(), now, 3000, now, meta["tiers"])
    assert [t for t, _, _ in plan] == ["1m", "10m", "1h"]
    tab = pa.concat_tables(tiered_read(path, "token", now, _policy(), 3000,
                                       now).iter_batches(
        batch_format="pyarrow", batch_size=None))
    assert set(tab["tier"].to_pylist()) == {"1h"}
    assert sorted(set(tab["bucket_start"].to_pylist())) == \
        [3600, 7200, 10800, 14400, 18000]
    full = tiered_read(path, "token", NOW, _policy(), 0, NOW)
    assert tab.schema.names == full.schema().names


def test_wide_range_lists_only_existing_epochs(store):
    """t_hi=1e12 spans ~1.7e9 epochs at epoch_sec=600: the read must walk
    the epoch dirs that exist, not every epoch number in the range."""
    import time

    from matrixprofile_1_ray.stages.retention import (
        downsample_read,
        tiered_read,
    )

    path, _ = store
    t0 = time.perf_counter()
    wide = tiered_read(path, "token", NOW, _policy(), AH_1M, 1e12)
    assert wide.count() == tiered_read(path, "token", NOW, _policy(),
                                       AH_1M, NOW).count() > 0
    coarse = downsample_read(path, "token", 0, 1e12, max_points=10**9)
    assert set(coarse.to_pandas()["tier"]) == {"1h"}
    assert time.perf_counter() - t0 < 60


def test_reads_return_materialized_datasets(store):
    from ray.data.dataset import MaterializedDataset

    from matrixprofile_1_ray.stages.retention import (
        downsample_read,
        tiered_read,
    )

    path, _ = store
    assert isinstance(tiered_read(path, "mp", NOW, _policy(), 0, NOW),
                      MaterializedDataset)
    assert isinstance(downsample_read(path, "mp", 0, 18000, max_points=10),
                      MaterializedDataset)


def _parquet_files(root):
    return [os.path.join(d, n) for d, _, names in os.walk(root)
            for n in names if n.endswith(".parquet")]


def _row_groups_per_file(root):
    return [pq.ParquetFile(path).metadata.num_row_groups
            for path in _parquet_files(root)]


@pytest.fixture(scope="module")
def sf0001_store(ray_session, tmp_path_factory):
    """``write_tiered_store`` over the 500-doc corpus."""
    from matrixprofile_1_ray.stages.retention import write_tiered_store

    out = str(tmp_path_factory.mktemp("sf0001_store") / "tiered")
    write_tiered_store(SF0001, out)
    return out


def test_writes_hold_one_row_group(store, sf0001_store):
    """Every store file holds one row group: the module's store, and the
    store of a 500-doc corpus, whose write tasks each write one row group
    per partition they touch."""
    for out in (store[0], sf0001_store):
        counts = _row_groups_per_file(out)
        assert counts and set(counts) == {1}


def test_writes_are_zstd_without_dictionaries(sf0001_store):
    """The store write compresses every column chunk with zstd and puts
    no dictionary page on any, the string keys included."""
    files = _parquet_files(sf0001_store)
    assert files
    for path in files:
        md = pq.ParquetFile(path).metadata
        chunks = [md.row_group(g).column(i)
                  for g in range(md.num_row_groups)
                  for i in range(md.num_columns)]
        assert {c.compression for c in chunks} == {"ZSTD"}, path
        assert not [c.path_in_schema for c in chunks
                    if c.has_dictionary_page], path


def test_content_digest_ignores_the_encoding(store, tmp_path):
    """A Snappy and a zstd write of one store file differ in bytes and
    agree in the content digest (``tools/store_digest.py --content``)."""
    from tools.store_digest import store_digest

    table = pq.ParquetFile(_parquet_files(store[0])[0]).read()
    roots = []
    for codec in ("snappy", "zstd"):
        part = tmp_path / codec / "kind=token" / "tier=1m" / "epoch=0"
        part.mkdir(parents=True)
        pq.write_table(table, str(part / "f.parquet"), compression=codec)
        roots.append(str(tmp_path / codec))
    snappy, zstd = (store_digest(r) for r in roots)
    assert snappy["sha256"] != zstd["sha256"]
    snappy, zstd = (store_digest(r, content=True) for r in roots)
    assert snappy["rows"] == zstd["rows"] == table.num_rows > 0
    assert snappy["sha256"] == zstd["sha256"]
    # the content digest still sees a changed value
    changed = tmp_path / "changed" / "kind=token" / "tier=1m" / "epoch=0"
    changed.mkdir(parents=True)
    col = table.schema.get_field_index("bucket")
    pq.write_table(table.set_column(col, "bucket", pc.add(table["bucket"], 1)),
                   str(changed / "f.parquet"))
    assert store_digest(str(tmp_path / "changed"),
                        content=True)["sha256"] != zstd["sha256"]


_PLAN_SCRIPT = r"""
import json, sys

import ray
import ray.data
from ray.data._internal.logical.operators.all_to_all_operator import (
    AbstractAllToAll)

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False

from matrixprofile_1_ray.pipelines.flagship import sequences_pipeline

ds = sequences_pipeline(sys.argv[1])
ops, stack = [], [ds._logical_plan.dag]
while stack:
    op = stack.pop()
    ops.append(op)
    stack.extend(op.input_dependencies)
blocks = ds.materialize().num_blocks()
ray.shutdown()
print(json.dumps({
    "ops": [type(op).__name__ for op in ops],
    "all_to_all": [type(op).__name__ for op in ops
                   if isinstance(op, AbstractAllToAll)],
    "blocks": blocks}))
"""


def test_sequences_pipeline_splits_in_the_read():
    """``sequences_pipeline`` holds no all-to-all operator: the read
    itself splits ``documents.parquet`` into 2 x CPUs blocks (2 on a
    1-CPU cluster, in a child process with a deadline)."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _PLAN_SCRIPT, SF0001],
                            cwd=repo, env=dict(os.environ, PYTHONPATH=repo),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        kill_tree(proc)
        pytest.fail("sequences_pipeline did not finish within 120 s")
    assert proc.returncode == 0, err[-3000:]
    plan = json.loads(out.strip().splitlines()[-1])
    assert "Read" in plan["ops"]
    assert plan["all_to_all"] == []
    assert plan["blocks"] == 2


def test_rewrite_gives_identical_files(ray_session, tmp_path):
    """Same corpus, same cluster: the same (partition, size, sha256)
    multiset, so the layout is a function of the data and the split."""
    from matrixprofile_1_ray.stages.retention import write_tiered_store

    prints = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        write_tiered_store(SF0001, out)
        prints.append(store_fingerprint(out))
    assert prints[0] and prints[1] == prints[0]


def test_rerun_into_one_store_dir_rebuilds(ray_session, corpus, tmp_path):
    """A second ``write_tiered_store`` into the same ``store_dir`` rebuilds
    the store rather than appending to it (Ray's writer appends uniquely
    named files): the content digest of ``tools/store_digest.py
    --content`` does not change."""
    from matrixprofile_1_ray.stages.retention import write_tiered_store
    from tools.store_digest import store_digest

    out = str(tmp_path / "store")
    digests = []
    for _ in range(2):
        write_tiered_store(corpus, out, w=32, tiers=WIDTHS, epoch_sec=600)
        digests.append(store_digest(out, content=True))
    assert digests[0]["rows"] > 0
    assert digests[1] == digests[0]


def test_served_results_start_no_executor(store, monkeypatch):
    """A served result is already executed: reading, iterating and
    counting it must never start a streaming executor."""
    from ray.data._internal.plan import ExecutionPlan

    from matrixprofile_1_ray.stages.retention import (
        downsample_read,
        tiered_read,
    )

    def no_executor(self):
        raise AssertionError("a served result started an executor")

    monkeypatch.setattr(ExecutionPlan, "create_executor", no_executor)
    path, _ = store
    for ds in (tiered_read(path, "token", NOW, _policy(), 0, NOW),
               downsample_read(path, "mp", 0, 18000, max_points=10)):
        rows = sum(b.num_rows for b in
                   ds.iter_batches(batch_format="pyarrow", batch_size=None))
        assert rows == ds.count() > 0


def test_stitch_plan_properties():
    """Pure-plan properties under random policies/ranges: intervals are
    non-empty, disjoint, time-descending with tier coarseness, each tier
    starts at/after its ALIGNED horizon, horizon-induced seams land on
    the next-coarser tier's bucket edge, and the plan floor is the
    coarsest planned tier's effective lower bound."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from matrixprofile_1_ray.stages.retention import (
        RetentionPolicy,
        aligned_horizons,
        stitch_plan,
        tier_order_of,
    )

    widths = {"1m": 60, "1h": 3600, "1d": 86400}
    order = tier_order_of(widths)
    ages = st.one_of(st.none(), st.integers(min_value=1, max_value=10**6))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a_m=ages, a_h=ages, a_d=ages,
           now=st.integers(min_value=0, max_value=10**6),
           lo=st.integers(min_value=0, max_value=10**6),
           span=st.integers(min_value=1, max_value=10**6))
    def check(a_m, a_h, a_d, now, lo, span):
        pol = RetentionPolicy({"1m": a_m, "1h": a_h, "1d": a_d})
        hi = lo + span
        plan = stitch_plan(pol, now, lo, hi, widths)
        horizons = aligned_horizons(pol, now, widths)
        for tier, p_lo, p_hi in plan:
            assert p_lo < p_hi
            if horizons[tier] is not None:
                assert p_lo >= horizons[tier]
        for (t1, lo1, hi1), (t2, lo2, hi2) in zip(plan, plan[1:]):
            assert order.index(t2) > order.index(t1)
            assert hi2 == lo1
            if lo1 != lo:
                # horizon-induced seam: t2 is the tier that ACTUALLY
                # serves below it (skips included), so the seam must
                # fall on t2's bucket edge — that is the whole
                # straddle-free guarantee
                assert lo1 % widths[t2] == 0
        if plan:
            assert plan[0][2] == hi
            t_last, lo_last, _ = plan[-1]
            h_last = horizons[t_last]
            assert lo_last == (lo if h_last is None else max(lo, h_last))

    check()


def test_cli_retention_build_expire_serve(ray_session, corpus, tmp_path):
    """`ray job submit`-able maintenance entry: build the store, expire on
    a custom keep ladder, serve a stitched range to parquet."""
    import io
    from contextlib import redirect_stdout

    import pyarrow.parquet as pq

    from matrixprofile_1_ray.cli import main

    store = str(tmp_path / "store")
    served = str(tmp_path / "served")
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(["retention", "--store", store, "--build-from", corpus,
              "--epoch-sec", "600", "--expire", "--now", str(NOW),
              "--keep", "1m=2600", "--keep", "1h=13400",
              "--keep", "1d=none",
              "--serve", f"0:{NOW}", "--output", served,
              "--num-cpus", "4"])
    report = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert report["built"]["epoch_sec"] == 600
    layout = report["layout"]
    assert layout["row_groups"] == layout["files"] > 0
    assert layout["bytes"] > 0
    # default 1m/1h/1d ladder: 1m aligned horizon floor(16400/3600)*3600
    # = 14400 -> epochs ending <= 14400 (e <= 23) expire
    gone_1m = {d["epoch"] for d in report["expired"]["deleted"]
               if d["tier"] == "1m"}
    assert gone_1m == set(range(24))
    assert report["served_rows"] > 0
    df = pq.read_table(served).to_pandas()
    assert report["served_rows"] == len(df)
    assert set(df["tier"]) == {"1m", "1h"}


def test_write_tiered_store_guards_foreign_dirs(ray_session, corpus,
                                                tmp_path):
    from matrixprofile_1_ray.stages.retention import write_tiered_store

    target = tmp_path / "not_a_store"
    target.mkdir()
    (target / "precious.txt").write_text("hands off")
    with pytest.raises(ValueError, match="refusing"):
        write_tiered_store(corpus, str(target), w=32, epoch_sec=600)
