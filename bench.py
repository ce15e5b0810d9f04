#!/usr/bin/env python
"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "points_per_sec": ..., "seq_per_sec": ...}

``--scaling`` runs the same bench twice in fresh processes at
RAY_GRAFT_CPUS=8 and 32 (the sandbox stand-in for N vs 4N cluster sizes)
and reports both plus the scaling efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from matrixprofile_1_ray.io.readers import read_parquet_clean

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SYNTH_ROWS = int(os.environ.get("GRAFT_SYNTH_ROWS", "4000"))
# larger second scale point: round-over-round deltas measured above the
# host's ±30-40% noise floor (0 disables)
SYNTH_BIG_ROWS = int(os.environ.get("GRAFT_SYNTH_BIG_ROWS", "20000"))
SYNTH_SEED = 42
# scaling mode: N vs 4N parallelism in fresh sessions.  The pairing must
# sit BELOW the host's own throttling point or the measurement caps the
# engine at the host quota, not its scaling: round 1 measured a ~24-core
# quota (4/16 was clean then); by round 2 a pure CPU-burn calibration
# shows 4->16 procs sustaining only ~3.0-3.1x (0.76-0.78 host ceiling
# before any Ray code) while 2->8 stays at ~4x, so the default pair is
# now 2/8.  Re-run the burn calibration (BASELINE.md "Scaling evidence")
# if these numbers look off — the quota drifts with neighbor load.
SCALE_LO = int(os.environ.get("GRAFT_SCALE_LO", "2"))
SCALE_HI = int(os.environ.get("GRAFT_SCALE_HI", "8"))
# sized so the HI leg runs ~60 s: the per-session fixed cost (streaming
# topology startup + read planning) must stay a small fraction of the
# measured leg or it caps efficiency at (1 - fixed/hi_wall) no matter
# how well compute scales.  16000 rows was right for the pre-round-4
# kernel; the native-dispatch fix made the profile stage ~3x faster and
# dropped the hi leg to ~12 s (measured eff 0.685 from overhead alone),
# so the corpus scales with the kernel: 48000 measured a 7.6 s fixed
# component against a 163 s work component (two-point fit across the
# legs, eff 0.796-0.845); 96000 halves the fixed share and models the
# production regime, where one session amortizes over hours of corpus.
SCALE_ROWS = int(os.environ.get("GRAFT_SCALE_ROWS", "96000"))
# third scaling point (efficiency CURVE, not just one ratio) — kept inside
# the host's clean quota band (see SCALE_LO/HI note above: >8 procs hit
# the neighbor quota and measure the host, not the engine)
SCALE_MID = int(os.environ.get("GRAFT_SCALE_MID", "4"))
# pinned quiet-window serial-probe reference for probe normalization
# (rounds 3-4 measured 0.053-0.097 s quiet band on this host; the pin is
# the band's low-middle so normalization only ever DEFLATES readings
# taken under throttle, never inflates quiet ones)
QUIET_PROBE_REF_SEC = float(os.environ.get("GRAFT_PROBE_REF", "0.060"))


def synth_path(rows: int = None, rows_per_block: int = 250) -> str:
    """Deterministic synthetic sequences corpus, generated once (untimed).
    ``rows_per_block`` is part of the cache key: the scaling run uses
    smaller blocks than the headline bench, and reusing the wrong layout
    would silently skew read parallelism."""
    rows = SYNTH_ROWS if rows is None else rows
    path = f"/tmp/graft_synth_{rows}_{SYNTH_SEED}_b{rows_per_block}"
    marker = os.path.join(path, "_SUCCESS")
    if os.path.exists(marker):
        return path

    # crash/concurrency safety: generate into a temp dir and atomically
    # rename under the shared flock mutex.  A bare write-into-place would
    # leave partial files on an interrupted run, and the rerun's
    # write_parquet APPENDS alongside them before stamping _SUCCESS —
    # silently doubling the corpus (and every throughput number) forever.
    from matrixprofile_1_ray.sources import write_synthetic_sequences
    from matrixprofile_1_ray.stages.ann import _locked_build

    def build():
        import shutil

        tmp = f"{path}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        write_synthetic_sequences(tmp, rows, seed=SYNTH_SEED,
                                  rows_per_block=rows_per_block)
        open(os.path.join(tmp, "_SUCCESS"), "w").close()
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)

    _locked_build(path, lambda: not os.path.exists(marker), build)
    return path


def synth_token_count(spath: str) -> int:
    """Total n_tok over a synthetic corpus dir — one definition shared by
    the headline bench and the scaling legs so the two throughput numbers
    can never diverge on a layout change."""
    import pyarrow.parquet as pq

    return int(sum(
        pq.read_table(os.path.join(spath, f), columns=["n_tok"])["n_tok"]
        .to_numpy().sum()
        for f in os.listdir(spath) if f.endswith(".parquet")))


def throttle_probe() -> float:
    """Single-process serial CPU probe: one MPX self-join on a fixed 8192-
    point series, pure NumPy/C compute, no Ray.  The engine never changes
    this code path round-over-round, so a slow reading means the HOST is
    throttled — it makes a throttled bench window machine-detectable
    inside the emitted JSON instead of living in BASELINE.md prose.
    Quiet-window reference: ~0.06-0.09 s on this host; >=0.15 s marks a
    throttle window (see BASELINE.md)."""
    import numpy as np

    from matrixprofile_1_ray.kernels.mpx import mpx

    rng = np.random.default_rng(7)
    series = rng.uniform(size=8192)
    t0 = time.perf_counter()
    mpx(series, 32)
    return round(time.perf_counter() - t0, 4)


def run_bench() -> dict:
    import ray

    # host-state probe BEFORE ray.init (bare host, no Ray-process ambient
    # load; best-of-3 absorbs the serial kernel's first-call warmup)
    probe_pre = min(throttle_probe() for _ in range(3))

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from matrixprofile_1_ray.pipelines.flagship import (
        mp_rollup_pipeline,
        sequences_pipeline,
        token_rollup_pipeline,
    )
    from matrixprofile_1_ray.stages.ann import brute_force_topk
    from matrixprofile_1_ray.stages.codec_stage import verify_roundtrip_batch
    from matrixprofile_1_ray.stages.dedup import minhash_candidates
    from matrixprofile_1_ray.stages.discover_stage import corpus_top_discords
    from matrixprofile_1_ray.stages.profile import compute_profiles_batch
    from matrixprofile_1_ray.stages.rollup import mp_rollup_batch
    from matrixprofile_1_ray.pipelines.flagship import profiles_pipeline

    spath = synth_path()

    # untimed warm read (page cache) so we measure compute + shuffle
    _ = token_rollup_pipeline(SF_DIR).count()

    timings: dict[str, float] = {}
    counters: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[name] = round(time.perf_counter() - t0, 3)
        return result

    # 1. token tier rollups over the documents-derived sequences
    n_rollup_rows = timed("rollup_tiers",
                          lambda: token_rollup_pipeline(SF_DIR).count())

    # 2. matrix-profile tier rollups (the STOMP/MPX rollup path)
    timed("mp_rollup", lambda: mp_rollup_pipeline(SF_DIR, w=32).count())

    # 3. codec round-trip (gap-fill + compress + verify every row)
    timed("codec_verify",
          lambda: sequences_pipeline(SF_DIR).map_batches(
              verify_roundtrip_batch, batch_format="pyarrow").count())

    # 4. synthetic tokenized corpus: profiles + rollups at sequence scale.
    # ONE pipeline definition for both scale points — if they drifted, the
    # 5x point would stop measuring the same code as the headline point
    # and round-over-round deltas would compare different pipelines
    def synth_rollup_run(path):
        ds = ray.data.read_parquet(path)
        prof = ds.map_batches(
            lambda b: compute_profiles_batch(b, w=32),
            batch_format="pyarrow", batch_size=64)
        return prof.map_batches(mp_rollup_batch, batch_format="pyarrow").count()

    timed("synth_mp_rollup", lambda: synth_rollup_run(spath))

    # 4b. the same pipeline at 5x rows — the noise-robust scale point for
    # round-over-round comparisons (generation is cached and untimed)
    if SYNTH_BIG_ROWS:
        bigpath = synth_path(SYNTH_BIG_ROWS)
        timed("synth_mp_rollup_5x", lambda: synth_rollup_run(bigpath))

    # 5. corpus-level discovery
    timed("corpus_discords",
          lambda: corpus_top_discords(profiles_pipeline(SF_DIR, w=32)).count())

    # 6. MinHash-LSH near-dup
    timed("dedup_minhash",
          lambda: minhash_candidates(
              sequences_pipeline(SF_DIR)).count())

    # 7. reference headline point: one MPX self-join at n=32768, w=32
    # (reference: 1.555 s single core, 0.816 s with 4 OpenMP threads) —
    # ours fans the diagonal axis out as Ray tasks
    def mpx_long_run():
        from matrixprofile_1_ray.state.chunked import distributed_mpx

        rng = np.random.default_rng(0)
        series = rng.uniform(size=32768)
        mp, _ = distributed_mpx(series, 32)
        return mp.shape[0]

    mpx_long_run()  # warm the worker pool once, untimed
    timed("mpx_n32768", mpx_long_run)

    # 8. ANN brute-force cosine top-k
    def ann_run():
        from matrixprofile_1_ray.sources.sequences import parquet_head

        head = parquet_head(f"{SF_DIR}/embeddings.parquet", 16, ["embedding"])
        qm = np.stack([np.asarray(v, dtype="d")
                       for v in head["embedding"].to_pylist()])
        ds = read_parquet_clean(f"{SF_DIR}/embeddings.parquet",
                                   columns=["vec_id", "embedding"])
        return brute_force_topk(ds, qm, k=10).count()

    timed("ann_topk", ann_run)

    # 8b. IVF query-side scale point: 10^4 queries against the persisted
    # partitioned index (probe-set-batched ProbeScan).  The index build is
    # untimed (one-time corpus pass); reported on its own, excluded from
    # the headline total (new in round 3 — no round-delta baseline).
    def ann_ivf_q10k(n_q: int = 10000):
        from matrixprofile_1_ray.stages.ann import ivf_index_ident, ivf_topk

        tab = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                            columns=["embedding"])
        base = np.stack([np.asarray(v, dtype="d")
                         for v in tab["embedding"].to_pylist()])
        reps = int(np.ceil(n_q / base.shape[0]))
        qm = np.tile(base, (reps, 1))[:n_q]
        ident, tag = ivf_index_ident(f"{SF_DIR}/embeddings.parquet")
        ds = read_parquet_clean(f"{SF_DIR}/embeddings.parquet",
                                   columns=["vec_id", "embedding"])
        kwargs = dict(index_dir=f"/tmp/ivf_bench_{tag}",
                      input_fingerprint=ident)
        ivf_topk(ds, qm[:4], k=10, **kwargs).count()     # untimed build
        return lambda: ivf_topk(ds, qm, k=10, **kwargs).count()

    timed("ann_ivf_q10k", ann_ivf_q10k())

    # 9. retention engine: build the kind/tier/epoch store in one corpus
    # pass, expire the fine tier, serve a stitched range (reported on its
    # own, excluded from the headline total — new in round 4)
    def retention_run():
        import shutil

        from matrixprofile_1_ray.stages.retention import (
            RetentionPolicy,
            apply_retention,
            tiered_read,
            write_tiered_store,
        )

        store = "/tmp/graft_bench_tiered"
        shutil.rmtree(store, ignore_errors=True)
        write_tiered_store(SF_DIR, store, w=32, epoch_sec=60)
        pol = RetentionPolicy({"1m": 300, "1h": None, "1d": None})
        apply_retention(store, 600, pol)
        return tiered_read(store, "token", 600, pol, t_lo=0,
                           t_hi=600).count()

    timed("retention_store", retention_run)

    # throughput counters (aggregate in duckdb — no driver text copy)
    import duckdb

    doc_points, n_docs = duckdb.sql(
        f"SELECT sum(length(text)), count(*) FROM "
        f"read_parquet('{SF_DIR}/documents.parquet')").fetchone()
    synth_points = synth_token_count(spath)
    rollup_secs = timings["rollup_tiers"] + timings["mp_rollup"]
    counters["points_per_sec"] = round(
        (doc_points * 4) / max(rollup_secs, 1e-9))      # 4 passes: raw+3 tiers
    counters["seq_per_sec"] = round(
        (n_docs + SYNTH_ROWS)
        / max(timings["mp_rollup"] + timings["synth_mp_rollup"], 1e-9), 1)
    counters["synth_points"] = int(synth_points)
    counters["rollup_rows"] = int(n_rollup_rows)

    ray.shutdown()
    probe_post = throttle_probe()
    # headline total keeps round-1 scope (the 5x and IVF-10k points are
    # reported on their own so adding them doesn't read as a regression in
    # round deltas)
    total = round(sum(v for k, v in timings.items()
                      if k not in ("synth_mp_rollup_5x", "ann_ivf_q10k",
                                   "retention_store")), 3)
    # probe-normalized view: each raw time scaled by QUIET_PROBE_REF /
    # mean(bracketing probes), so a host-throttled window reads ~like a
    # quiet one and round-over-round deltas separate engine change from
    # neighbor load mechanically.  The reference constant is pinned in
    # BASELINE.md ("Scaling evidence") — rounds 3 and 4 both spent prose
    # arguing about throttle windows; this makes the artifact do it.
    # Factor is clamped to <=1 so a faster-than-reference host never
    # inflates the normalized numbers in the engine's favor.
    probe_mean = (probe_pre + probe_post) / 2
    norm_factor = min(1.0, QUIET_PROBE_REF_SEC / max(probe_mean, 1e-9))
    queries_norm = {k: round(v * norm_factor, 3) for k, v in timings.items()}
    return {
        "metric": "flagship pipelines wall time (rollups, mp, codec, dedup, ann)",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **counters,
        # serial no-Ray CPU probe bracketing the timed section; quiet-window
        # reference ~0.06-0.09 s — a reading >=0.15 s marks a host
        # throttle window (see BASELINE.md "Scaling evidence")
        "probe": {"pre_sec": probe_pre, "post_sec": probe_post,
                  "kernel": "serial mpx n=8192 w=32",
                  "quiet_ref_sec": QUIET_PROBE_REF_SEC,
                  "normalization_factor": round(norm_factor, 4)},
        "value_normalized": round(total * norm_factor, 3),
        "queries_normalized": queries_norm,
    }


def run_flagship_scaled(num_cpus: int, spath: str) -> dict:
    """One flagship run over the synthetic tokenized corpus: read ->
    gap-fill -> codec round-trip -> matrix profiles -> tier rollups.
    This is the compute-dominant headline used for the scaling criterion."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import pyarrow.parquet as pq
    import ray.data

    from matrixprofile_1_ray.pipelines.flagship import flagship_batch
    from matrixprofile_1_ray.stages.codec_stage import verify_roundtrip_batch
    from matrixprofile_1_ray.stages.gapfill import gapfill_batch

    points = synth_token_count(spath)

    t0 = time.perf_counter()
    # corpus files are 125-row blocks -> plenty of parallelism at both
    # levels; no sort/repartition (the max single-series kernel cost is
    # ~150 ms, so stragglers are a non-issue and any all-to-all pre-pass
    # is pure fixed overhead)
    ds = ray.data.read_parquet(spath)
    ds = ds.map_batches(gapfill_batch, batch_format="pyarrow")
    ds = ds.map_batches(verify_roundtrip_batch, batch_format="pyarrow")
    ds = ds.drop_columns(["tokens_enc"])
    batch = int(os.environ.get("GRAFT_FLAGSHIP_BATCH", "48"))
    n_rollups = ds.map_batches(flagship_batch, batch_format="pyarrow",
                               batch_size=batch).count()
    wall = time.perf_counter() - t0
    ray.shutdown()
    return {
        "sec": round(wall, 3),
        "points": int(points),
        "points_per_sec": round(points / wall),
        "rollup_rows": int(n_rollups),
        "num_cpus": num_cpus,
    }


def run_scaling() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    # corpus files are 125-row blocks -> plenty of parallelism at both
    # parallelism levels; distinct cache key from the 250-row headline runs
    spath = synth_path(SCALE_ROWS, rows_per_block=125)
    ray.shutdown()

    def run(ncpu: int) -> dict:
        env = dict(os.environ, GRAFT_SCALE_CPUS=str(ncpu),
                   GRAFT_SCALE_PATH=spath)
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--scaling-worker"],
                             env=env, capture_output=True, text=True,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode != 0:
            # surface the worker's actual traceback — check=True would
            # swallow the captured stderr and leave a 2-hour best-of-3
            # session undiagnosable on a worker OOM/import failure
            raise RuntimeError(
                f"scaling worker (ncpu={ncpu}) exited "
                f"{out.returncode}; stderr tail:\n"
                + "\n".join(out.stderr.splitlines()[-30:]))
        return json.loads(out.stdout.strip().splitlines()[-1])

    run(SCALE_HI)  # one untimed pass warms the page cache for both levels
    # best-of-N per level: the sandbox host stalls unpredictably (measured
    # bimodal: identical 8-cpu runs land at ~26 s or ~32 s depending on
    # neighbor load) — the minimum measures the engine, not the neighbors.
    # three lo attempts: the ~2-min lo leg is the one long enough to sit
    # entirely inside a host throttle window (two in a row measured 122 s
    # against quiet bracketing probes), so it needs the extra chance most.
    # Every attempt is bracketed by the serial no-Ray throttle probe and
    # ALL attempts + probes land in the emitted JSON so the protocol (and
    # any throttled attempt the best-of discards) is machine-auditable.
    def attempt(ncpu: int) -> dict:
        pre = throttle_probe()
        r = run(ncpu)
        r["probe_pre_sec"] = pre
        r["probe_post_sec"] = throttle_probe()
        return r

    throttle_probe()  # discard the serial kernel's first-call warmup so
    # attempts_lo[0].probe_pre_sec reads true host state, not JIT/cache
    # fill — a warmup-inflated first probe would falsely mark a quiet
    # window as throttled in the emitted audit trail
    attempts_lo = [attempt(SCALE_LO) for _ in range(3)]
    # the mid leg is curve evidence, not the pass/fail ratio — 2 attempts
    attempts_mid = [attempt(SCALE_MID) for _ in range(2)]
    attempts_hi = [attempt(SCALE_HI) for _ in range(3)]
    r_lo = min(attempts_lo, key=lambda r: r["sec"])
    r_mid = min(attempts_mid, key=lambda r: r["sec"])
    r_hi = min(attempts_hi, key=lambda r: r["sec"])
    eff = (r_lo["sec"] / r_hi["sec"]) / (SCALE_HI / SCALE_LO)

    # two-parameter model wall(c) = F + W/c over the three best legs:
    # F is the per-session fixed cost (streaming-topology startup + read
    # planning), W the perfectly-parallel work.  Round 4 derived F ~= 7.6 s
    # by hand to explain a 0.796 reading; this makes the fit a first-class
    # artifact field so the next throttle-vs-engine argument is mechanical.
    import numpy as np

    cs = np.array([SCALE_LO, SCALE_MID, SCALE_HI], dtype=float)
    walls = np.array([r_lo["sec"], r_mid["sec"], r_hi["sec"]], dtype=float)
    design = np.stack([np.ones_like(cs), 1.0 / cs], axis=1)
    coef, *_ = np.linalg.lstsq(design, walls, rcond=None)
    fit_f, fit_w = float(coef[0]), float(coef[1])
    resid = walls - design @ coef
    ss_tot = float(((walls - walls.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0

    def pair_eff(a, b, ca, cb):
        return round((a["sec"] / b["sec"]) / (cb / ca), 3)

    return {
        "metric": f"flagship scaling N={SCALE_LO} vs 4N={SCALE_HI} cpus, "
                  "fresh sessions, same input",
        "sec_lo": r_lo["sec"],
        "sec_mid": r_mid["sec"],
        "sec_hi": r_hi["sec"],
        "points_per_sec_lo": r_lo["points_per_sec"],
        "points_per_sec_mid": r_mid["points_per_sec"],
        "points_per_sec_hi": r_hi["points_per_sec"],
        "num_cpus_lo": SCALE_LO,
        "num_cpus_mid": SCALE_MID,
        "num_cpus_hi": SCALE_HI,
        "scaling_efficiency": round(eff, 3),
        "efficiency_curve": {
            f"{SCALE_LO}->{SCALE_MID}": pair_eff(r_lo, r_mid,
                                                 SCALE_LO, SCALE_MID),
            f"{SCALE_MID}->{SCALE_HI}": pair_eff(r_mid, r_hi,
                                                 SCALE_MID, SCALE_HI),
            f"{SCALE_LO}->{SCALE_HI}": round(eff, 3),
        },
        "fit": {"model": "wall = F + W/cpus over best-of legs",
                "fixed_cost_sec": round(fit_f, 2),
                "work_sec": round(fit_w, 1),
                "r_squared": round(r2, 4)},
        "synth_rows": SCALE_ROWS,
        "protocol": "best-of-3 per lo/hi leg (best-of-2 mid), "
                    "serial-probe bracketed "
                    "(quiet-window probe reference ~0.06-0.09 s)",
        "attempts_lo": [{k: a[k] for k in
                         ("sec", "probe_pre_sec", "probe_post_sec")}
                        for a in attempts_lo],
        "attempts_mid": [{k: a[k] for k in
                          ("sec", "probe_pre_sec", "probe_post_sec")}
                         for a in attempts_mid],
        "attempts_hi": [{k: a[k] for k in
                         ("sec", "probe_pre_sec", "probe_post_sec")}
                        for a in attempts_hi],
    }


if __name__ == "__main__":
    if "--scaling-worker" in sys.argv:
        print(json.dumps(run_flagship_scaled(
            int(os.environ["GRAFT_SCALE_CPUS"]),
            os.environ["GRAFT_SCALE_PATH"])))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
