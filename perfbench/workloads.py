"""The three workloads: set-up, the measured loop, the output checks and,
with tracing on, the per-layer ledger.

Each ``run_*`` returns ``(checks, attempted, failed, e2e, layers)``:
``checks`` is a list of ``(name, ok, detail)``; ``e2e`` holds the
end-to-end metrics of an untraced run and ``layers`` the per-layer
metrics of a traced one.  Program modules are imported inside the
functions, so that their import time lands in ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import harness
import inputs
import oracles
from harness import Tracer, median, quantile

W = inputs.W
PL_SPLIT = 700      # rows up to this profile length take the matmul kernel
# 100 queries at least, so that ten fall beyond serve_p90_ms
MIN_SERVE_ROUNDS = 5

# layers whose in-process self time is summed against the end-to-end wall
IN_PROCESS_LAYERS = ("io.read", "sources.tokenize", "stages.gapfill",
                     "stages.codec_stage", "stages.profile",
                     "stages.rollup.token", "stages.rollup.mp",
                     "stages.retention.epoch")


@dataclass
class Ctx:
    scratch: str
    sf_dir: str
    seed: int
    seconds: float
    tracer: Tracer
    session: harness.RaySession
    info: dict = field(default_factory=dict)
    setup: dict = field(default_factory=dict)    # part -> seconds

    @contextlib.contextmanager
    def timed_setup(self, part: str):
        """Time one part of the set-up (summed into setup_s) and trace it
        as ``setup.<part>``."""
        with self.tracer.span(f"setup.{part}"):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.setup[part] = time.perf_counter() - t0


def _check(checks: list, name: str, ok, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


def _ray_data_ops(ds) -> list[dict]:
    """Per-operator UDF and wall seconds of an executed Dataset and its
    parents, from Ray Data's own stats."""
    out = []

    def walk(summary):
        for p in summary.parents:
            walk(p)
        for op in summary.operators_stats:
            out.append({"operator": op.operator_name,
                        "udf_s": (op.udf_time or {}).get("sum", 0.0),
                        "wall_s": (op.wall_time or {}).get("sum", 0.0)})

    walk(ds._plan.stats().to_summary())
    return out


def _udf_seconds(ds) -> float:
    return sum(op["udf_s"] for op in _ray_data_ops(ds))


def _layer_ledger(ctx: Ctx, layers: dict, since: int, e2e_s: float,
                  extra_s: float = 0.0) -> None:
    """Layer self times from spans recorded since span ``since``, and the
    residual that closes the sum to the end-to-end wall."""
    tr = ctx.tracer
    total = extra_s
    for name in IN_PROCESS_LAYERS:
        s = tr.total(name, since)
        layers[f"{name}_s"] = s
        total += s
    layers["pipelines.flagship.e2e_s"] = e2e_s
    layers["pipelines.flagship.ray_residual_s"] = e2e_s - total


def _profile_row_counts(lengths: np.ndarray) -> tuple[int, int]:
    pl = lengths[lengths >= 2 * W] - W + 1
    return int((pl <= PL_SPLIT).sum()), int((pl > PL_SPLIT).sum())


# ---- docs_ingest -----------------------------------------------------------

def _ingest_chain(tr: Tracer, sf_dir: str, n_blocks: int) -> int:
    """The flagship write chain in this process, one traced call per layer
    on the same batch shapes as the Ray pipeline: the split into
    ``n_blocks`` blocks, 64-row flagship batches.  Returns the encoded
    bytes of the codec stage."""
    from matrixprofile_1_ray.sources.sequences import tokenize_documents_batch
    from matrixprofile_1_ray.stages.codec_stage import verify_roundtrip_batch
    from matrixprofile_1_ray.stages.gapfill import gapfill_batch
    from matrixprofile_1_ray.stages.profile import compute_profiles_batch
    from matrixprofile_1_ray.stages.retention import add_epoch_column
    from matrixprofile_1_ray.stages.rollup import (TIERS, mp_rollup_batch,
                                                   rollup_batch)

    enc_bytes = 0
    with tr.span("pipelines.flagship"):
        with tr.span("io.read"):
            docs = pq.read_table(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "source"])
        with tr.span("sources.tokenize"):
            seq = tokenize_documents_batch(docs)
        step = -(-len(seq) // n_blocks)
        for lo in range(0, len(seq), step):
            block = seq.slice(lo, step)
            with tr.span("stages.gapfill"):
                block = gapfill_batch(block)
            with tr.span("stages.codec_stage"):
                block = verify_roundtrip_batch(block)
            enc_bytes += pc.sum(pc.binary_length(block["tokens_enc"])).as_py()
            block = block.drop_columns(["tokens_enc"])
            for b in range(0, len(block), 64):
                batch = block.slice(b, 64)
                with tr.span("stages.rollup.token"):
                    tok = rollup_batch(batch)
                with tr.span("stages.profile"):
                    prof = compute_profiles_batch(batch, w=W)
                with tr.span("stages.rollup.mp"):
                    mp = mp_rollup_batch(prof)
                unified = pa.concat_tables(
                    [tok.append_column("kind", pa.array(["token"] * len(tok))),
                     mp.append_column("kind", pa.array(["mp"] * len(mp)))],
                    promote_options="default")
                with tr.span("stages.retention.epoch"):
                    add_epoch_column(unified, TIERS, 86400)
    return enc_bytes


def _check_ingest_store(checks: list, store: str, ids: list, cps: list,
                        seed: int) -> None:
    """Token rows of every doc and tier against NumPy bucket stats; mp
    rows of a seeded doc sample against the brute-force self-join."""
    from_tier = {"1m": 60, "1h": 3600, "1d": 86400}
    idx_of = {d: i for i, d in enumerate(ids)}

    tok = oracles.read_hive_store(store, "token")
    for tier, width in from_tier.items():
        rows = tok.filter(pc.equal(tok["tier"], tier))
        st = oracles.BucketStats(cps, width)
        doc = np.array([idx_of[d] for d in rows["doc_id"].to_pylist()])
        b = rows["bucket"].to_numpy()
        want_rows = int((st.count > 0).sum())
        ok = (len(rows) == want_rows
              and np.array_equal(rows["t_count"].to_numpy(), st.count[doc, b])
              and np.array_equal(rows["t_min"].to_numpy(), st.min[doc, b])
              and np.array_equal(rows["t_max"].to_numpy(), st.max[doc, b])
              and np.array_equal(rows["t_sum"].to_numpy(), st.sum[doc, b]))
        _check(checks, f"docs_ingest.token_rows.{tier}", ok,
               f"{len(rows)} rows, want {want_rows}")

    mp = oracles.read_hive_store(store, "mp")
    rng = np.random.default_rng([seed, 0xD0C])
    eligible = [i for i, c in enumerate(cps)
                if c.size >= 2 * W and oracles.min_window_std(c, W) > 1e-3]
    sample = rng.choice(eligible, size=min(8, len(eligible)), replace=False)
    for i in sample:
        want_mp, _ = oracles.self_join(cps[i], W)
        mine = mp.filter(pc.equal(mp["doc_id"], ids[i]))
        ok = True
        for tier, width in from_tier.items():
            rows = mine.filter(pc.equal(mine["tier"], tier)).sort_by("bucket")
            nb = -(-want_mp.size // width)
            ok &= len(rows) == nb
            if not ok:
                break
            for r, b in enumerate(rows["bucket"].to_pylist()):
                seg = want_mp[b * width : (b + 1) * width]
                got_min = rows["mp_min"][r].as_py()
                arg = rows["mp_argmin"][r].as_py()
                ok &= rows["mp_count"][r].as_py() == seg.size
                ok &= abs(got_min - seg.min()) <= 1e-6 * max(1.0, seg.min())
                ok &= (b * width <= arg < b * width + seg.size
                       and oracles.argmin_ok(want_mp, arg, seg.min()))
        _check(checks, f"docs_ingest.mp_rows.doc{ids[i]}", ok)


def run_docs_ingest(ctx: Ctx):
    checks, layers = [], {}
    with ctx.timed_setup("imports"):
        import ray  # noqa: F401
        from matrixprofile_1_ray.kernels import _native
        from matrixprofile_1_ray.stages.retention import write_tiered_store
    ctx.info["native_kernel"] = _native.AVAILABLE

    sf = ctx.sf_dir
    warm_sf = os.path.join(ctx.scratch, "warm_sf")
    os.makedirs(warm_sf)
    pq.write_table(pq.read_table(f"{sf}/documents.parquet").slice(0, 200),
                   f"{warm_sf}/documents.parquet")
    ctx.info["inputs_sha256"] = {
        "documents.parquet": harness.file_sha256(f"{sf}/documents.parquet"),
        "warm documents.parquet":
            harness.file_sha256(f"{warm_sf}/documents.parquet")}

    with ctx.timed_setup("ray_init"):
        ctx.session.start()
    with ctx.timed_setup("warm"):
        write_tiered_store(warm_sf, os.path.join(ctx.scratch, "warm_store"))

    ids, cps = oracles.read_documents(f"{sf}/documents.parquet")
    points = int(sum(c.size for c in cps))
    store = os.path.join(ctx.scratch, "store")

    def one_pass():
        t0 = time.perf_counter()
        with ctx.tracer.span("pipelines.flagship.pass"):
            write_tiered_store(sf, store)
        return time.perf_counter() - t0, harness.tree_bytes(store, ".parquet")

    walls, sizes = [], []
    if ctx.tracer.enabled:
        wall, size = one_pass()
        walls.append(wall)
        sizes.append(size)
        since = len(ctx.tracer.spans)
        n_blocks = 2 * ctx.session.num_cpus
        t0 = time.perf_counter()
        enc = _ingest_chain(ctx.tracer, sf, n_blocks)
        traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        _ingest_chain(Tracer(ctx.tracer.run_id, False), sf, n_blocks)
        layers["trace.overhead_s"] = traced - (time.perf_counter() - t0)
        _layer_ledger(ctx, layers, since, wall)
        layers["functions.codec.bytes_per_point"] = enc / points
        le, gt = _profile_row_counts(np.array([c.size for c in cps]))
        layers["stages.profile.rows_pl_le_700"] = le
        layers["stages.profile.rows_pl_gt_700"] = gt
    else:
        t_end = time.perf_counter() + ctx.seconds
        while not walls or time.perf_counter() < t_end:
            wall, size = one_pass()
            walls.append(wall)
            sizes.append(size)
    peak = ctx.session.peak_rss_mb()
    _check(checks, "docs_ingest.same_store_every_pass",
           len(set(sizes)) == 1, str(sorted(set(sizes))))
    _check_ingest_store(checks, store, ids, cps, ctx.seed)
    ctx.info.update(points=points, passes=len(walls),
                    store_bytes=sizes[-1][0], store_files=sizes[-1][1])
    e2e = {"points_per_s": median([points / w for w in walls]),
           "store_bytes_per_point": sizes[-1][0] / points,
           "serve_p50_ms": 1e3 * median(walls),
           "serve_p90_ms": 1e3 * quantile(walls, 0.9),
           "peak_rss_mb": peak}
    return checks, len(walls), 0, e2e, layers


# ---- skewed_profiles ---------------------------------------------------------

def _skew_pass(corpus: str, tr: Tracer):
    """read -> gap-fill -> length-routed profiles -> mp rollups, the
    rollup rows fetched to this process.  Returns (wall, long-row wall,
    profiles Dataset, rollup Dataset, rollup tables)."""
    import ray
    import ray.data
    from matrixprofile_1_ray.pipelines.flagship import profiles_skew_aware
    from matrixprofile_1_ray.stages.gapfill import gapfill_batch
    from matrixprofile_1_ray.stages.rollup import mp_rollup_batch

    t0 = time.perf_counter()
    with tr.span("pipelines.flagship.pass"):
        ds = ray.data.read_parquet(corpus).map_batches(gapfill_batch,
                                                       batch_format="pyarrow")
        with tr.span("state.chunked.long_rows"):
            t1 = time.perf_counter()
            prof = profiles_skew_aware(
                ds, w=W, long_threshold=inputs.LONG_THRESHOLD,
                corpus_path=corpus, preprocess=gapfill_batch)
            long_s = time.perf_counter() - t1
        prof = prof.materialize()
        roll = prof.map_batches(mp_rollup_batch, batch_format="pyarrow")
        roll = roll.materialize()
        tables = ray.get(roll.to_arrow_refs())
    return time.perf_counter() - t0, long_s, prof, roll, tables


def _skew_chain(tr: Tracer, corpus: str, long_profiles: list) -> None:
    """The short-row side in this process, one traced call per layer on
    the Ray pipeline's batch shapes (256-row profile batches); the long
    rows' profiles come from the Ray pass and are only rolled up."""
    from matrixprofile_1_ray.stages.gapfill import gapfill_batch
    from matrixprofile_1_ray.stages.profile import compute_profiles_batch
    from matrixprofile_1_ray.stages.rollup import mp_rollup_batch

    with tr.span("pipelines.flagship"):
        with tr.span("io.read"):
            tab = pq.read_table(corpus)
        with tr.span("stages.gapfill"):
            tab = gapfill_batch(tab)
        short = tab.filter(pc.less_equal(tab["n_tok"], inputs.LONG_THRESHOLD))
        for b in range(0, len(short), 256):
            with tr.span("stages.profile"):
                prof = compute_profiles_batch(short.slice(b, 256), w=W)
            with tr.span("stages.rollup.mp"):
                mp_rollup_batch(prof)
        for prof in long_profiles:
            with tr.span("stages.rollup.mp"):
                mp_rollup_batch(prof)


def _check_skew(checks: list, rows: list, prof_tables: list,
                roll_tables: list, seed: int) -> None:
    prof = pa.concat_tables(prof_tables)
    by_id = {d: i for i, d in enumerate(prof["doc_id"].to_pylist())}
    _check(checks, "skewed_profiles.lossless",
           len(prof) == len(rows) and set(by_id) == {r.doc_id for r in rows},
           f"{len(prof)} rows out, {len(rows)} in")
    valid = prof["valid"].to_pylist()
    mp_col, pi_col = prof["mp"], prof["pi"]
    filled = {r.doc_id: oracles.forward_fill(r.tokens, inputs.GAP)
              for r in rows}

    ok_valid = True
    for r in rows:
        i = by_id.get(r.doc_id)
        if i is None:
            continue
        n = r.tokens.size
        ok_valid &= valid[i] == (n >= 2 * W)
        ok_valid &= len(mp_col[i]) == (n - W + 1 if n >= 2 * W else 0)
    _check(checks, "skewed_profiles.valid_is_n_ge_2w", ok_valid)

    # planted motif pairs: distance ~0 and indices pointing at each other
    planted = [r for r in rows if r.motif is not None and r.doc_id in by_id]
    ok = True
    for r in planted:
        a, b = r.motif
        i = by_id[r.doc_id]
        mp = mp_col[i].values.to_numpy()
        pi = pi_col[i].values.to_numpy()
        ok &= mp[a] < 1e-3 and mp[b] < 1e-3 and pi[a] == b and pi[b] == a
    _check(checks, "skewed_profiles.planted_motifs", ok and planted,
           f"{len(planted)} planted pairs")

    # sampled indices of every long row and of some short and gap rows
    rng = np.random.default_rng([seed, 0x5A3])
    longs = [r for r in rows if r.tokens.size > inputs.LONG_THRESHOLD]
    gappy = [r for r in rows if r.gaps and r not in longs]
    plain = [r for r in rows if 2 * W <= r.tokens.size <= inputs.LONG_THRESHOLD]
    picks = longs + [gappy[k] for k in rng.choice(len(gappy), 4, replace=False)] \
        + [plain[k] for k in rng.choice(len(plain), 4, replace=False)]
    for r in picks:
        i = by_id.get(r.doc_id)
        if i is None:
            continue
        mp = mp_col[i].values.to_numpy()
        pi = pi_col[i].values.to_numpy()
        z = oracles.znorm_windows(filled[r.doc_id], W)
        js = rng.choice(z.shape[0], size=16, replace=False)
        js = np.concatenate([js, np.array([s for s, _ in r.gaps
                                           if s < z.shape[0]], np.int64)])
        ok = True
        for j in js:
            d = oracles.distance_profile(z, int(j), W)
            want = d.min()
            ok &= abs(mp[j] - want) <= 1e-6 * max(1.0, want)
            ok &= oracles.argmin_ok(d, int(pi[j]), want)
        kind = "long" if r in longs else ("gap" if r.gaps else "short")
        _check(checks, f"skewed_profiles.brute_force.{kind}.{r.doc_id}", ok,
               f"{len(js)} indices, n={r.tokens.size}")

    # mp rollups of every row against bucket stats of the checked profiles
    roll = pa.concat_tables(roll_tables)
    ok = True
    for tier, width in {"1m": 60, "1h": 3600, "1d": 86400}.items():
        rows_t = roll.filter(pc.equal(roll["tier"], tier))
        series = [mp_col[by_id[d]].values.to_numpy()
                  for d in prof["doc_id"].to_pylist()]
        st = oracles.BucketStats(series, width)
        doc = np.array([by_id[d] for d in rows_t["doc_id"].to_pylist()])
        b = rows_t["bucket"].to_numpy()
        ok &= len(rows_t) == int((st.count > 0).sum())
        ok &= np.array_equal(rows_t["mp_count"].to_numpy(), st.count[doc, b])
        ok &= np.array_equal(rows_t["mp_min"].to_numpy(), st.min[doc, b])
    _check(checks, "skewed_profiles.mp_rollups", ok, f"{len(roll)} rows")


def _check_gapfill(checks: list, corpus: str, rows: list) -> None:
    """Run the program's gap-fill stage over the corpus and compare the
    gap rows with an independent forward fill."""
    import ray.data
    from matrixprofile_1_ray.stages.gapfill import gapfill_batch

    want = {r.doc_id: oracles.forward_fill(r.tokens, inputs.GAP)
            for r in rows if r.gaps}
    got = 0
    ok = True
    for b in ray.data.read_parquet(corpus).map_batches(
            gapfill_batch, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for d, toks in zip(b["doc_id"].to_pylist(), b["tokens"]):
            if d in want:
                got += 1
                ok &= np.array_equal(toks.values.to_numpy(), want[d])
    _check(checks, "skewed_profiles.gap_fill", ok and want and got == len(want),
           f"{got}/{len(want)} gap rows")


def run_skewed_profiles(ctx: Ctx):
    checks, layers = [], {}
    with ctx.timed_setup("imports"):
        import ray
        from matrixprofile_1_ray.kernels import _native
        from matrixprofile_1_ray.pipelines import flagship  # noqa: F401
    ctx.info["native_kernel"] = _native.AVAILABLE

    t0 = time.perf_counter()
    rows = inputs.skewed_corpus(ctx.seed)
    corpus = os.path.join(ctx.scratch, "corpus.parquet")
    inputs.write_corpus(rows, corpus)
    warm = os.path.join(ctx.scratch, "warm.parquet")
    inputs.write_corpus(inputs.warm_corpus(ctx.seed), warm)
    points = int(sum(r.tokens.size for r in rows))
    long_points = int(sum(r.tokens.size for r in rows
                          if r.tokens.size > inputs.LONG_THRESHOLD))
    ctx.info.update(
        input_gen_s=time.perf_counter() - t0, points=points,
        rows=len(rows), long_points=long_points,
        inputs_sha256={"corpus.parquet": harness.file_sha256(corpus),
                       "warm.parquet": harness.file_sha256(warm)})

    with ctx.timed_setup("ray_init"):
        ctx.session.start()
    with ctx.timed_setup("warm"):
        _skew_pass(warm, Tracer(ctx.tracer.run_id, False))

    walls, out_bytes = [], []
    if ctx.tracer.enabled:
        wall, long_s, prof, roll, tables = _skew_pass(corpus, ctx.tracer)
        walls.append(wall)
        out_bytes.append(sum(t.nbytes for t in tables))
        prof_tables = ray.get(prof.to_arrow_refs())
        long_profiles = [t.filter(pc.greater(t["n_tok"],
                                             inputs.LONG_THRESHOLD))
                         for t in prof_tables]
        chain_since = len(ctx.tracer.spans)
        t0 = time.perf_counter()
        _skew_chain(ctx.tracer, corpus, long_profiles)
        traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        _skew_chain(Tracer(ctx.tracer.run_id, False), corpus, long_profiles)
        layers["trace.overhead_s"] = traced - (time.perf_counter() - t0)
        _layer_ledger(ctx, layers, chain_since, wall, extra_s=long_s)
        layers["state.chunked.long_rows_s"] = long_s
        layers["state.chunked.long_points"] = long_points
        layers["ray_data.udf_s"] = _udf_seconds(roll)   # prof is its parent
        ctx.info["ray_data_operators"] = _ray_data_ops(roll)
        short = np.array([r.tokens.size for r in rows
                          if r.tokens.size <= inputs.LONG_THRESHOLD])
        le, gt = _profile_row_counts(short)
        layers["stages.profile.rows_pl_le_700"] = le
        layers["stages.profile.rows_pl_gt_700"] = gt
    else:
        t_end = time.perf_counter() + ctx.seconds
        while not walls or time.perf_counter() < t_end:
            wall, _, prof, roll, tables = _skew_pass(corpus, ctx.tracer)
            walls.append(wall)
            out_bytes.append(sum(t.nbytes for t in tables))
        prof_tables = ray.get(prof.to_arrow_refs())
    peak = ctx.session.peak_rss_mb()
    _check(checks, "skewed_profiles.same_output_every_pass",
           len(set(out_bytes)) == 1, str(sorted(set(out_bytes))))
    _check_skew(checks, rows, prof_tables, tables, ctx.seed)
    _check_gapfill(checks, corpus, rows)
    ctx.info.update(passes=len(walls))
    e2e = {"points_per_s": median([points / w for w in walls]),
           "store_bytes_per_point": out_bytes[-1] / points,
           "serve_p50_ms": 1e3 * median(walls),
           "serve_p90_ms": 1e3 * quantile(walls, 0.9),
           "peak_rss_mb": peak}
    return checks, len(walls), 0, e2e, layers


# ---- tiered_serve ----------------------------------------------------------

class ServeOracle:
    """NumPy bucket stats of every doc at every tier, and the interval
    and tier rules a served result must obey."""

    def __init__(self, ids: list, cps: list):
        self.idx_of = {d: i for i, d in enumerate(ids)}
        self.n = np.array([c.size for c in cps], np.int64)
        self.stats = {t: oracles.BucketStats(cps, w)
                      for t, w in inputs.LADDER.items()}

    def check(self, q: inputs.Query, tab: pa.Table) -> tuple[bool, str]:
        if len(tab) == 0:
            return self._expect_rows(q) == 0, "empty result"
        doc = np.array([self.idx_of[d] for d in tab["doc_id"].to_pylist()])
        tier = np.array(tab["tier"].to_pylist())
        start = tab["bucket_start"].to_numpy()
        width = np.array([inputs.LADDER[t] for t in tier])
        if not (start % width == 0).all():
            return False, "bucket_start off the tier grid"
        if not ((start >= q.t_lo) & (start < q.t_hi)).all():
            return False, "bucket outside [t_lo, t_hi)"
        if q.op == "tiered":
            want_tier = np.where(start >= inputs.SEAM, "1m", "5m")
        else:
            want_tier = np.full(len(tab), inputs.expected_downsample_tier(q))
        if not (tier == want_tier).all():
            return False, "wrong tier served"
        length = self._length(q.kind)[doc]
        end = np.minimum(start + width, length)
        if q.op == "tiered":
            ok, why = self._covers(q, doc, start, end, length)
            if not ok:
                return ok, why
        elif len(tab) != self._expect_rows(q):
            return False, f"{len(tab)} rows, want {self._expect_rows(q)}"
        counts = tab["t_count" if q.kind == "token" else "mp_count"].to_numpy()
        if not np.array_equal(counts, end - start):
            return False, "bucket counts"
        if q.kind == "token":
            for t in np.unique(tier):
                m = tier == t
                st = self.stats[t]
                b = start[m] // inputs.LADDER[t]
                for col, want in (("t_min", st.min), ("t_max", st.max),
                                  ("t_sum", st.sum)):
                    if not np.array_equal(tab[col].to_numpy()[m],
                                          want[doc[m], b]):
                        return False, f"{col} at tier {t}"
        return True, ""

    def _length(self, kind: str) -> np.ndarray:
        if kind == "token":
            return self.n
        return np.where(self.n >= 2 * W, self.n - W + 1, 0)

    def _expect_rows(self, q: inputs.Query) -> int:
        """Rows a downsampled read must return: buckets of the chosen tier
        starting in range and inside each doc."""
        if q.op == "tiered":
            length = self._length(q.kind)
            return int((length > q.t_lo).sum())
        w = inputs.LADDER[inputs.expected_downsample_tier(q)]
        first = -(-q.t_lo // w) * w
        starts = np.arange(first, q.t_hi, w)
        return int((self._length(q.kind)[:, None] > starts[None, :]).sum())

    def _covers(self, q, doc, start, end, length):
        """Per doc, the served intervals tile [t_lo, min(t_hi, length))
        exactly once; every doc reaching t_lo is served."""
        order = np.lexsort((start, doc))
        doc, start, end = doc[order], start[order], end[order]
        first = np.r_[True, doc[1:] != doc[:-1]]
        last = np.r_[doc[1:] != doc[:-1], True]
        if not (start[first] == q.t_lo).all():
            return False, "a doc's first bucket does not start at t_lo"
        if not (start[~first] == end[np.flatnonzero(~first) - 1]).all():
            return False, "gap or overlap between buckets"
        want_end = np.minimum(q.t_hi, length[order][last])
        if not (end[last] == want_end).all():
            return False, "a doc's last bucket does not end at min(t_hi, n)"
        if first.sum() != int((self._length(q.kind) > q.t_lo).sum()):
            return False, "docs missing from the result"
        return True, ""


def _serve_query(store, policy, q: inputs.Query, tr: Tracer):
    from matrixprofile_1_ray.stages.retention import (downsample_read,
                                                      tiered_read)

    t0 = time.perf_counter()
    with tr.span("stages.retention.plan", op=q.op):
        if q.op == "tiered":
            ds = tiered_read(store, q.kind, inputs.NOW, policy, q.t_lo, q.t_hi)
        else:
            ds = downsample_read(store, q.kind, q.t_lo, q.t_hi, q.max_points,
                                 now_sec=inputs.NOW, policy=policy)
    t1 = time.perf_counter()
    with tr.span("stages.retention.exec", op=q.op):
        parts = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    t2 = time.perf_counter()
    tab = (pa.concat_tables(parts) if parts else pa.table({}))
    return tab, t1 - t0, t2 - t1, ds


def _files_for(store: str, q: inputs.Query) -> int:
    """Parquet files in the partitions the query's plan reads."""
    if q.op == "tiered":
        parts = [("1m", max(q.t_lo, inputs.SEAM), q.t_hi),
                 ("5m", q.t_lo, min(q.t_hi, inputs.SEAM))]
    else:
        parts = [(inputs.expected_downsample_tier(q), q.t_lo, q.t_hi)]
    n = 0
    for tier, lo, hi in parts:
        if lo >= hi:
            continue
        for ep in range(lo // inputs.EPOCH_SEC,
                        -(-hi // inputs.EPOCH_SEC)):
            d = f"{store}/kind={q.kind}/tier={tier}/epoch={ep}"
            if os.path.isdir(d):
                n += sum(f.endswith(".parquet") for f in os.listdir(d))
    return n


def run_tiered_serve(ctx: Ctx):
    checks, layers = [], {}
    with ctx.timed_setup("imports"):
        import ray  # noqa: F401
        from matrixprofile_1_ray.kernels import _native
        from matrixprofile_1_ray.stages.retention import (RetentionPolicy,
                                                          apply_retention,
                                                          write_tiered_store)
    ctx.info["native_kernel"] = _native.AVAILABLE
    sf = ctx.sf_dir
    ctx.info["inputs_sha256"] = {
        "documents.parquet": harness.file_sha256(f"{sf}/documents.parquet")}

    with ctx.timed_setup("ray_init"):
        ctx.session.start()
    store = os.path.join(ctx.scratch, "store")
    policy = RetentionPolicy(dict(inputs.MAX_AGE))
    t0 = time.perf_counter()
    write_tiered_store(sf, store, epoch_sec=inputs.EPOCH_SEC,
                       tiers=dict(inputs.LADDER))
    expired = apply_retention(store, inputs.NOW, policy)
    ctx.info["store_build_s"] = time.perf_counter() - t0
    _check(checks, "tiered_serve.retention_expired_1m",
           expired["deleted"] and all(d["tier"] == "1m"
                                      for d in expired["deleted"]),
           f"{len(expired['deleted'])} epochs deleted")
    store_bytes, store_files = harness.tree_bytes(store, ".parquet")

    ids, cps = oracles.read_documents(f"{sf}/documents.parquet")
    points = int(sum(c.size for c in cps))
    oracle = ServeOracle(ids, cps)
    rng = np.random.default_rng([ctx.seed, 0x5E7])
    with ctx.timed_setup("warm"):
        for q in (inputs.Query("tiered", "token", 0, 360),
                  inputs.Query("downsample", "mp", 300, 420, 3)):
            _serve_query(store, policy, q, Tracer(ctx.tracer.run_id, False))

    lat, plan, exe, files, nrows, covered, udf = [], [], [], [], [], [], []
    bad = []
    attempted = 0
    untraced_rounds, traced_rounds = [], []
    t_end = time.perf_counter() + ctx.seconds
    rounds = 0
    qhash = hashlib.sha256()
    # the traced run reports medians only, and runs each round twice
    min_rounds = 1 if ctx.tracer.enabled else MIN_SERVE_ROUNDS
    while rounds < min_rounds or time.perf_counter() < t_end:
        rounds += 1
        queries = inputs.query_round(rng)
        if rounds <= MIN_SERVE_ROUNDS:
            qhash.update(repr(queries).encode())
        passes = ([Tracer(ctx.tracer.run_id, False), ctx.tracer]
                  if ctx.tracer.enabled else [ctx.tracer])
        for tr in passes:
            t_round = 0.0
            for q in queries:
                attempted += tr is passes[-1]
                tab, p, e, ds = _serve_query(store, policy, q, tr)
                t_round += p + e
                if tr is not passes[-1]:
                    continue
                lat.append(p + e)
                plan.append(p)
                exe.append(e)
                nrows.append(len(tab))
                if len(tab):
                    col = "t_count" if q.kind == "token" else "mp_count"
                    covered.append(pc.sum(tab[col]).as_py())
                if ctx.tracer.enabled:
                    files.append(_files_for(store, q))
                    udf.append(_udf_seconds(ds))
                ok, why = oracle.check(q, tab)
                if not ok:
                    bad.append(f"{q}: {why}")
            (traced_rounds if tr.enabled else untraced_rounds).append(t_round)
    peak = ctx.session.peak_rss_mb()
    _check(checks, "tiered_serve.queries", not bad, "; ".join(bad[:3]))
    ctx.info["inputs_sha256"][
        f"queries, first {MIN_SERVE_ROUNDS} rounds"] = qhash.hexdigest()
    ctx.info.update(points=points, queries=len(lat), rounds=rounds,
                    store_bytes=store_bytes, store_files=store_files)
    if ctx.tracer.enabled:
        layers.update({
            "stages.retention.plan_ms_p50": 1e3 * median(plan),
            "stages.retention.exec_ms_p50": 1e3 * median(exe),
            "stages.retention.files_per_query": median(files),
            "stages.retention.rows_per_query": median(nrows),
            "ray_data.udf_s": median(udf),
            "trace.overhead_s": median(traced_rounds) - median(untraced_rounds),
        })
    e2e = {"points_per_s": sum(covered) / sum(lat),
           "store_bytes_per_point": store_bytes / points,
           "serve_p50_ms": 1e3 * median(lat),
           "serve_p90_ms": 1e3 * quantile(lat, 0.9),
           "peak_rss_mb": peak}
    return checks, attempted, 0, e2e, layers


WORKLOADS = {"docs_ingest": run_docs_ingest,
             "skewed_profiles": run_skewed_profiles,
             "tiered_serve": run_tiered_serve}
