"""Job entry point — submit with ``ray job submit -- python -m
matrixprofile_1_ray.cli rollup --input ... --output ...`` (or run
directly; it owns its Ray session when standalone).

The rollup job partitions its output by input file with lineage manifests
(state/manifest.py), so a resubmitted job resumes: completed partitions are
skipped, changed inputs re-run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus):
    import ray

    if not ray.is_initialized():
        address = os.environ.get("RAY_ADDRESS", "local")
        if address == "local":
            # num_cpus sizes a standalone session only: Ray rejects it
            # when attaching to an existing cluster (`ray job submit`
            # sets RAY_ADDRESS), where the cluster's resources apply
            ray.init(address=address, num_cpus=num_cpus,
                     include_dashboard=False, ignore_reinit_error=True,
                     logging_level="ERROR")
        else:
            ray.init(address=address, ignore_reinit_error=True,
                     logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_rollup(args):
    import ray.data

    from .pipelines.flagship import flagship_batch
    from .stages.gapfill import gapfill_batch
    from .state.manifest import file_fingerprint, run_partitioned

    _init_ray(args.num_cpus)

    files = sorted(f for f in os.listdir(args.input) if f.endswith(".parquet"))
    if not files:
        raise SystemExit(f"no .parquet files under {args.input}")
    # fail fast with a readable error instead of a KeyError deep inside a
    # Ray task: the job's input contract is PRE-TOKENIZED sequences
    # (doc_id, tokens, n_tok, source) — e.g. `synth` output — not a raw
    # documents table
    import pyarrow.parquet as _pq

    got = set(_pq.read_schema(os.path.join(args.input, files[0])).names)
    missing = {"doc_id", "tokens", "n_tok", "source"} - got
    if missing:
        raise SystemExit(
            f"{args.input}/{files[0]} is missing column(s) {sorted(missing)}: "
            f"the rollup job expects pre-tokenized sequence files "
            f"(doc_id, tokens:list<int32>, n_tok, source) — generate them "
            f"with the `synth` subcommand or tokenize documents first")
    # group files into coarse partitions: resume granularity trades against
    # per-partition fixed cost (each partition is one Dataset execution) —
    # and each partition must span enough blocks to feed every core
    # ceil division: floor would overshoot --partitions by up to ~2x
    # (15 files / 8 -> 15 one-file partitions), paying the per-partition
    # fixed streaming-startup cost that many extra times
    per_part = args.files_per_partition or max(
        1, -(-len(files) // args.partitions))
    groups = [files[i : i + per_part] for i in range(0, len(files), per_part)]
    partitions = {
        f"part-{gi:05d}": "|".join(
            file_fingerprint(os.path.join(args.input, f)) for f in grp)
        for gi, grp in enumerate(groups)
    }

    def make(key):
        import pyarrow.compute as pc

        from .pipelines.flagship import (
            flagship_tail_rows,
            iter_long_corpus_rows,
        )

        grp = groups[int(key.split("-")[1])]
        paths = [os.path.join(args.input, f) for f in grp]
        ds = ray.data.read_parquet(paths)
        if len(grp) < args.num_cpus:
            # single files read as single blocks — split so the kernel
            # stages can use every core inside this partition
            ds = ds.repartition(args.num_cpus * 2)
        ds = ds.map_batches(lambda b: gapfill_batch(b, mode=args.gapfill),
                            batch_format="pyarrow")
        thr = args.long_threshold

        def fused(b):
            # null n_tok stays short-routed (the tail predicate never
            # matches null) — no row may vanish from both routes
            keep = pc.fill_null(pc.less_equal(b["n_tok"], thr), True)
            return flagship_batch(b.filter(keep), w=args.window)

        out = ds.map_batches(fused, batch_format="pyarrow", batch_size=32)

        # skew tail: rows a block split can't help (the row is atomic and
        # its self-join O(n^2)) each get the whole-cluster fan-out instead
        # of straggling one map task.  Parquet predicate pushdown finds
        # them without rereading the partition (~0 extra bytes when no row
        # group holds a long row); one row at a time on the driver — each
        # saturates the cluster by itself, and each finished row's rollups
        # move to the object store immediately (the driver keeps refs only).
        tail_refs = []
        for row in iter_long_corpus_rows(
                paths, thr,
                preprocess=lambda t: gapfill_batch(t, mode=args.gapfill)):
            tail_refs.append(ray.put(flagship_tail_rows(row, args.window)))
        if tail_refs:
            out = out.union(ray.data.from_arrow_refs(tail_refs))
        return out

    status = run_partitioned(args.output, partitions, make,
                             progress=lambda k: print(f"done {k}", file=sys.stderr),
                             concurrent_jobs=args.jobs)
    print(json.dumps({"partitions": status,
                      "done": sum(v == "done" for v in status.values()),
                      "skipped": sum(v == "skipped" for v in status.values())}))


def cmd_synth(args):
    from .io.fsutil import guarded_clean_dir
    from .sources.sequences import write_synthetic_sequences

    _init_ray(args.num_cpus)
    # write_parquet APPENDS uniquely-named files: without this guard a
    # re-run (retry after a flaky exit) silently doubles the corpus
    guarded_clean_dir(
        args.output,
        lambda names: all(n.endswith(".parquet") or n.startswith("_")
                          for n in names),
        "a synthetic sequences corpus (parquet files)")
    write_synthetic_sequences(args.output, args.rows, seed=args.seed,
                              rows_per_block=args.rows_per_block)
    print(json.dumps({"rows": args.rows, "path": args.output}))


def cmd_dedup(args):
    """End-to-end near-dup job: MinHash-LSH candidates -> exact Jaccard
    verification (bucketed shingle join — the corpus NEVER materializes on
    the driver) -> duplicate groups -> partitioned parquet of
    (doc_id, component)."""
    from .sources.sequences import sequences_from_documents
    from .stages.dedup import (
        dedup_groups,
        minhash_candidates,
        verify_jaccard_bucketed,
    )

    _init_ray(args.num_cpus)
    # streaming source: the corpus flows as Dataset blocks end-to-end (two
    # lazy passes over it: one for LSH candidates, one for the candidate
    # docs' shingles inside the verify)
    ds = sequences_from_documents(args.input)
    try:
        few_files = len(ds.input_files()) < args.num_cpus
    except Exception:
        few_files = True
    if few_files:
        # split only under-parallelized (single/few-file) inputs; a
        # many-file corpus must not pay this all-to-all
        ds = ds.repartition(args.num_cpus * 2)
    # materialize only the SMALL pair tables: Datasets are lazy and
    # uncached, so a count() on a lazy stage would re-run its whole
    # upstream chain — the pair tables are orders of magnitude smaller
    # than the corpus
    cand = minhash_candidates(ds).materialize()
    verified = verify_jaccard_bucketed(
        cand, ds, threshold=args.threshold).materialize()
    groups = dedup_groups(verified).materialize()
    # write_parquet APPENDS uniquely-named files: a re-run into the same
    # output dir would double every (doc_id, component) row for downstream
    # readers — rebuild from clean iff the target is a prior parquet-only
    # output of ours, refuse anything else
    from .io.fsutil import guarded_clean_dir

    guarded_clean_dir(
        args.output,
        lambda names: all(n.endswith(".parquet") for n in names),
        "a dedup groups output (only *.parquet files expected)")
    groups.write_parquet(args.output)
    out = groups.to_pandas()
    print(json.dumps({
        "candidates": cand.count(),
        "verified_pairs": verified.count(),
        "grouped_docs": len(out),
        # empty Dataset -> column-less to_pandas (Ray 2.49); dup-free
        # corpora must not crash the summary
        "components": int(out["component"].nunique()) if len(out) else 0,
        "path": args.output,
    }))


def cmd_ann(args):
    """Build (once) and query the persisted IVF index."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data

    from .stages.ann import build_ivf_index, ivf_search

    _init_ray(args.num_cpus)
    emb_path = f"{args.input}/embeddings.parquet"
    from .io.readers import read_parquet_clean
    from .sources.sequences import parquet_head
    from .stages.ann import ivf_index_ident, ivf_topk

    # stream only the first --queries rows off the reader — pq.read_table
    # would materialize the whole embeddings file on the driver
    head = parquet_head(emb_path, args.queries, ["vec_id", "embedding"])
    qm = np.stack([np.asarray(v, dtype="d")
                   for v in head["embedding"].to_pylist()])
    # the identity covers corpus path+size+mtime AND the build params, so
    # a regenerated embeddings file or a different --centroids rebuilds
    # instead of silently answering from the stale index
    ident, _tag = ivf_index_ident(emb_path, n_centroids=args.centroids)
    ds = read_parquet_clean(emb_path, columns=["vec_id", "embedding"])
    if args.build:
        build_ivf_index(ds, args.index_dir, n_centroids=args.centroids,
                        input_fingerprint=ident)
        out = ivf_search(args.index_dir, qm, k=args.k,
                         nprobe=args.nprobe).to_pandas()
    else:
        out = ivf_topk(ds, qm, k=args.k, nprobe=args.nprobe,
                       n_centroids=args.centroids, index_dir=args.index_dir,
                       input_fingerprint=ident).to_pandas()
    print(json.dumps({"index_dir": args.index_dir,
                      "queries": args.queries, "k": args.k,
                      "rows": len(out)}))


def cmd_retention(args):
    """Tiered-store maintenance: build the kind/tier/epoch store from a
    documents directory, apply the expiry policy, or serve a stitched
    range — the retention half of the north rule's rollup + downsample +
    retention engine (stages/retention.py)."""
    from .stages.retention import (
        RetentionPolicy,
        apply_retention,
        tiered_read,
        write_tiered_store,
    )

    _init_ray(args.num_cpus)
    keep = {}
    for spec in args.keep or []:
        # user-input mistakes get a readable message, not an unpack /
        # float() traceback
        tier, sep, age = spec.partition("=")
        if not sep or not tier:
            raise SystemExit(
                f"--keep {spec!r}: expected TIER=SECONDS (e.g. 1m=604800) "
                f"or TIER=none for keep-forever")
        if age in ("none", "inf"):
            keep[tier] = None
        else:
            try:
                keep[tier] = float(age)
            except ValueError:
                raise SystemExit(
                    f"--keep {spec!r}: {age!r} is not a number of seconds "
                    f"(or 'none' for keep-forever)") from None
    policy = RetentionPolicy(keep) if keep else RetentionPolicy()

    report = {"store": args.store}
    if args.build_from:
        meta = write_tiered_store(args.build_from, args.store, w=args.window,
                                  epoch_sec=args.epoch_sec)
        report["built"] = meta
    if args.expire:
        report["expired"] = apply_retention(args.store, args.now, policy)
    if args.serve is not None:
        try:
            lo_s, hi_s = args.serve.split(":", 1)
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise SystemExit(
                f"--serve {args.serve!r}: expected LO:HI seconds "
                f"(e.g. 0:86400)") from None
        ds = tiered_read(args.store, args.kind, args.now, policy,
                         t_lo=lo, t_hi=hi)
        if args.output:
            from .io.fsutil import guarded_clean_dir

            # write_parquet appends: a re-serve to the same path would
            # silently double every served row without this guard
            guarded_clean_dir(
                args.output,
                lambda names: all(n.endswith(".parquet")
                                  or n.startswith("_") for n in names),
                "a served tier range (parquet files)")
            ds.write_parquet(args.output)
            report["served_to"] = args.output
        report["served_rows"] = ds.count()
    print(json.dumps(report))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="matrixprofile_1_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rollup", help="tiered rollup job with resume")
    p.add_argument("--input", required=True, help="directory of sequence parquet files")
    p.add_argument("--output", required=True)
    p.add_argument("--window", type=int, default=32)
    p.add_argument("--gapfill", default="forward_fill")
    p.add_argument("--partitions", type=int, default=8,
                   help="target number of resume partitions")
    p.add_argument("--files-per-partition", type=int, default=None)
    p.add_argument("--jobs", type=int, default=2,
                   help="overlapped partition executions (hides per-"
                        "partition fixed startup; keep small)")
    p.add_argument("--long-threshold", type=int, default=1 << 17,
                   help="rows with n_tok above this take the whole-"
                        "cluster diagonal fan-out instead of straggling "
                        "one map task (self-join cost is O(n_tok^2))")
    p.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    p.set_defaults(fn=cmd_rollup)

    p = sub.add_parser("synth", help="generate the synthetic sequences corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rows-per-block", type=int, default=250)
    p.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("dedup", help="near-dup job: LSH -> verify -> groups")
    p.add_argument("--input", required=True,
                   help="sf directory containing documents.parquet")
    p.add_argument("--output", required=True)
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    p.set_defaults(fn=cmd_dedup)

    p = sub.add_parser("ann", help="build/query the persisted IVF index")
    p.add_argument("--input", required=True,
                   help="sf directory containing embeddings.parquet")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--build", action="store_true")
    p.add_argument("--centroids", type=int, default=16)
    p.add_argument("--nprobe", type=int, default=4)
    p.add_argument("--queries", type=int, default=8)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    p.set_defaults(fn=cmd_ann)

    p = sub.add_parser("retention",
                       help="tiered store: build / expire / serve")
    p.add_argument("--store", required=True, help="kind/tier/epoch store dir")
    p.add_argument("--build-from", default=None,
                   help="documents dir: (re)build the store first")
    p.add_argument("--window", type=int, default=32)
    p.add_argument("--epoch-sec", type=int, default=86400)
    p.add_argument("--expire", action="store_true",
                   help="apply the retention policy (directory-level)")
    p.add_argument("--now", type=float, default=None,
                   help="watermark in seconds (token index = time)")
    p.add_argument("--keep", action="append", default=None,
                   metavar="TIER=SECONDS",
                   help="per-tier max age, e.g. --keep 1m=604800 "
                        "--keep 1d=none (repeatable; default ladder "
                        "keeps 1m 7d, 1h 90d, 1d forever)")
    p.add_argument("--serve", default=None, metavar="LO:HI",
                   help="stitched tiered read of [LO, HI)")
    p.add_argument("--kind", default="token", choices=["token", "mp"])
    p.add_argument("--output", default=None,
                   help="write the served range as parquet")
    p.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "8")))
    p.set_defaults(fn=cmd_retention)

    args = parser.parse_args(argv)
    if args.cmd == "retention" and (args.expire or args.serve) \
            and args.now is None:
        parser.error("--expire/--serve need --now (the ingest watermark)")
    args.fn(args)


if __name__ == "__main__":
    main()
