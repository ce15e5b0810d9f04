"""The broadcast-state stages run as plain Ray tasks.

Each stage is a module-level batch function that gets its broadcast
state as an object ref through ``fn_kwargs``.  Two checks:

- every such stage completes on a 1-CPU cluster (no actor can hold the
  only CPU while a later operator waits for it), in a child process with
  a hard deadline because the test session's cluster has 4 CPUs;
- each batch function, called directly on Arrow tables, returns a typed
  result on a 0-row batch, on ``large_list`` inputs and on rows shorter
  than the window.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from proctree import kill_tree

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ONE_CPU_SCRIPT = r"""
import json, tempfile

import numpy as np
import pyarrow as pa
import ray
import ray.data

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False

from matrixprofile_1_ray.sources import synthetic_sequences_table
from matrixprofile_1_ray.stages.ann import brute_force_topk, ivf_topk
from matrixprofile_1_ray.stages.dedup import verify_jaccard_bucketed
from matrixprofile_1_ray.stages.multimodal import (
    make_fake_media_table, media_features_stage, resize_stage)
from matrixprofile_1_ray.stages.pairs import (
    ab_join_stage, mass_search_stage, mpdist_pairs)

rng = np.random.default_rng(0)
emb = rng.standard_normal((2000, 16))
emb_ds = ray.data.from_arrow(pa.table({
    "vec_id": pa.array(np.arange(2000), pa.int64()),
    "embedding": pa.array(list(emb), pa.list_(pa.float64()))}))
queries = emb[:8]
seqs = synthetic_sequences_table(6, seed=5, min_len=64, max_len=96)
seq_ds = ray.data.from_arrow(seqs)
query = np.sin(np.arange(24) / 3.0)
ids = seqs["doc_id"].to_pylist()
cand = ray.data.from_arrow(pa.table({"doc_a": pa.array(ids[:-1]),
                                     "doc_b": pa.array(ids[1:])}))
media = ray.data.from_arrow(make_fake_media_table(8, seed=3))
counts = {
    "brute_force_topk": brute_force_topk(emb_ds, queries, k=5).count(),
    "ivf_topk": ivf_topk(emb_ds, queries, k=5, n_centroids=4, nprobe=4,
                         index_dir=tempfile.mkdtemp()).count(),
    "mpdist_pairs": mpdist_pairs(seqs, w=16).count(),
    "ab_join_stage": ab_join_stage(seq_ds, query, w=16).count(),
    "mass_search_stage": mass_search_stage(seq_ds, query, k=1).count(),
    "verify_jaccard_bucketed": verify_jaccard_bucketed(
        cand, seq_ds, threshold=0.0).count(),
    "media_features_stage": media_features_stage(media).count(),
    "resize_stage": resize_stage(media, max_w=32, max_h=32).count(),
}
ray.shutdown()
print(json.dumps(counts))
"""


def test_broadcast_stages_finish_on_one_cpu():
    """Every broadcast-state stage returns its rows on a 1-CPU cluster
    within 120 s; on expiry the child and its Ray daemons are killed."""
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.Popen([sys.executable, "-c", _ONE_CPU_SCRIPT],
                            cwd=REPO, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        kill_tree(proc)
        pytest.fail("a stage did not finish within 120 s on a 1-CPU "
                    "cluster")
    assert proc.returncode == 0, err[-3000:]
    counts = json.loads(out.strip().splitlines()[-1])
    assert counts == {
        "brute_force_topk": 40, "ivf_topk": 40, "mpdist_pairs": 15,
        "ab_join_stage": 6, "mass_search_stage": 6,
        "verify_jaccard_bucketed": 5, "media_features_stage": 8,
        "resize_stage": 8,
    }


def _seq_table(rows, list_type):
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
        "tokens": pa.array(rows, list_type(pa.int32()))})


def _emb_table(mat, list_type, centroid):
    return pa.table({
        "vec_id": pa.array(np.arange(len(mat)), pa.int64()),
        "embedding": pa.array(list(mat), list_type(pa.float64())),
        "centroid": pa.array(centroid, pa.int64())})


def _edge_cases(ray):
    """(name, function, {variant: batch}, kwargs) per batch function.
    Variants: ``empty`` (0 rows), ``list`` and ``large`` (the same rows
    as ``list_`` and ``large_list`` columns); the pairs and dedup rows
    include one shorter than the window."""
    from matrixprofile_1_ray.stages import ann, dedup, multimodal, pairs

    rng = np.random.default_rng(3)
    mat = rng.standard_normal((12, 4))
    queries = ann._normalize(rng.standard_normal((3, 4)))
    centroids = ann._normalize(mat[:2])
    assign = np.argmax(ann._normalize(mat) @ centroids.T, axis=1)
    groups = [(np.array([0]), np.array([0, 2])), (np.array([1]),
                                                  np.array([1]))]
    rows = [list(rng.integers(0, 9, 40)), [3, 1, 4], list(range(30))]
    seqs = {name: _seq_table(rows, lt)
            for name, lt in (("list", pa.list_), ("large", pa.large_list))}
    seqs["empty"] = seqs["list"].slice(0, 0)
    embs = {name: _emb_table(mat, lt, assign)
            for name, lt in (("list", pa.list_), ("large", pa.large_list))}
    embs["empty"] = embs["list"].slice(0, 0)
    pair_batch = pa.table({"doc_a": ["d0", "d0", "d1"],
                           "doc_b": ["d1", "d2", "d2"]})
    pair_batches = {"list": pair_batch, "large": pair_batch,
                    "empty": pair_batch.slice(0, 0)}
    media = multimodal.make_fake_media_table(3, seed=1)
    medias = {"list": media, "empty": media.slice(0, 0)}
    return [
        ("topk_candidates_batch", ann.topk_candidates_batch, embs,
         {"queries_ref": ray.put(queries), "k": 2}),
        ("assign_centroid_batch", ann.assign_centroid_batch, embs,
         {"centroids_ref": ray.put(centroids)}),
        ("probe_scan_batch", ann.probe_scan_batch, embs,
         {"probe_ref": ray.put((queries, groups)), "k": 2}),
        ("pair_dist_batch", pairs.pair_dist_batch, pair_batches,
         {"w": 8}),
        ("ab_join_batch", pairs.ab_join_batch, seqs,
         {"query_ref": ray.put(np.sin(np.arange(16.0))), "w": 8}),
        ("mass_search_batch", pairs.mass_search_batch, seqs,
         {"query_ref": ray.put(np.sin(np.arange(8.0))), "k": 2}),
        ("shingle_side_batch", dedup.shingle_side_batch, seqs,
         {"keep_ref": ray.put(pa.array(["d0", "d1"])), "k": 5,
          "num_partitions": 4}),
        ("media_features_batch", multimodal.media_features_batch, medias,
         {"feature_dim": 4}),
        ("resize_batch", multimodal.resize_batch, medias,
         {"max_w": 8, "max_h": 8}),
    ], seqs


def test_batch_functions_edge_inputs(ray_session):
    """Called directly on Arrow tables: a 0-row batch gives 0 rows with the
    schema of a non-empty output, and ``large_list`` inputs give the same
    rows as ``list`` ones.  Rows shorter than the window are dropped by
    the AB join and MASS search, give ``inf`` pair distances, and hash as
    one short shingle set."""
    from matrixprofile_1_ray.stages.pairs import _series_refs

    cases, seqs = _edge_cases(ray_session)
    results = {}
    for name, fn, batches, kwargs in cases:
        outs = {}
        for variant, batch in batches.items():
            kw = dict(kwargs)
            if name == "pair_dist_batch":    # the series live in the refs
                kw["refs_ref"] = ray_session.put(_series_refs(
                    seqs["large" if variant == "large" else "list"]))
            outs[variant] = fn(batch, **kw)
        assert outs["empty"].num_rows == 0, name
        assert outs["empty"].schema.types == outs["list"].schema.types, name
        assert outs["list"].num_rows > 0, name
        if "large" in outs:
            assert outs["large"].to_pylist() == outs["list"].to_pylist(), name
        results[name] = outs["list"]

    dists = results["pair_dist_batch"]["mpdist"].to_pylist()
    assert dists[0] == dists[2] == np.inf and np.isfinite(dists[1])
    for name in ("ab_join_batch", "mass_search_batch"):
        assert "d1" not in results[name]["doc_id"].to_pylist(), name
    side = results["shingle_side_batch"]
    assert side["doc_id"].to_pylist() == ["d0", "d1"]
    assert len(side["shingles"][1].as_py()) > 0
