"""Round-4 kernel/state review fixes, each pinned by a regression test."""

import sys

import numpy as np
import pytest


def _serial_reference_walk(ts, w):
    """Literal transcription of the reference's ascending-offset diagonal
    walk (cympx.pyx:83-101): per offset, row update THEN column update,
    both strict > — the tie-break oracle for the vectorized paths."""
    from matrixprofile_1_ray.kernels.moving_stats import muinvn
    from matrixprofile_1_ray.kernels.mpx import _diff_eqs

    ts = np.asarray(ts, dtype="d")
    n = ts.shape[0]
    pl = n - w + 1
    mu, sig = muinvn(ts, w)
    df, dg = _diff_eqs(ts, mu, w)
    minlag = int(np.ceil(w / 4.0))
    mp = np.full(pl, -1.0)
    mpi = np.full(pl, -1, dtype=np.int64)
    for diag in range(minlag + 1, pl):
        c = np.sum((ts[diag : diag + w] - mu[diag]) * (ts[:w] - mu[0]))
        for offset in range(n - w - diag + 1):
            col = offset + diag
            if offset:
                c = c + df[offset] * dg[col] + df[col] * dg[offset]
            c_cmp = c * sig[offset] * sig[col]
            if c_cmp > mp[offset]:
                mp[offset] = c_cmp
                mpi[offset] = col
            if c_cmp > mp[col]:
                if c_cmp > 1.0:
                    c_cmp = 1.0
                mp[col] = c_cmp
                mpi[col] = offset
    return mp, mpi


def test_numpy_diag_walk_matches_reference_tie_order():
    """On an exactly periodic series every window has multiple perfect
    (corr == 1) neighbors; the reference's offset order makes the SMALLER
    index win those ties.  The vectorized walk must agree (it updated the
    row side first, handing ties to the larger neighbor)."""
    from matrixprofile_1_ray.kernels.moving_stats import muinvn
    from matrixprofile_1_ray.kernels.mpx import (
        _diff_eqs,
        _seed_products,
        mpx_diag_range,
    )

    w = 8
    pattern = np.array([0.0, 2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 7.0])
    ts = np.tile(pattern, 12)  # n=96, many exact-tie neighbors
    pl = ts.shape[0] - w + 1
    mu, sig = muinvn(ts, w)
    df, dg = _diff_eqs(ts, mu, w)
    seed = _seed_products(ts, ts[:w]) - w * mu * mu[0]
    minlag = int(np.ceil(w / 4.0))

    mp = np.full(pl, -1.0)
    mpi = np.full(pl, -1, dtype=np.int64)
    mpx_diag_range(minlag + 1, pl, seed, df, dg, sig, mp, mpi)

    ref_mp, ref_mpi = _serial_reference_walk(ts, w)
    np.testing.assert_allclose(np.minimum(mp, 1.0),
                               np.minimum(ref_mp, 1.0), atol=1e-12)
    np.testing.assert_array_equal(mpi, ref_mpi)


def test_tiled_diagonal_skip_is_exact():
    """Skipping the mirror pass on diagonal tiles (delta 0) must not
    change anything: the merged one-pass partials equal the merged
    two-pass partials exactly, and the end-to-end tiled join still matches
    the untiled kernel (exactly on generic data; tie-heavy periodic data is
    checked on values, since tie WINNERS legitimately differ between
    decompositions)."""
    from matrixprofile_1_ray.kernels.moving_stats import muinvn
    from matrixprofile_1_ray.kernels.mpx import (
        _ab_one_side,
        _ab_seed,
        _diff_eqs,
        merge_tile_partial,
        mpx_self,
        tile_pair_partials,
        tiled_mpx_self,
    )

    rng = np.random.default_rng(11)

    # direct invariant: one diagonal tile, one pass vs one pass plus the
    # skipped mirror pass, merged equal
    strip = np.tile(rng.uniform(size=25), 8)  # tie-heavy on purpose
    w = 16
    pl = strip.shape[0] - w + 1
    minlag = int(np.ceil(w / 4.0))
    one = tile_pair_partials(strip, strip, w, delta=0, minlag=minlag)
    mp_a, mpi_a, mp_b, mpi_b = (x.copy() for x in one)
    mu, sig = muinvn(strip, w)
    df, dg = _diff_eqs(strip, mu, w)
    _ab_one_side(_ab_seed(strip, strip, mu, mu, w), df, dg, df, dg, sig,
                 sig, mp_b, mpi_b, mp_a, mpi_a, delta=0, minlag=minlag)
    merged = []
    for parts in (one, (mp_a, mpi_a, mp_b, mpi_b)):
        mp = np.full(pl, -1.0)
        mpi = np.full(pl, -1, dtype=np.int64)
        merge_tile_partial(mp, mpi, 0, pl, parts[0], parts[1], 0)
        merge_tile_partial(mp, mpi, 0, pl, parts[2], parts[3], 0)
        merged.append((mp, mpi))
    np.testing.assert_array_equal(merged[0][0], merged[1][0])
    np.testing.assert_array_equal(merged[0][1], merged[1][1])

    # end-to-end: exact on generic data
    series = rng.uniform(size=500)
    mp_ref, mpi_ref = mpx_self(series, w)
    mp_t, mpi_t = tiled_mpx_self(series, w, tile=120)
    np.testing.assert_allclose(mp_t, mp_ref, atol=1e-9)
    np.testing.assert_array_equal(mpi_t, mpi_ref)

    # tie-heavy: values agree to snap tolerance, indices stay valid
    per = np.tile(rng.uniform(size=25), 20)
    mp_ref, _ = mpx_self(per, w)
    mp_t, mpi_t = tiled_mpx_self(per, w, tile=120)
    np.testing.assert_allclose(mp_t, mp_ref, atol=1e-6)
    assert (mpi_t >= 0).all() and (mpi_t < mp_t.shape[0]).all()


def test_fcluster_monocrit_uses_provided_vector():
    from matrixprofile_1_ray.kernels.linkage import fcluster, linkage

    # 4 points on a line -> 3 links
    y = np.array([1.0, 3.0, 7.0, 2.0, 6.0, 4.0])  # condensed 4x4
    Z = linkage(y, method="single")
    with pytest.raises(ValueError, match="monocrit"):
        fcluster(Z, 0.5, criterion="monocrit")
    mono = np.array([0.0, 0.0, 99.0])  # forbid only the last merge
    T = fcluster(Z, 0.5, criterion="monocrit", monocrit=mono)
    assert len(set(T)) == 2
    mono_all = np.zeros(Z.shape[0])
    T1 = fcluster(Z, 0.5, criterion="monocrit", monocrit=mono_all)
    assert len(set(T1)) == 1


def test_native_dispatch_crossover_agrees_with_numpy_walk(monkeypatch):
    """Long rows (pl 729-1469): the native self-join must agree with the
    NumPy fallback walk to accumulation-order tolerance (~1e-13) with
    identical neighbor indices on generic data."""
    import importlib

    M = importlib.import_module("matrixprofile_1_ray.kernels.mpx")
    from matrixprofile_1_ray.kernels import _native

    if not _native.AVAILABLE:
        pytest.skip("native kernel unavailable")
    rng = np.random.default_rng(17)
    for n in (760, 1000, 1500):
        ts = rng.uniform(size=n)
        w = 32
        mp_nat, mpi_nat = M.mpx_self(ts, w)        # native
        with monkeypatch.context() as m:           # force NumPy walk
            m.setattr(sys.modules["matrixprofile_1_ray.kernels._native"],
                      "AVAILABLE", False)
            mp_np, mpi_np = M.mpx_self(ts, w)
        np.testing.assert_allclose(mp_nat, mp_np, atol=1e-9)
        np.testing.assert_array_equal(mpi_nat, mpi_np)


def test_band_keys_rejects_nondivisible_bands():
    from matrixprofile_1_ray.functions.dedup import band_keys

    sig = np.arange(8, dtype=np.uint64).reshape(2, 4)
    assert band_keys(sig, bands=2).shape == (2, 2)
    with pytest.raises(ValueError, match="divide"):
        band_keys(sig, bands=3)   # tail perm silently dropped before
    with pytest.raises(ValueError, match="divide"):
        band_keys(sig, bands=8)   # zero-width bands -> constant keys


def test_embedding_near_dup_survives_empty_blocks(ray_session):
    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.stages.dedup import embedding_near_dup

    empty = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float64())),
    })
    some = pa.table({
        "vec_id": pa.array([0, 1], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [1.0, 0.0]],
                              pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow([empty, some])
    out = embedding_near_dup(ds, dim=2, threshold=0.9).to_pandas()
    assert len(out) == 1  # the planted exact-dup pair, no reshape crash


def test_jaccard_verify_drops_orphan_pairs(ray_session):
    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.stages.dedup import verify_jaccard_bucketed

    seqs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["a", "b"], pa.string()),
        "tokens": pa.array([[1, 2, 3, 4, 5, 6]] * 2, pa.list_(pa.int64())),
    }))
    pairs = ray.data.from_arrow(pa.table({
        "doc_a": pa.array(["a", "a"], pa.string()),
        "doc_b": pa.array(["b", "ghost"], pa.string()),  # ghost: no doc
    }))
    out = verify_jaccard_bucketed(pairs, seqs, threshold=0.5).to_pandas()
    # the real pair verifies; the orphan pair is dropped, not a crash
    assert out[["doc_a", "doc_b"]].values.tolist() == [["a", "b"]]


def test_profiles_batch_rejects_cross_correlation_mislabel():
    import pyarrow as pa

    from matrixprofile_1_ray.stages.profile import compute_profiles_batch

    batch = pa.table({
        "doc_id": pa.array(["d"], pa.string()),
        "source": pa.array(["s"], pa.string()),
        "n_tok": pa.array([64], pa.int32()),
        "tokens": pa.array([list(range(64))], pa.list_(pa.int64())),
    })
    with pytest.raises(ValueError, match="cross_correlation"):
        compute_profiles_batch(batch, w=8, algorithm="stomp",
                               cross_correlation=True)
    out = compute_profiles_batch(batch, w=8, algorithm="mpx",
                                 cross_correlation=True)
    assert out["metric"][0].as_py() == "cross_correlation"


def test_compute_rejects_empty_windows(ray_session):
    import ray.data

    from matrixprofile_1_ray.pipelines.analyze import compute as compute_ds

    import pyarrow as pa

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["d"], pa.string()),
        "source": pa.array(["s"], pa.string()),
        "n_tok": pa.array([64], pa.int32()),
        "tokens": pa.array([list(range(64))], pa.list_(pa.int64())),
    }))
    with pytest.raises(ValueError, match="non-empty"):
        compute_ds(ds, windows=[])


def test_ivf_build_refuses_empty_corpus_without_destroying_index(
        ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.stages.ann import build_ivf_index

    index_dir = str(tmp_path / "idx")
    full = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(list(range(8)), pa.int64()),
        "embedding": pa.array([[float(i), 1.0] for i in range(8)],
                              pa.list_(pa.float64())),
    }))
    build_ivf_index(full, index_dir, n_centroids=2)
    import os

    assert os.path.exists(os.path.join(index_dir, "_centroids.parquet"))

    empty = ray.data.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float64())),
    }))
    with pytest.raises(ValueError, match="empty"):
        build_ivf_index(empty, index_dir, n_centroids=2)
    # the failed rebuild must NOT have deleted the existing index
    assert os.path.exists(os.path.join(index_dir, "_centroids.parquet"))


def test_run_partitioned_cleans_orphan_tmp_dirs(ray_session, tmp_path):
    import os

    import pyarrow as pa
    import ray.data

    from matrixprofile_1_ray.state.manifest import run_partitioned

    out = str(tmp_path / "out")
    os.makedirs(os.path.join(out, "p0.tmp-999-888"))  # crashed-run orphan
    open(os.path.join(out, "p0.tmp-999-888", "junk.parquet"), "w").close()

    def make(key):
        return ray.data.from_arrow(pa.table({"x": pa.array([1, 2])}))

    status = run_partitioned(out, {"p0": "fp0"}, make)
    assert status == {"p0": "done"}
    leftovers = [n for n in os.listdir(out) if ".tmp-" in n]
    assert leftovers == []
