"""Conformance: MPX self/AB joins vs reference inline vectors and the MATLAB
golden corpus (reference tests/test_mpx.py)."""

import numpy as np

from matrixprofile_1_ray.kernels import mpx
from matrixprofile_1_ray.kernels.mpx import mpx_ab, mpx_self
from tests.conftest import golden


def test_self_join_euclidean_tiny(self_join_path):
    ts = np.array([0, 1, 1, 1, 0, 0, 2, 1, 0, 0, 2, 1])
    profile = mpx(ts, 4)
    np.testing.assert_almost_equal(
        profile["mp"], [1.9550, 1.9550, 0.8739, 0, 0, 1.9550, 0.8739, 0, 0],
        decimal=4)
    np.testing.assert_array_equal(profile["pi"], [4, 5, 6, 7, 8, 1, 2, 3, 4])


def test_self_join_pearson_tiny(self_join_path):
    ts = np.array([0, 1, 1, 1, 0, 0, 2, 1, 0, 0, 2, 1])
    profile = mpx(ts, 4, cross_correlation=True)
    np.testing.assert_almost_equal(
        profile["mp"],
        [0.522232967867094, 0.522232967867094, 0.904534033733291, 1, 1,
         0.522232967867094, 0.904534033733291, 1, 1],
        decimal=4)
    np.testing.assert_array_equal(profile["pi"], [4, 5, 6, 7, 8, 1, 2, 3, 4])


def test_similarity_join_tiny():
    ts = np.array([1, 2, 3, 1, 2, 3, 4, 5, 6, 0, 0, 1,
                   1, 2, 2, 4, 5, 1, 1, 9], dtype="d")
    query = np.array([0, 0, 1, 1, 2, 2, 4, 5], dtype="d")
    profile = mpx(ts, 4, query=query)
    desired = [2.36387589e+00, 2.82842712e+00, 2.17957574e+00, 6.40728972e-01,
               6.40728972e-01, 6.40728972e-01, 3.26103392e+00, 3.61947699e+00,
               3.39984131e+00, 0.0, 4.21468485e-08, 0.0, 4.21468485e-08, 0.0,
               2.82842712e+00, 3.57109342e+00, 1.73771570e+00]
    np.testing.assert_almost_equal(profile["mp"], desired, decimal=4)
    np.testing.assert_array_equal(
        profile["pi"], [0, 1, 4, 1, 1, 1, 2, 1, 4, 2, 1, 2, 3, 4, 2, 1, 3])


def test_self_join_matlab(sampledata, self_join_path):
    mp, mpi = mpx_self(sampledata, 32)
    np.testing.assert_almost_equal(golden("mpx_mp.txt"), mp, decimal=4)


def test_similarity_join_matlab(sampledata):
    tsb = sampledata[199:300]
    mpa, mpia, mpb, mpib = mpx_ab(sampledata, tsb, 32)
    np.testing.assert_almost_equal(golden("mpx_ab_mpa.txt"), mpa, decimal=4)
    np.testing.assert_almost_equal(golden("mpx_ab_mpb.txt"), mpb, decimal=4)


def test_tiled_ab_join_equals_direct(sampledata):
    from matrixprofile_1_ray.kernels.mpx import mpx_ab, tiled_mpx_ab

    tsb = sampledata[199:300]
    mpa, mpia, mpb, mpib = mpx_ab(sampledata, tsb, 32)
    t_mpa, t_mpia, t_mpb, t_mpib = tiled_mpx_ab(sampledata, tsb, 32, tile=150)
    # sqrt(2w(1-rho)) amplifies 1e-16 correlation rounding to ~1e-7 near
    # perfect matches; indices must still agree exactly
    np.testing.assert_allclose(t_mpa, mpa, atol=1e-6)
    np.testing.assert_allclose(t_mpb, mpb, atol=1e-6)
    np.testing.assert_array_equal(t_mpia, mpia)
    np.testing.assert_array_equal(t_mpib, mpib)


def test_tiled_ab_self_pairs_snap_to_zero(sampledata):
    """Identical-window pairs must be distance exactly 0 in the tiled
    decomposition too (mpx_ab snaps; the tile path must match despite its
    larger per-tile cumsum rounding)."""
    from matrixprofile_1_ray.kernels.mpx import mpx_ab, tiled_mpx_ab

    mpa, mpia, mpb, mpib = mpx_ab(sampledata, sampledata, 32)
    t_mpa, _, t_mpb, _ = tiled_mpx_ab(sampledata, sampledata, 32, tile=128)
    assert (mpa == 0.0).all()
    np.testing.assert_allclose(t_mpa, mpa, atol=1e-7)
    np.testing.assert_allclose(t_mpb, mpb, atol=1e-7)


def test_fft_seed_path_matches_exact_seed(sampledata):
    """Long-series FFT seeding must agree with the exact BLAS path."""
    import importlib

    mpx_mod = importlib.import_module("matrixprofile_1_ray.kernels.mpx")

    exact_mp, exact_pi = mpx_self(sampledata, 32)
    limit = mpx_mod._EXACT_SDP_LIMIT
    mpx_mod._EXACT_SDP_LIMIT = 0
    try:
        fft_mp, fft_pi = mpx_self(sampledata, 32)
    finally:
        mpx_mod._EXACT_SDP_LIMIT = limit
    np.testing.assert_almost_equal(exact_mp, fft_mp, decimal=8)
    np.testing.assert_array_equal(exact_pi, fft_pi)


def test_snap_margin_shared_between_direct_and_tiled():
    """mpx_ab and tiled_mpx_ab snap near-1 correlations with ONE shared
    margin — per-path margins let the two decompositions disagree on
    pairs falling between the thresholds (distance exactly 0 on one path
    only)."""
    import numpy as np

    from matrixprofile_1_ray.kernels.mpx import _SNAP_MARGIN, mpx_ab, tiled_mpx_ab

    rng = np.random.default_rng(5)
    ts = rng.normal(size=400)
    # plant an exact repeat so the snap fires on both paths
    ts[300:332] = ts[100:132]
    mpa, _, mpb, _ = mpx_ab(ts, ts[80:220], 32)
    t_mpa, _, t_mpb, _ = tiled_mpx_ab(ts, ts[80:220], 32, tile=64)
    assert (mpa == 0.0).any()
    np.testing.assert_array_equal(mpa == 0.0, t_mpa == 0.0)
    np.testing.assert_array_equal(mpb == 0.0, t_mpb == 0.0)
    assert 0 < _SNAP_MARGIN < 1e-9


def test_iter_docs_lex_order_unique_complete():
    """Positional-take chunking: lexicographic order across chunk
    boundaries, every corpus row exactly once (value-isin chunking
    repeated rows whose doc_id appeared in several chunks)."""
    import pyarrow.parquet as pq

    from matrixprofile_1_ray.sources.sequences import iter_docs_lex

    seen = []
    for tab in iter_docs_lex("/root/testdata/sf0.001", ("doc_id", "text"),
                             chunk=31):
        ids = tab["doc_id"].to_pylist()
        assert ids == sorted(ids)
        seen.extend(ids)
    assert seen == sorted(seen)
    total = pq.read_metadata(
        "/root/testdata/sf0.001/documents.parquet").num_rows
    assert len(seen) == total
    assert len(set(seen)) == total
