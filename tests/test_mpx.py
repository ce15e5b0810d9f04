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


def test_ab_self_pairs_snap_to_zero(sampledata):
    """Identical-window pairs of an AB join are distance exactly 0: the
    cumsum leaves them a few ulp below correlation 1, and the snap lifts
    them back."""
    from matrixprofile_1_ray.kernels.mpx import mpx_ab

    mpa, mpia, mpb, mpib = mpx_ab(sampledata, sampledata, 32)
    assert (mpa == 0.0).all()
    assert (mpb == 0.0).all()


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


def test_ab_snap_margin():
    """An exact repeat inside an AB join snaps to distance exactly 0, and
    the snap margin stays 1e-11: far below any genuinely distinct pair."""
    import numpy as np

    from matrixprofile_1_ray.kernels.mpx import _SNAP_MARGIN, mpx_ab

    rng = np.random.default_rng(5)
    ts = rng.normal(size=400)
    # plant an exact repeat so the snap fires
    ts[300:332] = ts[100:132]
    mpa, _, mpb, _ = mpx_ab(ts, ts[80:220], 32)
    assert (mpa == 0.0).any()
    assert (mpb == 0.0).any()
    assert _SNAP_MARGIN == 1e-11


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
