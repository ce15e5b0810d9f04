"""Conformance: STOMP incl. left/right profiles and range-partition
invariance (reference tests/test_stomp.py)."""

import numpy as np
import pytest

from matrixprofile_1_ray.kernels import mpx, stomp


def test_window_size_validation():
    with pytest.raises(ValueError):
        stomp(np.arange(8), 2)
    with pytest.raises(ValueError):
        stomp(np.arange(8), 8)


def test_self_join_tiny():
    ts = np.array([0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0])
    profile = stomp(ts, 4)
    np.testing.assert_almost_equal(profile["mp"], np.zeros(9))
    np.testing.assert_array_equal(profile["pi"], [4, 5, 6, 7, 0, 1, 2, 3, 0])
    np.testing.assert_almost_equal(
        profile["lmp"], [np.inf, np.inf, np.inf, 2.82842712, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(profile["lpi"], [0, 0, 0, 0, 0, 1, 2, 3, 0])
    np.testing.assert_almost_equal(
        profile["rmp"], [0, 0, 0, 0, 0, 2.82842712, np.inf, np.inf, np.inf])
    np.testing.assert_array_equal(profile["rpi"], [4, 5, 6, 7, 8, 8, 0, 0, 0])


def test_stomp_agrees_with_mpx(sampledata):
    """Same exclusion-zone-free minima: STOMP (ez=w/2) distances match MPX
    (minlag=w/4) everywhere the neighbor lies outside both zones."""
    s = stomp(sampledata, 32)
    m = mpx(sampledata, 32)
    idx = np.arange(len(s["pi"]))
    far = (np.abs(s["pi"] - idx) > 16) & (np.abs(m["pi"] - idx) > 16)
    assert far.mean() > 0.9
    np.testing.assert_almost_equal(s["mp"][far], m["mp"][far], decimal=6)


def test_stomp_join_mode(sampledata):
    """AB-join semantics: ez=0, distances vs the query's windows; the
    query's own occurrence in ts yields ~zero distance."""
    query = sampledata[199:300]
    profile = stomp(sampledata, 32, query=query)
    assert profile["join"] is True and profile["ez"] == 0
    assert profile["lmp"] is None
    # ts windows 199..268 match query windows exactly -> ~zero distances
    # (individual entries may be nan where sqrt saw a tiny negative — the
    # reference's distance_profile convention)
    region = profile["mp"][199:269]
    assert np.nanmin(region) < 1e-5
    assert np.nanmedian(region) < 1e-4
    # join profile covers all ts windows
    assert len(profile["mp"]) == len(sampledata) - 31


def test_stomp_ab_join_stays_within_query_windows(sampledata):
    """Regression: an AB join whose query has fewer windows than ts walked
    one window past the query's last (pi == num_queries on 12 entries of
    this reproducer), and restarted each query window's rolling product
    from ts window i against query window 0 instead of ts window 0
    against query window i.  Every pi now names a query window, and mp is
    the brute-force z-normalized distance to the nearest query window;
    an exact match whose distance formula took the sqrt of a rounding-
    negative value (NaN, the reference's convention) gives way to the next
    nearest."""
    from numpy.lib.stride_tricks import sliding_window_view

    w = 32
    query = sampledata[199:300]
    num_queries = len(query) - w + 1
    profile = stomp(sampledata, w, query=query)
    mp, pi = profile["mp"], profile["pi"]
    assert (pi >= 0).all() and (pi < num_queries).all()

    def znorm(wins):
        return ((wins - wins.mean(axis=1, keepdims=True))
                / wins.std(axis=1, keepdims=True))

    dist = np.linalg.norm(znorm(sliding_window_view(sampledata, w))[:, None]
                          - znorm(sliding_window_view(query, w))[None],
                          axis=2)
    skipped = (dist < 1e-6) & (mp[:, None] > 1e-6)
    np.testing.assert_allclose(mp, np.where(skipped, np.inf, dist).min(1),
                               atol=1e-5)
    np.testing.assert_allclose(dist[np.arange(len(mp)), pi], mp, atol=1e-5)


def test_nan_windows_skipped():
    ts = np.array([0, 1, 1, 0, 0, np.nan, 1, 0, 0, 1, 1, 0])
    profile = stomp(ts, 4)
    assert np.isfinite(profile["mp"]).any()
