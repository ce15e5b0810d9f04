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


def test_nan_windows_skipped():
    ts = np.array([0, 1, 1, 0, 0, np.nan, 1, 0, 0, 1, 1, 0])
    profile = stomp(ts, 4)
    assert np.isfinite(profile["mp"]).any()
