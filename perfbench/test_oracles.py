"""The benchmark's oracles checked against vectors they did not produce.

Run with ``python3 -m pytest perfbench/test_oracles.py`` from the checkout
root (no Ray, a few seconds).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import oracles

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests")


def test_self_join_matches_matlab_goldens():
    ts = np.loadtxt(os.path.join(GOLDEN, "sampledata.txt"))
    want_mp = np.loadtxt(os.path.join(GOLDEN, "mpx_mp.txt"))
    # MATLAB wrote 1-based indices
    want_pi = np.loadtxt(os.path.join(GOLDEN, "mpx_mpi.txt")).astype(int) - 1
    mp, pi = oracles.self_join(ts, 32)
    np.testing.assert_allclose(mp, want_mp, rtol=0, atol=1e-4)
    np.testing.assert_array_equal(pi, want_pi)


def test_self_join_matches_mpx_tiny():
    ts = np.array([0, 1, 1, 1, 0, 0, 2, 1, 0, 0, 2, 1], dtype="d")
    mp, pi = oracles.self_join(ts, 4)
    np.testing.assert_allclose(
        mp, [1.9550, 1.9550, 0.8739, 0, 0, 1.9550, 0.8739, 0, 0],
        rtol=0, atol=1e-4)
    np.testing.assert_array_equal(pi, [4, 5, 6, 7, 8, 1, 2, 3, 4])


def test_distance_profile_agrees_with_self_join():
    rng = np.random.default_rng(7)
    ts = np.cumsum(rng.normal(size=300))
    mp, pi = oracles.self_join(ts, 16)
    z = oracles.znorm_windows(ts, 16)
    for j in (0, 5, 150, 284):
        prof = oracles.distance_profile(z, j, 16)
        assert prof.min() == pytest.approx(mp[j], abs=1e-9)
        assert oracles.argmin_ok(prof, int(pi[j]), mp[j])


def test_forward_fill():
    got = oracles.forward_fill(np.array([-1, -1, 5, -1, 7, -1, -1]), -1)
    np.testing.assert_array_equal(got, [5, 5, 5, 5, 7, 7, 7])


def test_bucket_stats_by_loop():
    rng = np.random.default_rng(3)
    series = [rng.integers(0, 100, size=n) for n in (0, 1, 59, 60, 61, 250)]
    st = oracles.BucketStats(series, 60)
    for d, s in enumerate(series):
        for b in range(st.n_buckets):
            seg = s[b * 60 : (b + 1) * 60]
            assert st.count[d, b] == seg.size
            if seg.size:
                assert st.min[d, b] == seg.min()
                assert st.max[d, b] == seg.max()
                assert st.sum[d, b] == seg.sum()


def test_code_points_non_ascii():
    (cp,) = oracles.code_points(["aé€😀"])
    np.testing.assert_array_equal(cp, [97, 233, 8364, 128512])
