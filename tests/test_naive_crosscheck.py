"""Brute-force naive cross-checks (the north star's
'naive-distance-profile cross-checks'): an O(n^2 w) direct z-normalized
scan must agree with MASS2, MPX and STOMP on random inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixprofile_1_ray.kernels import mass2, mpx, stomp


def naive_distance_profile(ts, query):
    """Direct z-normalized Euclidean distance of query vs every window."""
    w = len(query)
    qz = (query - query.mean()) / (query.std() if query.std() > 0 else 1)
    out = np.empty(len(ts) - w + 1)
    for i in range(out.shape[0]):
        seg = ts[i : i + w]
        sd = seg.std()
        sz = (seg - seg.mean()) / (sd if sd > 0 else 1)
        out[i] = np.sqrt(np.sum((sz - qz) ** 2))
    return out


def naive_matrix_profile(ts, w, ez):
    pl = len(ts) - w + 1
    mp = np.full(pl, np.inf)
    pi = np.zeros(pl, dtype=int)
    for i in range(pl):
        dp = naive_distance_profile(ts, ts[i : i + w])
        lo, hi = max(0, i - ez), min(pl, i + ez + 1)
        dp[lo:hi] = np.inf
        j = int(np.argmin(dp))
        if dp[j] < mp[i]:
            mp[i] = dp[j]
            pi[i] = j
    return mp, pi


def test_mass2_matches_naive():
    rng = np.random.default_rng(17)
    ts = rng.normal(size=200)
    query = rng.normal(size=16)
    fast = np.real(mass2(ts, query))
    slow = naive_distance_profile(ts, query)
    np.testing.assert_allclose(fast, slow, atol=1e-7)


def test_mpx_matches_naive():
    rng = np.random.default_rng(18)
    ts = rng.normal(size=150)
    w = 16
    prof = mpx(ts, w)
    minlag = int(np.ceil(w / 4.0))
    naive_mp, naive_pi = naive_matrix_profile(ts, w, minlag)
    np.testing.assert_allclose(prof["mp"], naive_mp, atol=1e-7)
    np.testing.assert_array_equal(prof["pi"], naive_pi)


def test_stomp_matches_naive():
    rng = np.random.default_rng(19)
    ts = rng.normal(size=120)
    w = 12
    prof = stomp(ts, w)
    ez = int(np.ceil(w / 2.0))
    naive_mp, naive_pi = naive_matrix_profile(ts, w, ez)
    np.testing.assert_allclose(prof["mp"], naive_mp, atol=1e-6)
    np.testing.assert_array_equal(prof["pi"], naive_pi)


def naive_stomp_with_skips(ts, w):
    """STOMP's profile of a NaN/inf-bearing series, by brute force: the
    non-finite points are zero-filled, a query window holding one emits
    nothing, and every other window's naive distance profile (exclusion
    zone ceil(w/2)) min-merges into every column in ascending query
    order, the first minimum kept; lmp/rmp keep the minima over queries
    left / right of each column."""
    ez = int(np.ceil(w / 2.0))
    bad = ~np.isfinite(ts)
    filled = np.where(bad, 0.0, ts)
    pl = len(ts) - w + 1
    mp, lmp, rmp = (np.full(pl, np.inf) for _ in range(3))
    pi = np.zeros(pl, dtype=int)
    for i in range(pl):
        if bad[i : i + w].any():
            continue
        dp = naive_distance_profile(filled, filled[i : i + w])
        dp[max(0, i - ez) : min(pl, i + ez + 1)] = np.inf
        better = dp < mp
        mp[better] = dp[better]
        pi[better] = i
        np.minimum(lmp[i:], dp[i:], out=lmp[i:])
        np.minimum(rmp[:i], dp[:i], out=rmp[:i])
    return mp, pi, lmp, rmp


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stomp_skip_windows_match_naive(seed):
    """STOMP keeps its rolling state exact through skipped (NaN/inf)
    query windows, where the reference's early ``continue`` leaves it
    stale (kernels/stomp.py), so every distance it emits on a gappy series
    equals the naive one.  Random patterns: one to three NaN runs of 1-7
    points, and on seed 1 an inf point as well."""
    rng = np.random.default_rng(seed)
    ts = rng.uniform(size=300)
    for _ in range(rng.integers(1, 4)):
        a = int(rng.integers(0, 280))
        ts[a : a + int(rng.integers(1, 8))] = np.nan
    if rng.random() < 0.5:
        ts[int(rng.integers(0, 300))] = np.inf
    w = int(rng.integers(8, 24))
    prof = stomp(ts.copy(), w)
    mp, pi, lmp, rmp = naive_stomp_with_skips(ts, w)
    np.testing.assert_allclose(prof["mp"], mp, atol=1e-9)
    np.testing.assert_array_equal(prof["pi"], pi)
    np.testing.assert_allclose(prof["lmp"], lmp, atol=1e-9)
    np.testing.assert_allclose(prof["rmp"], rmp, atol=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_mpx_matches_naive_hypothesis(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 120))
    w = int(rng.integers(4, n // 3))
    ts = rng.normal(size=n) * rng.uniform(0.1, 100)
    prof = mpx(ts, w)
    minlag = int(np.ceil(w / 4.0))
    naive_mp, _ = naive_matrix_profile(ts, w, minlag)
    np.testing.assert_allclose(prof["mp"], naive_mp, atol=1e-6)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_mpx_token_series_hypothesis(seed):
    """Integer token streams (plateaus, exact ties) — mp values must still
    match the naive scan."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 150))
    ts = rng.integers(0, 12, size=n).astype("d")
    from matrixprofile_1_ray.kernels.preprocess import preprocess

    ts = preprocess(ts, 8, seed=seed)  # avoid constant-window degeneracy
    prof = mpx(ts, 8)
    naive_mp, _ = naive_matrix_profile(ts, 8, int(np.ceil(8 / 4.0)))
    np.testing.assert_allclose(prof["mp"], naive_mp, atol=1e-5)
