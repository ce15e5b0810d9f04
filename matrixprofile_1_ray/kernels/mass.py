"""MASS v2 distance profiles and shared distance helpers.

Value-conformant with reference matrixprofile/core.py:397-478 (fft_convolve /
sliding_dot_product / distance_profile), core.py:141-192 (skip locations /
nan-inf cleaning), core.py:580-622 (exclusion zone, pearson->euclidean) and
matrixprofile/algorithms/mass2.py:14-96 (MASS v2 incl. its complex-output and
constant-window conventions).
"""

from __future__ import annotations

import numpy as np

from .moving_stats import moving_avg_std


def fft_convolve(ts, query):
    """Sliding dot product of ``query`` across ``ts`` via FFT
    (reference core.py:397-420)."""
    ts = np.asarray(ts, dtype="d")
    query = np.asarray(query, dtype="d")
    n = ts.shape[0]
    m = query.shape[0]
    x = np.fft.fft(ts)
    y = np.fft.fft(np.concatenate((query[::-1], np.zeros(n - m))))
    return np.real(np.fft.ifft(x * y)[m - 1 : n])


def sliding_dot_product(ts, query):
    """Same result via direct convolution (reference core.py:423-444);
    kept as a cross-check kernel."""
    ts = np.asarray(ts, dtype="d")
    query = np.asarray(query, dtype="d")
    m = query.shape[0]
    n = ts.shape[0]
    return np.real(np.convolve(ts, query[::-1], mode="full")[m - 1 : n])


def exact_sliding_dot_product(ts, query):
    """O(n*m) BLAS sliding dot product — exact (no FFT roundoff); used to
    seed diagonal recursions where absolute error would persist."""
    from numpy.lib.stride_tricks import sliding_window_view

    ts = np.ascontiguousarray(ts, dtype="d")
    query = np.ascontiguousarray(query, dtype="d")
    return sliding_window_view(ts, query.shape[0]) @ query


def distance_profile(prod, ws, data_mu, data_sig, query_mu, query_sig):
    """z-normalized ED from a sliding dot product (reference core.py:447-478).
    Division by a zero sigma yields inf/nan exactly as the reference allows."""
    dp = 2 * (ws - (prod - ws * data_mu * query_mu) / (data_sig * query_sig))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(np.real(dp))


def apply_exclusion_zone(exclusion_zone, is_join, window_size, data_length, index, dp):
    """In-place inf fill of ±ez around ``index`` for self-joins
    (reference core.py:580-587)."""
    if exclusion_zone > 0 and not is_join:
        start = max(0, index - exclusion_zone)
        end = min(data_length - window_size + 1, index + exclusion_zone + 1)
        dp[start:end] = np.inf
    return dp


@np.errstate(invalid="ignore")  # rho > 1 or inf -> NaN, as the reference
def pearson_to_euclidean(a, windows):
    """sqrt(2w(1-rho)) row-wise; inf entries stay inf in the 2-D case
    (reference core.py:590-622)."""
    a = np.asarray(a)
    if a.ndim == 1:
        w = windows[0] if isinstance(windows, (list, tuple, np.ndarray)) else windows
        return np.sqrt(2 * w * (1 - a))
    # np.full(inf), not np.empty: rows beyond len(windows) must come back
    # inf like the reference's euc_a = np.full(a.shape, inf) — empty would
    # return uninitialized heap memory for a truncated windows list
    out = np.full(a.shape, np.inf, dtype="d")
    for idx, w in enumerate(np.asarray(windows)[: a.shape[0]]):
        row = np.sqrt(2 * w * (1 - a[idx]))
        row[np.isinf(a[idx])] = np.inf
        out[idx] = row
    return out


def clean_nan_inf(ts):
    """Replace NaN/Inf with zeros (reference core.py:170-192) — returns a
    copy rather than mutating the input."""
    from .preprocess import to_np_array

    ts = np.array(to_np_array(ts), dtype="d", copy=True)
    ts[~np.isfinite(ts)] = 0
    return ts


def find_skip_locations(ts, profile_length, window_size):
    """Mask of windows containing NaN/Inf (reference core.py:141-167),
    vectorized via a cumulative count of bad points."""
    ts = np.asarray(ts, dtype="d")
    bad = (~np.isfinite(ts)).astype(np.int64)
    cs = np.concatenate(([0], np.cumsum(bad)))
    return (cs[window_size:] - cs[: ts.shape[0] - window_size + 1])[:profile_length] > 0


def mass2(ts, query, extras: bool = False, threshold: float = 1e-10):
    """MASS v2 distance profile of ``query`` against ``ts``
    (reference algorithms/mass2.py:14-96).

    Conventions preserved: the profile is complex-valued (tests assert complex
    output), zero sigma products are replaced with 1e-12 before division,
    near-constant data windows get distance ``m`` (0 when the query is also
    near-constant).
    """
    ts = np.asarray(ts, dtype="d")
    query = np.asarray(query, dtype="d")
    if ts.ndim != 1 or query.ndim != 1:
        raise ValueError("ts and query must be one dimensional!")
    n = ts.shape[0]
    m = query.shape[0]

    meany = np.mean(query)
    sigmay = np.std(query)
    meanx, sigmax = moving_avg_std(ts, m)

    y = np.concatenate((query[::-1], np.zeros(n - m)))
    z = np.fft.ifft(np.fft.fft(ts) * np.fft.fft(y))

    denom = sigmax * sigmay
    denom = np.where(denom == 0, 1e-12, denom)
    dist = 2 * (m - (z[m - 1 : n] - m * meanx * meany) / denom)

    low_x = sigmax < threshold
    dist[low_x] = m
    if sigmay < threshold:
        dist[low_x] = 0
    dist = np.sqrt(dist)

    if extras:
        pad = np.concatenate((np.ones(n - meanx.shape[0]), meanx))
        pad_s = np.concatenate((np.zeros(n - sigmax.shape[0]), sigmax))
        return {
            "distance_profile": dist,
            "product": z,
            "data_mean": pad,
            "query_mean": meany,
            "data_std": pad_s,
            "query_std": sigmay,
        }
    return dist
