"""PreSCRIMP and SCRIMP++ anytime matrix profiles.

Semantics follow reference matrixprofile/algorithms/scrimp.py:211-406
(``prescrimp``: anchor sampling every floor(w*step) offsets, MASS distance
profile per anchor, forward/backward dot-product recursion refinement) and
scrimp.py:409-565 (``scrimp_plus_plus``: diagonal refinement over a random
sample of diagonals, ez = ceil(w/4)).  Boundary quirks of the reference
(``dist1[0:idx-1]``, ``dist2[pl-idx+2:]``, ``beginidx >= 2-idx_diff``) are
preserved so outputs match value-for-value.  Randomness uses the legacy
global NumPy RNG seeded exactly as the reference seeds it, so a given
``random_state`` reproduces the reference's sampling.
"""

from __future__ import annotations

import math

import numpy as np

from .mass import apply_exclusion_zone
from .moving_stats import moving_avg_std


def _anchor_distance_profiles(windows, anchors, m, mux, sigx):
    """MASS profiles for a set of anchor subsequences (scrimp.py:35-82
    arithmetic) with the sliding dot products computed as one BLAS GEMM
    over the window matrix instead of a full-length FFT per anchor —
    exact (no FFT roundoff) and ~n/m times less work for short windows."""
    Q = windows[np.asarray(anchors)]                 # [k, m]
    prods = windows @ Q.T                            # [pl, k] — the GEMM
    sumy = Q.sum(axis=1)
    sumy2 = (Q ** 2).sum(axis=1)
    meany = sumy / m
    sigmay = np.sqrt(sumy2 / m - meany ** 2)
    # constant windows (sigma 0) give the reference's NaN/inf entries
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.real(
            2 * (m - (prods.T - m * mux[None, :] * meany[:, None])
                 / (sigx[None, :] * sigmay[:, None])))
    return np.sqrt(np.absolute(dist))


def prescrimp(ts, window_size: int, query=None, step_size: float = 0.25,
              sample_pct: float = 0.1, random_state=None, n_jobs: int = 1):
    """Approximate MP via anchor sampling + local refinement
    (reference scrimp.py:211-406).  ``n_jobs`` accepted for
    reference-signature compatibility, ignored."""
    del n_jobs
    from .preprocess import precheck_series_and_query_1d, to_np_array

    is_join = query is not None
    if is_join:
        ts, query_arr = precheck_series_and_query_1d(ts, query)
    else:
        try:
            ts = to_np_array(ts).astype("d")
        except ValueError:
            raise ValueError("Invalid ts value given. Must be array_like!")
        if ts.ndim != 1:
            raise ValueError("ts must be one dimensional!")
        query_arr = ts

    if not isinstance(step_size, float) or step_size > 1 or step_size < 0:
        raise ValueError("step_size should be a float between 0 and 1.")
    if not isinstance(sample_pct, float) or sample_pct > 1 or sample_pct < 0:
        raise ValueError("sample_pct should be a float between 0 and 1.")
    if random_state is not None:
        try:
            np.random.seed(random_state)
        except Exception:
            raise ValueError("Invalid random_state value given.")
    if window_size < 4:
        raise ValueError("window size must be at least 4.")
    if window_size > len(query_arr) / 2:
        raise ValueError("Time series is too short relative to desired window size")

    m = window_size
    step = int(math.floor(m * step_size))
    n = len(ts)
    pl = n - m + 1
    ez = int(np.ceil(m / 4.0))

    mp = np.zeros(pl)
    pi = np.zeros(pl, dtype=np.int64)

    mux, sigx = moving_avg_std(ts, m)

    dotproduct = np.zeros(pl)
    refine = np.full(pl, np.inf)
    orig_index = np.arange(pl)

    anchors = np.arange(0, pl, step)
    from numpy.lib.stride_tricks import sliding_window_view

    window_mat = np.ascontiguousarray(sliding_window_view(ts, m))
    chunk_dps = None
    chunk_start = 0

    # chunk size honoring a ~16 MB GEMM output regardless of profile
    # length (a fixed 64 anchors would be 512*pl bytes — ~512 MB per
    # chunk on a 1M-point series)
    pl_len = window_mat.shape[0]
    chunk_anchors = max(1, min(64, (16 << 20) // max(1, pl_len * 8)))

    for iteration, idx in enumerate(anchors):
        # anchor profiles computed in GEMM chunks, consumed sequentially
        # by the refine loop below
        if chunk_dps is None or iteration >= chunk_start + chunk_dps.shape[0]:
            chunk_start = iteration
            chunk_dps = _anchor_distance_profiles(
                window_mat, anchors[iteration : iteration + chunk_anchors],
                m, mux, sigx)
        dp = chunk_dps[iteration - chunk_start]
        dp = apply_exclusion_zone(ez, is_join, m, n, idx, dp)

        if iteration == 0:
            # copy, not the view: dp aliases a row of the whole GEMM
            # chunk, and keeping it would pin chunk_anchors*pl floats for
            # the lifetime of the returned profile
            mp = dp.copy()
            pi[:] = idx
        else:
            upd = dp < mp
            pi[upd] = idx
            mp[upd] = dp[upd]

        idx_min = int(np.argmin(dp))
        mp[idx] = dp[idx_min]
        pi[idx] = idx_min
        idx_nn = idx_min

        idx_diff = idx_nn - idx
        endidx = min(pl - 1, idx + step - 1, pl - idx_diff - 1)
        beginidx = max(0, idx - step + 1, 2 - idx_diff)

        # seed the dot product at the anchor from its refined distance
        dotproduct[idx] = (
            (m - mp[idx] ** 2 / 2) * sigx[idx] * sigx[idx_nn]
            + m * mux[idx] * mux[idx_nn]
        )

        # forward recursion (scrimp.py:92-116)
        if endidx > idx:
            inc = (
                ts[idx + m : endidx + m] * ts[idx_nn + m : endidx + m + idx_diff]
                - ts[idx:endidx] * ts[idx_nn : endidx + idx_diff]
            )
            dotproduct[idx + 1 : endidx + 1] = dotproduct[idx] + np.cumsum(inc)
            num = dotproduct[idx + 1 : endidx + 1] - m * (
                mux[idx + 1 : endidx + 1] * mux[idx_nn + 1 : endidx + idx_diff + 1]
            )
            den = sigx[idx + 1 : endidx + 1] * sigx[idx_nn + 1 : endidx + idx_diff + 1]
            refine[idx + 1 : endidx + 1] = np.sqrt(np.abs(2 * (m - num / den)))

        # backward recursion (scrimp.py:119-156)
        back = np.arange(idx - 1, beginidx - 1, -1)
        if back.size:
            inc = (
                ts[back] * ts[np.arange(idx_nn - 1, beginidx + idx_diff - 1, -1)]
                - ts[back + m] * ts[np.arange(idx_nn - 1 + m, beginidx + idx_diff + m - 1, -1)]
            )
            dotproduct[back] = dotproduct[idx] + np.cumsum(inc)
        if beginidx < idx:
            num = dotproduct[beginidx:idx] - m * (
                mux[beginidx:idx] * mux[beginidx + idx_diff : idx_nn]
            )
            den = sigx[beginidx:idx] * sigx[beginidx + idx_diff : idx_nn]
            refine[beginidx:idx] = np.sqrt(np.abs(2 * (m - num / den)))

        # apply refinements both at the refined index and its mirror
        # (scrimp.py:159-179)
        win = slice(beginidx, endidx + 1)
        pos = np.flatnonzero(refine[win] < mp[win]) + beginidx
        if pos.size:
            mp[pos] = refine[pos]
            pi[pos] = orig_index[pos] + idx_diff
        mirror = np.flatnonzero(
            refine[win] < mp[beginidx + idx_diff : endidx + idx_diff + 1]
        ) + beginidx
        if mirror.size:
            mp[mirror + idx_diff] = refine[mirror]
            pi[mirror + idx_diff] = orig_index[mirror]

    return {
        "mp": mp,
        "pi": pi,
        "rmp": None,
        "rpi": None,
        "lmp": None,
        "lpi": None,
        "w": m,
        "ez": ez,
        "join": is_join,
        "sample_pct": sample_pct,
        "metric": "euclidean",
        "data": {"ts": ts, "query": query_arr if is_join else None},
        "class": "MatrixProfile",
        "algorithm": "prescrimp",
    }


def scrimp_plus_plus(ts, window_size: int, query=None, step_size: float = 0.25,
                     sample_pct: float = 0.1, random_state=None,
                     n_jobs: int = 1):
    """PreSCRIMP followed by SCRIMP diagonal refinement
    (reference scrimp.py:409-565).  ``n_jobs`` accepted for
    reference-signature compatibility, ignored."""
    del n_jobs
    if random_state is not None:
        try:
            np.random.seed(random_state)
        except Exception:
            raise ValueError("Invalid random_state value given.")

    profile = prescrimp(ts, window_size, query=query, step_size=step_size,
                        sample_pct=sample_pct, random_state=random_state)

    ts = profile["data"]["ts"]
    m = profile["w"]
    ez = profile["ez"]
    n = len(ts)
    pl = n - m + 1

    mu, sig = moving_avg_std(ts, m)

    orig_index = np.arange(pl)
    compute_order = orig_index[orig_index > ez]
    sample_size = int(np.ceil(len(compute_order) * sample_pct))
    compute_order = np.random.choice(compute_order, size=sample_size, replace=False)

    scrimp_refine_diags(ts, m, mu, sig, compute_order,
                        profile["mp"], profile["pi"])

    profile["algorithm"] = "scrimp++"
    profile["sample_pct"] = sample_pct
    return profile


def scrimp_refine_diags(ts, m, mu, sig, diag_order, mp, pi):
    """SCRIMP phase-2 refinement over an ORDERED sequence of sampled
    diagonals, updating (mp, pi) in place with strict-< min merges
    (reference scrimp.py:478-544 loop body)."""
    n = len(ts)
    pl = n - m + 1
    orig_index = np.arange(pl)
    curlastz = np.zeros(pl)
    curdistance = np.zeros(pl)
    dist1 = np.full(pl, np.inf)
    dist2 = np.full(pl, np.inf)
    u_buf = np.empty(pl)
    m_buf = np.empty(pl, dtype=bool)

    for idx in diag_order:
        L = pl - idx
        # diagonal covariance walk, fused into reusable buffers
        curlastz[idx] = np.dot(ts[:m], ts[idx : idx + m])
        if L > 1:
            upd = np.multiply(ts[m : n - idx], ts[idx + m : n],
                              out=u_buf[: n - idx - m])
            upd -= ts[: pl - idx - 1] * ts[idx : pl - 1]
            np.cumsum(upd, out=curlastz[idx + 1 :])
            curlastz[idx + 1 :] += curlastz[idx]
        cd = curdistance[idx:]
        np.multiply(mu[idx:], mu[:L], out=cd)
        cd *= m
        np.subtract(curlastz[idx:pl], cd, out=cd)
        # constant windows give NaN, as in the reference
        with np.errstate(divide="ignore", invalid="ignore"):
            cd /= sig[idx:] * sig[:L]
        np.subtract(m, cd, out=cd)
        cd *= 2
        np.abs(cd, out=cd)
        np.sqrt(cd, out=cd)

        dist1[: idx - 1] = np.inf
        dist1[idx:] = cd
        dist2[:L] = cd
        dist2[pl - idx + 2 :] = np.inf

        loc1 = np.less(dist1, mp, out=m_buf)
        np.copyto(mp, dist1, where=loc1)
        np.copyto(pi, orig_index - idx, where=loc1)
        loc2 = np.less(dist2, mp, out=m_buf)
        np.copyto(mp, dist2, where=loc2)
        np.copyto(pi, orig_index + idx, where=loc2)
    return mp, pi
