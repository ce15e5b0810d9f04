"""STOMP matrix profile with left/right profiles.

Semantics follow reference matrixprofile/algorithms/stomp.py:19-193
(``_batch_compute``: the O(1) rolling dot-product update, running query
sum/sum-of-squares recurrence, NaN-window skipping, left/right profile
updates) and stomp.py:196-377 (driver: ez = ceil(w/2) for self-joins, 0
for AB joins).  The reference splits the query-window range into
multiprocessing batches and min-merges their partials (stomp.py:313-357);
here the whole range runs as one batch, since parallelism belongs to the
Ray layer (one profile per row, rows in parallel).
"""

from __future__ import annotations

import numpy as np

from .mass import (
    apply_exclusion_zone,
    clean_nan_inf,
    distance_profile,
    fft_convolve,
    find_skip_locations,
)
from .moving_stats import moving_avg_std


def stomp_batch(batch_end, ts, query, window_size, exclusion_zone, is_join,
                data_mu, data_sig, first_product, first_column, skip_locs):
    """Compute the profile contribution of query windows [0, batch_end)
    — reference stomp.py:19-193 for its first batch.  ``first_product``
    holds the dot products of query window 0 with every ts window,
    ``first_column`` those of ts window 0 with every query window (the
    same array in a self-join), and ``skip_locs`` flags the query windows
    to skip."""
    data_length = ts.shape[0]
    profile_length = data_length - window_size + 1

    mp = np.full(profile_length, np.inf)
    pi = np.zeros(profile_length, dtype=np.int64)
    lmp = rmp = lpi = rpi = None
    if not is_join:
        lmp = np.full(profile_length, np.inf)
        rmp = np.full(profile_length, np.inf)
        lpi = np.zeros(profile_length, dtype=np.int64)
        rpi = np.zeros(profile_length, dtype=np.int64)

    first_window = query[:window_size]
    last_product = first_product.copy()

    query_sum = np.sum(first_window)
    query_2sum = np.sum(first_window ** 2)
    q_mu, q_sig = moving_avg_std(first_window, window_size)
    query_mu = q_mu[0]
    query_sig = q_sig[0]
    drop_value = first_window[0]

    dp = distance_profile(last_product, window_size, data_mu, data_sig,
                          query_mu, query_sig)
    dp = apply_exclusion_zone(exclusion_zone, is_join, window_size,
                              data_length, 0, dp)
    better = dp < mp
    mp[better] = dp[better]
    pi[better] = 0
    if not is_join:
        lmp[better] = dp[better]
        lpi[better] = 0

    # no inclusive upper edge (the reference's stomp.py:136-137): with a
    # query of fewer windows than ts it would walk one window past the
    # query's last

    # scratch buffers reused across iterations (no per-step allocations)
    head = ts[: data_length - window_size]
    tail = ts[window_size:]
    dp_buf = np.empty(profile_length)
    m_buf = np.empty(profile_length, dtype=bool)

    for i in range(1, batch_end):
        query_window = query[i : i + window_size]
        last = query_window[-1]
        query_sum = query_sum - drop_value + last
        query_2sum = query_2sum - drop_value ** 2 + last ** 2
        query_mu = query_sum / window_size
        query_sig = np.sqrt(max(query_2sum / window_size - query_mu ** 2, 0.0))
        # rolling dot-product update, fused in place (stomp.py:152-155)
        lp_head = last_product[: data_length - window_size]
        lp_head -= head * drop_value
        lp_head += tail * last
        last_product[1:] = lp_head
        last_product[0] = first_column[i]
        drop_value = query_window[0]

        if skip_locs[i]:
            # Advance the rolling state, emit nothing.  The reference
            # `continue`s BEFORE the updates (stomp.py:143-145), which
            # desynchronizes query_sum/last_product for every later window
            # of the batch — so its NaN-series output depends on how the
            # query range was batched (each batch reseeds exactly via
            # fft_convolve).  Keeping the state exact through skips makes
            # every emitted distance equal the naive z-normalized distance
            # of the two windows; deliberate divergence, covered by
            # tests/test_naive_crosscheck.py on NaN/inf-bearing series.
            continue

        # distance profile, in place (core.py:447-478 arithmetic)
        denom = data_sig * query_sig
        np.multiply(data_mu, window_size * query_mu, out=dp_buf)
        np.subtract(last_product, dp_buf, out=dp_buf)
        dp_buf /= denom
        np.subtract(window_size, dp_buf, out=dp_buf)
        dp_buf *= 2
        with np.errstate(divide="ignore", invalid="ignore"):
            np.sqrt(dp_buf, out=dp_buf)
        apply_exclusion_zone(exclusion_zone, is_join, window_size,
                             data_length, i, dp_buf)

        better = np.less(dp_buf, mp, out=m_buf)
        np.copyto(mp, dp_buf, where=better)
        pi[better] = i

        if not is_join:
            # neighbor i lies left of entries >= i, right of entries < i
            lb = better[i:]
            np.copyto(lmp[i:], dp_buf[i:], where=lb)
            lpi[i:][lb] = i
            rb = np.less(dp_buf[:i], rmp[:i], out=m_buf[:i])
            np.copyto(rmp[:i], dp_buf[:i], where=rb)
            rpi[:i][rb] = i

    return {"mp": mp, "pi": pi, "rmp": rmp, "rpi": rpi, "lmp": lmp, "lpi": lpi}


def stomp(ts, window_size: int, query=None, n_jobs: int = 1):
    """Full STOMP profile dict (reference stomp.py:196-377).

    ``n_jobs`` is accepted for reference-signature compatibility and
    ignored — parallelism belongs to the Ray layer, and the reference's
    own tests assert results are identical at any value."""
    del n_jobs
    is_join = query is not None
    ts = np.asarray(ts, dtype="d")
    query_arr = np.asarray(query, dtype="d") if is_join else ts

    if window_size < 4:
        raise ValueError("window size must be at least 4.")
    if window_size > len(query_arr) / 2:
        raise ValueError("Time series is too short relative to desired window size")

    profile_length = len(ts) - window_size + 1
    num_queries = len(query_arr) - window_size + 1
    exclusion_zone = 0 if is_join else int(np.ceil(window_size / 2.0))

    skip_locs = find_skip_locations(query_arr, num_queries, window_size)
    ts = clean_nan_inf(ts)
    query_arr = clean_nan_inf(query_arr)

    data_mu, data_sig = moving_avg_std(ts, window_size)
    first_product = fft_convolve(ts, query_arr[:window_size])
    # an AB join's rolling product restarts each query window from ts
    # window 0 against it (the reference reuses first_product, which only
    # a self-join's symmetry makes right)
    first_column = (fft_convolve(query_arr, ts[:window_size]) if is_join
                    else first_product)

    result = stomp_batch(num_queries, ts, query_arr, window_size,
                         exclusion_zone, is_join, data_mu, data_sig,
                         first_product, first_column, skip_locs)

    return {
        "mp": result["mp"],
        "pi": result["pi"],
        "rmp": result["rmp"],
        "rpi": result["rpi"],
        "lmp": result["lmp"],
        "lpi": result["lpi"],
        "metric": "euclidean",
        "w": window_size,
        "ez": exclusion_zone,
        "join": is_join,
        "sample_pct": 1,
        "data": {"ts": ts, "query": query_arr if is_join else None},
        "class": "MatrixProfile",
        "algorithm": "stomp",
    }
