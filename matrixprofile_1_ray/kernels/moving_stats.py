"""Moving-window statistics.

Semantics follow the reference's Cython kernels (reference:
matrixprofile/cycore.pyx:22-100 ``muinvn`` and cycore.pyx:103-156
``moving_avg_std``) but the implementation is vectorized NumPy built on a
*centered* cumulative sum: the reference achieves precision with scalar
Neumaier-compensated loops; we subtract the global mean before the cumsum,
which bounds the error comparably while staying O(n) and fully vectorized.
Exact-constant windows are detected exactly (run-length of zero diffs) so
``sig`` is 0 there, matching the compensated-summation exact-zero behavior.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _constant_window_mask(a: np.ndarray, w: int) -> np.ndarray:
    """Boolean mask over the n-w+1 windows that are exactly constant."""
    n = a.shape[0]
    if w <= 1:
        return np.ones(n - w + 1, dtype=bool)
    changed = (np.diff(a) != 0).astype(np.int64)
    cs = np.concatenate(([0], np.cumsum(changed)))
    # window i spans diffs [i, i+w-1) — constant iff no diff changed
    return (cs[w - 1 :] - cs[: n - w + 1]) == 0


def _centered_sums(a: np.ndarray, w: int):
    """Windowed sums of (a-c) and (a-c)^2 with c = mean(a)."""
    c = float(np.mean(a))
    x = a - c
    n = a.shape[0]
    cs = np.empty(n + 1)
    cs[0] = 0.0
    np.cumsum(x, out=cs[1:])
    cs2 = np.empty(n + 1)
    cs2[0] = 0.0
    np.cumsum(x * x, out=cs2[1:])
    sums = cs[w:] - cs[: n - w + 1]
    sq_sums = cs2[w:] - cs2[: n - w + 1]
    return c, sums, sq_sums


# Below this n*w footprint the deviations matrix is materialized and summed
# directly — the same arithmetic as the reference's scalar loops, which is
# EXACT for dyadic-rational inputs (small integers), so tie-breaking on
# perfect matches (corr == 1.0) agrees with the reference.  Above it, the
# O(n) centered-cumsum path takes over.
_EXACT_SSQ_LIMIT = 1 << 24


@np.errstate(invalid="ignore")  # inf/NaN windows -> NaN mu/ssq (inf - inf)
def muinvn(a, w: int):
    """Moving mean and *inverse* centered L2 norm.

    Returns ``(mu, sig)`` where ``sig[i] = 1/sqrt(sum((a[i:i+w]-mu[i])^2))``
    and exactly 0 for constant windows (reference cycore.pyx:95-98).
    """
    a = np.ascontiguousarray(a, dtype="d")
    n = a.shape[0]
    if w > n:
        raise ValueError("window larger than series")
    if n * w <= _EXACT_SSQ_LIMIT:
        wins = sliding_window_view(a, w)
        # per-window pairwise sums: exact for dyadic-rational inputs
        # (like the raw running cumsum they replace, so perfect-match tie
        # semantics are unchanged) but free of the cumsum's GLOBAL
        # cancellation — a large constant offset cost the old
        # cs[i+w]-cs[i] difference ~3 digits of mu precision because the
        # running total grows with n, not w
        mu = wins.sum(axis=1) / w
        dev = wins - mu[:, None]
        ssq = np.einsum("ij,ij->i", dev, dev)
        ssq[_constant_window_mask(a, w)] = 0.0
    else:
        c, sums, sq_sums = _centered_sums(a, w)
        mu = sums / w + c
        # sum of squared deviations from the window mean:
        #   ssq = sum((a-c)^2) - w*(mu-c)^2
        ssq = sq_sums - w * (sums / w) ** 2
        ssq[_constant_window_mask(a, w)] = 0.0
    ssq[ssq < 0] = 0.0
    sig = np.zeros_like(ssq)
    nz = ssq > 0
    sig[nz] = 1.0 / np.sqrt(ssq[nz])
    return mu, sig


def moving_avg_std(a, w: int):
    """Moving mean and population std (reference cycore.pyx:103-156 wrapper
    core.py:318-337); negative variances clamp to 0."""
    a = np.ascontiguousarray(a, dtype="d")
    n = a.shape[0]
    if w > n:
        raise ValueError("window larger than series")
    c, sums, sq_sums = _centered_sums(a, w)
    mu_c = sums / w
    var = sq_sums / w - mu_c * mu_c
    var[var < 0] = 0.0
    var[_constant_window_mask(a, w)] = 0.0
    # reuse the mean _centered_sums already computed (same float) instead
    # of a second full O(n) np.mean pass
    return mu_c + c, np.sqrt(var)


def rolling_window(a, window: int):
    """Strided [n-w+1, w] view (reference core.py:261-279)."""
    return sliding_window_view(np.asarray(a), window)


def moving_average(a, window: int = 3):
    return moving_avg_std(np.asarray(a, dtype="d"), window)[0]


def moving_std(a, window: int = 3):
    return moving_avg_std(np.asarray(a, dtype="d"), window)[1]


def moving_min(a, window: int = 3):
    return np.min(rolling_window(a, window), axis=-1)


def moving_max(a, window: int = 3):
    return np.max(rolling_window(a, window), axis=-1)


def moving_median(a, window: int = 3):
    return np.median(rolling_window(a, window), axis=-1)
