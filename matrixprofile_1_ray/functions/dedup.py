"""Dedup primitives: shingling, MinHash, SimHash, Jaccard.

Vectorized over the flat (values, offsets) token view.  All hashing runs in
the Mersenne-31 field (2^31-1) so every product fits in uint64 without
128-bit emulation; 31-bit shingle hashes are ample for near-dup detection
(exact dedup keys off full content, not these hashes).  The distributed
wiring (hash-partition groupbys, candidate verification) lives in
stages/dedup.py.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

M31 = np.uint64((1 << 31) - 1)
_BASE = np.uint64(1000003)


def shingle_hashes(values: np.ndarray, offsets: np.ndarray, k: int = 5):
    """Per-row k-gram hash multisets.

    Returns (flat_hashes, shingle_offsets): row i's shingle hashes are
    ``flat[shingle_offsets[i]:shingle_offsets[i+1]]``.

    Rows with 0 < len < k get ONE shingle — the polynomial hash of the
    whole row.  (Zero shingles for every short row would give them all the
    identical sentinel MinHash signature, pairing every short doc with
    every other short doc regardless of content: an O(m^2) bucket blowup
    and false duplicate groups.  The whole-row hash keeps identical short
    docs deduplicating while distinct ones stay apart.)  Only zero-length
    rows get zero shingles — empty docs ARE all identical content, so
    their sentinel-bucket pairing is correct.
    """
    lengths = np.diff(offsets)
    n_shingles = np.where(lengths == 0, 0,
                          np.maximum(lengths - k + 1, 1)).astype(np.int64)
    out_offsets = np.concatenate(([0], np.cumsum(n_shingles))).astype(np.int64)
    flat = np.empty(out_offsets[-1], dtype=np.uint64)

    if values.size >= k:
        windows = sliding_window_view(values.astype(np.uint64), k)  # [n-k+1, k]
        mix = np.zeros(windows.shape[0], dtype=np.uint64)
        for j in range(k):
            mix = (mix * _BASE + windows[:, j]) % M31
        # keep only windows fully inside one (long-enough) row —
        # vectorized (repeat row starts, add a per-row ramp); the old
        # per-row Python loop ran over EVERY row of the batch
        long_rows = lengths >= k
        starts = offsets[:-1][long_rows]
        counts = n_shingles[long_rows]
        ramp = np.arange(int(counts.sum()), dtype=np.int64) - \
            np.repeat(np.cumsum(counts) - counts, counts)
        keep = np.zeros(windows.shape[0], dtype=bool)
        keep[np.repeat(starts, counts) + ramp] = True
        slot_is_short = np.zeros(out_offsets[-1], dtype=bool)
        short_rows = (lengths > 0) & ~long_rows
        slot_is_short[out_offsets[:-1][short_rows]] = True
        flat[~slot_is_short] = mix[keep]
    else:
        short_rows = lengths > 0

    for i in np.flatnonzero(short_rows):
        h = np.uint64(0)
        for v in values[offsets[i] : offsets[i + 1]].astype(np.uint64):
            h = (h * _BASE + v) % M31
        flat[out_offsets[i]] = h
    return flat, out_offsets


def minhash_signatures(flat_hashes: np.ndarray, shingle_offsets: np.ndarray,
                       num_perm: int = 64, seed: int = 7) -> np.ndarray:
    """[n_rows, num_perm] MinHash signatures (all-max sentinel for rows
    without shingles).  One reduceat per permutation, vectorized across the
    whole batch."""
    n_rows = len(shingle_offsets) - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(M31), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(M31), size=num_perm, dtype=np.uint64)

    sig = np.full((n_rows, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    nonempty = np.diff(shingle_offsets) > 0
    if not nonempty.any():
        return sig
    starts = shingle_offsets[:-1][nonempty]
    for p in range(num_perm):
        y = (flat_hashes * a[p] + b[p]) % M31
        sig[nonempty, p] = np.minimum.reduceat(y, starts)
    return sig


def band_keys(signatures: np.ndarray, bands: int = 16) -> np.ndarray:
    """[n_rows, bands] uint64 LSH band keys (hash of each band's slice).

    ``bands`` must evenly divide the permutation count: a remainder would
    silently drop tail permutations (weaker recall than requested), and
    ``bands > num_perm`` gives zero-width bands whose constant keys put
    EVERY row in every bucket — an O(n^2) candidate blowup."""
    n_rows, num_perm = signatures.shape
    if bands <= 0 or num_perm % bands:
        raise ValueError(
            f"bands={bands} must evenly divide num_perm={num_perm}")
    rows_per_band = num_perm // bands
    out = np.zeros((n_rows, bands), dtype=np.uint64)
    for b in range(bands):
        sl = signatures[:, b * rows_per_band : (b + 1) * rows_per_band]
        mix = np.full(n_rows, np.uint64(b + 1))
        for j in range(rows_per_band):
            mix = (mix * _BASE + sl[:, j] % M31) % M31
        out[:, b] = mix
    return out


def simhash(flat_hashes: np.ndarray, shingle_offsets: np.ndarray) -> np.ndarray:
    """31-bit SimHash per row: majority vote of shingle-hash bits."""
    n_rows = len(shingle_offsets) - 1
    out = np.zeros(n_rows, dtype=np.uint64)
    nonempty = np.diff(shingle_offsets) > 0
    if not nonempty.any():
        return out
    starts = shingle_offsets[:-1][nonempty]
    counts = np.diff(shingle_offsets)[nonempty]
    for bit in range(31):
        bits = ((flat_hashes >> np.uint64(bit)) & np.uint64(1)).astype(np.int64)
        ones = np.add.reduceat(bits, starts)
        majority = (2 * ones) >= counts
        out[nonempty] |= majority.astype(np.uint64) << np.uint64(bit)
    return out


def jaccard(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """Exact Jaccard over two shingle-hash arrays (as sets)."""
    ua = np.unique(set_a)
    ub = np.unique(set_b)
    if ua.size == 0 and ub.size == 0:
        return 1.0
    inter = np.intersect1d(ua, ub, assume_unique=True).size
    return inter / (ua.size + ub.size - inter)
