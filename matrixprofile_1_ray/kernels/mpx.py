"""MPX matrix profile (self-join and AB similarity join) without FFT.

Semantics follow the reference's Cython/OpenMP kernels (reference:
matrixprofile/algorithms/cympx.pyx:30-119 ``mpx_parallel`` and
cympx.pyx:122-284 ``mpx_ab_parallel``, wrapper algorithms/mpx.py:20-100) —
the df/dg difference equations, the per-diagonal streaming covariance update,
minlag = ceil(w/4) (self-join skips diagonals <= minlag), the asymmetric
clamping of Pearson values > 1, and the Pearson->ED conversion.

The implementation is a fresh NumPy design: the reference iterates scalar
operations along each anti-diagonal under OpenMP; here the covariance walk
along a diagonal is expressed as a cumulative sum, each diagonal is one
vectorized update, and the per-thread partial-profile merge is replaced by
sequential ascending-diagonal processing.  Profile VALUES do not depend on
the visiting order; indices at exact ties do, so every self-join path
applies one explicit law — the larger value wins, then the nearer partner,
then the smaller index, and an exact -1.0 never replaces the -1 init.
The NumPy walk gets it from its order (ascending diagonals, column side
first, strict ``>``); the compiled band walk (kernels/_native.py), which
meets a column entry's candidates farthest first, applies it explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from . import _native
from .mass import exact_sliding_dot_product, fft_convolve
from .moving_stats import muinvn

# Above this n*w footprint the diagonal-seed dot products switch from exact
# BLAS to FFT (absolute error ~1e-9 relative, far below the reference's own
# golden tolerance of 1e-4 once scaled by 1/(w*sigma^2)).
_EXACT_SDP_LIMIT = 1 << 25

# Self-join dispatch lives in this module only: with the compiled kernels
# (kernels/_native.py) every self-join runs the compiled walk — 64-diagonal
# vector bands where the host has AVX2, else the scalar walk; one call per
# batch in mpx_self_batch, the same C precompute for the diagonal fan-out.
# Without a compiler the NumPy walk below runs, doing the same sums in the
# same order under the same explicit tie law (closest partner, then the
# smaller index), so both paths return the same bits, tie indices included.

# Correlations within this margin of 1 snap to exactly 1 (distance 0) in
# the AB join (mpx_ab), whose vectorized cumsum leaves identical-window
# pairs a few ulp below 1.  The margin is wide enough for a cumsum whose
# rounding grows with its length (measured ~1e-13 over 128 steps), and
# 1e-11 (ED ~2.5e-5 at w=32) still sits far below any genuinely distinct
# pair in double precision.
_SNAP_MARGIN = 1e-11



def _seed_products(ts: np.ndarray, query_w: np.ndarray) -> np.ndarray:
    if ts.shape[0] * query_w.shape[0] <= _EXACT_SDP_LIMIT:
        return exact_sliding_dot_product(ts, query_w)
    return fft_convolve(ts, query_w)


@np.errstate(invalid="ignore")  # inf - inf on a non-finite row -> NaN
def _ab_seed(a: np.ndarray, b: np.ndarray, mua, mub, w: int) -> np.ndarray:
    """Centered lag-0 covariances of every window of ``a`` with the first
    window of ``b``: the seeds of one AB-join side."""
    return _seed_products(a, b[:w]) - w * mua * mub[0]


@np.errstate(invalid="ignore")  # inf - inf on a non-finite row -> NaN
def _diff_eqs(ts: np.ndarray, mu: np.ndarray, w: int):
    """df/dg difference equations (reference cympx.pyx:76-80)."""
    n = ts.shape[0]
    pl = n - w + 1
    df = np.zeros(pl)
    dg = np.zeros(pl)
    df[1:] = 0.5 * (ts[w:] - ts[: n - w])
    dg[1:] = (ts[w:] - mu[1:]) + (ts[: n - w] - mu[:pl - 1])
    return df, dg


def mpx_self(ts, w: int, cross_correlation: bool = False):
    """Exact self-join matrix profile; returns ``(mp, mpi)``.

    ``mp`` is Euclidean distance by default or Pearson correlation when
    ``cross_correlation`` is set; unmatched entries are -1 in Pearson mode
    (converted like any other value in ED mode, as the reference does).

    PRECONDITION: ``ts`` must be finite — the streaming covariance cumsum
    propagates any NaN/Inf down its whole diagonal, and each execution
    path (serial / native / tiled) propagates it differently, so raw
    gappy input gets path-dependent garbage.  Every pipeline gap-fills
    upstream (stages/gapfill.py); the public ``compute()`` preprocesses
    exactly as the reference does (STOMP is the one kernel with explicit
    skip-location NaN semantics, kernels/stomp.py).
    """
    ts = np.ascontiguousarray(ts, dtype="d")
    n = ts.shape[0]
    if w > n:
        raise ValueError("window larger than series")
    return mpx_self_batch(ts, np.array([0, n]), np.array([0, n - w + 1]), w,
                          cross_correlation)


def mpx_self_batch(values, offsets, out_offsets, w: int,
                   cross_correlation: bool = False):
    """Self-join profiles of every row of a ragged batch; returns the flat
    ``(mp, mpi)``.

    Row ``r`` is ``values[offsets[r]:offsets[r+1]]``; its profile fills
    ``out_offsets[r]:out_offsets[r+1]``.  A row whose output segment is
    empty is skipped; every other segment must hold exactly ``n - w + 1``
    entries (ValueError otherwise).  One compiled call when a compiler is
    present, else the NumPy walk row by row."""
    if _native.AVAILABLE:
        return _native.mpx_self_batch(values, offsets, out_offsets, w,
                                      cross_correlation)
    values, offsets, out_offsets = _native.checked_batch(
        values, offsets, out_offsets, w)
    mp = np.full(int(out_offsets[-1]), -1.0)
    mpi = np.full(mp.shape[0], -1, dtype=np.int64)
    for r in np.flatnonzero(np.diff(out_offsets)):
        lo, hi = out_offsets[r], out_offsets[r + 1]
        seed, df, dg, sig, minlag = mpx_precompute(
            values[offsets[r]:offsets[r + 1]], w)
        mpx_diag_range(minlag + 1, hi - lo, seed, df, dg, sig, mp[lo:hi],
                       mpi[lo:hi])
    np.minimum(mp, 1.0, out=mp)  # final merge clamp (cympx.pyx:104-112)
    if not cross_correlation:
        np.sqrt(2.0 * w * (1.0 - mp), out=mp)
    return mp, mpi


@np.errstate(invalid="ignore")  # NaN/inf windows -> NaN, as the C walk
def mpx_diag_range(d_lo: int, d_hi: int, seed, df, dg, sig, mp, mpi):
    """Process self-join diagonals [d_lo, d_hi) updating (mp, mpi) in
    place with Pearson values.  Partial results over disjoint diagonal
    ranges merge by elementwise max-correlation (the reference's per-thread
    merge law, cympx.pyx:104-112) — which is what lets state/chunked.py
    fan the diagonal axis out over Ray tasks.  Runs the compiled walk
    whenever it is available (the same walk mpx_self runs), else the
    NumPy walk."""
    pl = sig.shape[0]
    if _native.AVAILABLE:
        return _native.mpx_diag_range_native(d_lo, d_hi, seed, df, dg,
                                             sig, mp, mpi)
    offsets = np.arange(pl)
    # reusable scratch buffers — one allocation for the whole range
    c_buf = np.empty(pl)
    u_buf = np.empty(pl)
    m_buf = np.empty(pl, dtype=bool)
    for diag in range(d_lo, d_hi):
        L = pl - diag
        if L <= 0:
            break
        # c[j] along the diagonal via cumsum of the seed and the streaming
        # update terms — seed first, the C walk's order, bit for bit
        c = c_buf[:L]
        c[0] = seed[diag]
        upd = np.multiply(df[1:L], dg[diag + 1 : diag + L], out=c[1:])
        upd += df[diag + 1 : diag + L] * dg[1:L]
        np.cumsum(c, out=c)
        corr = c
        corr *= sig[:L]
        corr *= sig[diag:]

        # row side keeps the raw (possibly >1) value, column side clamps —
        # mirroring cympx.pyx:94-102; copyto(where=) avoids the gather/
        # scatter temporaries of boolean fancy indexing.  COLUMN side goes
        # first: in the reference's ascending-offset walk an entry k hit
        # by both sides of one diagonal sees its column candidate (offset
        # k-d) before its row candidate (offset k), so with strict > the
        # smaller neighbor index wins exact ties — updating the row side
        # first would invert that and diverge from the serial/native walk
        # on tie-heavy (constant/periodic) token windows
        cc = np.minimum(corr, 1.0, out=u_buf[:L])
        m2 = np.greater(cc, mp[diag:], out=m_buf[:L])
        np.copyto(mp[diag:], cc, where=m2)
        np.copyto(mpi[diag:], offsets[:L], where=m2)
        m1 = np.greater(corr, mp[:L], out=m_buf[:L])
        np.copyto(mp[:L], corr, where=m1)
        np.copyto(mpi[:L], offsets[diag:], where=m1)
    return mp, mpi


@np.errstate(invalid="ignore")  # NaN/inf windows -> NaN, as the C loops
def mpx_precompute(ts, w: int):
    """Shared per-series state for diagonal-partitioned execution:
    (seed, df, dg, sig, minlag).  Built by the same arithmetic as
    mpx_self's on either path (the C precompute, or the same sums in the
    same order in NumPy when no compiler is present), so a fanned-out walk
    reproduces the serial profile exactly."""
    ts = np.ascontiguousarray(ts, dtype="d")
    minlag = int(math.ceil(w / 4.0))
    if _native.AVAILABLE:
        return (*_native.mpx_precompute_native(ts, w), minlag)
    # vectorized over windows, summed in offset order like the C loops:
    # window mean, squared deviations (exactly 0 on a constant window),
    # and the exact covariance against window 0 seeding each diagonal
    pl = ts.shape[0] - w + 1
    cols = [ts[k:k + pl] for k in range(w)]
    mu = sum(cols, np.zeros(pl)) / w
    ssq = np.zeros(pl)
    constant = np.ones(pl, dtype=bool)
    for x in cols:
        dev = x - mu
        ssq += dev * dev
        constant &= x == cols[0]
    ssq[constant] = 0.0
    sig = np.zeros(pl)
    np.divide(1.0, np.sqrt(ssq), out=sig, where=ssq > 0)
    df, dg = _diff_eqs(ts, mu, w)
    seed = sum((x * ts[k] for k, x in enumerate(cols)), np.zeros(pl))
    seed -= (w * mu) * mu[0]
    return seed, df, dg, sig, minlag


def merge_pearson_partials(left, right):
    """Merge two (mp, mpi) Pearson partials by elementwise max-correlation.
    Strict ``>``: on an exact tie the left (earlier-range) partial keeps
    its index, so an ordered fold over diagonal ranges, in any grouping,
    reproduces the serial walk's tie law."""
    better = right[0] > left[0]
    return (np.where(better, right[0], left[0]),
            np.where(better, right[1], left[1]))


@np.errstate(invalid="ignore")  # NaN/inf windows -> NaN, as the C walk
def _ab_one_side(seed, df_a, dg_a, df_b, dg_b, sig_a, sig_b, mp_a, mpi_a, mp_b, mpi_b,
                 delta: int | None = None, minlag: int = 0):
    """One directional pass of the AB join (reference cympx.pyx:194-237):
    diagonals start at every a-offset ``i`` against b-offset 0.

    ``delta``/``minlag`` support the tiled self-join decomposition: when the
    two inputs are strips of ONE series with global a-start minus b-start =
    ``delta``, every pair on diagonal ``i`` has constant global index
    distance ``delta + i`` — diagonals inside the exclusion band
    ``|delta + i| <= minlag`` are skipped wholesale."""
    pl_a = sig_a.shape[0]
    pl_b = sig_b.shape[0]
    if _native.AVAILABLE:
        _native.ab_one_side_native(seed, df_a, dg_a, df_b, dg_b,
                                   sig_a, sig_b, mp_a, mpi_a, mp_b, mpi_b,
                                   delta=delta, minlag=minlag)
        return
    a_idx = np.arange(pl_a)
    b_idx = np.arange(pl_b)
    for i in range(pl_a):
        if delta is not None and abs(delta + i) <= minlag:
            continue
        L = min(pl_a - i, pl_b)
        if L <= 0:
            break
        c = np.empty(L)
        c[0] = seed[i]
        if L > 1:
            upd = (
                df_a[i + 1 : i + L] * dg_b[1:L]
                + dg_a[i + 1 : i + L] * df_b[1:L]
            )
            c[1:] = seed[i] + np.cumsum(upd)
        corr = c * sig_a[i : i + L] * sig_b[:L]

        m1 = corr > mp_a[i : i + L]
        if m1.any():
            mp_a[i : i + L][m1] = corr[m1]
            mpi_a[i : i + L][m1] = b_idx[:L][m1]
        m2 = corr > mp_b[:L]
        if m2.any():
            mp_b[:L][m2] = corr[m2]
            mpi_b[:L][m2] = a_idx[i : i + L][m2]


def mpx_ab(ts, query, w: int, cross_correlation: bool = False):
    """AB similarity join; returns ``(mp, mpi, mpb, mpib)``.

    Unmatched entries become inf in ED mode (reference cympx.pyx:260-282);
    Pearson values are clamped to <= 1 on output.
    """
    ts = np.ascontiguousarray(ts, dtype="d")
    query = np.ascontiguousarray(query, dtype="d")

    mua, siga = muinvn(ts, w)
    mub, sigb = muinvn(query, w)
    pl_a = mua.shape[0]
    pl_b = mub.shape[0]

    df_a, dg_a = _diff_eqs(ts, mua, w)
    df_b, dg_b = _diff_eqs(query, mub, w)

    mp = np.full(pl_a, -1.0)
    mpi = np.full(pl_a, -1, dtype=np.int64)
    mpb = np.full(pl_b, -1.0)
    mpib = np.full(pl_b, -1, dtype=np.int64)

    seed_ab = _ab_seed(ts, query, mua, mub, w)
    _ab_one_side(seed_ab, df_a, dg_a, df_b, dg_b, siga, sigb, mp, mpi, mpb, mpib)
    seed_ba = _ab_seed(query, ts, mub, mua, w)
    _ab_one_side(seed_ba, df_b, dg_b, df_a, dg_a, sigb, siga, mpb, mpib, mp, mpi)

    # Snap correlations within _SNAP_MARGIN of 1 to exactly 1: the
    # reference's per-diagonal exact-dot-product seeding rounds
    # identical-window pairs to corr >= 1 (then clamps, cympx.pyx:250-254
    # -> distance 0); our vectorized cumsum biases the same pairs a few
    # ulp BELOW 1.  Without the snap, mpdist(ts, ts) returns ~2e-7 instead
    # of the reference's 0.
    mp[mp >= 1.0 - _SNAP_MARGIN] = 1.0
    mpb[mpb >= 1.0 - _SNAP_MARGIN] = 1.0
    np.minimum(mp, 1.0, out=mp)
    np.minimum(mpb, 1.0, out=mpb)
    if not cross_correlation:
        unmatched_a = mp == -1.0
        unmatched_b = mpb == -1.0
        mp = np.sqrt(2.0 * w * (1.0 - mp))
        mpb = np.sqrt(2.0 * w * (1.0 - mpb))
        mp[unmatched_a] = np.inf
        mpb[unmatched_b] = np.inf
    return mp, mpi, mpb, mpib


def tile_pair_partials(strip_a, strip_b, w: int, delta: int, minlag: int):
    """Pearson partial profiles for one tile pair of a SELF-join
    decomposition (SCAMP-style): ``strip_a``/``strip_b`` are overlapping
    slices of one series whose window starts differ by ``delta``
    (a_global - b_global).  Returns (mp_a, mpi_a, mp_b, mpi_b) with
    b-relative / a-relative neighbor indices; the caller rebases to global
    indices and merges BOTH sides into one profile by max-correlation,
    which is what lets a diagonal tile (``delta == 0``) skip the mirror
    pass."""
    strip_a = np.ascontiguousarray(strip_a, dtype="d")
    strip_b = np.ascontiguousarray(strip_b, dtype="d")
    mua, siga = muinvn(strip_a, w)
    mub, sigb = muinvn(strip_b, w)
    df_a, dg_a = _diff_eqs(strip_a, mua, w)
    df_b, dg_b = _diff_eqs(strip_b, mub, w)

    mp_a = np.full(mua.shape[0], -1.0)
    mpi_a = np.full(mua.shape[0], -1, dtype=np.int64)
    mp_b = np.full(mub.shape[0], -1.0)
    mpi_b = np.full(mub.shape[0], -1, dtype=np.int64)

    seed_ab = _ab_seed(strip_a, strip_b, mua, mub, w)
    _ab_one_side(seed_ab, df_a, dg_a, df_b, dg_b, siga, sigb,
                 mp_a, mpi_a, mp_b, mpi_b, delta=delta, minlag=minlag)
    # DIAGONAL tiles (identical strips, delta 0): pass 1's lag-i>0
    # diagonals already update BOTH profile sides of every admissible pair
    # (target x<-y via mp_a, y<-x via mp_b); the mirror pass would
    # recompute the identical values into the swapped arrays — pure
    # duplicate O(tile^2) work, and diagonal tiles are ~2/(T+1) of a T-row
    # decomposition.
    if delta != 0:
        seed_ba = _ab_seed(strip_b, strip_a, mub, mua, w)
        _ab_one_side(seed_ba, df_b, dg_b, df_a, dg_a, sigb, siga,
                     mp_b, mpi_b, mp_a, mpi_a, delta=-delta, minlag=minlag)
    return mp_a, mpi_a, mp_b, mpi_b


def merge_tile_partial(mp, mpi, lo, hi, part_mp, part_mpi, other_lo):
    """Max-correlation merge of one rebased tile partial into the global
    self-join ``(mp, mpi)`` — the single definition of the tile merge law
    (cympx.pyx:104-112 semantics), shared by the serial tiled self-join
    and the distributed absorb so the two can never drift.

    On EXACT correlation ties (constant / periodic windows — real token
    streams repeat exactly) a bare strict-greater merge keeps whichever
    tile happened to land first, making the result depend on tile size
    and visitation order.  The serial self-join walk resolves ties
    deterministically — ascending diagonals with the column side updated
    first mean the CLOSEST partner wins and, at equal distance, the
    smaller index — so the merge applies that law explicitly across
    tiles.  CAVEAT: this makes the merge tie-stable but cannot make the
    tiled result tie-IDENTICAL to the serial walk — a cross-tile pair's
    internal two-pass walk already collapses each entry to one partner
    before the merge sees it, and for the pass-2 side that first
    encounter is the FARTHEST tied candidate (flipping strict to
    non-strict would fix that side and break the other: their iteration
    orders oppose).  The tiled decomposition therefore guarantees exact
    VALUES with deterministic-given-tile-size indices; paths that need
    tie-exact indices (the skew router below its memory threshold, every
    conformance oracle) use the diagonal fan-out, which matches the
    serial walk exactly, ties included."""
    vals = part_mp[: hi - lo]
    idxs = part_mpi[: hi - lo] + other_lo
    seg = slice(lo, hi)
    cur_mp = mp[seg]
    better = vals > cur_mp
    # vals > -1 excludes unmatched partial entries (sentinel mpi=-1 would
    # otherwise be rebased into a bogus index on a -1/-1 "tie").  Exact: a
    # partial can never carry a GENUINE corr of -1.0 with a valid index —
    # every producer (diag walk, native walk, tile pass) updates with
    # strict > against the -1.0 init, so vals == -1.0 always means
    # unmatched
    tie = (vals == cur_mp) & (vals > -1.0)
    if tie.any():
        cur_pi = mpi[seg]
        pos = np.arange(lo, hi, dtype=np.int64)
        nd = np.abs(idxs - pos)
        cd = np.abs(cur_pi - pos)
        better = better | (tie & ((nd < cd)
                                  | ((nd == cd) & (idxs < cur_pi))))
    mp[seg][better] = vals[better]
    mpi[seg][better] = idxs[better]


def tiled_mpx_self(ts, w: int, tile: int):
    """Exact self-join MP via the tiled decomposition: every distance-matrix
    tile touches only two (tile + w - 1)-long strips of the series — the
    memory shape that scales past one worker's RAM (SCAMP, Zimmerman et
    al., SoCC'19 — the decomposition, not the code).  Serial driver for
    conformance; state/chunked.py fans the tile pairs out as Ray tasks."""
    ts = np.ascontiguousarray(ts, dtype="d")
    n = ts.shape[0]
    pl = n - w + 1
    minlag = int(math.ceil(w / 4.0))

    mp = np.full(pl, -1.0)
    mpi = np.full(pl, -1, dtype=np.int64)

    starts = list(range(0, pl, tile))
    for r in starts:
        for c in starts:
            if c < r:
                continue
            # strip covering window starts [r, r+tile) needs tokens
            # [r, min(r+tile-1, pl-1) + w)
            a_lo, a_hi = r, min(r + tile, pl)
            b_lo, b_hi = c, min(c + tile, pl)
            strip_a = ts[a_lo : a_hi - 1 + w]
            strip_b = ts[b_lo : b_hi - 1 + w]
            mp_a, mpi_a, mp_b, mpi_b = tile_pair_partials(
                strip_a, strip_b, w, delta=a_lo - b_lo, minlag=minlag)
            # rebase neighbor indices to global window starts and merge
            merge_tile_partial(mp, mpi, a_lo, a_hi, mp_a, mpi_a, b_lo)
            merge_tile_partial(mp, mpi, b_lo, b_hi, mp_b, mpi_b, a_lo)

    np.minimum(mp, 1.0, out=mp)
    return np.sqrt(2.0 * w * (1.0 - mp)), mpi


def mpx(ts, w: int, query=None, cross_correlation: bool = False,
        n_jobs: int = 1):
    """Profile-dict wrapper mirroring reference algorithms/mpx.py:20-100
    (minus the embedded full series — results at scale are keyed externally).
    ``n_jobs`` is accepted for reference-signature compatibility and ignored:
    parallelism belongs to the Ray layer (state/chunked.py), and results are
    identical at any value."""
    del n_jobs
    is_join = query is not None
    if is_join:
        mp, mpi, _, _ = mpx_ab(ts, query, w, cross_correlation)
    else:
        mp, mpi = mpx_self(ts, w, cross_correlation)
    return {
        # mpb/mpib of a join are NOT in the reference's profile dict
        # (reference algorithms/mpx.py:82-100 returns only the A-side) —
        # call kernels.mpx.mpx_ab directly when the B-side is needed.
        "mp": np.asarray(mp),
        "pi": np.asarray(mpi),
        "rmp": None,
        "rpi": None,
        "lmp": None,
        "lpi": None,
        "metric": "cross_correlation" if cross_correlation else "euclidean",
        "w": w,
        # NOT inverted: the reference's mpx dict really does carry ez=0 for
        # self-joins and ceil(w/4) for joins (algorithms/mpx.py:91), the
        # opposite of its stomp/scrimp dicts — kept for value parity.
        "ez": int(np.ceil(w / 4.0)) if is_join else 0,
        "join": is_join,
        "sample_pct": 1,
        "data": {"ts": np.asarray(ts, dtype="d"),
                 "query": np.asarray(query, dtype="d") if is_join else None},
        "class": "MatrixProfile",
        "algorithm": "mpx",
    }
