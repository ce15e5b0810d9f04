"""Optional compiled self-join and AB-join kernels (ctypes + gcc,
self-contained).

The reference's per-core throughput comes from compiled Cython scalar walks
(reference cympx.pyx:30-119, 122-284); the pure-NumPy diagonal kernel pays
~10 memory passes per diagonal (np.cumsum alone is ~40% of the serial
time).  This module closes that per-core gap with a compiled streaming
walk, without adding a build step or a dependency: the C source below is
compiled AT IMPORT with the system gcc (``-march=native``) into a per-user
0700 ``~/.cache`` directory, keyed by source, flags and host target
(``build_tag``), and loaded via ctypes.
If no compiler is present (or anything else fails) ``AVAILABLE`` is False
and kernels/mpx.py, the only module that reads the flag, runs its NumPy
walk instead.  So there are two self-join paths: this compiled walk, and
the NumPy walk as fallback and conformance reference.

Dispatch: whenever ``AVAILABLE`` is set, EVERY self-join takes the
compiled path, whatever its length — ``mpx_self_batch`` does a whole
ragged batch of rows (precompute, walk, clamp, ED conversion) in one call,
and ``mpx_precompute_native`` gives the diagonal fan-out
(state/chunked.py) the very same per-series state, so a fanned-out
profile equals the serial one bit for bit, tie indices included.

The self-join walk: a scalar walk of one diagonal is one dependent chain
of adds (about 4 cycles per cell).  Where the host has vectors the walk
goes 64 diagonals at a time in lockstep over the row index (SCAMP's
diagonal-blocked CPU tiling, Zimmerman et al., SoCC'19): 8 lanes x 8
vectors with AVX-512F, 4 x 16 with AVX2, one vector op updating a chain
per lane.  The band's column entries are contiguous, and the row entry
takes only the band's best candidate, found by a horizontal max and one
bit per lane.  Every row of a band runs at the band's width, its
covariances and correlations in registers: the rows where all 64
diagonals are live without masks, and the rest (the band's first row,
its last 63 rows, every row of a band narrower than 64 diagonals) under
lane masks that end each diagonal at its last row, so a short series,
whose bands are mostly tail, costs about what a long one does per cell.
``band_row`` and ``walk_band`` are written once, against a small per-ISA
shim (lane count, plain and masked loads and stores, compare to bitmask,
min/max, horizontal max); the AVX-512 shim compares into ``__mmask8``
and loads and stores under it through gcc's builtins.  The precompute's
window loops run LANES windows per vector, four vectors at a time.
Whole ``mpx_self_batch`` calls, precompute included, w = 32, one core of
a 2.0 GHz AVX-512 Xeon, ns per pl^2/2 cells; n rows are random walks,
batched to about 4e7 cells a call, and sf0.1 is its corpus's 4 876
profiled documents (median 295 tokens) in one call:

    n          AVX-512   AVX2   scalar
    300           0.62   0.93     2.35
    577           0.53   0.80     1.90
    2 048         0.44   0.68     1.56
    8 192         0.41   0.64     1.42
    32 768        0.37   0.63     1.47
    49 152        0.39   0.63     1.40
    sf0.1         0.59   0.89     1.97

Without AVX2 every diagonal runs the scalar walk.

Arithmetic note: the C precompute sums each window directly (mean, then
squared deviations, exactly zero on constant windows) and seeds every
diagonal with an exact dot product, summed in the pass over the
deviations; each diagonal accumulates ``c`` seed-first per element (the
reference's update order, cympx.pyx:85-93), in a band lane as in the
scalar walk.  The NumPy self-join walk
(kernels/mpx.py) does the same sums in the same order, vectorized across
windows instead of looped.  Ties follow one explicit law on every path —
larger value, then the nearer partner, then the smaller index; an exact
-1.0 never replaces the -1 init — which is what the serial walk's
ascending diagonals, column side first and strict ``>`` amount to, so the
two self-join paths return the same profiles bit for bit, tie indices
included.  The NumPy AB-join pass keeps its own summation order and
agrees with the compiled one to fp rounding (~1e-13).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

_SRC = r"""
#include <math.h>
#include <stdint.h>

/* Tie law of the self-join walk: does partner p of entry k beat the
   current holder cur at an exactly equal correlation?  The serial walk
   (ascending diagonals, column side first, strict >) keeps the nearer
   partner, then the smaller index, and never lets a tie replace the -1
   init; stated explicitly, it lets a walk meet an entry's candidates in
   any order and still store the same bits. */
static inline int tie_wins(int64_t k, int64_t p, int64_t cur)
{
    if (cur < 0)
        return 0;
    int64_t dp = p > k ? p - k : k - p, dc = cur > k ? cur - k : k - cur;
    return dp < dc || (dp == dc && p < cur);
}

/* The vector shim: everything the band walk and the precompute need of
   the host's vectors, so that both are written once.  A vd holds LANES
   doubles and a vi LANES int64 indices; arithmetic on them is gcc's vector
   extension.  GE/GT/EQ compare lanewise into a vmask, which BITS turns
   into one bit per lane, and LIVE(n) sets lanes 0 .. n - 1 (n >= 1);
   VMIN(a, b) is a < b ? a : b and VMAX(a, b) is a > b ? a : b per lane
   (the scalar walk's own selects, NaN included); HMAX(a) puts the largest
   of a's (non-NaN) lanes in every lane; LDM loads the lanes m sets and
   takes the rest from x, faultless past the end of an array;
   STORE_D/STORE_IDX store v's lanes where m is set, and no others;
   VSEL(m, a, b) is m ? a : b.  AVX-512 compares straight into a __mmask8
   and loads and stores under it, through gcc's builtins (no immintrin.h:
   parsing it alone takes about 0.17 s, half the build). */
#if defined(__AVX512F__)
#define LANES 8
typedef double vd __attribute__((vector_size(64)));
typedef long long vi __attribute__((vector_size(64)));
typedef double vd_u __attribute__((vector_size(64), aligned(8), may_alias));
typedef unsigned char vmask;
#define MNONE ((vmask)0)
/* 0xff: every lane; 4: _MM_FROUND_CUR_DIRECTION */
#define VCMP(a, b, pred) __builtin_ia32_cmppd512_mask(a, b, pred, 0xff, 4)
#define GE(a, b) VCMP(a, b, 29) /* _CMP_GE_OQ */
#define GT(a, b) VCMP(a, b, 30) /* _CMP_GT_OQ */
#define EQ(a, b) VCMP(a, b, 0)  /* _CMP_EQ_OQ */
#define BITS(m) ((int)(m))
#define LIVE(n) ((vmask)((n) >= LANES ? 0xff : (1u << (n)) - 1))
#define VMIN(a, b) __builtin_ia32_minpd512_mask(a, b, a, 0xff, 4)
#define VMAX(a, b) __builtin_ia32_maxpd512_mask(a, b, a, 0xff, 4)
#define VSQRT(a) __builtin_ia32_sqrtpd512_mask(a, a, 0xff, 4)
#define VSEL(m, a, b) __builtin_ia32_blendmpd_512_mask(b, a, m)
#define LDM(p, m, x) __builtin_ia32_loadupd512_mask(p, x, m)
#define STORE_D(p, m, v) __builtin_ia32_storeupd512_mask(p, v, m)
#define STORE_IDX(p, m, v) \
    __builtin_ia32_storedqudi512_mask((long long *)(p), v, m)
static inline vd vset1(double x) { return (vd){x, x, x, x, x, x, x, x}; }
static inline vi vset1i(int64_t x) { return (vi){x, x, x, x, x, x, x, x}; }
static inline vd HMAX(vd a)
{
    a = VMAX(a, __builtin_shuffle(a, (vi){4, 5, 6, 7, 0, 1, 2, 3}));
    a = VMAX(a, __builtin_shuffle(a, (vi){2, 3, 0, 1, 6, 7, 4, 5}));
    return VMAX(a, __builtin_shuffle(a, (vi){1, 0, 3, 2, 5, 4, 7, 6}));
}
#elif defined(__AVX2__)
#define LANES 4
typedef double vd __attribute__((vector_size(32)));
typedef long long vi __attribute__((vector_size(32)));
typedef double vd_u __attribute__((vector_size(32), aligned(8), may_alias));
typedef vi vmask; /* all-ones lanes where true */
#define MNONE ((vmask){0})
#define GE(a, b) ((a) >= (b))
#define GT(a, b) ((a) > (b))
#define EQ(a, b) ((a) == (b))
#define BITS(m) __builtin_ia32_movmskpd256((vd)(m))
#define LIVE(n) ((vmask)((vi){0, 1, 2, 3} < vset1i(n)))
#define VMIN(a, b) __builtin_ia32_minpd256(a, b)
#define VMAX(a, b) __builtin_ia32_maxpd256(a, b)
#define VSQRT(a) __builtin_ia32_sqrtpd256(a)
#define VSEL(m, a, b) ((vd)(((vi)(a) & (m)) | ((vi)(b) & ~(m))))
#define LDM(p, m, x) \
    VSEL(m, __builtin_ia32_maskloadpd256((const vd *)(p), m), x)
#define STORE_D(p, m, v) __builtin_ia32_maskstorepd256((vd *)(p), m, v)
#define STORE_IDX(p, m, v) __builtin_ia32_maskstoreq256((vi *)(p), m, v)
static inline vd vset1(double x) { return (vd){x, x, x, x}; }
static inline vi vset1i(int64_t x) { return (vi){x, x, x, x}; }
static inline vd HMAX(vd a)
{
    a = VMAX(a, __builtin_shuffle(a, (vi){2, 3, 0, 1}));
    return VMAX(a, __builtin_shuffle(a, (vi){1, 0, 3, 2}));
}
#endif

#if defined(LANES)
#define BAND_VECS (64 / LANES) /* a band is 64 diagonals */
#define LD(p) ((vd)*(const vd_u *)(p))
#define ST(p, v) (*(vd_u *)(p) = (v))

/* The column entries of band row j that a lane's cc ties: each goes
   through tie_wins (an entry a lane just took holds partner j itself,
   which tie_wins never replaces).  Rare off tie-heavy rows, so compiled
   once, out of line. */
static __attribute__((noinline)) void
band_ties(int64_t j, int64_t k, int64_t rem, const vd *c, vd sigj,
          const double *sig, double *mp, int64_t *mpi)
{
    for (int v = 0; LANES * v < rem; v++) {
        const int64_t o = k + LANES * v;
        const vmask live = LIVE(rem - LANES * v);
        vd cc = VMIN(vset1(1.0), c[v] * sigj * LDM(sig + o, live,
                                                   vset1(NAN)));
        for (int bits = BITS(EQ(cc, LDM(mp + o, live, vset1(0.0)))); bits;
             bits &= bits - 1) {
            int i = __builtin_ctz(bits);
            if (tie_wins(o + i, j, mpi[o + i])) {
                mp[o + i] = cc[i];
                mpi[o + i] = j;
            }
        }
    }
}

/* Row j of a band walk: lane i of vector v is diagonal
   k - j + LANES v + i, whose row entry is j and whose column entry is
   k + LANES v + i.  A tail row (tail set: a band's first row, every row
   of a band narrower than 64 diagonals, and the last 63 rows of every
   band) walks only its live lanes, those of the band's width whose
   column entry is below pl: a vector wholly past them is skipped, and a
   partly live one loads under its LIVE mask, its other lanes taking a
   NaN corr, which no entry ever takes.  Every loop over the vectors is
   unrolled, so the band's c and the row's corr stay in registers. */
static inline __attribute__((always_inline)) void
band_row(int64_t j, int64_t k, int update, int tail, int width, int64_t pl,
         vd *c, const double *df, const double *dg, const double *sig,
         double *mp, int64_t *mpi)
{
    const vd dfj = vset1(df[j]), dgj = vset1(dg[j]), sigj = vset1(sig[j]),
             mpj = vset1(mp[j]), one = vset1(1.0), zero = vset1(0.0),
             nan = vset1(NAN);
    const vi jv = vset1i(j);
    /* the live lanes are lanes 0 .. rem - 1 */
    const int64_t rem = !tail ? LANES * BAND_VECS
                              : pl - k < width ? pl - k : width;
    const int live_vecs = (int)((rem + LANES - 1) / LANES);
    vmask tie = MNONE;
    vd best = vset1(-INFINITY), corr[BAND_VECS];
#pragma GCC unroll 16
    for (int v = 0; v < BAND_VECS && v < live_vecs; v++) {
        const int64_t o = k + LANES * v;
        const vmask live = tail ? LIVE(rem - LANES * v) : MNONE;
        if (update)
            c[v] += tail ? dfj * LDM(dg + o, live, zero)
                               + LDM(df + o, live, zero) * dgj
                         : dfj * LD(dg + o) + LD(df + o) * dgj;
        corr[v] = c[v] * sigj * (tail ? LDM(sig + o, live, nan)
                                      : LD(sig + o));
        best = VMAX(corr[v], best);  /* a NaN corr never counts */
        /* VMIN(1, x) is x > 1 ? 1 : x, the column entry's clamp */
        vd cc = VMIN(one, corr[v]),
           m = tail ? LDM(mp + o, live, zero) : LD(mp + o);
        vmask gt = GT(cc, m);
        tie |= EQ(cc, m);
        STORE_D(mp + o, gt, cc);
        STORE_IDX(mpi + o, gt, jv);
    }
    if (BITS(tie)) {
        vd cs[BAND_VECS];  /* a copy, so that c never leaves registers */
#pragma GCC unroll 16
        for (int v = 0; v < BAND_VECS; v++)
            cs[v] = c[v];
        band_ties(j, k, rem, cs, sigj, sig, mp, mpi);
    }
    if (BITS(GE(best, mpj))) {
        /* the row entry's one candidate: the band's largest corr x, at
           the lowest lane (nearest partner) among equals; the serial
           walk, meeting them one by one, keeps the same one.  Each
           vector's lanes equal to x go into one bit per lane of the
           band, whose lowest set bit is that lane */
        const vd x = HMAX(best);
        uint64_t at = 0;
#pragma GCC unroll 16
        for (int v = 0; v < BAND_VECS && v < live_vecs; v++)
            at |= (uint64_t)BITS(EQ(corr[v], x)) << (LANES * v);
        const int p = __builtin_ctzll(at);
        double xp = x[0];
        if (xp == 0.0) {
            /* equal non-zero doubles have equal bits; a zero takes the
               sign of the lane's own corr */
            double row[LANES * BAND_VECS];
#pragma GCC unroll 16
            for (int v = 0; v < BAND_VECS && v < live_vecs; v++)
                ST(row + LANES * v, corr[v]);
            xp = row[p];
        }
        if (xp > mp[j] || (xp == mp[j] && tie_wins(j, k + p, mpi[j]))) {
            mp[j] = xp;
            mpi[j] = k + p;
        }
    }
}

/* Diagonals d0 .. d0 + width - 1 (width <= 64) walked in lockstep over
   the row index j (SCAMP's diagonal-blocked CPU tiling), from row 0 to
   the last row of diagonal d0.  Each lane streams its diagonal with the scalar walk's own
   sum order, so every corr has the same bits; the band's column entries
   are contiguous, so the column merge is one compare and masked store per
   vector, and the row entry takes only the band's best candidate, kept by
   one max per vector.  Ties go through tie_wins: the band reaches a column
   entry's candidates farthest partner first.  The rows where all 64 lanes
   are live take band_row at a constant width and without masks; every
   other row is a tail row. */
static void walk_band(int64_t d0, int width, int64_t pl, const double *seed,
                      const double *df, const double *dg, const double *sig,
                      double *mp, int64_t *mpi)
{
    vd c[BAND_VECS];
#pragma GCC unroll 16
    for (int v = 0; v < BAND_VECS; v++)
        c[v] = LANES * v < width
                   ? LDM(seed + d0 + LANES * v, LIVE(width - LANES * v),
                         vset1(0.0))
                   : vset1(0.0);
    const int64_t full_end = width == LANES * BAND_VECS
                                 ? pl - d0 - LANES * BAND_VECS + 1 : 1;
    for (int64_t j = 0; j < pl - d0; j++)
        if (j > 0 && j < full_end)
            band_row(j, d0 + j, 1, 0, LANES * BAND_VECS, pl, c, df, dg, sig,
                     mp, mpi);
        else
            band_row(j, d0 + j, j > 0, 1, width, pl, c, df, dg, sig, mp,
                     mpi);
}
#endif

#if !defined(LANES)
/* Stream diagonal d from its seed c (row 0, which takes no update): the
   row entry keeps the raw value, the column entry the clamped one, each
   merged by max-correlation under tie_wins. */
static void walk_diag(int64_t d, double c, int64_t pl, const double *df,
                      const double *dg, const double *sig, double *mp,
                      int64_t *mpi)
{
    for (int64_t j = 0; j < pl - d; j++) {
        if (j > 0)
            c += df[j] * dg[d + j] + df[d + j] * dg[j];
        double corr = c * sig[j] * sig[d + j];
        /* >= first: one predictable branch, as cheap as a bare > */
        if (corr >= mp[j]
            && (corr > mp[j] || tie_wins(j, d + j, mpi[j]))) {
            mp[j] = corr;
            mpi[j] = d + j;
        }
        double cc = corr > 1.0 ? 1.0 : corr;
        if (cc >= mp[d + j]
            && (cc > mp[d + j] || tie_wins(d + j, j, mpi[d + j]))) {
            mp[d + j] = cc;
            mpi[d + j] = j;
        }
    }
}
#endif

/* Self-join diagonals [d_lo, d_hi) into the Pearson profile (mp, mpi):
   bands of 64 diagonals where the host has vectors (8 lanes x 8 with
   AVX-512F, 4 x 16 with AVX2) and one narrower band over the rest, else
   the scalar walk.  Every path stores the serial walk's bits. */
void mpx_diag_range_native(int64_t d_lo, int64_t d_hi, const double *seed,
                           const double *df, const double *dg,
                           const double *sig, double *mp, int64_t *mpi,
                           int64_t pl)
{
    if (d_hi > pl)
        d_hi = pl;
#if defined(LANES)
    for (int64_t d = d_lo; d < d_hi; d += LANES * BAND_VECS)
        walk_band(d, d_hi - d < LANES * BAND_VECS ? (int)(d_hi - d)
                                                  : LANES * BAND_VECS,
                  pl, seed, df, dg, sig, mp, mpi);
#else
    for (int64_t d = d_lo; d < d_hi; d++)
        walk_diag(d, seed[d], pl, df, dg, sig, mp, mpi);
#endif
}

#if defined(LANES)
/* PRE_VECS vectors of consecutive windows at a time: each lane's window
   sum is one chain of dependent adds, so one vector alone leaves the
   adders waiting on it */
#define PRE_VECS 4
#define GROUP (LANES * PRE_VECS)
#define LAST_GROUP(i, pl) ((i) + GROUP <= (pl) ? (i) : (pl) - GROUP)

/* mu, sig and seed of the GROUP windows from ts + i on, mu0 being window
   0's mean.  A window's mean, squared deviations and dot product with
   window 0 are summed in the scalar loop's order, the last two in one
   pass.  A constant window of value a has ssq at most
   w (w u a (1 + w u))^2 (u = 2^-53: its mean is a to w u), far below
   16 w^3 u^2 mu^2 + DBL_MIN, so only a vector with an ssq that small is
   checked for constant windows, value by value. */
static void window_state(const double *ts, int64_t i, int64_t w, double mu0,
                         double *mu, double *sig, double *seed)
{
    const double *x = ts + i;
    const vd zero = vset1(0.0), one = vset1(1.0), wv = vset1((double)w),
             tol = vset1(16.0 * w * w * w * 0x1p-106);
    vd s[PRE_VECS], ssq[PRE_VECS], c[PRE_VECS];
#pragma GCC unroll 4
    for (int u = 0; u < PRE_VECS; u++)
        s[u] = ssq[u] = c[u] = zero;
    for (int64_t k = 0; k < w; k++)
#pragma GCC unroll 4
        for (int u = 0; u < PRE_VECS; u++)
            s[u] += LD(x + LANES * u + k);
#pragma GCC unroll 4
    for (int u = 0; u < PRE_VECS; u++)
        s[u] /= wv;  /* the mean */
    for (int64_t k = 0; k < w; k++) {
        const vd t0 = vset1(ts[k]);
#pragma GCC unroll 4
        for (int u = 0; u < PRE_VECS; u++) {
            const vd xk = LD(x + LANES * u + k), dev = xk - s[u];
            ssq[u] += dev * dev;
            c[u] += xk * t0;
        }
    }
#pragma GCC unroll 4
    for (int u = 0; u < PRE_VECS; u++) {
        const double *xu = x + LANES * u;
        vd q = ssq[u];
        if (BITS(GE(tol * (s[u] * s[u]) + vset1(0x1p-1022), q))) {
            vmask constant = EQ(LD(xu), LD(xu));  /* NaN lanes are not */
            for (int64_t k = 1; k < w; k++)
                constant &= EQ(LD(xu + k), LD(xu));
            q = VSEL(constant, zero, q);
        }
        ST(mu + i + LANES * u, s[u]);
        ST(sig + i + LANES * u, VSEL(GT(q, zero), one / VSQRT(q), zero));
        ST(seed + i + LANES * u, c[u] - (wv * s[u]) * vset1(mu0));
    }
}
#endif

/* Per-series self-join state over the pl = n - w + 1 windows of ts:
   moving mean mu and inverse centered norm sig (each window summed
   directly; sig is exactly 0 on a constant window, like muinvn), the
   df/dg difference terms (cympx.pyx:76-80) and the covariance of every
   window against window 0 by exact dot products (the diagonal seeds).
   A series of GROUP windows or more runs them GROUP at a time, LANES per
   vector, each lane summing its window in the scalar loop's order; a
   shorter one takes the scalar loop. */
void mpx_precompute_native(const double *ts, int64_t n, int64_t w,
                           double *mu, double *sig, double *df, double *dg,
                           double *seed)
{
    int64_t pl = n - w + 1, i = 0, seeded = 0;
#if defined(LANES)
    if (pl >= GROUP) {
        double s0 = 0.0;
        for (int64_t k = 0; k < w; k++)
            s0 += ts[k];
        /* the last group ends at window pl - 1, overlapping the one
           before: a window's state depends on nothing else, so both
           store the same */
        for (; i < pl; i += GROUP)
            window_state(ts, LAST_GROUP(i, pl), w, s0 / w, mu, sig, seed);
        seeded = pl;
    }
#endif
    for (; i < pl; i++) {
        const double *x = ts + i;
        double s = 0.0;
        int constant = 1;
        for (int64_t k = 0; k < w; k++) {
            s += x[k];
            constant &= x[k] == x[0];
        }
        double m = s / w;
        double ssq = 0.0;
        if (!constant)
            for (int64_t k = 0; k < w; k++)
                ssq += (x[k] - m) * (x[k] - m);
        mu[i] = m;
        sig[i] = ssq > 0.0 ? 1.0 / sqrt(ssq) : 0.0;
    }
    df[0] = 0.0;
    dg[0] = 0.0;
    for (int64_t j = 1; j < pl; j++) {
        df[j] = 0.5 * (ts[j + w - 1] - ts[j - 1]);
        dg[j] = (ts[j + w - 1] - mu[j]) + (ts[j - 1] - mu[j - 1]);
    }
    for (i = seeded; i < pl; i++) {
        double c = 0.0;
        for (int64_t k = 0; k < w; k++)
            c += ts[i + k] * ts[k];
        seed[i] = c - ((double)w * mu[i]) * mu[0];
    }
}

/* Self-join profiles of a ragged batch in one call.  Row r is
   values[offsets[r]:offsets[r+1]]; its profile goes to
   mp_out/mpi_out[out_offsets[r]:out_offsets[r+1]], and a row with an
   empty output segment is skipped (the caller checked every other
   segment holds n - w + 1 entries).  scratch holds 5 * (longest pl)
   doubles.  Unmatched entries stay -1 (Pearson) before conversion. */
void mpx_self_batch(const double *values, const int64_t *offsets,
                    const int64_t *out_offsets, int64_t n_rows, int64_t w,
                    int64_t cross_correlation, double *mp_out,
                    int64_t *mpi_out, double *scratch)
{
    int64_t minlag = (w + 3) / 4;  /* ceil(w / 4) */
    for (int64_t r = 0; r < n_rows; r++) {
        int64_t pl = out_offsets[r + 1] - out_offsets[r];
        if (pl <= 0)
            continue;
        double *mu = scratch, *sig = mu + pl, *df = sig + pl,
               *dg = df + pl, *seed = dg + pl;
        mpx_precompute_native(values + offsets[r], pl + w - 1, w,
                              mu, sig, df, dg, seed);
        double *mp = mp_out + out_offsets[r];
        int64_t *mpi = mpi_out + out_offsets[r];
        for (int64_t j = 0; j < pl; j++) { mp[j] = -1.0; mpi[j] = -1; }
        mpx_diag_range_native(minlag + 1, pl, seed, df, dg, sig, mp, mpi, pl);
        /* final merge clamp (cympx.pyx:104-112), then Pearson -> ED */
        int64_t j = 0;
#if defined(LANES)
        for (; j + LANES <= pl; j += LANES) {
            const vd one = vset1(1.0), p = VMIN(one, LD(mp + j));
            ST(mp + j, cross_correlation
                           ? p : VSQRT(vset1(2.0 * w) * (one - p)));
        }
#endif
        for (; j < pl; j++) {
            double p = mp[j] > 1.0 ? 1.0 : mp[j];
            mp[j] = cross_correlation ? p : sqrt((2.0 * w) * (1.0 - p));
        }
    }
}

/* One directional AB-join pass (reference cympx.pyx:194-237): diagonals
   start at every a-offset i against b-offset 0.  has_delta/minlag
   implement the tiled self-join exclusion band. */
void ab_one_side_native(const double *seed, const double *df_a,
                        const double *dg_a, const double *df_b,
                        const double *dg_b, const double *sig_a,
                        const double *sig_b, double *mp_a, int64_t *mpi_a,
                        double *mp_b, int64_t *mpi_b, int64_t pl_a,
                        int64_t pl_b, int64_t has_delta, int64_t delta,
                        int64_t minlag)
{
    for (int64_t i = 0; i < pl_a; i++) {
        if (has_delta) {
            int64_t gd = delta + i;
            if (gd < 0) gd = -gd;
            if (gd <= minlag) continue;
        }
        int64_t L = pl_a - i < pl_b ? pl_a - i : pl_b;
        if (L <= 0) break;
        double c = seed[i];
        for (int64_t j = 0; j < L; j++) {
            if (j > 0)
                c += df_a[i + j] * dg_b[j] + dg_a[i + j] * df_b[j];
            double corr = c * sig_a[i + j] * sig_b[j];
            if (corr > mp_a[i + j]) { mp_a[i + j] = corr; mpi_a[i + j] = j; }
            if (corr > mp_b[j]) { mp_b[j] = corr; mpi_b[j] = i + j; }
        }
    }
}
"""

AVAILABLE = False
_lib = None


def _cache_dir() -> str:
    """Per-user 0700 cache dir — a world-writable /tmp path would let
    another local user plant a .so at the predictable source-hash name."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "mpf1ray_native")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        if os.stat(path).st_uid != os.getuid():
            raise PermissionError(path)
    except Exception:
        # fall back to a fresh private tempdir (no reuse across processes)
        path = tempfile.mkdtemp(prefix="mpf1ray_native_")
    return path


# -march=native: the band walk needs AVX2 (8 lanes with AVX-512F) and
# compiles only where the host has it, so the build is host-specific
# (build_tag).  No fast-math and no fused multiply-add (gcc contracts
# a*b + c where the target has FMA), so every sum rounds like the
# reference's and the NumPy walk's
_CFLAGS = ["-O2", "-march=native", "-ffp-contract=off", "-shared", "-fPIC"]


def _host_target() -> str:
    """What -march=native means on this host: gcc's resolved target
    options (architecture, ISA extensions, tuning)."""
    return subprocess.run(
        ["gcc", "-march=native", "-Q", "--help=target"], check=True,
        capture_output=True, text=True, timeout=60).stdout


def build_tag(src: str, cflags, target: str) -> str:
    """Cache key of a compiled kernel: it covers the source, the flags and
    the host target, so a cache shared by hosts with different ISAs never
    loads a foreign build."""
    return hashlib.sha1("\0".join([src, " ".join(cflags), target])
                        .encode()).hexdigest()[:16]


def _build() -> str:
    tag = build_tag(_SRC, _CFLAGS, _host_target())
    cache_dir = _cache_dir()
    so_path = os.path.join(cache_dir, f"kernels_{tag}.so")
    if os.path.exists(so_path) and os.stat(so_path).st_uid == os.getuid():
        return so_path
    c_path = os.path.join(cache_dir, f"kernels_{tag}.c")
    with open(c_path, "w") as f:
        f.write(_SRC)
    # per-pid temp name: many Ray workers may compile concurrently; the
    # final rename is atomic so every loader sees a complete .so
    tmp_path = f"{so_path}.{os.getpid()}.tmp"
    subprocess.run(
        ["gcc", *_CFLAGS, "-o", tmp_path, c_path, "-lm"],
        check=True, capture_output=True, timeout=60)
    os.replace(tmp_path, so_path)
    return so_path


def open_kernels(so_path: str):
    """ctypes handle of a compiled kernel library, its entry points
    declared."""
    lib = ctypes.CDLL(so_path)
    dp = ctypes.POINTER(ctypes.c_double)
    ip = ctypes.POINTER(ctypes.c_int64)
    lib.mpx_diag_range_native.argtypes = [
        ctypes.c_int64, ctypes.c_int64, dp, dp, dp, dp, dp, ip,
        ctypes.c_int64]
    lib.mpx_diag_range_native.restype = None
    lib.ab_one_side_native.argtypes = [
        dp, dp, dp, dp, dp, dp, dp, dp, ip, dp, ip,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64]
    lib.ab_one_side_native.restype = None
    vp, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.mpx_precompute_native.argtypes = [vp, i64, i64] + [vp] * 5
    lib.mpx_precompute_native.restype = None
    lib.mpx_self_batch.argtypes = [vp, vp, vp, i64, i64, i64, vp, vp, vp]
    lib.mpx_self_batch.restype = None
    return lib


def _load():
    global AVAILABLE, _lib
    try:
        _lib = open_kernels(_build())
        AVAILABLE = True
    except Exception:
        AVAILABLE = False


_load()

_DP = ctypes.POINTER(ctypes.c_double)
_IP = ctypes.POINTER(ctypes.c_int64)


def _dptr(a: np.ndarray):
    return a.ctypes.data_as(_DP)


def _iptr(a: np.ndarray):
    return a.ctypes.data_as(_IP)


def mpx_diag_range_native(d_lo: int, d_hi: int, seed, df, dg, sig, mp, mpi):
    """In-place native diagonal walk; arrays must be contiguous float64 /
    int64 (they are — allocated by the callers)."""
    _lib.mpx_diag_range_native(
        d_lo, d_hi, _dptr(seed), _dptr(df), _dptr(dg), _dptr(sig),
        _dptr(mp), _iptr(mpi), sig.shape[0])
    return mp, mpi


def ab_one_side_native(seed, df_a, dg_a, df_b, dg_b, sig_a, sig_b,
                       mp_a, mpi_a, mp_b, mpi_b,
                       delta=None, minlag: int = 0):
    _lib.ab_one_side_native(
        _dptr(seed), _dptr(df_a), _dptr(dg_a), _dptr(df_b), _dptr(dg_b),
        _dptr(sig_a), _dptr(sig_b), _dptr(mp_a), _iptr(mpi_a),
        _dptr(mp_b), _iptr(mpi_b), sig_a.shape[0], sig_b.shape[0],
        0 if delta is None else 1, 0 if delta is None else delta, minlag)


def mpx_precompute_native(ts, w: int):
    """(seed, df, dg, sig) of one series — the state ``mpx_self_batch``
    builds for each row."""
    ts = np.ascontiguousarray(ts, dtype="d")
    if not 1 <= w <= ts.shape[0]:
        raise ValueError("window must be in [1, len(ts)]")
    pl = ts.shape[0] - w + 1
    out = np.empty((5, pl))
    mu, sig, df, dg, seed = out
    _lib.mpx_precompute_native(ts.ctypes.data, ts.shape[0], w, mu.ctypes.data,
                               sig.ctypes.data, df.ctypes.data,
                               dg.ctypes.data, seed.ctypes.data)
    return seed, df, dg, sig


def checked_batch(values, offsets, out_offsets, w: int):
    """``(values, offsets, out_offsets)`` of a ragged self-join batch as
    contiguous float64 / int64, after checking that every computed row
    lies inside ``values`` and has exactly ``n - w + 1`` output entries
    (ValueError otherwise).  An empty output segment skips its row."""
    values = np.ascontiguousarray(values, dtype="d")
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    out_offsets = np.ascontiguousarray(out_offsets, dtype=np.int64)
    pl = np.diff(out_offsets)
    if w < 1:
        raise ValueError("window must be at least 1")
    if (offsets.shape[0] != out_offsets.shape[0] or out_offsets[0] != 0
            or np.any(pl < 0)
            or np.any((pl != 0) & (pl != np.diff(offsets) - w + 1))
            or offsets.min() < 0 or offsets.max() > values.shape[0]):
        raise ValueError("each computed row needs n - w + 1 output "
                         "entries and its values inside the buffer")
    return values, offsets, out_offsets


def mpx_self_batch(values, offsets, out_offsets, w: int,
                   cross_correlation: bool = False):
    """Self-join profiles of every row of a ragged batch in one native call
    (contract: kernels/mpx.py:mpx_self_batch).  ``mp`` is ED unless
    ``cross_correlation`` (then Pearson, -1 where unmatched)."""
    # the C side trusts these bounds, so check them here (vectorized)
    values, offsets, out_offsets = checked_batch(values, offsets,
                                                 out_offsets, w)
    total = int(out_offsets[-1])
    mp = np.empty(total)
    mpi = np.empty(total, dtype=np.int64)
    if total:
        scratch = np.empty(5 * int(np.diff(out_offsets).max()))
        _lib.mpx_self_batch(values.ctypes.data, offsets.ctypes.data,
                            out_offsets.ctypes.data,
                            out_offsets.shape[0] - 1, w,
                            int(bool(cross_correlation)), mp.ctypes.data,
                            mpi.ctypes.data, scratch.ctypes.data)
    return mp, mpi
