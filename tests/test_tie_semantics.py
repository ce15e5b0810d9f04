"""Exact-tie semantics across the MPX execution paths.

Token streams repeat exactly (constant runs, periodic patterns), so tied
correlations are the NORM on real corpora, not an edge case.  The law the
serial walk implements: ascending diagonals + column side first per step
=> the CLOSEST partner wins a tie, and at equal distance the smaller
index.  distributed_mpx (the diagonal fan-out) must match it exactly;
the SCAMP-tiled decomposition guarantees exact VALUES and applies the
same law at its cross-tile merges, but its in-tile two-pass walk
collapses ties before the merge sees them, so its tie INDICES are only
deterministic-given-tile-size (documented in merge_tile_partial).
"""

import numpy as np
import pytest

from matrixprofile_1_ray.kernels.mpx import mpx_self, tiled_mpx_self

W = 16


def _tie_cases():
    rng = np.random.default_rng(11)
    return {
        "constant": np.full(1200, -1.0),
        "periodic": np.tile(rng.uniform(size=40), 30),
        "steps": np.repeat(rng.integers(0, 3, 24).astype("d"), 50),
        "plateaus": np.concatenate([np.full(500, 5.0),
                                    rng.uniform(size=200),
                                    np.full(500, 5.0)]),
    }


def test_serial_tie_law_closest_partner_wins():
    """On an all-constant series every admissible pair ties: entry i's
    partner must be its closest admissible neighbor, preferring the
    smaller index at equal distance."""
    ts = np.full(400, 3.0)
    mp, pi = mpx_self(ts, W, False)
    minlag = int(np.ceil(W / 4.0))
    pl = ts.shape[0] - W + 1
    for i in range(pl):
        want = i - (minlag + 1) if i >= minlag + 1 else i + minlag + 1
        assert pi[i] == want, (i, pi[i], want)


@pytest.mark.parametrize("name", list(_tie_cases().keys()))
def test_distributed_mpx_tie_exact(ray_session, name):
    """The diagonal fan-out matches the serial walk EXACTLY on tie-heavy
    series — values and indices — at several partition counts."""
    from matrixprofile_1_ray.state.chunked import distributed_mpx

    ts = _tie_cases()[name]
    mp_s, pi_s = mpx_self(ts, W, False)
    for parts in (3, 7, 16, 20):
        mp_d, pi_d = distributed_mpx(ts, W, n_partitions=parts)
        np.testing.assert_allclose(mp_d, mp_s, rtol=0, atol=0)
        np.testing.assert_array_equal(pi_d, pi_s)


@pytest.mark.parametrize("name", list(_tie_cases().keys()))
def test_tiled_values_exact_ties_lawful(name):
    """The tiled decomposition: VALUES exactly equal the serial walk;
    every tie index points at a partner of the SAME correlation (the
    in-tile collapse may pick a farther tied partner — documented)."""
    ts = _tie_cases()[name]
    mp_s, pi_s = mpx_self(ts, W, False)
    for tile in (128, 300):
        mp_t, pi_t = tiled_mpx_self(ts, W, tile=tile)
        # each tile re-seeds its cumsum: ~1e-13 corr error, amplified to
        # sqrt(2w * 1e-13) ~ 2e-6 in ED where distances approach 0
        np.testing.assert_allclose(mp_t, mp_s, rtol=0, atol=2e-6)
        # where indices differ, the tiled partner must be genuinely tied:
        # recompute its distance and compare to the serial profile value
        diff = np.nonzero((pi_t != pi_s) & (pi_t >= 0))[0]
        for i in diff[:50]:
            a = ts[i : i + W]
            b = ts[pi_t[i] : pi_t[i] + W]
            sa, sb = a.std(), b.std()
            if sa == 0 or sb == 0:
                # constant windows: kernel semantics give them identical
                # profile values; any constant partner is a lawful tie
                assert sb == sa
                continue
            corr = np.dot((a - a.mean()) / sa, (b - b.mean()) / sb) / W
            d = np.sqrt(max(0.0, 2.0 * W * (1.0 - min(corr, 1.0))))
            np.testing.assert_allclose(d, mp_s[i], rtol=0, atol=5e-6)


def test_tiled_merge_law_keeps_closest_across_tiles():
    """The cross-tile merge law itself: a farther tied partner arriving
    from a later tile must not displace a closer one (and vice versa)."""
    from matrixprofile_1_ray.kernels.mpx import merge_tile_partial

    pl = 10
    mp = np.full(pl, -1.0)
    mpi = np.full(pl, -1, dtype=np.int64)
    # first partial: entry 0 tied at corr 0 with partner 8 (distance 8)
    part_mp = np.array([0.0])
    part_mpi = np.array([8], dtype=np.int64)
    merge_tile_partial(mp, mpi, 0, 1, part_mp, part_mpi, 0)
    assert mpi[0] == 8
    # second partial: same corr, partner 5 (distance 5) -> must replace
    merge_tile_partial(mp, mpi, 0, 1, np.array([0.0]),
                       np.array([5], dtype=np.int64), 0)
    assert mpi[0] == 5
    # third: same corr, farther partner 9 -> must NOT replace
    merge_tile_partial(mp, mpi, 0, 1, np.array([0.0]),
                       np.array([9], dtype=np.int64), 0)
    assert mpi[0] == 5
    # equal distance, smaller index wins: partner at 5 vs new at 5 on the
    # other side of entry 5
    mp5 = np.full(pl, -1.0)
    mpi5 = np.full(pl, -1, dtype=np.int64)
    # partner 8, distance 3
    merge_tile_partial(mp5, mpi5, 5, 6, np.array([0.0]),
                       np.array([8], dtype=np.int64), 0)
    # partner 2, distance 3
    merge_tile_partial(mp5, mpi5, 5, 6, np.array([0.0]),
                       np.array([2], dtype=np.int64), 0)
    assert mpi5[5] == 2
    # unmatched (-1) partials never plant a bogus rebased index
    mpu = np.full(pl, -1.0)
    mpiu = np.full(pl, -1, dtype=np.int64)
    merge_tile_partial(mpu, mpiu, 0, 1, np.array([-1.0]),
                       np.array([-1], dtype=np.int64), 7)
    assert mpiu[0] == -1 and mpu[0] == -1.0


def test_exact_anticorrelation_unmatched_on_every_path(self_join_path):
    """corr == exactly -1.0 (exact window negation) is never recorded:
    the walk's strict > against the -1.0 init skips it, on the compiled
    walk and on the NumPy walk alike, through the serial entry (mpx_self)
    and through a direct diagonal walk.
    ts = (-1)^j with w=16 makes every odd-shift pair an EXACT float -1.0
    (mean 0, ssq 16, sig 1/4 — all dyadic), and n = w + minlag + 1 leaves
    window 0 exactly one admissible partner, the -1.0 one."""
    from matrixprofile_1_ray.kernels.mpx import (
        mpx_diag_range,
        mpx_precompute,
    )

    w = 16
    minlag = int(np.ceil(w / 4.0))
    n = w + minlag + 1
    ts = np.array([(-1.0) ** j for j in range(n)])
    pl = n - w + 1

    # serial entry (the batch call on one row)
    mp_m, pi_m = mpx_self(ts, w, True)
    np.testing.assert_array_equal(pi_m, np.full(pl, -1))
    np.testing.assert_array_equal(mp_m, np.full(pl, -1.0))

    # diagonal walk on the same input
    seed, df, dg, sig, _ = mpx_precompute(ts, w)
    mp_d = np.full(pl, -1.0)
    pi_d = np.full(pl, -1, dtype=np.int64)
    mpx_diag_range(minlag + 1, pl, seed, df, dg, sig, mp_d, pi_d)
    np.testing.assert_array_equal(pi_d, pi_m)
    np.testing.assert_array_equal(mp_d, mp_m)
