"""Compiled-walk parity.  The self-join walk — 64-diagonal vector bands
(8 lanes with AVX-512F, 4 with AVX2), the scalar walk elsewhere — and its
vectorized precompute must store the NumPy walk's bits, tie indices
included, on every diagonal range and on every ISA build the host can
run; the AB-join pass matches the NumPy one to fp rounding (seed-first
vs cumsum-then-seed accumulation), with identical neighbor indices on
tie-free data."""

import platform
import re
import shutil
import subprocess

import numpy as np
import pytest

from matrixprofile_1_ray.kernels import _native
from matrixprofile_1_ray.kernels.mpx import (
    _ab_one_side,
    _diff_eqs,
    merge_pearson_partials,
    mpx_ab,
    mpx_diag_range,
    mpx_precompute,
    mpx_self,
)
from matrixprofile_1_ray.kernels.moving_stats import muinvn

needs_gcc = pytest.mark.skipif(not _native.AVAILABLE,
                               reason="no C compiler in this runtime")


def _numpy_only(monkeypatch):
    monkeypatch.setattr(_native, "AVAILABLE", False)


@needs_gcc
def test_self_join_native_matches_numpy(monkeypatch):
    rng = np.random.default_rng(7)
    ts = np.cumsum(rng.standard_normal(8192))
    mp_c, mpi_c = mpx_self(ts, 32)
    _numpy_only(monkeypatch)
    mp_np, mpi_np = mpx_self(ts, 32)
    np.testing.assert_array_equal(mp_c, mp_np)
    np.testing.assert_array_equal(mpi_c, mpi_np)


@needs_gcc
def test_ab_join_native_matches_numpy(monkeypatch):
    rng = np.random.default_rng(9)
    ts = np.cumsum(rng.standard_normal(4096))
    q = np.cumsum(rng.standard_normal(2048))
    got = mpx_ab(ts, q, 32)
    _numpy_only(monkeypatch)
    exp = mpx_ab(ts, q, 32)
    np.testing.assert_allclose(got[0], exp[0], atol=1e-9)
    np.testing.assert_allclose(got[2], exp[2], atol=1e-9)
    np.testing.assert_array_equal(got[1], exp[1])
    np.testing.assert_array_equal(got[3], exp[3])


@needs_gcc
def test_ab_native_exclusion_band(monkeypatch):
    """delta/minlag skipping (the tiled self-join band) must match."""
    rng = np.random.default_rng(11)
    ts = np.cumsum(rng.standard_normal(3000))
    w, minlag = 32, 8
    mu, sig = muinvn(ts, w)
    df, dg = _diff_eqs(ts, mu, w)
    from matrixprofile_1_ray.kernels.mass import exact_sliding_dot_product

    seed = exact_sliding_dot_product(ts, ts[:w]) - w * mu * mu[0]
    pl = sig.shape[0]

    def run():
        mp_a = np.full(pl, -1.0)
        mpi_a = np.full(pl, -1, np.int64)
        mp_b = np.full(pl, -1.0)
        mpi_b = np.full(pl, -1, np.int64)
        _ab_one_side(seed, df, dg, df, dg, sig, sig, mp_a, mpi_a,
                     mp_b, mpi_b, delta=0, minlag=minlag)
        return mp_a, mpi_a, mp_b, mpi_b

    got = run()
    _numpy_only(monkeypatch)
    exp = run()
    np.testing.assert_allclose(got[0], exp[0], atol=1e-9)
    np.testing.assert_array_equal(got[1], exp[1])
    np.testing.assert_allclose(got[2], exp[2], atol=1e-9)
    np.testing.assert_array_equal(got[3], exp[3])


@needs_gcc
def test_native_diag_range_partial_merge():
    """Range-split + merge equals the full run (the chunked fan-out law)."""
    rng = np.random.default_rng(13)
    ts = np.cumsum(rng.standard_normal(4096))
    seed, df, dg, sig, minlag = mpx_precompute(ts, 32)
    pl = sig.shape[0]
    mp_full = np.full(pl, -1.0)
    mpi_full = np.full(pl, -1, np.int64)
    _native.mpx_diag_range_native(minlag + 1, pl, seed, df, dg, sig,
                                  mp_full, mpi_full)
    mid = (minlag + 1 + pl) // 2
    mp_m = np.full(pl, -1.0)
    mpi_m = np.full(pl, -1, np.int64)
    _native.mpx_diag_range_native(minlag + 1, mid, seed, df, dg, sig,
                                  mp_m, mpi_m)
    _native.mpx_diag_range_native(mid, pl, seed, df, dg, sig, mp_m, mpi_m)
    np.testing.assert_array_equal(mp_full, mp_m)
    np.testing.assert_array_equal(mpi_full, mpi_m)


@needs_gcc
def test_serial_mpx_32768_under_2s():
    """The round-1 per-core deficit (4.8s vs reference 1.555s) is closed:
    serial self-join at n=32768 w=32 must run in <= 2.5s."""
    import time

    rng = np.random.default_rng(0)
    ts = np.cumsum(rng.standard_normal(32768))
    mpx_self(ts, 32)  # warm (import, page-in)
    t0 = time.time()
    mpx_self(ts, 32)
    assert time.time() - t0 < 2.5


# --- band walk conformance -------------------------------------------------

BAND = 64  # diagonals per band of the compiled walk
W = 8      # minlag 2: diagonals start at 3


_VOCAB = ("batch part spark line column order small sort fast value scan "
          "a hash slow group agg filter query big key window vector table "
          "customer stream the join data".split())


def _band_rows():
    """Tie-heavy shapes, random rows, a noisy tent, a row with NaN and
    inf points, and a text row.  Constant windows have sig 0, so plateau
    rows tie at +0.0 and -0.0 alike: comparing bits also checks which
    partner's sign of zero was kept.  On the tent, a rising window's
    partners past the peak all correlate negatively, so a diagonal range
    can hand an entry only negative candidates.  A window over a NaN or
    inf has a NaN correlation, which no entry may take.  The text row is
    what the flagship pipeline profiles: the char codes of words drawn
    from a 30-word vocabulary, joined by spaces."""
    rng = np.random.default_rng(17)

    def text(n):
        words = " ".join(rng.choice(_VOCAB, n // 2))
        return np.frombuffer(words.encode(), np.uint8)[:n].astype("d")

    def nan_inf(n):
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.02] = np.nan
        x[rng.random(n) < 0.01] = np.inf
        return x

    return {
        "alphabet": lambda n: rng.integers(0, 3, n).astype("d"),
        "period7": lambda n: np.tile(rng.uniform(size=7), n // 7 + 1)[:n],
        "plateaus": lambda n: np.repeat(rng.integers(0, 4, n), 6)[:n]
        .astype("d"),
        "plateau_noise": lambda n: np.repeat(
            rng.standard_normal(n), rng.integers(1, 12, n))[:n],
        "alternating": lambda n: (-1.0) ** np.arange(n),
        "random": lambda n: rng.standard_normal(n),
        "tent": lambda n: -np.abs(np.arange(n) - n // 2)
        + 0.1 * rng.standard_normal(n),
        "nan_inf": nan_inf,
        "text": text,
    }


def _bits(mp):
    return np.ascontiguousarray(mp).view(np.int64)


def _fresh(pl):
    return np.full(pl, -1.0), np.full(pl, -1, dtype=np.int64)


def _numpy_walk(monkeypatch, ts):
    """Pearson (mp, mpi) of the NumPy walk over every admissible diagonal."""
    with monkeypatch.context() as m:
        m.setattr(_native, "AVAILABLE", False)
        seed, df, dg, sig, minlag = mpx_precompute(ts, W)
        mp, mpi = _fresh(sig.shape[0])
        mpx_diag_range(minlag + 1, sig.shape[0], seed, df, dg, sig, mp, mpi)
    return mp, mpi


def test_nan_inf_row_walks_without_warnings(self_join_path):
    """A row with NaN and inf points runs the precompute, the walk and the
    whole self-join without a RuntimeWarning, on either path."""
    import warnings

    ts = _band_rows()["nan_inf"](300 + W - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seed, df, dg, sig, minlag = mpx_precompute(ts, W)
        mp, mpi = _fresh(sig.shape[0])
        mpx_diag_range(minlag + 1, sig.shape[0], seed, df, dg, sig, mp, mpi)
        mpx_self(ts, W)
        mpx_self(ts, W, cross_correlation=True)



def test_nan_inf_row_ab_join_without_warnings(self_join_path):
    """The AB join (``mpx_ab``, behind MPDist) on a row with NaN and inf
    points raises no RuntimeWarning, on either path."""
    import warnings

    from matrixprofile_1_ray.kernels.mpx import mpx_ab

    ts = _band_rows()["nan_inf"](300 + W - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mpx_ab(ts, ts[::-1], W)
        mpx_ab(ts, ts[::-1], W, cross_correlation=True)
        mpx_ab(ts, np.sin(np.arange(200.0)), W)

# pl below, equal to and just above a band (the first diagonal is 3, so
# pl 67 holds exactly one band), a band plus a narrower one that leaves
# 1-7 diagonals past a multiple of 4 or 8 lanes, one diagonal short of,
# at and one diagonal past 2-9 whole bands (each band's tail rows and the
# next band's first row), several bands
_BAND_PLS = (40, 64, 66, 67, 68, 70, 71, 72, 74, 75, 76, 79, 134, 150,
             *(3 + 64 * k + e for k in range(2, 10) for e in (-1, 0, 1)),
             700)


@pytest.mark.parametrize("name", list(_band_rows()))
def test_band_walk_matches_numpy_walk(self_join_path, monkeypatch, name):
    """The full diagonal range, through mpx_self and mpx_diag_range,
    stores the NumPy walk's bits and indices at every length."""
    for pl in _BAND_PLS:
        ts = _band_rows()[name](pl + W - 1)
        ref_mp, ref_pi = _numpy_walk(monkeypatch, ts)
        seed, df, dg, sig, minlag = mpx_precompute(ts, W)
        mp, mpi = _fresh(pl)
        mpx_diag_range(minlag + 1, pl, seed, df, dg, sig, mp, mpi)
        np.testing.assert_array_equal(_bits(mp), _bits(ref_mp),
                                      err_msg=str(pl))
        np.testing.assert_array_equal(mpi, ref_pi, err_msg=str(pl))
        got_mp, got_pi = mpx_self(ts, W, cross_correlation=True)
        np.testing.assert_array_equal(_bits(got_mp),
                                      _bits(np.minimum(ref_mp, 1.0)))
        np.testing.assert_array_equal(got_pi, ref_pi)


@pytest.mark.parametrize("name", list(_band_rows()))
def test_band_walk_subranges_merge_exactly(self_join_path, monkeypatch,
                                           name):
    """Diagonal ranges whose bounds are not multiples of a band (and some
    narrower than one vector), each walked from the -1 init, give the
    NumPy walk's bits over that range; folded with merge_pearson_partials,
    or walked in turn on one profile, they give the full NumPy walk's
    bits."""
    pl = 700
    ts = _band_rows()[name](pl + W - 1)
    cuts = [3, 4, 6, 9, 70, 131, 200, 263, 264, 391, 600, 697, 699, pl]
    ranges = list(zip(cuts[:-1], cuts[1:]))
    ref_mp, ref_pi = _numpy_walk(monkeypatch, ts)
    seed, df, dg, sig, _ = mpx_precompute(ts, W)
    folded = _fresh(pl)
    in_turn = _fresh(pl)
    for lo, hi in ranges:
        part = _fresh(pl)
        mpx_diag_range(lo, hi, seed, df, dg, sig, *part)
        ref_part = _fresh(pl)
        with monkeypatch.context() as m:
            m.setattr(_native, "AVAILABLE", False)
            mpx_diag_range(lo, hi, seed, df, dg, sig, *ref_part)
        np.testing.assert_array_equal(_bits(part[0]), _bits(ref_part[0]),
                                      err_msg=f"[{lo}, {hi})")
        np.testing.assert_array_equal(part[1], ref_part[1],
                                      err_msg=f"[{lo}, {hi})")
        folded = merge_pearson_partials(folded, part)
        mpx_diag_range(lo, hi, seed, df, dg, sig, *in_turn)
    for mp, mpi in (folded, in_turn):
        np.testing.assert_array_equal(_bits(mp), _bits(ref_mp))
        np.testing.assert_array_equal(mpi, ref_pi)


def test_band_walk_distributed_matches_numpy_walk(ray_session,
                                                  self_join_path,
                                                  monkeypatch):
    """distributed_mpx at 1, 2 and 7 partitions returns the NumPy walk's
    profile and indices on tie-heavy and random rows several bands long."""
    from matrixprofile_1_ray.state.chunked import distributed_mpx

    pl = 900
    for name, draw in _band_rows().items():
        ts = draw(pl + W - 1)
        ref_mp, ref_pi = _numpy_walk(monkeypatch, ts)
        ref_ed = np.sqrt(2.0 * W * (1.0 - np.minimum(ref_mp, 1.0)))
        for parts in (1, 2, 7):
            mp, mpi = distributed_mpx(ts, W, n_partitions=parts)
            np.testing.assert_array_equal(_bits(mp), _bits(ref_ed),
                                          err_msg=f"{name} parts={parts}")
            np.testing.assert_array_equal(mpi, ref_pi,
                                          err_msg=f"{name} parts={parts}")


# --- every ISA build the host can run ---------------------------------------

def _isa_levels():
    """-march=native and its stand-ins for the builds this host can
    execute: AVX2 bands without AVX-512 and the scalar x86-64 walk (an
    AVX-512 host's native build never runs the AVX2 shim).  Levels the
    host lacks are left out, so no build can raise SIGILL."""
    levels = {"native": ["-march=native"]}
    if platform.machine() not in ("x86_64", "AMD64"):
        return levels
    levels["scalar"] = ["-march=x86-64"]
    if re.search(r"^\s*-mavx2\s+\[enabled\]", _native._host_target(),
                 re.M):
        levels["avx2"] = ["-mavx2", "-mno-avx512f"]
    return levels


@pytest.fixture(scope="module")
def isa_builds(tmp_path_factory):
    """{level: ctypes library} of _SRC built with _CFLAGS, -march=native
    replaced by each level of _isa_levels."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler in this runtime")
    out = tmp_path_factory.mktemp("isa_builds")
    c_path = out / "kernels.c"
    c_path.write_text(_native._SRC)
    builds = {}
    for level, march in _isa_levels().items():
        flags = [x for f in _native._CFLAGS
                 for x in (march if f == "-march=native" else [f])]
        so_path = out / f"kernels_{level}.so"
        subprocess.run(["gcc", *flags, "-o", str(so_path), str(c_path),
                        "-lm"], check=True, capture_output=True, timeout=120)
        builds[level] = _native.open_kernels(str(so_path))
    return builds


def _lib_precompute(lib, ts, w):
    """(seed, df, dg, sig) from one build's precompute."""
    ts = np.ascontiguousarray(ts, dtype="d")
    out = np.empty((5, ts.shape[0] - w + 1))
    lib.mpx_precompute_native(ts.ctypes.data, ts.shape[0], w,
                              *(a.ctypes.data for a in out))
    mu, sig, df, dg, seed = out
    return seed, df, dg, sig


def _lib_self_batch(lib, rows, w):
    """Pearson (mp, mpi) per row from one build's mpx_self_batch over the
    rows as one ragged batch."""
    values = np.concatenate(rows)
    offsets = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    pls = [len(r) - w + 1 for r in rows]
    out_offsets = np.cumsum([0] + pls).astype(np.int64)
    mp = np.empty(out_offsets[-1])
    mpi = np.empty(out_offsets[-1], dtype=np.int64)
    scratch = np.empty(5 * max(pls))
    lib.mpx_self_batch(values.ctypes.data, offsets.ctypes.data,
                       out_offsets.ctypes.data, len(rows), w, 1,
                       mp.ctypes.data, mpi.ctypes.data, scratch.ctypes.data)
    return [(mp[a:b], mpi[a:b])
            for a, b in zip(out_offsets[:-1], out_offsets[1:])]


@pytest.mark.parametrize("name", list(_band_rows()))
def test_every_isa_build_matches_numpy_walk(isa_builds, monkeypatch, name):
    """Each build's band walk (mpx_diag_range_native over the NumPy
    precompute) and whole batch entry (its own precompute, walk and clamp)
    store the NumPy walk's bits and indices at every band length, so the
    builds also agree with each other."""
    rows = [_band_rows()[name](pl + W - 1) for pl in _BAND_PLS]
    refs = [_numpy_walk(monkeypatch, ts) for ts in rows]
    with monkeypatch.context() as m:
        m.setattr(_native, "AVAILABLE", False)
        states = [mpx_precompute(ts, W) for ts in rows]
    for level, lib in isa_builds.items():
        batch = _lib_self_batch(lib, rows, W)
        for pl, (ref_mp, ref_pi), state, got in zip(_BAND_PLS, refs, states,
                                                    batch):
            seed, df, dg, sig, minlag = state
            mp, mpi = _fresh(pl)
            lib.mpx_diag_range_native(
                minlag + 1, pl, _native._dptr(seed), _native._dptr(df),
                _native._dptr(dg), _native._dptr(sig), _native._dptr(mp),
                _native._iptr(mpi), pl)
            np.testing.assert_array_equal(_bits(mp), _bits(ref_mp),
                                          err_msg=f"{level} pl={pl}")
            np.testing.assert_array_equal(mpi, ref_pi,
                                          err_msg=f"{level} pl={pl}")
            np.testing.assert_array_equal(_bits(got[0]),
                                          _bits(np.minimum(ref_mp, 1.0)),
                                          err_msg=f"{level} pl={pl}")
            np.testing.assert_array_equal(got[1], ref_pi,
                                          err_msg=f"{level} pl={pl}")


def test_precompute_matches_numpy_at_every_lane_remainder(isa_builds,
                                                          monkeypatch):
    """pl = 1..17 runs the scalar loop; pl = 30..69 runs windows 16 (AVX2)
    or 32 (AVX-512) at a time, the last group overlapping the one before
    at every remainder.  The plateau rows' constant windows straddle a
    vector edge near the start and lie in the last group near the end;
    their value 0.1 (and 1e6 + 0.1) is no dyadic rational, so the window
    mean rounds and only the exact constant check gives sig 0.  seed, df,
    dg and sig carry the NumPy precompute's bits on every build."""
    rng = np.random.default_rng(29)
    for pl in (*range(1, 18), *range(30, 70)):
        n = pl + W - 1
        series = [rng.standard_normal(n), np.cumsum(rng.standard_normal(n))]
        for value in (0.1, 1e6 + 0.1):
            plateau = rng.standard_normal(n) + value
            plateau[5:5 + W + 6] = value
            if pl >= 30:
                plateau[n - W - 6:] = value
            series.append(plateau)
        for ts in series:
            with monkeypatch.context() as m:
                m.setattr(_native, "AVAILABLE", False)
                want = mpx_precompute(ts, W)[:4]
            for level, lib in isa_builds.items():
                got = _lib_precompute(lib, ts, W)
                for g, e, field in zip(got, want, "seed df dg sig".split()):
                    np.testing.assert_array_equal(
                        _bits(g), _bits(e),
                        err_msg=f"{level} pl={pl} {field}")
        if pl >= 12:
            assert not _bits(want[3][5:12]).any()
        if pl >= 30:
            assert not _bits(want[3][-7:]).any()


def test_build_tag_covers_source_flags_and_target():
    """The .so cache key changes with the source, the flags or the host
    target, so a cache shared by hosts of different ISAs never loads a
    foreign build; equal inputs give the same key."""
    src, flags, target = "int f(void);", ["-O2", "-march=native"], "avx2"
    tag = _native.build_tag(src, flags, target)
    assert tag == _native.build_tag(src, list(flags), target)
    assert len(tag) == 16 and int(tag, 16) >= 0
    others = {
        _native.build_tag(src + " ", flags, target),
        _native.build_tag(src, ["-O2"], target),
        _native.build_tag(src, flags, "avx512f"),
        _native.build_tag(src, flags, ""),
    }
    assert tag not in others and len(others) == 4
