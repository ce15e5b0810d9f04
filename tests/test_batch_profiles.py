"""Conformance of the one-call native batch self-join
(``kernels._native.mpx_self_batch``, reached through
``stages.profile.compute_profiles_batch``) against per-row ``mpx_self``
(bit for bit: both run the same C code) and against the gcc-less NumPy
walk (bit for bit too, tie indices included: it sums in the C order)."""

import sys

import numpy as np
import pyarrow as pa
import pytest

from matrixprofile_1_ray.functions.tokenize import list_column_to_numpy
from matrixprofile_1_ray.kernels import _native
from matrixprofile_1_ray.kernels.mpx import (
    mpx_diag_range,
    mpx_precompute,
    mpx_self,
    mpx_self_batch,
)
from matrixprofile_1_ray.stages.profile import compute_profiles_batch

pytestmark = pytest.mark.skipif(not _native.AVAILABLE,
                                reason="no C compiler in this runtime")

W = 16


def _rows(float_tokens: bool):
    """Mixed lengths, rows shorter than 2w in between, and the tie-heavy
    shapes token streams are full of: all-constant, periodic, plateaus."""
    rng = np.random.default_rng(5)
    if float_tokens:
        def draw(n):
            return rng.uniform(size=n)
    else:
        def draw(n):
            return rng.integers(97, 123, n).astype("d")
    return [
        draw(120),
        draw(2 * W - 1),                                   # too short
        np.full(90, 7.0),                                  # all-constant
        np.tile(draw(11), 25),                             # periodic
        np.concatenate([np.full(60, 3.0), draw(40), np.full(60, 3.0)]),
        draw(2 * W),                                       # shortest valid
        draw(5),                                           # too short
        draw(333),
    ]


def _table(rows, value_type=pa.int32(), large=False):
    typ = pa.large_list(value_type) if large else pa.list_(value_type)
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(rows))], pa.string()),
        "source": pa.array(["s"] * len(rows), pa.string()),
        "n_tok": pa.array([len(r) for r in rows], pa.int32()),
        "tokens": pa.array([list(r) for r in rows], typ),
    })


def _flat(prof):
    mp, mp_off = list_column_to_numpy(prof["mp"])
    pi, pi_off = list_column_to_numpy(prof["pi"])
    np.testing.assert_array_equal(mp_off, pi_off)
    return mp, pi, mp_off, prof["valid"].to_numpy(zero_copy_only=False)


def _gccless(monkeypatch, table, **kw):
    with monkeypatch.context() as m:
        m.setattr(sys.modules["matrixprofile_1_ray.kernels._native"],
                  "AVAILABLE", False)
        return compute_profiles_batch(table, w=W, **kw)


def _per_row(table, cross_correlation):
    values, offsets = list_column_to_numpy(table["tokens"])
    mps, pis = [], []
    for i in range(len(table)):
        ts = values[offsets[i]:offsets[i + 1]].astype("d")
        if ts.shape[0] >= 2 * W:
            mp, pi = mpx_self(ts, W, cross_correlation)
            mps.append(mp)
            pis.append(pi)
    if not mps:
        return np.empty(0), np.empty(0, np.int64)
    return np.concatenate(mps), np.concatenate(pis)


def _check(monkeypatch, table, cross_correlation=False):
    got = compute_profiles_batch(table, w=W,
                                 cross_correlation=cross_correlation)
    mp, pi, off, valid = _flat(got)
    assert len(got) == len(table)

    want_mp, want_pi = _per_row(table, cross_correlation)
    np.testing.assert_array_equal(mp, want_mp)
    np.testing.assert_array_equal(pi, want_pi)

    ref = _gccless(monkeypatch, table, cross_correlation=cross_correlation)
    assert ref.schema == got.schema
    r_mp, r_pi, r_off, r_valid = _flat(ref)
    np.testing.assert_array_equal(valid, r_valid)
    np.testing.assert_array_equal(off, r_off)
    # the NumPy walk sums in the C walk's order: equal bit for bit
    np.testing.assert_array_equal(mp, r_mp)
    np.testing.assert_array_equal(pi, r_pi)
    return got


@pytest.mark.parametrize("value_type", [pa.int32(), pa.float64()])
@pytest.mark.parametrize("large", [False, True])
@pytest.mark.parametrize("cross_correlation", [False, True])
def test_batch_matches_per_row_and_gccless(monkeypatch, value_type, large,
                                           cross_correlation):
    float_tokens = value_type == pa.float64()
    table = _table(_rows(float_tokens), value_type, large)
    got = _check(monkeypatch, table, cross_correlation)
    lengths = np.asarray([len(r) for r in _rows(float_tokens)])
    np.testing.assert_array_equal(got["valid"].to_numpy(zero_copy_only=False),
                                  lengths >= 2 * W)


def test_zero_row_batch(monkeypatch):
    table = _table([]).slice(0, 0)
    got = _check(monkeypatch, table)
    assert len(got) == 0


def test_all_rows_shorter_than_2w(monkeypatch):
    rng = np.random.default_rng(3)
    table = _table([rng.integers(0, 9, n) for n in (0, 1, W, 2 * W - 1)])
    got = _check(monkeypatch, table)
    assert not got["valid"].to_numpy(zero_copy_only=False).any()
    assert got["mp"].to_pylist() == [[], [], [], []]


@pytest.mark.parametrize("large", [False, True])
def test_sliced_batch_offsets_not_at_zero(monkeypatch, large):
    table = _table(_rows(False), large=large)
    part = table.slice(2, 4)
    assert part["tokens"].chunk(0).offsets[0].as_py() != 0
    got = _check(monkeypatch, part)
    whole = compute_profiles_batch(table, w=W)
    assert got["mp"].to_pylist() == whole["mp"].slice(2, 4).to_pylist()
    assert got["pi"].to_pylist() == whole["pi"].slice(2, 4).to_pylist()


@pytest.mark.parametrize("float_tokens", [False, True])
def test_precompute_walk_reproduces_mpx_self_exactly(float_tokens):
    """mpx_precompute builds the state mpx_self's batch call builds, so a
    diagonal walk over it (what the Ray fan-out does) reproduces the
    serial profile bit for bit, tie indices included."""
    for ts in _rows(float_tokens):
        if ts.shape[0] < 2 * W:
            continue
        seed, df, dg, sig, minlag = mpx_precompute(ts, W)
        pl = sig.shape[0]
        mp = np.full(pl, -1.0)
        pi = np.full(pl, -1, dtype=np.int64)
        mid = (minlag + 1 + pl) // 2
        mpx_diag_range(minlag + 1, mid, seed, df, dg, sig, mp, pi)
        mpx_diag_range(mid, pl, seed, df, dg, sig, mp, pi)
        np.minimum(mp, 1.0, out=mp)
        want_mp, want_pi = mpx_self(ts, W)
        np.testing.assert_array_equal(np.sqrt(2.0 * W * (1.0 - mp)), want_mp)
        np.testing.assert_array_equal(pi, want_pi)


def test_batch_entry_rejects_inconsistent_offsets(monkeypatch):
    """The C side trusts its bounds; the wrapper must refuse bad ones, and
    the gcc-less batch entry refuses the same ones."""
    _check_batch_bounds(_native.mpx_self_batch)
    with monkeypatch.context() as m:
        m.setattr(sys.modules["matrixprofile_1_ray.kernels._native"],
                  "AVAILABLE", False)
        _check_batch_bounds(mpx_self_batch)


def _check_batch_bounds(batch_entry):
    values = np.arange(100, dtype="d")
    offsets = np.array([0, 60, 100])
    with pytest.raises(ValueError):      # 40 != 60 - 16 + 1
        batch_entry(values, offsets, np.array([0, 40, 40]), W)
    with pytest.raises(ValueError):      # row past the end of values
        batch_entry(values, np.array([0, 60, 120]), np.array([0, 45, 90]), W)
    with pytest.raises(ValueError):
        batch_entry(values, offsets, np.array([0, 60, 100]), 0)
    mp, pi = batch_entry(values, offsets, np.array([0, 45, 70]), W)
    assert mp.shape == pi.shape == (70,)
    # an empty output segment skips its row
    mp, pi = batch_entry(values, offsets, np.array([0, 0, 25]), W)
    np.testing.assert_array_equal(pi, mpx_self(values[60:], W)[1])
