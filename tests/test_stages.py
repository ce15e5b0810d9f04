"""Engine stages: tokenization parity, rollup correctness vs a NumPy
oracle, profile stage, gap-fill, codec stages — driver-side (no Ray)."""

import numpy as np
import pyarrow as pa
import pytest

from matrixprofile_1_ray.functions.tokenize import (
    list_column_to_numpy,
    tokenize_text_column,
)
from matrixprofile_1_ray.kernels import mpx
from matrixprofile_1_ray.sources import (
    sequences_table_from_documents,
    synthetic_sequences_table,
)
from matrixprofile_1_ray.stages.codec_stage import (
    decode_batch,
    encode_batch,
    verify_roundtrip_batch,
)
from matrixprofile_1_ray.stages.gapfill import gapfill_batch
from matrixprofile_1_ray.stages.profile import compute_profiles_batch
from matrixprofile_1_ray.stages.rollup import mp_rollup_batch, rollup_batch

SF = "/root/testdata/sf0.001"


def test_tokenize_matches_ord():
    texts = pa.array(["abc", "", "hello world", "x"])
    toks = tokenize_text_column(texts)
    assert toks.to_pylist() == [[97, 98, 99], [], [ord(c) for c in "hello world"], [120]]


def test_tokenize_non_ascii_fallback():
    texts = pa.array(["héllo", "日本"])
    toks = tokenize_text_column(texts)
    assert toks.to_pylist() == [[ord(c) for c in "héllo"], [ord(c) for c in "日本"]]


def test_sequences_from_documents_schema():
    table = sequences_table_from_documents(SF)
    assert [f.name for f in table.schema] == ["doc_id", "tokens", "n_tok", "source"]
    assert table["n_tok"].to_pylist() == [len(t) for t in table["tokens"].to_pylist()]
    # spot-check tokenization against Python ord()
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["text"])
    assert table["tokens"][0].as_py() == [ord(c) for c in docs["text"][0].as_py()]


def test_rollup_matches_numpy_oracle():
    table = synthetic_sequences_table(20, seed=1)
    out = rollup_batch(table, tiers={"1m": 60})
    vals, offs = list_column_to_numpy(table["tokens"])
    df = out.to_pandas()
    for i in (0, 7, 19):
        row = vals[offs[i] : offs[i + 1]].astype("d")
        mine = df[df.doc_id == table["doc_id"][i].as_py()].sort_values("bucket")
        nb = int(np.ceil(len(row) / 60))
        assert len(mine) == nb
        for b in range(nb):
            seg = row[b * 60 : (b + 1) * 60]
            r = mine.iloc[b]
            assert r.t_min == seg.min() and r.t_max == seg.max()
            assert r.t_count == len(seg)
            assert r.t_mean == seg.sum() / len(seg)


def test_mp_rollup_argmin():
    table = synthetic_sequences_table(6, seed=2)
    prof = compute_profiles_batch(table, w=16)
    out = mp_rollup_batch(prof, tiers={"1m": 60}).to_pandas()
    mp_vals, mp_offs = list_column_to_numpy(prof["mp"])
    i = 0
    row = mp_vals[mp_offs[i] : mp_offs[i + 1]]
    mine = out[out.doc_id == prof["doc_id"][i].as_py()].sort_values("bucket")
    for b in range(len(mine)):
        seg = row[b * 60 : (b + 1) * 60]
        assert mine.iloc[b].mp_min == seg.min()
        assert mine.iloc[b].mp_argmin == b * 60 + int(np.argmin(seg))


def test_profile_stage_matches_kernel():
    table = synthetic_sequences_table(5, seed=3)
    prof = compute_profiles_batch(table, w=32)
    vals, offs = list_column_to_numpy(table["tokens"])
    mp_vals, mp_offs = list_column_to_numpy(prof["mp"])
    for i in range(5):
        ts = vals[offs[i] : offs[i + 1]].astype("d")
        direct = mpx(ts, 32)
        np.testing.assert_array_equal(mp_vals[mp_offs[i] : mp_offs[i + 1]],
                                      direct["mp"])


def test_profile_stage_short_rows_flagged():
    table = pa.table({
        "doc_id": ["a", "b"],
        "tokens": [[1, 2, 3], list(range(100))],
        "n_tok": pa.array([3, 100], pa.int32()),
        "source": ["s", "s"],
    })
    prof = compute_profiles_batch(table, w=16)
    assert prof["valid"].to_pylist() == [False, True]
    assert prof["mp"][0].as_py() == []


def test_profile_stage_left_right():
    table = synthetic_sequences_table(3, seed=8)
    prof = compute_profiles_batch(table, w=16, algorithm="stomp", keep_lr=True)
    assert {"lmp", "lpi", "rmp", "rpi"} <= set(prof.column_names)
    row = prof.to_pandas().iloc[0]
    lmp = np.asarray(row.lmp)
    assert np.isinf(lmp[0])  # first window has no left neighbor
    with pytest.raises(ValueError):
        compute_profiles_batch(table, w=16, algorithm="mpx", keep_lr=True)


def test_pmp_anytime_default_windows():
    from matrixprofile_1_ray.stages.pmp import pmp_batch, skimp_windows

    table = synthetic_sequences_table(2, seed=12)
    out = pmp_batch(table, windows=None, sample_pct=0.05).to_pandas()
    doc0 = table["doc_id"][0].as_py()
    n0 = int(table["n_tok"][0].as_py())
    expected = {w for w in skimp_windows(n0, sample_pct=0.05) if n0 >= 2 * w}
    assert set(out[out.doc_id == doc0].w) == expected


def test_codec_stage_roundtrip():
    table = synthetic_sequences_table(10, seed=4)
    enc = encode_batch(table)
    assert "tokens" not in enc.column_names and "tokens_enc" in enc.column_names
    dec = decode_batch(enc)
    assert dec["tokens"].to_pylist() == table["tokens"].to_pylist()
    verified = verify_roundtrip_batch(table)
    assert "tokens_enc" in verified.column_names


def test_gapfill_batch_int_sentinel():
    table = pa.table({
        "doc_id": ["a"],
        "tokens": [[5, -1, -1, 8, -1]],
        "n_tok": pa.array([5], pa.int32()),
        "source": ["s"],
    })
    out = gapfill_batch(table, mode="forward_fill")
    assert out["tokens"].to_pylist() == [[5, 5, 5, 8, 8]]
    out = gapfill_batch(table, mode="linear")
    assert out["tokens"].to_pylist() == [[5, 6, 7, 8, 8]]


def test_planted_motifs_recovered():
    """End-to-end semantics: the motif pairs planted by the synthetic
    generator must be recovered by the profile+motif stages."""
    from matrixprofile_1_ray.sources.sequences import synthetic_sequences_row
    from matrixprofile_1_ray.stages.discover_stage import motifs_batch

    rows, plants = [], {}
    for i in range(12):
        doc_id, tokens, source, p = synthetic_sequences_row(
            seed=77, i=i, motif_frac=1.0, discord_frac=0.0,
            min_len=256, max_len=1024, return_plants=True)
        rows.append((doc_id, tokens, source))
        plants[doc_id] = p["motif"]
    lens = np.array([len(t) for (_d, t, _s) in rows])
    table = pa.table({
        "doc_id": pa.array([d for d, _t, _s in rows], pa.string()),
        "tokens": pa.array([t.tolist() for _d, t, _s in rows],
                           pa.list_(pa.int32())),
        "n_tok": pa.array(lens.astype(np.int32)),
        "source": pa.array([s for _d, _t, s in rows], pa.string()),
    })
    prof = compute_profiles_batch(table, w=32, keep_tokens=True)
    motifs = motifs_batch(prof, k=1).to_pandas()
    recovered = 0
    for doc_id, (a, b) in plants.items():
        if (a, b) == (None, None) or plants[doc_id] is None:
            continue
        row = motifs[motifs.doc_id == doc_id]
        if len(row) == 0:
            continue
        first, second = row.iloc[0].motif_first, row.iloc[0].motif_second
        if abs(first - a) <= 2 and abs(second - b) <= 2:
            recovered += 1
    assert recovered >= 10  # the overlapping-plant edge cases may miss


def test_synthetic_corpus_deterministic():
    a = synthetic_sequences_table(8, seed=42)
    b = synthetic_sequences_table(8, seed=42)
    assert a.equals(b)
    c = synthetic_sequences_table(4, seed=42, start=4)
    assert a.slice(4, 4)["doc_id"].to_pylist() == c["doc_id"].to_pylist()
    assert a.slice(4, 4)["tokens"].to_pylist() == c["tokens"].to_pylist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_min_top2_margin_fails_closed_on_degenerate_rows():
    """Callers drop a doc when margin <= floor, so degenerate inputs must
    come back -inf (dropped), never NaN (NaN <= floor is False -> the doc
    would be KEPT with an argmax the oracle cannot pin)."""
    from matrixprofile_1_ray.stages.slice_rule import min_top2_margin

    # a row whose band is entirely excluded: -inf - -inf = NaN margin
    cb = np.full((3, 3), -np.inf)
    cb[0, 1] = 0.5  # one real candidate elsewhere keeps the matrix mixed
    assert min_top2_margin(cb) == -np.inf

    # profile too short for a top-2 at all
    assert min_top2_margin(np.zeros((1, 1))) == -np.inf

    # healthy input still returns the true minimum gap
    ok = np.array([[0.9, 0.2, 0.1], [0.8, 0.5, 0.3]])
    assert min_top2_margin(ok) == pytest.approx(0.3)


def test_bucket_reduce_nan_bucket_argmin_sentinel():
    """A bucket containing NaN has a NaN min and no matching position —
    the argmin must be the sentinel -1, not int64-max minus the offset."""
    from matrixprofile_1_ray.stages.rollup import bucket_reduce

    vals = np.array([np.nan, np.nan, 1.0, 5.0], dtype="d")
    offsets = np.array([0, 4], dtype=np.int64)
    row, bidx, mins, maxs, sums, counts, argmin = bucket_reduce(
        vals, offsets, 2)
    assert np.isnan(mins[0]) and argmin[0] == -1
    assert mins[1] == 1.0 and argmin[1] == 2


def test_discover_stage_rejects_cross_correlation_profiles():
    """Discord argmax on a Pearson profile would return the most SIMILAR
    windows as discords — the stage must refuse mislabeled metrics."""
    from matrixprofile_1_ray.stages.discover_stage import discords_batch
    from matrixprofile_1_ray.stages.profile import compute_profiles_batch

    table = synthetic_sequences_table(4, seed=11)
    prof = compute_profiles_batch(table, w=16, cross_correlation=True)
    with pytest.raises(ValueError, match="euclidean profiles"):
        discords_batch(prof)


def test_motif_dist_is_the_pair_distance():
    """motif_dist must equal the kernel's min_dist (the mp value at the
    argmin endpoint) — mp at the smaller index alone can be a DIFFERENT
    pair's distance when that index's own nearest neighbor was excluded
    by an earlier rank."""
    from matrixprofile_1_ray.stages.discover_stage import motifs_batch
    from matrixprofile_1_ray.stages.profile import compute_profiles_batch

    table = synthetic_sequences_table(6, seed=3)
    prof = compute_profiles_batch(table, w=16, keep_tokens=True)
    out = motifs_batch(prof, k=3).to_pandas()
    assert len(out) > 0
    from matrixprofile_1_ray.functions.tokenize import list_column_to_numpy
    mp_vals, mp_off = list_column_to_numpy(prof["mp"])
    docs = prof["doc_id"].to_pylist()
    for _, r in out.iterrows():
        i = docs.index(r.doc_id)
        mp = mp_vals[mp_off[i]:mp_off[i + 1]]
        assert r.motif_dist == min(mp[int(r.motif_first)],
                                   mp[int(r.motif_second)])


def test_corpus_motifs_small_batch_forwards_window_kwargs():
    """motif_dist comes from the profile at the CALLER's w, max_n and
    sig2_floor — not from a second pass at the defaults."""
    from matrixprofile_1_ray.kernels.mpx import mpx_self
    from matrixprofile_1_ray.stages.profile import (
        corpus_motifs_small_batch,
        motifs_small_batch,
    )

    table = synthetic_sequences_table(40, seed=7)
    kw = dict(w=8, max_n=200, sig2_floor=1e-2)
    out = corpus_motifs_small_batch(table, **kw)
    assert len(out) > 0
    pairs = motifs_small_batch(table, **kw)
    assert out["doc_id"].to_pylist() == pairs["doc_id"].to_pylist()
    values, offsets = list_column_to_numpy(table["tokens"])
    docs = table["doc_id"].to_pylist()
    for d, first, dist in zip(out["doc_id"].to_pylist(),
                              out["first_idx"].to_pylist(),
                              out["motif_dist"].to_pylist()):
        i = docs.index(d)
        ts = values[offsets[i]:offsets[i + 1]].astype("d")
        assert dist == np.round(mpx_self(ts, 8)[0][first], 4)
