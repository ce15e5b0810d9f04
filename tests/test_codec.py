"""Round-trip invariants for the delta-of-delta / XOR codecs (the F1
per-row invariant: decode(encode(tokens)) == tokens exactly)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixprofile_1_ray.functions import (
    decode_float_xor,
    decode_int_dod,
    encode_float_xor,
    encode_int_dod,
)


@given(st.lists(st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
                max_size=300))
@settings(max_examples=200, deadline=None)
def test_int_roundtrip_hypothesis(values):
    arr = np.array(values, dtype=np.int32)
    np.testing.assert_array_equal(decode_int_dod(encode_int_dod(arr)), arr)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=200))
@settings(max_examples=150, deadline=None)
def test_float_roundtrip_hypothesis(values):
    arr = np.array(values, dtype="d")
    out = decode_float_xor(encode_float_xor(arr))
    np.testing.assert_array_equal(out.view(np.uint64), arr.view(np.uint64))


def test_int_edge_sizes():
    for n in (0, 1, 2, 3):
        arr = np.arange(n, dtype=np.int32) * 7 - 3
        np.testing.assert_array_equal(decode_int_dod(encode_int_dod(arr)), arr)


def test_int_out_of_contract_raises():
    with pytest.raises(OverflowError):
        encode_int_dod(np.array([0, 2**40], dtype=np.int64))
    with pytest.raises(OverflowError):
        encode_int_dod(np.array([-(2**35), 0, 1], dtype=np.int64))
    # full int32 range stays in contract
    lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
    arr = np.array([lo, hi, lo, hi, 0], dtype=np.int32)
    np.testing.assert_array_equal(decode_int_dod(encode_int_dod(arr)), arr)


def test_compression_ratio_on_smooth_tokens():
    """Token-like smooth streams must compress well below 4 bytes/point."""
    rng = np.random.default_rng(0)
    base = np.cumsum(rng.integers(-3, 4, size=10_000)).astype(np.int32)
    enc = encode_int_dod(base)
    assert len(enc) < 2.0 * len(base)  # < 2 bytes/pt vs 4 raw

    # gauge-like float stream: piecewise constant with occasional steps
    steps = rng.integers(0, 50, size=10_000).astype("d")
    gauge = np.repeat(steps[::10], 10)[:10_000]
    encf = encode_float_xor(gauge)
    assert len(encf) < 3.0 * len(gauge)  # < 3 bytes/pt vs 8 raw


def test_ascii_token_stream_roundtrip():
    text = "the quick brown fox jumps over the lazy dog " * 40
    arr = np.array([ord(c) for c in text], dtype=np.int32)
    enc = encode_int_dod(arr)
    np.testing.assert_array_equal(decode_int_dod(enc), arr)
    assert len(enc) < 2.2 * len(arr)


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01", "sf0.1"])
def test_corpus_roundtrip_every_gapfilled_row(sf):
    """decode(encode(t)) == t, list for list, for every row the flagship
    chain produces (tokenize -> forward-fill gap-fill) from the whole
    test corpus.  The pipelines do not run this check, so this test is
    its evidence."""
    import pyarrow.parquet as pq

    from matrixprofile_1_ray.sources.sequences import tokenize_documents_batch
    from matrixprofile_1_ray.stages.codec_stage import (
        decode_batch,
        encode_batch,
    )
    from matrixprofile_1_ray.stages.gapfill import gapfill_batch

    docs = pq.read_table(f"/root/testdata/{sf}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    seqs = gapfill_batch(tokenize_documents_batch(docs))
    assert len(seqs) == len(docs) > 0
    back = decode_batch(encode_batch(seqs))
    assert back["tokens"].to_pylist() == seqs["tokens"].to_pylist()
