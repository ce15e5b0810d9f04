"""Codec batch functions: tokens <-> Gorilla-style binary columns.

``encode_batch`` replaces the ragged tokens column with an Arrow binary
column (one compressed stream per row); ``decode_batch`` inverts it.
``verify_roundtrip_batch`` asserts decode(encode(tokens)) == tokens per row;
no pipeline runs it (the store keeps rollups only), and tests/test_codec.py
checks the invariant over every gap-filled row of the test corpora.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.codec import decode_int_dod, encode_int_dod
from ..functions.tokenize import list_column_to_numpy, numpy_to_list_column


def encode_batch(batch: pa.Table, value_col: str = "tokens",
                 out_col: str = "tokens_enc") -> pa.Table:
    values, offsets = list_column_to_numpy(batch[value_col])
    blobs = [encode_int_dod(values[offsets[i] : offsets[i + 1]])
             for i in range(len(batch))]
    enc = pa.array(blobs, type=pa.binary())
    batch = batch.drop_columns([value_col])
    return batch.append_column(out_col, enc)


def decode_batch(batch: pa.Table, enc_col: str = "tokens_enc",
                 out_col: str = "tokens") -> pa.Table:
    arrs = [decode_int_dod(blob.as_py()) for blob in batch[enc_col].combine_chunks()]
    lens = np.fromiter((a.shape[0] for a in arrs), count=len(arrs), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    flat = np.concatenate(arrs) if arrs else np.empty(0, np.int32)
    col = numpy_to_list_column(flat, offsets, value_type=pa.int32())
    batch = batch.drop_columns([enc_col])
    return batch.append_column(out_col, col)


def verify_roundtrip_batch(batch: pa.Table, value_col: str = "tokens") -> pa.Table:
    """Assert the compression invariant per row; passes the batch through
    with the encoded column ``tokens_enc`` attached."""
    values, offsets = list_column_to_numpy(batch[value_col])
    blobs = []
    for i in range(len(batch)):
        row = values[offsets[i] : offsets[i + 1]]
        blob = encode_int_dod(row)
        if not np.array_equal(decode_int_dod(blob), row):
            raise AssertionError(
                f"codec round-trip mismatch for doc_id={batch['doc_id'][i]}")
        blobs.append(blob)
    return batch.append_column("tokens_enc", pa.array(blobs, type=pa.binary()))

