#!/usr/bin/env python3
"""Print a digest of a hive-partitioned rollup store.

Every Parquet file under ``store_dir`` is listed as (partition, size,
sha256), where the partition is the file's directory relative to the
store (``kind=token/tier=1m/epoch=0``).  File names are left out: each
write gives its files a random write id.  The sorted set gets one sha256
of its own, so two stores written by different code (or on different
cluster sizes) compare with one line.

With ``--content`` each file is listed as (partition, rows, sha256 of
its decoded rows) instead: the hash covers the schema without its
metadata and every column's values in row order, not the encoding.  Two
stores that hold the same rows in the same files compare equal this way
even when one is Snappy and the other zstd.

Usage: python tools/store_digest.py [--content] <store_dir>
"""

from __future__ import annotations

import hashlib
import json
import os
import sys


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def table_sha256(table) -> str:
    """sha256 of a table's rows: field names and types (no metadata),
    then each column's validity and values.  Numeric values hash by
    their bits (nulls as zero), so -0.0 and NaN payloads count."""
    import pyarrow as pa
    import pyarrow.compute as pc

    h = hashlib.sha256()
    for fld in table.schema:
        h.update(f"{fld.name}:{fld.type};".encode())
    for col in (c.combine_chunks() for c in table.columns):
        h.update(pc.is_valid(col).to_numpy(zero_copy_only=False).tobytes())
        if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
            zero = pa.scalar(0, col.type)
            h.update(pc.fill_null(col, zero).to_numpy().tobytes())
        else:
            h.update(json.dumps(col.to_pylist(), default=str).encode())
    return h.hexdigest()


def file_content_sha256(path: str) -> tuple:
    """(rows, sha256 of the decoded rows) of one Parquet file."""
    import pyarrow.parquet as pq

    table = pq.ParquetFile(path).read()
    return table.num_rows, table_sha256(table)


def store_entries(store_dir: str, content: bool = False) -> list:
    """Sorted (partition, size, sha256) of every .parquet file, or
    (partition, rows, content sha256) with ``content``."""
    out = []
    for root, _dirs, names in os.walk(store_dir):
        part = os.path.relpath(root, store_dir)
        for name in names:
            if name.endswith(".parquet"):
                path = os.path.join(root, name)
                if content:
                    out.append((part, *file_content_sha256(path)))
                else:
                    out.append((part, os.path.getsize(path),
                                file_sha256(path)))
    return sorted(out)


def store_digest(store_dir: str, content: bool = False) -> dict:
    entries = store_entries(store_dir, content)
    set_hash = hashlib.sha256(
        "\n".join(f"{p}\t{s}\t{h}" for p, s, h in entries).encode()
    ).hexdigest()
    size = "rows" if content else "bytes"
    return {"files": len(entries), size: sum(s for _, s, _ in entries),
            "sha256": set_hash, "entries": entries}


def main(argv: list) -> int:
    content = argv[:1] == ["--content"]
    args = argv[1:] if content else argv
    if len(args) != 1 or not os.path.isdir(args[0]):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    d = store_digest(args[0], content)
    print(json.dumps({k: v for k, v in d.items() if k != "entries"}))
    for part, size, sha in d["entries"]:
        print(f"{part}\t{size}\t{sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
