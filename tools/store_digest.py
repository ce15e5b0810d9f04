#!/usr/bin/env python3
"""Print a byte-level digest of a hive-partitioned rollup store.

Every Parquet file under ``store_dir`` is listed as (partition, size,
sha256), where the partition is the file's directory relative to the
store (``kind=token/tier=1m/epoch=0``).  File names are left out: each
write gives its files a random write id.  The sorted set gets one sha256
of its own, so two stores written by different code (or on different
cluster sizes) compare with one line.

Usage: python tools/store_digest.py <store_dir>
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


def store_entries(store_dir: str) -> list:
    """Sorted (partition, size, sha256) of every .parquet file."""
    out = []
    for root, _dirs, names in os.walk(store_dir):
        part = os.path.relpath(root, store_dir)
        for name in names:
            if name.endswith(".parquet"):
                path = os.path.join(root, name)
                out.append((part, os.path.getsize(path), file_sha256(path)))
    return sorted(out)


def store_digest(store_dir: str) -> dict:
    entries = store_entries(store_dir)
    set_hash = hashlib.sha256(
        "\n".join(f"{p}\t{s}\t{h}" for p, s, h in entries).encode()
    ).hexdigest()
    return {"files": len(entries), "bytes": sum(s for _, s, _ in entries),
            "sha256": set_hash, "entries": entries}


def main(argv: list) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    d = store_digest(argv[0])
    print(json.dumps({k: d[k] for k in ("files", "bytes", "sha256")}))
    for part, size, sha in d["entries"]:
        print(f"{part}\t{size}\t{sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
