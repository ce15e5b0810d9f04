"""Sequences-table sources.

Constructors for the BASELINE.json input_hint table
``(doc_id: string, tokens: list<int32>, n_tok: int32, source: string)``:

* :func:`sequences_from_documents` — deterministic derivation from the
  driver's ``documents.parquet`` (char code points; oracle-expressible in
  DuckDB, see functions/tokenize.py), used by the correctness gate.
* :func:`sequences_from_jsonl` / :func:`sequences_from_csv` — the same
  derivation over JSONL(.gz) / CSV(.gz) documents corpora (sharded
  directories welcome), byte-identical to the Parquet path.
* :func:`synthetic_sequences_table` — the FIXTURES.md F1 corpus: seeded
  per-row RNG, log-uniform lengths, Zipf-skewed sources, planted motifs and
  discords; used by kernels-at-scale tests and the bench harness.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.tokenize import tokenize_text_column

VOCAB = 50257
SOURCES = [f"src{i}" for i in range(8)]
_ZIPF_WEIGHTS = 1.0 / np.arange(1, len(SOURCES) + 1) ** 1.2


def tokenize_documents_batch(batch: pa.Table) -> pa.Table:
    """documents(doc_id,text,source) -> sequences batch; zero-copy tokens."""
    tokens = tokenize_text_column(batch["text"])
    return pa.table({
        "doc_id": batch["doc_id"].cast(pa.string()),
        "tokens": tokens,
        "n_tok": pc.list_value_length(tokens).cast(pa.int32()),
        "source": batch["source"],
    })


def sequences_from_documents(sf_dir: str):
    """Lazy Ray Dataset of sequences derived from documents.parquet
    (columns pruned at the read).

    The read splits its output into 2 x cluster CPUs blocks so the
    stages downstream can use every core: one file reads as one block
    otherwise, and Ray's default read parallelism would give a large
    file up to 200 blocks (so a store written from it, more files)."""
    import ray

    from ..io.readers import read_parquet_clean

    if not ray.is_initialized():
        ray.init()  # the session the read would start by itself
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "source"],
        override_num_blocks=2 * int(ray.cluster_resources().get("CPU", 4)))
    return ds.map_batches(tokenize_documents_batch, batch_format="pyarrow")


def _project_documents(ds, source_default: str):
    """Shared projection of a row-oriented documents read (JSONL/CSV) into
    sequences: missing OR per-row-null ``source`` becomes
    ``source_default`` (string-typed whatever the reader inferred), then
    the same tokenization as the Parquet path."""
    def project(batch: pa.Table) -> pa.Table:
        if "source" not in batch.column_names:
            src = pa.array([source_default] * len(batch), pa.string())
        else:
            # a file where only SOME rows carry source parses as a column
            # with nulls; and JSON/CSV may infer a non-string type
            src = pc.fill_null(batch["source"].cast(pa.string()),
                               source_default)
        batch = pa.table({"doc_id": batch["doc_id"],
                          "text": batch["text"], "source": src})
        return tokenize_documents_batch(batch)

    return ds.map_batches(project, batch_format="pyarrow")


def sequences_from_jsonl(path, *, source_default: str = "jsonl",
                         arrow_open_stream_args: dict | None = None):
    """Lazy Ray Dataset of sequences from a JSONL corpus (one
    ``{doc_id, text[, source]}`` object per line) — the standard
    interchange layout of large text-corpus pipelines, tokenized
    identically to the Parquet path so downstream operators cannot tell
    the formats apart.

    JSON is row-oriented, so unlike Parquet the read cannot prune columns
    or push predicates — the projection happens immediately after parse
    and nothing else of the record survives the first batch hop.  Rows
    without a ``source`` field (or with a null one) get
    ``source_default``.  Pass ``arrow_open_stream_args={"compression":
    "gzip"}`` for ``.jsonl.gz`` shards."""
    import ray.data

    kwargs = {}
    if arrow_open_stream_args:
        kwargs["arrow_open_stream_args"] = arrow_open_stream_args
    return _project_documents(ray.data.read_json(path, **kwargs),
                              source_default)


def sequences_from_csv(path, *, source_default: str = "csv",
                       arrow_open_stream_args: dict | None = None):
    """Lazy Ray Dataset of sequences from a CSV documents corpus
    (``doc_id,text[,source]`` header) — same projection + tokenization as
    the JSONL and Parquet paths.  Column types are PINNED to string: CSV
    type inference would otherwise turn numeric-looking text (or doc_id)
    into int64 and break the cross-format contract.  Pass
    ``arrow_open_stream_args={"compression": "gzip"}`` for ``.csv.gz``
    shards."""
    import ray.data
    from pyarrow import csv as pacsv

    kwargs = {"convert_options": pacsv.ConvertOptions(
        column_types={"doc_id": pa.string(), "text": pa.string(),
                      "source": pa.string()})}
    if arrow_open_stream_args:
        kwargs["arrow_open_stream_args"] = arrow_open_stream_args
    return _project_documents(ray.data.read_csv(path, **kwargs),
                              source_default)


def sequences_table_from_documents(sf_dir: str) -> pa.Table:
    """Driver-side (no Ray) variant for unit tests and DuckDB cross-checks."""
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    return tokenize_documents_batch(docs)


def parquet_head(path: str, n: int, columns: list[str]) -> pa.Table:
    """First ``n`` file-order rows of a Parquet file, streamed — never
    materializes the file on the driver (at 100 TB this touches the first
    row group(s) of one shard).  Accumulates batches until ``n`` rows:
    ``iter_batches`` never coalesces across row groups, so a single
    ``next()`` would silently under-deliver on files whose first row
    group is smaller than ``n``.  A zero-row file yields a typed-empty
    table."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    batches, have = [], 0
    for batch in pf.iter_batches(batch_size=n, columns=columns):
        batches.append(batch)
        have += len(batch)
        if have >= n:
            break
    if not batches:
        return pf.schema_arrow.empty_table().select(columns)
    return pa.Table.from_batches(batches).slice(0, n)


def iter_docs_lex(sf_dir: str, columns=("doc_id", "text"),
                  chunk: int = 512):
    """Yield documents in LEXICOGRAPHIC doc_id order as per-chunk tables,
    WITHOUT materializing the text column on the driver: one doc_id-only
    column read establishes the global order (ids are tiny next to text),
    then each chunk's rows are fetched via Parquet predicate pushdown.
    The yielded ``doc_id`` column is cast to string (the engines' shared
    ``CAST(doc_id AS VARCHAR)`` convention).  Deterministic fixture
    pickers stop iterating as soon as their rule is satisfied, so only
    the consumed prefix of the corpus ever leaves storage."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    raw_ids = pq.read_table(path, columns=["doc_id"])["doc_id"].to_pylist()
    order = sorted(range(len(raw_ids)), key=lambda i: str(raw_ids[i]))
    dataset = pads.dataset(path)
    cols = list(columns)
    for k in range(0, len(order), chunk):
        sel = order[k : k + chunk]
        # positional take: prunes to the row groups holding these indices
        # (a value-isin filter re-scans the whole corpus once per chunk),
        # returns each row exactly once even when doc_id VALUES repeat,
        # and preserves the requested (lexicographic) index order
        tab = dataset.take(pa.array(sel, pa.int64()), columns=cols)
        sid = [str(x) for x in tab["doc_id"].to_pylist()]
        yield tab.set_column(
            tab.schema.get_field_index("doc_id"), "doc_id",
            pa.array(sid, pa.string()))


def head_sequences_table(sf_dir: str, n: int) -> pa.Table:
    """First ``n`` file-order rows as a tokenized sequences table WITHOUT
    materializing the corpus on the driver."""
    docs = parquet_head(f"{sf_dir}/documents.parquet", n,
                        ["doc_id", "text", "source"])
    return tokenize_documents_batch(docs)


def _row_rng(seed: int, doc_id: str) -> np.random.Generator:
    return np.random.default_rng((seed << 32) ^ zlib.crc32(doc_id.encode()))


def synthetic_sequences_row(seed: int, i: int, motif_frac: float = 0.3,
                            discord_frac: float = 0.2,
                            min_len: int = 64, max_len: int = 4096,
                            return_plants: bool = False):
    """One deterministic synthetic row (FIXTURES.md F1).  With
    ``return_plants`` the planted motif/discord offsets come back too, so
    recovery tests can assert the pipeline finds what was planted."""
    # Zipf-skewed source pick, deterministic per row index
    src_rng = np.random.default_rng((seed << 16) ^ i)
    source = SOURCES[src_rng.choice(len(SOURCES), p=_ZIPF_WEIGHTS / _ZIPF_WEIGHTS.sum())]
    doc_id = f"{source}-{i:08d}"
    rng = _row_rng(seed, doc_id)

    n = int(np.exp(rng.uniform(np.log(min_len), np.log(max_len))))
    # smooth token walk so delta-of-delta compression has realistic structure
    tokens = np.cumsum(rng.integers(-40, 41, size=n)) + VOCAB // 2
    tokens = np.clip(tokens, 0, VOCAB - 1).astype(np.int32)

    plants = {"motif": None, "discord": None}
    if n >= 128 and rng.random() < motif_frac:
        motif = rng.integers(0, VOCAB, size=32).astype(np.int32)
        a = int(rng.integers(0, n - 96))
        b = int(rng.integers(a + 40, n - 32))
        tokens[a : a + 32] = motif
        tokens[b : b + 32] = motif
        plants["motif"] = (a, b)
    if n >= 128 and rng.random() < discord_frac:
        d = int(rng.integers(0, n - 32))
        tokens[d : d + 32] = rng.integers(0, VOCAB, size=32)
        plants["discord"] = d
    if return_plants:
        return doc_id, tokens, source, plants
    return doc_id, tokens, source


def synthetic_sequences_table(num_rows: int, seed: int = 42,
                              start: int = 0, **kwargs) -> pa.Table:
    """Rows [start, start+num_rows) of the synthetic corpus as one Arrow
    table — the generator is addressable by row range so Ray tasks can each
    build their own shard without coordination."""
    ids, toks, srcs = [], [], []
    for i in range(start, start + num_rows):
        doc_id, tokens, source = synthetic_sequences_row(seed, i, **kwargs)
        ids.append(doc_id)
        toks.append(tokens)
        srcs.append(source)
    lens = np.array([len(t) for t in toks], dtype=np.int64)
    offsets64 = np.concatenate(([0], np.cumsum(lens)))
    if offsets64.size and offsets64[-1] > np.iinfo(np.int32).max:
        # ListArray offsets are int32; a silent wrap would corrupt the
        # column — ask for smaller blocks instead
        raise ValueError(
            f"block holds {offsets64[-1]} tokens, exceeding the int32 "
            "list-offset limit; generate with a smaller rows_per_block")
    offsets = offsets64.astype(np.int32)
    flat = np.concatenate(toks) if toks else np.empty(0, np.int32)
    tokens_col = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                          pa.array(flat, type=pa.int32()))
    return pa.table({
        "doc_id": pa.array(ids, type=pa.string()),
        "tokens": tokens_col,
        "n_tok": pa.array(lens, type=pa.int32()),
        "source": pa.array(srcs, type=pa.string()),
    })


def synthetic_sequences_dataset(num_rows: int, seed: int = 42,
                                rows_per_block: int = 1000, **kwargs):
    """Distributed synthetic corpus: one Ray task per block of row indices."""
    import ray.data

    starts = list(range(0, num_rows, rows_per_block))

    def gen(batch: pa.Table) -> pa.Table:
        out = [synthetic_sequences_table(
            min(rows_per_block, num_rows - int(s)), seed=seed, start=int(s),
            **kwargs) for s in batch["start"].to_pylist()]
        return pa.concat_tables(out)

    ds = ray.data.from_items([{"start": s} for s in starts],
                             override_num_blocks=len(starts))
    return ds.map_batches(gen, batch_format="pyarrow")


def write_synthetic_sequences(path: str, num_rows: int, seed: int = 42,
                              rows_per_block: int = 1000, **kwargs) -> str:
    """Materialize the synthetic corpus as partitioned Parquet (resumable
    layout: one file per row-range block)."""
    ds = synthetic_sequences_dataset(num_rows, seed=seed,
                                     rows_per_block=rows_per_block, **kwargs)
    ds.write_parquet(path)
    return path
