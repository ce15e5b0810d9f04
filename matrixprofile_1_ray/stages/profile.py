"""Matrix-profile computation as a Ray Data batch transform.

One output row per input sequence: ``mp``/``pi`` list columns plus the
profile metadata scalars of the reference's MatrixProfile dict (reference
algorithms/mpx.py:82-100 defines the field set; the full series is NOT
embedded — results join back to the input on doc_id).

This is a *stateless* task stage, like every stage in the package: the
kernels hold no model or index, so an actor pool would only pin
resources.  Long series carry their rolling state through
``state/chunked.py``'s fan-out tasks, not through actors.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from ..functions.tokenize import list_column_to_numpy, numpy_to_list_column
from ..kernels.mpx import mpx_self, mpx_self_batch


# canonical definitions live in stages/slice_rule.py with the rest of the
# cross-engine slice contract; aliases kept for existing importers
from .slice_rule import banded_corr as _banded_corr  # noqa: E402
from .slice_rule import doc_window_stats as _doc_window_stats  # noqa: E402
from .slice_rule import iter_slice_docs, rows_table  # noqa: E402
from .slice_rule import min_top2_margin as _min_top2_margin  # noqa: E402

from ..kernels.scrimp import scrimp_plus_plus
from ..kernels.stomp import stomp


def compute_profiles_batch(batch: pa.Table, w: int = 32,
                           algorithm: str = "mpx",
                           cross_correlation: bool = False,
                           sample_pct: float = 1.0,
                           keep_tokens: bool = False,
                           keep_lr: bool = False) -> pa.Table:
    """Compute per-row matrix profiles for a sequences batch.

    Rows shorter than ``2*w`` cannot support the window (reference
    stomp.py:261-263) and are emitted with empty profiles and
    ``valid=False`` rather than dropped, so row accounting is lossless.
    """
    if keep_lr and algorithm != "stomp":
        raise ValueError("left/right profiles require algorithm='stomp' "
                         "(reference stomp.py:90-94)")
    if cross_correlation and algorithm != "mpx":
        # stomp/scrimp++ never receive the flag; silently labeling their
        # euclidean output 'cross_correlation' would poison downstream
        # metric-dependent conversions
        raise ValueError("cross_correlation output requires "
                         "algorithm='mpx' (reference mpx.py:24-31)")
    if algorithm not in ("mpx", "stomp", "scrimp++"):
        # validate UPFRONT like the flag checks above: the per-row check
        # alone lets a typo'd algorithm pass silently through any batch
        # whose rows are all shorter than 2*w
        raise ValueError(f"unknown algorithm: {algorithm}")
    values, offsets = list_column_to_numpy(batch["tokens"])
    n_rows = len(batch)

    lr_parts: dict[str, list[np.ndarray]] = {k: [] for k in
                                             ("lmp", "lpi", "rmp", "rpi")}
    if algorithm == "mpx":
        # the whole batch in one kernel call
        n_tok = np.diff(offsets)
        valid = n_tok >= 2 * w
        out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.where(valid, n_tok - w + 1, 0), out=out_offsets[1:])
        flat_mp, flat_pi = mpx_self_batch(
            values, offsets, out_offsets, w, cross_correlation)
    else:
        flat_mp, flat_pi, out_offsets, valid = _profiles_per_row(
            batch, values, offsets, w, algorithm, sample_pct,
            lr_parts if keep_lr else None)

    # numpy_to_list_column falls back to large_list past int32 — a raw
    # astype(int32) would silently wrap offsets for a batch of ~10M-token
    # rows and corrupt every list column
    cols = {
        "doc_id": batch["doc_id"],
        "source": batch["source"],
        "n_tok": batch["n_tok"],
        "w": pa.array(np.full(n_rows, w, dtype=np.int32)),
        "valid": pa.array(valid),
        "mp": numpy_to_list_column(flat_mp, out_offsets, pa.float64()),
        "pi": numpy_to_list_column(flat_pi, out_offsets, pa.int64()),
        "algorithm": pa.array([algorithm] * n_rows, pa.string()),
        # explicit type: an all-filtered (0-row) batch must still emit
        # string-typed metric or its block's schema (metric: null) breaks
        # unification with the rest of the stream
        "metric": pa.array(
            ["cross_correlation" if cross_correlation else "euclidean"]
            * n_rows, pa.string()),
    }
    if keep_tokens:
        cols["tokens"] = batch["tokens"]
    if keep_lr:
        for key, parts in lr_parts.items():
            flat = np.concatenate(parts) if parts else np.empty(
                0, np.int64 if key.endswith("pi") else "d")
            typ = pa.int64() if key.endswith("pi") else pa.float64()
            cols[key] = numpy_to_list_column(flat, out_offsets, typ)
    return pa.table(cols)


def _profiles_per_row(batch, values, offsets, w, algorithm, sample_pct,
                      lr_parts):
    """Row-by-row STOMP / SCRIMP++ calls of compute_profiles_batch;
    ``lr_parts`` collects STOMP's left/right profiles when given."""
    n_rows = len(batch)
    mp_parts: list[np.ndarray] = []
    pi_parts: list[np.ndarray] = []
    out_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    valid = np.zeros(n_rows, dtype=bool)

    for i in range(n_rows):
        ts = values[offsets[i] : offsets[i + 1]].astype("d")
        if ts.shape[0] >= 2 * w:
            if algorithm == "stomp":
                prof = stomp(ts, w)
                mp, pi = prof["mp"], prof["pi"]
                if lr_parts is not None:
                    for key in lr_parts:
                        lr_parts[key].append(prof[key])
            else:
                # deterministic per-doc seed (process-salted hash() is not)
                seed = zlib.crc32(batch["doc_id"][i].as_py().encode()) & 0x7FFFFFFF
                prof = scrimp_plus_plus(ts, w, sample_pct=sample_pct,
                                        random_state=seed)
                mp, pi = prof["mp"], prof["pi"]
            mp_parts.append(mp)
            pi_parts.append(pi)
            valid[i] = True
            out_offsets[i + 1] = out_offsets[i] + mp.shape[0]
        else:
            out_offsets[i + 1] = out_offsets[i]

    flat_mp = np.concatenate(mp_parts) if mp_parts else np.empty(0, "d")
    flat_pi = np.concatenate(pi_parts) if pi_parts else np.empty(0, np.int64)
    return flat_mp, flat_pi, out_offsets, valid


def mp_rows_small_batch(batch: pa.Table, w: int = 16, max_n: int = 256,
                        round_dp: int = 4, sig2_floor: float = 1e-3,
                        algorithm: str = "mpx") -> pa.Table:
    """Exploded (doc_id, idx, mp) profile rows over a BOUNDED doc slice —
    the driver-visible oracle for the matrix-profile kernel itself: DuckDB
    can brute-force the z-normalized ED self-join on docs with
    ``2*w <= n_tok <= max_n`` (per-window sums via window functions, dot
    products as windowed sums along each diagonal).

    Docs containing a near-constant window (``sig^2 < sig2_floor``) are
    excluded in BOTH engines: the reference's constant-window special case
    (kernels/mass.py apply semantics) is not SQL-reproducible.  For integer
    token values the non-constant minimum sig^2 is ~0.058, so the 1e-3
    threshold cannot flip between engines.  ``mp`` is rounded so the
    ~1e-12 engine-vs-SQL float drift cannot move the value hash.

    ``algorithm`` picks the kernel under test: mpx (minlag exclusion
    ceil(w/4)), stomp (reference ez = ceil(w/2) — the oracle widens its
    diagonal exclusion to match), or scrimp++ at sample_pct=1.0 (exact,
    same exclusion as mpx).

    STOMP additionally excludes docs containing a NEAR-PERFECT off-band
    window match (corr >= 1 - 1e-9): the reference's distance_profile
    takes sqrt of a tiny negative there and yields NaN, which STOMP skips
    — not SQL-reproducible.  The guard itself IS reproducible: corr from
    exact-integer window sums is bit-identical in numpy and DuckDB, so
    both engines make the same keep/drop decision.

    The slice floor is ``max(2*w, w + 2*excl + 1)`` where ``excl`` is the
    kernel's widest excluded offset: any shorter doc has a center window
    with NO admissible partner, for which the kernel emits ``inf`` but
    the SQL brute force emits no row at all (GROUP BY over zero corr
    rows).  Only STOMP's wide zone (ez = ceil(w/2)) makes this bind —
    exactly n_tok == 2*w == 32 at the default w."""
    excl = -(-w // 2) if algorithm == "stomp" else -(-w // 4)
    min_n = max(2 * w, w + 2 * excl + 1)
    parts = []
    for doc, ts, mu, sig2 in iter_slice_docs(batch, w, min_n=min_n,
                                             max_n=max_n,
                                             sig2_floor=sig2_floor):
        if algorithm == "mpx":
            mp, _ = mpx_self(ts, w)
        elif algorithm == "stomp":
            if _has_near_perfect_offband_match(
                    ts, w, mu, np.sqrt(np.maximum(sig2, 0)),
                    min_d=int(np.ceil(w / 2.0)) + 1):
                continue
            mp = stomp(ts, w)["mp"]
        elif algorithm == "scrimp++":
            seed = zlib.crc32(doc.encode()) & 0x7FFFFFFF
            mp = scrimp_plus_plus(ts, w, sample_pct=1.0,
                                  random_state=seed)["mp"]
        else:
            raise ValueError(f"unknown algorithm: {algorithm}")
        parts.append((np.repeat(doc, mp.shape[0]),
                      np.arange(mp.shape[0], dtype=np.int64),
                      np.round(mp, round_dp)))
    return rows_table([("doc_id", pa.string()), ("idx", pa.int64()),
                       ("mp", pa.float64())], parts)


def pick_mp_small_batch(batch: pa.Table, window: int = 32, max_n: int = 256,
                        round_dp: int = 4,
                        sig2_floor: float = 1e-3) -> pa.Table:
    """Bounded-slice ``pick_mp``: assemble the dense two-window PMP per
    doc (rows inf/nan-padded to len(ts), reference skimp.py:177-213
    layout) and extract ``window`` through the REAL pick_mp kernel
    (reference utils.py:45-100 — argwhere row selection + ``[:n-w+1]``
    trim), emitting exploded (doc_id, idx, mp) rows.  The SQL oracle is
    the w=``window`` half of the pmp_small brute force; the slice rule
    (``2*window <= n_tok <= max_n``, no near-constant window at
    ``window``) matches :func:`mp_rows_small_batch` at that w."""
    from ..kernels.skimp import pick_mp

    parts = []
    for doc, ts, _mu, _sig2 in iter_slice_docs(batch, window,
                                               min_n=2 * window,
                                               max_n=max_n,
                                               sig2_floor=sig2_floor):
        n = ts.shape[0]
        rows_mp, rows_pi = [], []
        for w in (window // 2, window):
            mp_w, pi_w = mpx_self(ts, w)
            rows_mp.append(np.concatenate(
                (mp_w, np.full(n - mp_w.shape[0], np.inf))))
            rows_pi.append(np.concatenate(
                (pi_w.astype("d"), np.full(n - pi_w.shape[0], np.nan))))
        profile = {
            "class": "PMP",
            "windows": np.array([window // 2, window], dtype=np.int64),
            "pmp": np.vstack(rows_mp),
            "pmpi": np.vstack(rows_pi),
            "metric": "euclidean",
            "data": {"ts": ts},
        }
        mp = pick_mp(profile, int(window))["mp"]
        parts.append((np.repeat(doc, mp.shape[0]),
                      np.arange(mp.shape[0], dtype=np.int64),
                      np.round(mp, round_dp)))
    return rows_table([("doc_id", pa.string()), ("idx", pa.int64()),
                       ("mp", pa.float64())], parts)


def regimes_small_batch(batch: pa.Table, w: int = 16, max_n: int = 256,
                        num_regimes: int = 3, sig2_floor: float = 1e-3,
                        margin_floor: float = 1e-6) -> pa.Table:
    """Bounded-slice FLUSS regimes (doc_id, rank, regime_idx) through the
    REAL fluss + extract_regimes kernels — fully oracle-able because the
    output is all-integer: a margin guard keeps only docs where every
    window's best match beats its runner-up by > margin_floor (computed
    with the SQL-identical exact-integer corr, so the keep/drop decision
    AND the argmax profile index are bit-identical across engines), after
    which arc counts are exact integers and the CAC floats derive from
    them with the same IEEE ops on both sides."""
    from ..kernels.discover import extract_regimes

    minlag = int(np.ceil(w / 4.0))
    out_doc, out_rank, out_idx = [], [], []
    for doc, ts, mu, sig2 in iter_slice_docs(batch, w, min_n=2 * w,
                                             max_n=max_n,
                                             sig2_floor=sig2_floor):
        cb = _banded_corr(ts, w, mu, np.sqrt(np.maximum(sig2, 0)),
                          minlag + 1)
        if _min_top2_margin(cb) <= margin_floor:
            continue
        mp, pi = mpx_self(ts, w)
        prof = extract_regimes({"class": "MatrixProfile", "mp": mp,
                                "pi": pi, "w": w},
                               num_regimes=num_regimes)
        for r, idx in enumerate(prof["regimes"]):
            out_doc.append(doc)
            out_rank.append(r)
            out_idx.append(int(idx))
    return pa.table({
        "doc_id": pa.array(out_doc, pa.string()),
        "rank": pa.array(np.asarray(out_rank, np.int64), pa.int64()),
        "regime_idx": pa.array(np.asarray(out_idx, np.int64), pa.int64()),
    })


def motifs_small_batch(batch: pa.Table, w: int = 16, max_n: int = 256,
                       sig2_floor: float = 1e-3,
                       margin_floor: float = 1e-6) -> pa.Table:
    """Bounded-slice top-1 motif pair (doc_id, first_idx, second_idx)
    through the REAL mp_top_k_motifs kernel (k=1, no neighbor re-query) —
    all-integer output, oracle-able under two bit-identical guards
    computed with the SQL's exact-integer arithmetic: (a) every window's
    best in-band match beats its runner-up by > margin_floor (pins the
    profile index), (b) the global profile minimum beats the second
    smallest by > margin_floor (pins the argmin pick)."""
    from ..kernels.discover import mp_top_k_motifs

    minlag = int(np.ceil(w / 4.0))
    out_doc, out_first, out_second = [], [], []
    for doc, ts, mu, sig2 in iter_slice_docs(batch, w, min_n=2 * w,
                                             max_n=max_n,
                                             sig2_floor=sig2_floor):
        cb = _banded_corr(ts, w, mu, np.sqrt(np.maximum(sig2, 0)),
                          minlag + 1)
        if _min_top2_margin(cb) <= margin_floor:               # guard (a)
            continue
        # guard (b): the two global minima are usually the motif pair
        # itself with EXACTLY equal distances (mutual nearest neighbors),
        # so the tie-group rule is: the exact-tie group at the minimum is
        # either a single window or a mutual pair, and the next distinct
        # value is > margin_floor away — then EITHER argmin pick yields
        # the same sorted (first, second) pair in both engines
        cmax = cb.max(axis=1)
        mp_sql = np.sqrt(np.maximum(2.0 * w * (1.0 - np.minimum(cmax, 1.0)),
                                    0.0))
        m1 = mp_sql.min()
        tie = np.flatnonzero(mp_sql == m1)
        others = mp_sql[mp_sql > m1]
        if others.size == 0 or others.min() - m1 <= margin_floor:
            continue
        nn_sql = np.argmax(cb, axis=1)           # unique under guard (a)
        if tie.size == 2:
            a, b = int(tie[0]), int(tie[1])
            if not (nn_sql[a] == b and nn_sql[b] == a):
                continue
        elif tie.size != 1:
            continue
        mp, pi = mpx_self(ts, w)
        prof = mp_top_k_motifs(
            {"class": "MatrixProfile", "mp": mp, "pi": pi, "w": w,
             "ez": int(np.ceil(w / 2.0)), "data": {"ts": ts}},
            k=1, max_neighbors=0)
        pair = prof["motifs"][0]["motifs"]
        out_doc.append(doc)
        out_first.append(int(pair[0]))
        out_second.append(int(pair[1]))
    return pa.table({
        "doc_id": pa.array(out_doc, pa.string()),
        "first_idx": pa.array(np.asarray(out_first, np.int64), pa.int64()),
        "second_idx": pa.array(np.asarray(out_second, np.int64), pa.int64()),
    })


def corpus_motifs_small_batch(batch: pa.Table, **small_kwargs) -> pa.Table:
    """Per-doc top-1 motif pairs PLUS the ROUNDED motif distance, for the
    corpus-level sort/limit layer (corpus_top_motifs' oracle sibling):
    ``motif_dist`` is the rounded profile value at ``first_idx`` from
    :func:`mp_rows_small_batch` — the same value the SQL oracle's
    ``mp_rows`` CTE carries, so the global (motif_dist ASC, doc_id ASC)
    ordering is decided on bit-identical keys in both engines.  ``w``,
    ``max_n`` and ``sig2_floor`` reach both passes, so the distance is
    looked up in the profile the motif came from."""
    pairs = motifs_small_batch(batch, **small_kwargs)
    empty = pa.table({
        "doc_id": pa.array([], pa.string()),
        "first_idx": pa.array([], pa.int64()),
        "second_idx": pa.array([], pa.int64()),
        "motif_dist": pa.array([], pa.float64()),
    })
    if len(pairs) == 0:
        return empty
    rows = mp_rows_small_batch(batch, **{
        k: v for k, v in small_kwargs.items()
        if k in ("w", "max_n", "sig2_floor")})
    lookup = {}
    r_doc = rows["doc_id"].to_pylist()
    r_idx = rows["idx"].to_numpy()
    r_mp = rows["mp"].to_numpy()
    for d, i, v in zip(r_doc, r_idx, r_mp):
        lookup[(d, int(i))] = float(v)
    docs = pairs["doc_id"].to_pylist()
    firsts = pairs["first_idx"].to_numpy()
    dist = [lookup[(d, int(i))] for d, i in zip(docs, firsts)]
    return pairs.append_column("motif_dist",
                               pa.array(dist, pa.float64()))


def _has_near_perfect_offband_match(ts: np.ndarray, w: int,
                                    mu: np.ndarray, sig: np.ndarray,
                                    min_d: int,
                                    threshold: float = 0.999999999) -> bool:
    """True when some window pair at |i-j| >= min_d has correlation >=
    threshold (bit-identical across engines via :func:`_banded_corr`)."""
    cb = _banded_corr(ts, w, mu, sig, min_d)
    return bool((cb >= threshold).any())


def mp_rollup_small_batch(batch: pa.Table, bucket: int = 60,
                          **small_kwargs) -> pa.Table:
    """North-rule MP tier rollup over the bounded oracle slice, through
    the real ``bucket_reduce`` kernel (stages/rollup.py): per (doc,
    bucket) min distance, count, and first-argmin — computed on the
    ROUNDED profile rows so the DuckDB oracle's argmin decision is
    identical."""
    from .rollup import bucket_reduce

    rows = mp_rows_small_batch(batch, **small_kwargs)
    if len(rows) == 0:
        return pa.table({"doc_id": pa.array([], pa.string()),
                         "bucket": pa.array([], pa.int64()),
                         "mp_min": pa.array([], pa.float64()),
                         "mp_count": pa.array([], pa.int64()),
                         "mp_argmin": pa.array([], pa.int64())})
    doc = np.asarray(rows["doc_id"])
    # rows are doc-contiguous with ascending idx; segment boundaries are
    # the first occurrence of each doc
    _, starts = np.unique(doc, return_index=True)
    bounds = np.sort(starts)
    offsets = np.concatenate((bounds, [len(doc)])).astype(np.int64)
    seg_docs = doc[bounds]
    values = rows["mp"].to_numpy().astype("d")
    row_of_bucket, bucket_idx, mins, _maxs, _sums, counts, argmins = \
        bucket_reduce(values, offsets, bucket)
    return pa.table({
        "doc_id": pa.array(seg_docs[row_of_bucket].tolist(), pa.string()),
        "bucket": pa.array(bucket_idx, pa.int64()),
        "mp_min": pa.array(mins, pa.float64()),
        "mp_count": pa.array(counts, pa.int64()),
        "mp_argmin": pa.array(argmins, pa.int64()),
    })


def corrected_small_rows_batch(batch: pa.Table, w: int = 16,
                               max_n: int = 256, round_dp: int = 4,
                               sig2_floor: float = 1e-3) -> pa.Table:
    """Bounded-slice corrected-profile rows (doc_id, idx, av, cmp) through
    the real kernels (mpx_self + make_complexity_av, cmp = mp +
    (1-av)*max(mp)) — oracle-able because the complexity AV is pure
    integer-derived arithmetic (bit-identical in SQL) and the mp factor
    rounds away the ~1e-12 engine-vs-SQL drift."""
    from ..kernels.transform import make_complexity_av

    parts = []
    for doc, ts, _mu, _sig2 in iter_slice_docs(batch, w, min_n=2 * w,
                                               max_n=max_n,
                                               sig2_floor=sig2_floor):
        mp, _ = mpx_self(ts, w)
        av = make_complexity_av(ts, w)
        cmp_ = mp + (1 - av) * np.max(mp)
        parts.append((np.repeat(doc, mp.shape[0]),
                      np.arange(mp.shape[0], dtype=np.int64),
                      np.round(av, 6), np.round(cmp_, round_dp)))
    return rows_table([("doc_id", pa.string()), ("idx", pa.int64()),
                       ("av", pa.float64()), ("cmp", pa.float64())], parts)


def pmp_discord_rows_batch(batch: pa.Table, k: int = 2,
                           windows=(16, 32), **small_kwargs) -> pa.Table:
    """Top-k PMP discords per bounded-slice doc through the REAL
    :func:`~..kernels.discover.pmp_top_k_discords` kernel (reference
    top_k_discords.py:16-91: greedy row-major argmax, exclusion zone
    FROZEN from the first discord's window), assembled from the ROUNDED
    two-window rows of :func:`mp_rows_small_batch` so every greedy
    decision — including tie-breaks on the 4-dp values — is replayable by
    the SQL oracle (ORDER BY mp DESC, w ASC, idx ASC == np.argmax
    row-major with windows ascending).  A doc's non-qualifying window
    contributes no cells: its matrix row positions stay NaN, which the
    kernel masks to -inf exactly as the SQL's absent rows are."""
    from ..kernels.discover import pmp_top_k_discords

    per_doc: dict = {}
    for w in windows:
        t = mp_rows_small_batch(batch, w=w, **small_kwargs)
        if len(t) == 0:
            continue
        doc = np.asarray(t["doc_id"])
        idx = t["idx"].to_numpy()
        mp = t["mp"].to_numpy()
        docs_u, starts = np.unique(doc, return_index=True)
        order = np.argsort(starts)
        docs_u, starts = docs_u[order], starts[order]
        ends = np.concatenate((starts[1:], [len(doc)]))
        for d, a, b in zip(docs_u, starts, ends):
            per_doc.setdefault(str(d), []).append((w, idx[a:b], mp[a:b]))

    out = {"doc_id": [], "rank": [], "window": [],
           "discord_idx": [], "discord_dist": []}
    for d, entries in per_doc.items():
        ws = [w for w, _, _ in entries]          # ascending by loop order
        length = max(int(ix.max()) + 1 for _, ix, _ in entries)
        mat = np.full((len(entries), length), np.nan)
        for r, (_, ix, mv) in enumerate(entries):
            mat[r, ix] = mv
        prof = pmp_top_k_discords(
            {"pmp": mat, "windows": np.asarray(ws, np.int64),
             "class": "PMP", "metric": "euclidean"}, k=k)
        for rank, (r, c) in enumerate(prof["discords"]):
            out["doc_id"].append(d)
            out["rank"].append(rank)
            out["window"].append(int(ws[int(r)]))
            out["discord_idx"].append(int(c))
            out["discord_dist"].append(float(mat[int(r), int(c)]))
    return pa.table({
        "doc_id": pa.array(out["doc_id"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "window": pa.array(out["window"], pa.int64()),
        "discord_idx": pa.array(out["discord_idx"], pa.int64()),
        "discord_dist": pa.array(out["discord_dist"], pa.float64()),
    })


def mp_discord_top1_batch(batch: pa.Table, **small_kwargs) -> pa.Table:
    """Top-1 discord per bounded-slice doc, reduced from the ROUNDED
    profile rows of :func:`mp_rows_small_batch` (tie-break: smallest idx)
    so the argmax decision is identical in the SQL oracle."""
    rows = mp_rows_small_batch(batch, **small_kwargs)
    if len(rows) == 0:
        return pa.table({"doc_id": pa.array([], pa.string()),
                         "discord_idx": pa.array([], pa.int64()),
                         "discord_dist": pa.array([], pa.float64())})
    doc = np.asarray(rows["doc_id"])
    idx = rows["idx"].to_numpy()
    mp = rows["mp"].to_numpy()
    # rows are emitted doc-contiguous with ascending idx; np.unique gives
    # each doc's start, argmax inside a segment returns the FIRST maximum
    docs_u, starts = np.unique(doc, return_index=True)
    order = np.argsort(starts)
    docs_u, starts = docs_u[order], starts[order]
    ends = np.concatenate((starts[1:], [len(doc)]))
    d_idx = np.empty(len(docs_u), np.int64)
    d_val = np.empty(len(docs_u), np.float64)
    for k, (a, b) in enumerate(zip(starts, ends)):
        j = int(np.argmax(mp[a:b]))
        d_idx[k] = idx[a + j]
        d_val[k] = mp[a + j]
    return pa.table({
        "doc_id": pa.array(docs_u.tolist(), pa.string()),
        "discord_idx": pa.array(d_idx, pa.int64()),
        "discord_dist": pa.array(d_val, pa.float64()),
    })
