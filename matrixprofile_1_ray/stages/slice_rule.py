"""The bounded-oracle-slice contract, in ONE place.

Every ``*_small`` gate stage (stages/profile.py, pairs.py, pmp.py,
summarize.py) selects the same doc slice the DuckDB oracles' ``sel`` CTE
selects: length inside fixed bounds and no near-constant window
(``sig^2 < sig2_floor``).  The arithmetic here is deliberately the SQL's
exact shape — plain cumsums for the window stats, ``(w*mu_i)*mu_j`` /
``(w*sig_i)*sig_j`` op order for the correlations — so every keep/drop
decision and every margin guard is bit-identical across engines.  A tweak
to any rule below changes BOTH sides of the cross-engine contract at once;
there is no second copy to desynchronize.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tokenize import list_column_to_numpy


def doc_window_stats(ts: np.ndarray, w: int):
    """(mu, sig2) per window via plain cumsums — the same arithmetic shape
    the DuckDB oracle uses, so the shared near-constant-window guard
    (sig2 < floor) decides identically in both engines."""
    c1 = np.concatenate(([0.0], np.cumsum(ts)))
    c2 = np.concatenate(([0.0], np.cumsum(ts * ts)))
    s = c1[w:] - c1[:-w]
    ss = c2[w:] - c2[:-w]
    mu = s / w
    sig2 = ss / w - mu * mu
    return mu, sig2


def banded_corr(ts, w, mu, sig, min_d):
    """Correlation matrix from exact-integer window sums — bit-identical
    to the SQL oracles' corr CTE (same op order: (w*mu_i)*mu_j,
    (w*sig_i)*sig_j) — with diagonals |i-j| < min_d masked to -inf.
    Single definition for every margin/perfect-match guard."""
    from numpy.lib.stride_tricks import sliding_window_view

    wins = np.ascontiguousarray(sliding_window_view(ts, w))
    qt = wins @ wins.T
    with np.errstate(divide="ignore", invalid="ignore"):
        c = ((qt - (w * mu)[:, None] * mu[None, :])
             / ((w * sig)[:, None] * sig[None, :]))
    pl = c.shape[0]
    ii, jj = np.indices((pl, pl))
    return np.where(np.abs(ii - jj) >= min_d, c, -np.inf)


def min_top2_margin(cb) -> float:
    """Smallest per-row gap between the best and second-best banded
    correlation (the argmax-pinning margin).

    FAIL CLOSED on degenerate rows: callers drop a doc when the margin
    is ``<= margin_floor``, so a profile too short to have two candidates
    (``pl < 2``) or a row whose band is entirely excluded (all ``-inf``,
    margin ``-inf - -inf = NaN``) must return ``-inf`` — otherwise a NaN
    would sail past the ``<=`` guard and keep a doc whose argmax the
    oracle cannot pin."""
    pl = cb.shape[0]
    if pl < 2:
        return float("-inf")
    two = np.partition(cb, pl - 2, axis=1)[:, -2:]
    with np.errstate(invalid="ignore"):  # -inf - -inf: caught just below
        margins = two[:, 1] - two[:, 0]
    if np.isnan(margins).any():
        return float("-inf")
    return float(margins.min())


def iter_slice_docs(batch: pa.Table, w: int | None, min_n: int = 0,
                    max_n: int | None = None, sig2_floor: float = 1e-3,
                    length_ok=None):
    """Yield ``(doc_id, ts, mu, sig2)`` for each batch row inside the
    bounded oracle slice.

    * length rule: ``min_n <= n_tok <= max_n`` (``max_n=None`` = no upper
      bound), or an explicit ``length_ok(n)`` predicate instead;
    * window guard: with ``w`` set, docs containing a near-constant
      w-window (``sig2.min() < sig2_floor``) are dropped and the window
      stats come back for reuse; ``w=None`` skips the guard (callers with
      multi-window rules run their own) and yields ``mu = sig2 = None``.
    """
    values, offsets = list_column_to_numpy(batch["tokens"])
    doc_ids = batch["doc_id"].to_pylist()
    for i in range(len(batch)):
        ts = values[offsets[i] : offsets[i + 1]].astype("d")
        n = ts.shape[0]
        if length_ok is not None:
            if not length_ok(n):
                continue
        elif n < min_n or (max_n is not None and n > max_n):
            continue
        if w is None:
            yield doc_ids[i], ts, None, None
            continue
        if n < w:
            continue
        mu, sig2 = doc_window_stats(ts, w)
        if sig2.min() < sig2_floor:
            continue
        yield doc_ids[i], ts, mu, sig2


def rows_table(spec: list[tuple[str, pa.DataType]], parts: list) -> pa.Table:
    """Concatenate per-doc column tuples into one typed table (typed-empty
    when no doc produced rows).  ``parts`` rows are tuples aligned with
    ``spec``; each element is an ndarray (or sequence) of that doc's
    values."""
    if not parts:
        return pa.table({name: pa.array([], typ) for name, typ in spec})
    cols = list(zip(*parts))
    return pa.table({
        name: pa.array(np.concatenate([np.asarray(c) for c in col]), typ)
        for (name, typ), col in zip(spec, cols)
    })
