"""Reference computations made apart from the program.

Everything here is plain NumPy and PyArrow; nothing imports
``matrixprofile_1_ray``.  ``test_oracles.py`` checks the self-join against
the MATLAB goldens and the hand-computed micro-vectors before any
workload trusts it.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from numpy.lib.stride_tricks import sliding_window_view


def exclusion(w: int) -> int:
    """Diagonals ``|i - j| <= ceil(w/4)`` are trivial matches."""
    return int(math.ceil(w / 4.0))


def znorm_windows(ts: np.ndarray, w: int) -> np.ndarray:
    """Every length-``w`` window, z-normalized (population std)."""
    x = sliding_window_view(np.asarray(ts, dtype="d"), w)
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    return (x - mu) / sd


def min_window_std(ts: np.ndarray, w: int) -> float:
    return float(sliding_window_view(np.asarray(ts, "d"), w).std(axis=1).min())


def _distances(corr: np.ndarray, w: int) -> np.ndarray:
    return np.sqrt(np.maximum(2.0 * w * (1.0 - corr), 0.0))


TIE = 1e-9


def self_join(ts: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force z-normalized Euclidean self-join: the full distance
    matrix with trivial matches excluded, its row minima and their
    indices.  Among neighbours tied within ``TIE`` the nearest diagonal
    wins, and the earlier index on the same diagonal: the order in which
    the reference's diagonal walk meets them."""
    z = znorm_windows(ts, w)
    pl = z.shape[0]
    d = _distances(z @ z.T / w, w)
    i = np.arange(pl)
    lag = i[None, :] - i[:, None]
    d[np.abs(lag) <= exclusion(w)] = np.inf
    mp = d.min(axis=1)
    tied = d <= (mp + TIE * np.maximum(1.0, mp))[:, None]
    order = np.where(tied, 2 * np.abs(lag) + (lag > 0), np.iinfo(np.int64).max)
    return mp, order.argmin(axis=1)


def distance_profile(z: np.ndarray, j: int, w: int) -> np.ndarray:
    """Distances from window ``j`` to every window of the z-normalized
    window matrix ``z``, trivial matches set to inf."""
    d = _distances(z @ z[j] / w, w)
    lo = max(0, j - exclusion(w))
    d[lo : j + exclusion(w) + 1] = np.inf
    return d


def argmin_ok(profile_row: np.ndarray, got: int, want_min: float,
              tol: float = TIE) -> bool:
    """``got`` is an acceptable argmin: it holds the minimum up to a tie
    within ``tol`` (relative to the distance scale)."""
    return bool(profile_row[got] <= want_min + tol * max(1.0, want_min))


def forward_fill(tokens: np.ndarray, sentinel: int) -> np.ndarray:
    """Each sentinel takes the nearest earlier non-sentinel value; a
    leading run takes the first valid value."""
    tokens = np.asarray(tokens)
    ok = tokens != sentinel
    if ok.all():
        return tokens.copy()
    idx = np.where(ok, np.arange(tokens.size), -1)
    np.maximum.accumulate(idx, out=idx)
    first = int(np.argmax(ok))
    idx[idx < 0] = first
    return tokens[idx]


def code_points(texts: list[str]) -> list[np.ndarray]:
    """Unicode code points of each text, via UTF-32."""
    return [np.frombuffer((t or "").encode("utf-32-le"), dtype="<u4")
            .astype(np.int64) for t in texts]


class BucketStats:
    """Per-(doc, bucket) min/max/sum/count of ragged series at one bucket
    width, laid out densely as ``[doc, bucket]`` arrays (docs shorter
    than the widest doc hold count 0 past their end).  Built by scatter
    (``np.minimum.at``/``bincount``) over a flat key."""

    def __init__(self, series: list[np.ndarray], width: int):
        lens = np.array([s.size for s in series], dtype=np.int64)
        nb = int(((lens.max() if lens.size else 0) + width - 1) // width)
        self.width, self.n_buckets = width, max(nb, 1)
        flat = (np.concatenate(series).astype("d") if series
                else np.empty(0))
        doc = np.repeat(np.arange(len(series)), lens)
        pos = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
        key = doc * self.n_buckets + pos // width
        size = len(series) * self.n_buckets
        self.count = np.bincount(key, minlength=size).reshape(
            len(series), self.n_buckets)
        self.sum = np.bincount(key, weights=flat, minlength=size).reshape(
            self.count.shape)
        self.min = np.full(size, np.inf)
        self.max = np.full(size, -np.inf)
        np.minimum.at(self.min, key, flat)
        np.maximum.at(self.max, key, flat)
        self.min = self.min.reshape(self.count.shape)
        self.max = self.max.reshape(self.count.shape)


def read_hive_store(store_dir: str, kind: str) -> pa.Table:
    """Every row of ``kind=<kind>`` in a ``kind/tier/epoch`` hive store,
    with the tier as a string column, read by PyArrow alone."""
    import pyarrow.dataset as pads

    ds = pads.dataset(f"{store_dir}/kind={kind}", format="parquet",
                      partitioning=pads.partitioning(
                          pa.schema([("tier", pa.string()),
                                     ("epoch", pa.int64())]),
                          flavor="hive"))
    return ds.to_table()


def read_documents(path: str) -> tuple[list[str], list[np.ndarray]]:
    """doc ids (as strings) and code points of a documents.parquet."""
    tab = pq.read_table(path, columns=["doc_id", "text"])
    ids = [str(x) for x in tab["doc_id"].to_pylist()]
    return ids, code_points(tab["text"].to_pylist())
