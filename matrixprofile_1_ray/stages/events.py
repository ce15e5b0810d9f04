"""Event-stream windowing: tumbling, sliding, and session windows.

Ray Data has no event-time/watermark machinery; the engine treats the
events table as an ordered partitioned log (partition by key, sort by ts
within the group) and implements windows inside ``groupby(key).map_groups``
with vectorized Arrow/NumPy passes — ordering assumption: one key's
events fit one group (they do by construction of a keyed groupby).  Late
data cannot exist in batch replay; checkpointed resume replaces
incremental state (SURVEY.md §2.11).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def session_windows(ds, gap_minutes: int = 30, num_partitions: int = 16):
    """Per-user session stats: a session breaks when the gap to the
    previous event exceeds ``gap_minutes``.
    -> (user_id, n_sessions, n_events, max_session_events).

    Users shuffle inside COARSE hash partitions; within a part the whole
    sessionization is one vectorized pass over (user, ts)-sorted events —
    session starts are `user changed OR gap exceeded`, per-session sizes
    come from one bincount — instead of a per-user ``map_groups`` whose
    per-key Python dispatch dominates at millions of users."""
    gap = np.timedelta64(gap_minutes * 60, "s")

    def add_part(batch: pa.Table) -> pa.Table:
        # Arrow end to end: the shuffle-adjacent stages stay zero-copy
        # (no pandas block conversion on either side of the exchange)
        from .dedup import _hash_str_arrow

        part = (_hash_str_arrow(batch["user_id"])
                % np.uint64(num_partitions)).astype(np.int64)
        return batch.append_column("_part", pa.array(part, pa.int64()))

    def sessionize_part(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(g) == 0:
            return pa.table({
                "user_id": pa.array([], g.schema.field("user_id").type),
                "n_sessions": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "max_session_events": pa.array([], pa.int64())})
        order = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                              ("ts", "ascending")])
        g = g.take(order)
        users = g["user_id"].combine_chunks()
        ts_np = g["ts"].combine_chunks().to_numpy(zero_copy_only=False)
        n = len(g)
        new_user = np.ones(n, dtype=bool)
        if n > 1:
            # a null user_id compares as null: fill it as "changed" so the
            # mask stays boolean (each null-keyed event is its own run)
            same = pc.fill_null(pc.equal(users.slice(1),
                                         users.slice(0, n - 1)), False)
            new_user[1:] = ~same.to_numpy(zero_copy_only=False)
        big_gap = np.concatenate(([True], np.diff(ts_np) > gap))
        starts = new_user | big_gap
        session_ids = np.cumsum(starts)          # 1-based, global in part
        sizes = np.bincount(session_ids)[1:]      # events per session
        # per-user reduction: first/last session id per user row-run
        run_starts = np.flatnonzero(new_user)
        run_ends = np.concatenate((run_starts[1:], [n]))
        first_sid = session_ids[run_starts]
        last_sid = session_ids[run_ends - 1]
        max_sizes = np.maximum.reduceat(sizes, first_sid - 1)
        return pa.table({
            "user_id": pc.take(users, pa.array(run_starts)),
            "n_sessions": pa.array((last_sid - first_sid + 1)
                                   .astype(np.int64)),
            "n_events": pa.array((run_ends - run_starts).astype(np.int64)),
            "max_session_events": pa.array(max_sizes.astype(np.int64)),
        })

    return (ds.map_batches(add_part, batch_format="pyarrow")
            .groupby("_part")
            .map_groups(sessionize_part, batch_format="pyarrow"))


def sliding_window_counts(ds, window_minutes: int = 60, slide_minutes: int = 15):
    """Per-event-type sliding-window event counts (window w, slide s):
    each event lands in the w/s windows covering it — emitted per batch,
    merged by a keyed sum (combiner-before-shuffle)."""
    from ray.data.aggregate import Sum

    w_us = window_minutes * 60 * 1_000_000
    s_us = slide_minutes * 60 * 1_000_000
    # ceil, not floor: when the slide does not divide the window an event
    # is covered by up to ceil(w/s) starts (floor would silently drop one
    # covering window per event); the coverage mask below trims any
    # generated start whose window actually ends at or before the event
    per_event = -(-w_us // s_us)

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        last = (ts // s_us) * s_us  # latest window start covering the event
        offs = np.arange(per_event) * s_us
        win_start = (last[:, None] - offs[None, :]).reshape(-1)
        ts_rep = np.repeat(ts, per_event)
        covered = win_start + w_us > ts_rep
        etype = np.repeat(df["event_type"].to_numpy(), per_event)
        out = pd.DataFrame({"event_type": etype[covered],
                            "window_start": win_start[covered]})
        return (out.groupby(["event_type", "window_start"], as_index=False)
                .size().rename(columns={"size": "partial"}))

    partials = ds.map_batches(expand, batch_format="pandas")
    return partials.groupby(["event_type", "window_start"]).aggregate(
        Sum("partial", alias_name="n_events"))
