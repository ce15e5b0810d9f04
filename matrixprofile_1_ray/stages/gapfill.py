"""Gap-fill / preprocess stage.

Raw points may carry gaps (NaN/Inf in float streams, or a sentinel token in
int streams).  Modes: the engine's vectorized ``forward_fill`` / ``linear``
(north rule) plus the reference's windowed imputation
(reference preprocess.py:140-222) for capability parity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.tokenize import list_column_to_numpy, numpy_to_list_column
from ..kernels.preprocess import gapfill, impute_missing

GAP_SENTINEL = -1  # token value marking a gap in int streams


def gapfill_batch(batch: pa.Table, mode: str = "forward_fill",
                  value_col: str = "tokens", window: int = 4,
                  sentinel: int = GAP_SENTINEL) -> pa.Table:
    """Fill gaps per row; int columns round-trip exactly through float.

    An int batch without a ``sentinel`` comes back as it is, and only the
    rows that carry a gap are filled."""
    values, offsets = list_column_to_numpy(batch[value_col])
    is_int = np.issubdtype(values.dtype, np.integer)
    if is_int:
        gap = values == sentinel
        if not gap.any():
            return batch
        fvals = values.astype("d")
        fvals[gap] = np.nan
    else:
        fvals = values.astype("d")
        gap = ~np.isfinite(fvals)

    gap_rows = np.unique(
        np.searchsorted(offsets, np.flatnonzero(gap), side="right") - 1)
    for i in gap_rows:
        seg = fvals[offsets[i] : offsets[i + 1]]
        if not np.isfinite(seg).any():
            # an all-missing row passes through unchanged (the sentinel/NaN
            # values are restored below): one corrupt document must not
            # abort the whole partition, and the profile kernels'
            # prechecks already skip such windows
            continue
        if mode in ("forward_fill", "linear"):
            fvals[offsets[i] : offsets[i + 1]] = gapfill(seg, mode)
        else:
            fvals[offsets[i] : offsets[i + 1]] = impute_missing(
                seg, window, method=mode)

    # hand back the SAME list flavor we were given: a large_list input
    # must not flip to list (schema mismatch at the next concat)
    was_large = pa.types.is_large_list(batch[value_col].type)
    if is_int:
        # NaN -> int is undefined; restore the sentinel at any position
        # that stayed unfilled (all-missing rows)
        gaps = ~np.isfinite(fvals)
        safe = np.where(gaps, 0.0, fvals)
        ints = np.rint(safe).astype(values.dtype)
        ints[gaps] = sentinel
        filled = numpy_to_list_column(ints, offsets, large=was_large)
    else:
        filled = numpy_to_list_column(fvals, offsets, large=was_large)
    idx = batch.schema.get_field_index(value_col)
    return batch.set_column(idx, value_col, filled)
