"""Ray Data map_batches stages over the sequences / profiles tables.

Every stage is Arrow-in/Arrow-out (``batch_format="pyarrow"``) and
vectorized across the rows of a batch; per-series math lives in
``..kernels``.  Every stage is a module-level function run as a Ray task;
broadcast state (query matrices, centroids, series) goes to the object
store once and reaches the function as a ref in ``fn_kwargs``.
"""

from .profile import compute_profiles_batch
from .rollup import rollup_batch, TIERS, mp_rollup_batch
from .gapfill import gapfill_batch
from .codec_stage import verify_roundtrip_batch
from .ann import brute_force_topk, ivf_topk
from .dedup import exact_dedup, minhash_candidates, embedding_near_dup
from .discover_stage import (
    corpus_top_discords,
    corpus_top_motifs,
    discords_batch,
    motifs_batch,
    regimes_batch,
)
from .events import session_windows, sliding_window_counts
from .join import asof_join, broadcast_semi_join, hash_join
from .multimodal import media_features_stage
from .pairs import ab_join_stage, mass_search_stage, mpdist_pairs
from .retention import (
    RetentionPolicy,
    apply_retention,
    downsample_read,
    tiered_read,
    write_tiered_store,
)
from .pmp import pmp_stage, pick_mp_stage
from .summarize import corrected_profile_batch, snippets_batch
from .text_stage import (
    doc_stats_batch,
    langid_batch,
    moving_stats_batch,
    ngram_top_k,
    per_source_distinct_tokens,
    per_source_stats,
    quality_batch,
)
