from .chunked import (
    chunk_sequences_batch,
    chunked_rollup,
    distributed_mpx,
    distributed_tiled_mpx,
)
from .manifest import LineageManifest, run_partitioned
