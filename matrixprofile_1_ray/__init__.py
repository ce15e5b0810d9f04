"""matrixprofile_1_ray — a Ray-Data-native time-series rollup / downsample /
retention engine whose windowed-statistics kernels reproduce the semantics of
the Matrix Profile Foundation's ``matrixprofile`` library (the reference at
/root/reference, Apache-2.0), re-expressed from scratch for distributed
execution over Parquet tables of pre-tokenized sequences.

Layers
------
``kernels``    pure-NumPy per-series math (MASS, MPX, STOMP, SCRIMP++, SKIMP,
               MPDist, discords/motifs/regimes/snippets, moving stats) —
               no Ray imports; value-conformant with the reference's own
               golden test corpus (tests/*.txt).
``functions``  vectorized row/batch helpers (tokenization, delta-of-delta +
               Gorilla-XOR codecs, text analysis, dedup hashing).
``sources``    dataset constructors (documents->sequences derivation and the
               deterministic synthetic sequences corpus).
``stages``     Ray Data ``map_batches`` stages (module-level functions run
               as tasks) built on the kernels.
``pipelines``  end-to-end Dataset pipelines (flagship rollup, analyze/compute
               equivalents of the reference entry points).
``state``      chunked-series partial-profile merge and per-partition lineage
               manifests for checkpointed resume.

Nothing in this package calls ``ray.init``/``ray.shutdown`` — sessions are
owned by the caller (driver, bench.py, or the pytest fixture).
"""

__version__ = "0.1.0"

from .api import analyze, compute  # noqa: E402  (reference-shaped entry points)
from .visualize import is_visualizable, visualize  # noqa: E402
# reference-layout namespaces (reference __init__.py imports the same set)
from . import (  # noqa: E402, F401
    algorithms,
    core,
    cycore,
    datasets,
    discover,
    io,
    preprocess,
    transform,
    utils,
)
