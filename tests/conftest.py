import os
import sys

import numpy as np
import pytest

GOLDEN_DIR = os.path.dirname(__file__)


def golden(name):
    return np.loadtxt(os.path.join(GOLDEN_DIR, name))


def store_fingerprint(root):
    """Sorted ``(partition dir, size, sha256)`` of every Parquet file
    under ``root`` (``tools/store_digest.py``).  Two writes of one corpus
    compare by content this way: Ray names each written file after a
    random write id."""
    from tools.store_digest import store_entries

    return store_entries(root)


@pytest.fixture(scope="session")
def sampledata():
    return golden("sampledata.txt")


@pytest.fixture(params=["compiled", "gccless"])
def self_join_path(request, monkeypatch):
    """Runs a test once on each self-join path: the compiled walk (skipped
    without a C compiler) and the NumPy walk, forced by switching the
    compiled kernels off."""
    import matrixprofile_1_ray.kernels._native  # noqa: F401

    native = sys.modules["matrixprofile_1_ray.kernels._native"]
    if request.param == "compiled" and not native.AVAILABLE:
        pytest.skip("no C compiler in this runtime")
    if request.param == "gccless":
        monkeypatch.setattr(native, "AVAILABLE", False)
    return request.param


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (never per test/module)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield ray
    ray.shutdown()
