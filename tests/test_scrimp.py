"""Conformance: PreSCRIMP / SCRIMP++ (reference tests/test_scrimp.py)."""

import numpy as np
import pytest

from matrixprofile_1_ray.kernels import scrimp_plus_plus
from tests.conftest import golden


def test_validation_errors():
    with pytest.raises(ValueError):
        scrimp_plus_plus([1, 2, 3, 4, 5], 4, step_size=-1.0)
    with pytest.raises(ValueError):
        scrimp_plus_plus([1, 2, 3, 4, 5], 4, step_size="a")
    with pytest.raises(ValueError):
        scrimp_plus_plus([1, 2, 3, 4, 5], 4, random_state="adsf")
    with pytest.raises(ValueError):
        scrimp_plus_plus([1, 2, 3, 4, 5], 4)  # too short
    with pytest.raises(ValueError):
        scrimp_plus_plus(list(range(12)), 2)  # window < 4


def test_scrimp_tiny():
    profile = scrimp_plus_plus(np.array([0, 0, 1, 0, 0, 0, 1, 0]), 4,
                               step_size=0.25, sample_pct=1.0)
    np.testing.assert_almost_equal(
        profile["mp"], [0, 3.2660, 3.2660, 3.2660, 0], decimal=4)
    np.testing.assert_array_equal(profile["pi"], [4, 3, 0, 0, 0])


def test_scrimp_matlab(sampledata):
    profile = scrimp_plus_plus(sampledata, 32, step_size=0.25, sample_pct=1.0)
    np.testing.assert_almost_equal(profile["mp"], golden("scrimp.mp.txt"))
    np.testing.assert_array_equal(profile["pi"],
                                  golden("scrimp.mpi.txt").astype("int") - 1)


def test_plateau_row_warning_free_and_unchanged():
    """Constant windows divide by a zero sigma in the anchor MASS and in
    the diagonal refinement; that must raise no RuntimeWarning, and the
    NaN / inf entries it yields (the reference's constant-window output)
    stay where they are.  Every finite entry is the exact profile."""
    import warnings

    from matrixprofile_1_ray.kernels.mpx import mpx_self

    w = 16
    rng = np.random.default_rng(7)
    ts = np.concatenate([rng.uniform(size=60), np.full(50, 3.0),
                         rng.uniform(size=60)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        profile = scrimp_plus_plus(ts, w, sample_pct=1.0, random_state=3)

    nan_at = [0, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 52, 56, 60, 64, 65,
              66, 67, 68, 69, 72, 76, 80, 84, 86, 87, 88, 89, 90, 92, 96, 100,
              104, 108, 112, 116, 120, 124, 128, 132, 136, 144, 148, 152]
    inf_at = [61, 62, 63, 70, 71, 73, 74, 75, 77, 78, 79, 81, 82, 83, 85, 91,
              93, 94]
    exact_mp, exact_pi = mpx_self(ts, w)
    want = exact_mp.copy()
    want[nan_at] = np.nan
    want[inf_at] = np.inf
    np.testing.assert_allclose(profile["mp"], want, rtol=0, atol=1e-9,
                               equal_nan=True)
    finite = np.isfinite(want)
    np.testing.assert_array_equal(profile["pi"][finite], exact_pi[finite])
