"""Conformance: shared helper kernels vs reference inline vectors
(reference tests/test_core.py:117-289)."""

import numpy as np
import pytest

from matrixprofile_1_ray.kernels import (
    clean_nan_inf,
    fft_convolve,
    find_skip_locations,
    moving_average,
    moving_std,
    pearson_to_euclidean,
    rolling_window,
    sliding_dot_product,
)


def test_rolling_window():
    actual = rolling_window(np.array([1, 2, 3, 4, 5, 6]), 3)
    np.testing.assert_array_equal(
        actual, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]])


def test_moving_average_and_std():
    a = np.array([1, 2, 3, 4, 5, 6])
    np.testing.assert_equal(moving_average(a, 3), [2.0, 3.0, 4.0, 5.0])
    np.testing.assert_almost_equal(moving_std(a, 3), [0.81649658] * 4)


def test_fft_convolve_vector():
    query = np.array([1, 2, 3, 4])
    ts = np.array([4, 5, 6, 1, 2, 3, 8, 9, 1, 7, 8, 15, 20])
    desired = [36, 28, 26, 46, 68, 50, 57, 64, 99, 148]
    np.testing.assert_almost_equal(fft_convolve(ts, query), desired)
    np.testing.assert_almost_equal(sliding_dot_product(ts, query), desired)


def test_clean_nan_inf_vector():
    ts = np.array([np.nan, 1.0, np.inf, 2.0, -np.inf])
    np.testing.assert_array_equal(clean_nan_inf(ts), [0, 1, 0, 2, 0])
    # input untouched (unlike the mutating reference)
    assert np.isnan(ts[0])


def test_find_skip_locations_vector():
    ts = np.array([1.0, 2, np.inf, 3, 4, 5])
    np.testing.assert_array_equal(
        find_skip_locations(ts, 4, 3), [True, True, True, False])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pearson_to_euclidean_vectors():
    a = np.array([0.23, 0.5, 0.34, 0.67, 0.88])
    desired = [2.48193473, 2, 2.29782506, 1.62480768, 0.9797959]
    np.testing.assert_almost_equal(pearson_to_euclidean(a, [4]), desired)
    two = np.stack([a, a])
    np.testing.assert_almost_equal(pearson_to_euclidean(two, [4, 4]),
                                   [desired, desired])
    # inf stays inf in the 2-D case (reference core.py:617-620)
    with_inf = two.copy()
    with_inf[0, 0] = np.inf
    out = pearson_to_euclidean(with_inf, [4, 4])
    assert np.isinf(out[0, 0])


def test_structural_predicates_and_indices():
    """reference tests/test_core.py:238-262 nan/inf index vectors plus the
    structure predicates the reference dispatches on."""
    from matrixprofile_1_ray.kernels import (
        compute_dist,
        get_profile_length,
        is_array_like,
        is_mp_obj,
        is_mp_or_pmp_obj,
        is_nan_inf,
        is_not_nan_inf,
        is_one_dimensional,
        is_pearson_array,
        is_pmp_obj,
        is_similarity_join,
        is_stats_obj,
        nan_inf_indices,
        not_nan_inf_indices,
    )

    a = np.array([np.nan, 1.0, np.inf, 2.0])
    np.testing.assert_array_equal(nan_inf_indices(a),
                                  [True, False, True, False])
    np.testing.assert_array_equal(not_nan_inf_indices(a),
                                  [False, True, False, True])
    assert is_nan_inf(np.nan) and is_nan_inf(np.inf)
    assert is_not_nan_inf(1.5) and not is_not_nan_inf(np.nan)

    assert is_array_like([1, 2]) and is_array_like((1,)) \
        and is_array_like(np.arange(3))
    assert not is_array_like("xy") and not is_array_like(3)
    assert is_similarity_join([1.0], [2.0])
    assert not is_similarity_join([1.0], None)
    assert is_one_dimensional(np.arange(4))
    assert not is_one_dimensional(np.ones((2, 2)))
    assert get_profile_length(np.arange(10), np.arange(6), 4) == 7

    assert is_pearson_array(np.array([0.0, 0.5, 1.0, np.nan]))
    assert not is_pearson_array(np.array([0.2, 1.8]))

    mp = {"class": "MatrixProfile"}
    pmp = {"class": "PMP"}
    stats = {"class": "Statistics"}
    assert is_mp_obj(mp) and not is_mp_obj(pmp)
    assert is_pmp_obj(pmp) and not is_pmp_obj(stats)
    assert is_stats_obj(stats)
    assert is_mp_or_pmp_obj(mp) and is_mp_or_pmp_obj(pmp) \
        and not is_mp_or_pmp_obj(stats)
    assert not is_mp_obj("MatrixProfile") and not is_mp_obj(None)

    # compute_dist: the (k, a, b, w, threshold) pool-worker tuple shape
    ts = np.sin(np.linspace(0, 8 * np.pi, 200))
    k, d = compute_dist((3, ts, ts[25:150], 16, 0.05))
    assert k == 3 and d >= 0
