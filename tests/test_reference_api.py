"""Drop-in compute()/analyze() parity with the reference's dispatch
(reference tests/test_compute.py:23-162, test_analyze.py)."""

import warnings

import numpy as np
import pytest

from matrixprofile_1_ray import analyze, compute


def test_compute_mp_exact_no_query(sampledata):
    profile = compute(sampledata, windows=32)
    assert profile["algorithm"] == "mpx"
    assert profile["w"] == 32
    assert profile["data"]["query"] is None
    assert profile["join"] is False
    assert profile["sample_pct"] == 1
    assert profile["class"] == "MatrixProfile"


def test_compute_mp_exact_with_query(sampledata):
    query = sampledata[100:200]
    profile = compute(sampledata, windows=32, query=query)
    assert profile["algorithm"] == "mpx"
    np.testing.assert_array_equal(profile["data"]["query"], query)
    assert profile["join"] is True


def test_compute_mp_approximate(sampledata):
    profile = compute(sampledata, windows=32, sample_pct=0.5)
    assert profile["algorithm"] == "scrimp++"
    assert profile["sample_pct"] == 0.5
    assert profile["class"] == "MatrixProfile"


def test_compute_pmp_windows(sampledata):
    windows = np.arange(8, 32)
    profile = compute(sampledata, windows=windows)
    assert profile["algorithm"] == "skimp"
    assert profile["class"] == "PMP"
    assert profile["sample_pct"] == 1
    np.testing.assert_array_equal(profile["windows"], windows)


def test_compute_pmp_no_windows(sampledata):
    profile = compute(sampledata, sample_pct=0.1)
    assert profile["algorithm"] == "skimp"
    assert profile["class"] == "PMP"
    assert profile["sample_pct"] == 0.1
    # partial sweep: some BFS-later windows stay uncomputed (inf rows)
    assert np.isinf(profile["pmp"]).any()


def test_compute_invalid_windows():
    ts = [3.0] * 8
    for w in (0, 3, [4, 0], [4, 3]):
        with pytest.raises(ValueError):
            compute(ts, windows=w)
    with pytest.raises(ValueError):
        compute(ts, windows=None, threshold=None)


def test_compute_preprocessing_kwargs():
    ts = np.array([np.nan, np.inf, np.inf, np.nan, np.inf, 2, 3, 2, 3, 1, 2,
                   3, 4, 2, np.nan, np.inf, 4, 2, 3, 4, 5, 6, 7, 8, 3, 4, 2,
                   3, 4, 5, 6, 7, 6, 5, 4, 3, np.nan, np.nan, np.inf, np.nan,
                   np.inf, np.nan])
    kwargs = {"window": 5, "impute_method": "median",
              "impute_direction": "backward", "add_noise": False}
    profile = compute(ts, windows=6, preprocessing_kwargs=kwargs)
    assert np.isfinite(profile["data"]["ts"]).all()

    profile = compute(ts, windows=6)  # preprocessing off by default
    assert not np.isfinite(profile["data"]["ts"]).all()

    with pytest.raises(ValueError):
        compute(ts, windows=6, preprocessing_kwargs=1)


def test_analyze_exact(sampledata):
    profile, figures = analyze(sampledata, windows=32)
    assert profile["class"] == "MatrixProfile"
    assert "motifs" in profile and "discords" in profile
    # reference figure count/order: mp, motif pair grid, motif overlay,
    # discords (reference tests/test_analyze.py asserts len == 4)
    assert len(figures) == 4
    assert figures[0]["name"] == "mp"


def test_analyze_pmp(sampledata):
    profile, figures = analyze(sampledata, windows=np.arange(8, 20))
    assert profile["class"] == "PMP"
    assert "motifs" in profile and "discords" in profile
    # reference count: pmp + motifs x2 + one per discord (k=3) == 6
    assert len(figures) == 6
    assert figures[0]["name"] == "pmp"


def test_analyze_named_subentries(sampledata):
    """reference analyze.py:25-170 named sub-entry points return
    (profile, figures) with discovery applied."""
    from matrixprofile_1_ray.api import (
        analyze_mp_approximate,
        analyze_mp_exact,
        analyze_pmp,
    )

    ts = sampledata[:400]
    prof, figs = analyze_mp_exact(ts, None, 32)
    assert prof["class"] == "MatrixProfile"
    assert "motifs" in prof and "discords" in prof and len(figs) >= 2

    prof, figs = analyze_mp_approximate(ts, None, 32, 0.5)
    assert prof["class"] == "MatrixProfile" and prof["sample_pct"] <= 1

    prof, figs = analyze_pmp(ts, None, 1.0, 0.98, windows=[16, 32])
    assert prof["class"] == "PMP" and len(figs) >= 2

    # windows=None derives the range from maximum_subsequence
    prof, _ = analyze_pmp(ts[:200], None, 1.0, 0.98)
    assert prof["class"] == "PMP"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reference_namespace_layout(sampledata):
    """A reference user's module paths resolve: mp.discover.motifs,
    mp.utils.pick_mp, mp.transform.apply_av, mp.io.to_disk (reference
    __init__.py imports the same namespaces)."""
    import matrixprofile_1_ray as mp

    prof = mp.compute(sampledata[:300], windows=32)
    prof = mp.discover.discords(mp.discover.motifs(prof))
    assert "motifs" in prof and "discords" in prof
    assert mp.discover.regimes(prof)["regimes"] is not None

    pmp = mp.compute(sampledata[:300], windows=[16, 32])
    picked = mp.utils.pick_mp(pmp, 32)
    assert picked["class"] == "MatrixProfile" and picked["w"] == 32
    assert mp.utils.empty_mp()["class"] == "MatrixProfile"

    av = mp.transform.apply_av(dict(prof), "complexity")
    assert len(av["av"]) == len(prof["mp"])

    assert mp.io.to_json and mp.io.from_mpf and mp.io.infer_file_format
    snips = mp.discover.snippets(sampledata[:300], 64)
    assert len(snips) >= 1


def test_algorithms_namespace(sampledata):
    """Reference algorithm import paths resolve to the working kernels."""
    from matrixprofile_1_ray.algorithms.mass2 import mass2
    from matrixprofile_1_ray.algorithms.mpdist import mpdist
    from matrixprofile_1_ray.algorithms.mpx import mpx
    from matrixprofile_1_ray.algorithms.regimes import extract_regimes
    from matrixprofile_1_ray.algorithms.skimp import skimp
    from matrixprofile_1_ray.algorithms.stomp import stomp
    from matrixprofile_1_ray.algorithms.top_k_discords import top_k_discords

    ts = sampledata
    prof = top_k_discords(mpx(ts, 32))
    regs = extract_regimes(prof)["regimes"]
    np.testing.assert_array_equal(regs, [759, 423, 583])
    assert abs(mpdist(ts, ts[199:300], 32)) < 1e-5
    assert mass2(ts, ts[:32]).shape[0] == len(ts) - 32 + 1
    assert stomp(ts[:200], 16)["class"] == "MatrixProfile"
    assert skimp(ts[:200], windows=[16, 32])["class"] == "PMP"

    import matrixprofile_1_ray as mp

    assert mp.algorithms.snippets.snippets and \
        mp.algorithms.hierarchical_clustering.hierarchical_clusters


def test_analyze_pmp_honors_sample_pct(sampledata):
    """reference analyze.py:263-266 routes multi-window analyze through
    analyze_pmp WITH the caller's sample_pct — a sampled PMP differs from
    the full one (the unsampled compute() multi-window branch pins
    sample_pct to 1, which analyze must not inherit)."""
    profile, _ = analyze(sampledata, windows=np.arange(8, 20),
                         sample_pct=0.2)
    assert profile["class"] == "PMP"
    assert profile["sample_pct"] == 0.2
    full, _ = analyze(sampledata, windows=np.arange(8, 20), sample_pct=1.0)
    # the sampled PMP leaves unvisited cells at inf; the full one does not
    assert np.isinf(profile["pmp"]).sum() > np.isinf(full["pmp"]).sum()


def test_analyze_no_window_none_threshold_defaults(sampledata):
    """reference analyze_pmp defaults threshold to 0.98 when None instead
    of raising (compute() without windows requires a threshold, analyze()
    does not)."""
    profile, _ = analyze(sampledata[:300], windows=None, threshold=None)
    assert profile["class"] == "PMP"


def test_analyze_single_window_validation(sampledata):
    """analyze keeps compute()'s window floor (reference
    compute.py:100-101)."""
    import pytest

    with pytest.raises(ValueError):
        analyze(sampledata, windows=3)
    with pytest.raises(ValueError):
        analyze(sampledata, windows=[3, 16])


def test_analyze_rejects_zero_sample_pct_single_window():
    """reference analyze.py:270: single window + sample_pct <= 0 is
    neither exact nor approximate — scrimp++ with 0 samples would return
    a meaningless profile instead of this contract error."""
    ts = np.sin(np.linspace(0, 10, 200))
    with pytest.raises(RuntimeError, match="uknown operation"):
        analyze(ts, windows=32, sample_pct=0.0)


def test_compute_no_threshold_window_gives_actionable_error():
    """When maximum_subsequence finds no window above the threshold it
    returns np.nan; the reference then dies with TypeError('float' not
    subscriptable) — the guard raises the actionable ValueError instead
    (tested directly: a series guaranteed below an extreme threshold)."""
    from matrixprofile_1_ray.api import _require_upper_window

    with pytest.raises(ValueError, match="no window size reaches"):
        _require_upper_window(np.nan, 0.98)
    _require_upper_window({"upper_window": 16}, 0.98)  # dict passes
