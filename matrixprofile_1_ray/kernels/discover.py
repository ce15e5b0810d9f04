"""Discovery operators: top-k discords/motifs, FLUSS segmentation, snippets.

Semantics follow reference matrixprofile/algorithms/top_k_discords.py,
top_k_motifs.py, regimes.py and snippets.py (file:line notes inline).
All are per-series kernels consumed by stages/discover.py.
"""

from __future__ import annotations

import numpy as np

from .mass import apply_exclusion_zone, mass2, pearson_to_euclidean
from .mpdist import mpdist_vector


def _is_mp(profile):
    return isinstance(profile, dict) and profile.get("class") == "MatrixProfile"


def _is_pmp(profile):
    return isinstance(profile, dict) and profile.get("class") == "PMP"


# ---------------------------------------------------------------- discords

def mp_top_k_discords(profile, exclusion_zone=None, k: int = 3):
    """Top-k maxima of the MP with ±ez suppression
    (reference top_k_discords.py:94-155)."""
    if not _is_mp(profile):
        raise ValueError("Expecting MP data structure!")
    tmp = np.array(profile["mp"], dtype="d", copy=True)
    n = len(tmp)
    if exclusion_zone is None:
        exclusion_zone = profile.get("ez", None)

    found = []
    for idx in np.argsort(tmp)[::-1]:
        if not np.isinf(tmp[idx]):
            found.append(idx)
            if exclusion_zone > 0:
                tmp[max(0, idx - exclusion_zone) : min(n, idx + exclusion_zone)] = np.inf
        if len(found) >= k:
            break

    profile["discords"] = np.array(found, dtype="int")
    return profile


def pmp_top_k_discords(profile, exclusion_zone=None, k: int = 3):
    """Top-k (row, col) maxima over a PMP (reference top_k_discords.py:16-91).
    The reference freezes the exclusion zone from the first discord's window —
    preserved here."""
    if not _is_pmp(profile):
        raise ValueError("Expecting PMP data structure!")
    pmp = profile.get("pmp")
    windows = profile.get("windows")
    if profile.get("metric") == "pearson":
        tmp = pearson_to_euclidean(pmp, windows)
    else:
        tmp = np.array(pmp, dtype="d", copy=True)
    tmp[~np.isfinite(tmp)] = -np.inf

    found = []
    for _ in range(k):
        max_idx = np.unravel_index(np.argmax(tmp), tmp.shape)
        if tmp[max_idx] == -np.inf:
            break
        found.append(max_idx)
        window = windows[max_idx[0]]
        n = tmp[max_idx[0]].shape[0]
        if exclusion_zone is None:
            exclusion_zone = int(np.floor(window / 2))
        tmp[max_idx[0]][max(0, max_idx[1] - exclusion_zone)
                        : min(n, max_idx[1] + exclusion_zone)] = -np.inf

    profile["discords"] = np.array(found)
    return profile


def top_k_discords(profile, exclusion_zone=None, k: int = 3):
    """Dispatch on MP vs PMP (reference top_k_discords.py:158-201)."""
    if _is_mp(profile):
        return mp_top_k_discords(profile, exclusion_zone=exclusion_zone, k=k)
    if _is_pmp(profile):
        return pmp_top_k_discords(profile, exclusion_zone=exclusion_zone, k=k)
    raise ValueError("Expecting MP or PMP data structure!")


# ------------------------------------------------------------------ motifs

def mp_top_k_motifs(profile, exclusion_zone=None, k: int = 3,
                    max_neighbors: int = 10, radius: int = 3,
                    use_cmp: bool = False):
    """Top-k minima of the MP plus MASS-requeried neighbors
    (reference top_k_motifs.py:174-314)."""
    if not _is_mp(profile):
        raise ValueError("Expecting MP data structure!")
    window_size = profile["w"]
    ts = profile["data"]["ts"]
    data_len = len(ts)
    mp = np.copy(profile["cmp"] if use_cmp else profile["mp"])
    mpi = profile["pi"]
    if exclusion_zone is None:
        exclusion_zone = profile.get("ez", None)

    motifs = []
    for _ in range(k):
        min_idx = int(np.argmin(mp))
        min_dist = mp[min_idx]
        if not np.isfinite(min_dist):
            break

        first_idx = min(min_idx, mpi[min_idx])
        second_idx = max(min_idx, mpi[min_idx])

        query = ts[first_idx : first_idx + window_size]
        # real part: old numpy compared complex by real part, newer numpy
        # rejects complex ordering — take it explicitly (imag ~ 1e-17)
        dp = np.real(mass2(ts, query))
        dp[~np.isfinite(mp)] = np.inf

        for j in (first_idx, second_idx):
            dp = apply_exclusion_zone(exclusion_zone, False, window_size,
                                      data_len, j, dp)
            mp = apply_exclusion_zone(exclusion_zone, False, window_size,
                                      data_len, j, mp)

        neighbors = []
        for _ in range(max_neighbors):
            neighbor_idx = int(np.argmin(dp))
            neighbor_dist = dp[neighbor_idx]
            if not np.isfinite(neighbor_dist) or not (radius * min_dist >= neighbor_dist):
                break
            neighbors.append(neighbor_idx)
            dp = apply_exclusion_zone(exclusion_zone, False, window_size,
                                      data_len, neighbor_idx, dp)
            mp = apply_exclusion_zone(exclusion_zone, False, window_size,
                                      data_len, neighbor_idx, mp)

        motifs.append({"motifs": [first_idx, second_idx], "neighbors": neighbors})

    profile["motifs"] = motifs
    return profile


def pmp_top_k_motifs(profile, exclusion_zone=None, k: int = 3,
                     max_neighbors: int = 10, radius: int = 3):
    """PMP variant (reference top_k_motifs.py:16-171)."""
    if not _is_pmp(profile):
        raise ValueError("Expecting PMP data structure!")
    ts = profile["data"]["ts"]
    data_len = len(ts)
    pmp = profile["pmp"]
    profile_len = pmp.shape[1]
    pmpi = profile["pmpi"]
    windows = profile["windows"]

    finite = pmp[np.isfinite(pmp)]
    if finite.size and finite.min() >= 0 and finite.max() <= 1:
        tmp = pearson_to_euclidean(pmp, windows)
    else:
        tmp = np.array(pmp, dtype="d", copy=True)
    tmp[~np.isfinite(tmp)] = np.inf

    motifs = []
    for _ in range(k):
        min_idx = np.unravel_index(np.argmin(tmp), tmp.shape)
        min_dist = tmp[min_idx]
        if not np.isfinite(min_dist):
            break
        row, col = int(min_idx[0]), int(min_idx[1])
        first_idx = min(col, pmpi[row][col])
        second_idx = max(col, pmpi[row][col])
        window_size = int(windows[row])

        query = ts[first_idx : first_idx + window_size]
        dp = np.real(mass2(ts, query))
        dp = np.concatenate((dp, np.full(profile_len - len(dp), np.inf)))
        dp[~np.isfinite(pmp[row])] = np.inf

        # truthiness, NOT `is None`: the reference's PMP variant coerces
        # an explicit exclusion_zone=0 to floor(w/2) (top_k_motifs.py:108)
        # while its MP variant honors 0 (top_k_motifs.py:233) — a real
        # reference asymmetry we preserve for drop-in parity
        if not exclusion_zone:
            exclusion_zone = int(np.floor(window_size / 2))

        for j in (first_idx, second_idx):
            dp = apply_exclusion_zone(exclusion_zone, False, window_size,
                                      data_len, j, dp)
            tmp[row] = apply_exclusion_zone(exclusion_zone, False, window_size,
                                            data_len, j, tmp[row])

        neighbors = []
        for _ in range(max_neighbors):
            neighbor_idx = int(np.argmin(dp))
            neighbor_dist = np.real(dp[neighbor_idx])
            if not np.isfinite(neighbor_dist) or not (radius * min_dist >= neighbor_dist):
                break
            neighbors.append((row, neighbor_idx))
            dp = apply_exclusion_zone(exclusion_zone, False, window_size,
                                      data_len, neighbor_idx, dp)
            tmp[row] = apply_exclusion_zone(exclusion_zone, False, window_size,
                                            data_len, neighbor_idx, tmp[row])

        motifs.append({"motifs": [(row, first_idx), (row, second_idx)],
                       "neighbors": neighbors})

    profile["motifs"] = motifs
    return profile


def top_k_motifs(profile, exclusion_zone=None, k: int = 3,
                 max_neighbors: int = 10, radius: int = 3,
                 use_cmp: bool = False):
    """Dispatch on MP vs PMP (reference top_k_motifs.py:317-393)."""
    if _is_mp(profile):
        return mp_top_k_motifs(profile, exclusion_zone=exclusion_zone, k=k,
                               max_neighbors=max_neighbors, radius=radius,
                               use_cmp=use_cmp)
    if _is_pmp(profile):
        return pmp_top_k_motifs(profile, exclusion_zone=exclusion_zone, k=k,
                                max_neighbors=max_neighbors, radius=radius)
    raise ValueError("Expecting MP or PMP data structure!")


# ------------------------------------------------------------ segmentation

def idealized_arc_curve(width, index):
    """Parabola of width n, height n/2 (reference regimes.py:16-40)."""
    height = width / 2
    c = width / 2
    a = height / (width / 2) ** 2
    return -(a * (index - c) ** 2) + height


def fluss(profile):
    """Corrected Arc Curve from the profile index
    (reference regimes.py:43-91), vectorized via bincount + cumsum."""
    if not _is_mp(profile):
        raise ValueError("profile must be a MatrixProfile structure")
    mpi = np.asarray(profile["pi"], dtype=np.int64)
    w = profile["w"]
    n = len(mpi)

    idx = np.arange(n)
    small = np.minimum(idx, mpi)
    large = np.maximum(idx, mpi)
    nnmark = np.bincount(small + 1, minlength=n + 1).astype("d")
    nnmark -= np.bincount(large, minlength=n + 1)
    cross_count = np.cumsum(nnmark[:n])

    with np.errstate(divide="ignore", invalid="ignore"):  # arc is 0 at idx 0
        cac = cross_count / idealized_arc_curve(n, idx)
    cac[cac > 1] = 1
    cac[:w] = 1
    cac[-w:] = 1
    return cac


def extract_regimes(profile, num_regimes: int = 3):
    """argmins of the CAC with ez = 5*w suppression
    (reference regimes.py:94-152)."""
    if not _is_mp(profile):
        raise ValueError("profile must be a MatrixProfile structure")
    cac = profile.get("cac")
    if cac is None:
        cac = fluss(profile)
        profile["cac"] = cac
    ez = profile["w"] * 5

    tmp = np.copy(cac)
    n = len(tmp)
    regimes = []
    for _ in range(num_regimes):
        min_index = int(np.argmin(tmp))
        regimes.append(min_index)
        tmp[max(0, min_index - ez) : min(n, min_index + ez)] = np.inf

    profile["regimes"] = np.array(regimes, dtype=int)
    profile["cac_ez"] = ez
    return profile


# --------------------------------------------------------------- snippets

def snippets(ts, snippet_size: int, num_snippets: int = 2, window_size=None):
    """Greedy representative-subsequence summary
    (reference snippets.py:17-126)."""
    ts = np.asarray(ts, dtype="d")
    time_series_len = len(ts)
    n = len(ts)

    if not isinstance(snippet_size, int) or snippet_size < 4:
        raise ValueError("snippet_size must be an integer >= 4")
    if n < 2 * snippet_size:
        raise ValueError("Time series is too short relative to snippet length")
    if not window_size:
        window_size = int(np.floor(snippet_size / 2))
    if window_size >= snippet_size:
        raise ValueError("window_size must be smaller than snippet_size")

    num_zeros = int(snippet_size * np.ceil(n / snippet_size) - n)
    ts = np.concatenate((ts, np.zeros(num_zeros)))

    indices = np.arange(0, len(ts) - snippet_size, snippet_size)
    distances = np.array([
        mpdist_vector(ts, ts[i : i + snippet_size - 1], int(window_size))
        for i in indices
    ])

    out = []
    minis = np.inf
    total_min = None
    for _ in range(num_snippets):
        minims = np.inf
        index = -1
        for i in range(len(indices)):
            s = np.sum(np.minimum(distances[i, :], minis))
            if minims > s:
                minims = s
                index = i
        minis = np.minimum(distances[index, :], minis)
        actual_index = indices[index]
        snippet_dist = distances[index]
        out.append({
            "index": actual_index,
            "snippet": ts[actual_index : actual_index + snippet_size],
            "distance": snippet_dist,
        })
        total_min = snippet_dist if total_min is None else np.minimum(total_min, snippet_dist)

    for snip in out:
        mask = snip["distance"] <= total_min
        arr = np.arange(len(mask))
        max_index = time_series_len - snippet_size
        snip["neighbors"] = [x for x in arr[mask] if x <= max_index]
        if max_index in snip["neighbors"]:
            snip["neighbors"].extend(range(max_index + 1, time_series_len))
        snip["fraction"] = mask.sum() / (len(ts) - snippet_size)
        total_min = total_min - mask
        del snip["distance"]

    return out
