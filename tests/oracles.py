"""Independent reference implementations used only to check the real ones.

These deliberately take the slow, obvious route: exhaustive subsequence
enumeration for the banded longest-subsequence problem, a textbook
quadratic DBSCAN with explicit neighborhood scans, an outward walk
from every maximum for peak prominence, and a per-feature loop for the
booster's split search.  They share no code with the implementations they
validate.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def brute_force_longest_periodic(
    times, p_min: float, p_max: float
) -> tuple[int, set[tuple[float, ...]]]:
    """Enumerate every subsequence and keep the longest valid ones.

    Returns (best gap count, set of optimal timestamp tuples); best is 0 and
    the set empty when no valid pair exists.  Only usable for ~15 points.
    """
    times = [float(v) for v in times]

    def valid(sub: tuple[float, ...]) -> bool:
        for a, b in zip(sub, sub[1:]):
            gap = b - a
            if not p_min <= gap <= p_max:
                return False
        return True

    best = 0
    optima: set[tuple[float, ...]] = set()
    n = len(times)
    for size in range(2, n + 1):
        for idx in combinations(range(n), size):
            sub = tuple(times[i] for i in idx)
            if valid(sub):
                length = size - 1
                if length > best:
                    best = length
                    optima = {sub}
                elif length == best:
                    optima.add(sub)
    return best, optima


def naive_dbscan_1d(
    points, weights, eps: float, min_pts: float
) -> list[tuple[float, ...]]:
    """Classic DBSCAN over sorted 1-D points with full O(n^2) scans.

    Points are visited in ascending order; cluster expansion is a BFS over
    core points, and a border point stays with the first cluster that
    reaches it.  Returns clusters as sorted tuples; noise is dropped.
    """
    pts = [float(p) for p in points]
    wts = [float(w) for w in weights]
    n = len(pts)

    def neighbors(i: int) -> list[int]:
        return [j for j in range(n) if abs(pts[j] - pts[i]) <= eps]

    def mass(idx: list[int]) -> float:
        return sum(wts[j] for j in idx)

    assignment = [-1] * n
    visited = [False] * n
    next_label = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        nbrs = neighbors(i)
        if mass(nbrs) < min_pts:
            continue  # provisional noise; may be claimed later
        label = next_label
        next_label += 1
        assignment[i] = label
        queue = list(nbrs)
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if not visited[j]:
                visited[j] = True
                j_nbrs = neighbors(j)
                if mass(j_nbrs) >= min_pts:
                    queue.extend(j_nbrs)
            if assignment[j] == -1:
                assignment[j] = label
    clusters: dict[int, list[float]] = {}
    for i, label in enumerate(assignment):
        if label >= 0:
            clusters.setdefault(label, []).append(pts[i])
    return [tuple(sorted(members)) for _, members in sorted(clusters.items())]


def _plateau_maxima(sig: np.ndarray) -> list[int]:
    # Local maxima; a flat plateau counts once, at its leftmost sample.
    # Endpoints are never peaks and neither is a plateau touching an end.
    n = sig.shape[0]
    maxima: list[int] = []
    i = 1
    while i < n - 1:
        if sig[i] > sig[i - 1]:
            j = i
            while j < n - 1 and sig[j + 1] == sig[j]:
                j += 1
            if j < n - 1 and sig[j + 1] < sig[j]:
                maxima.append(i)
            i = j + 1
        else:
            i += 1
    return maxima


def _prominence(sig: np.ndarray, idx: int) -> float:
    h = sig[idx]
    bases = []
    for step in (-1, 1):
        j = idx + step
        m = h
        while 0 <= j < sig.shape[0] and sig[j] <= h:
            if sig[j] < m:
                m = sig[j]
            j += step
        bases.append(m)
    return float(h - max(bases))


def naive_prominent_peaks(signal, min_prominence: float) -> list[tuple[int, float, float]]:
    """Walk outward from every plateau maximum until strictly higher terrain.

    Returns (index, height, prominence) for each maximum whose prominence
    reaches the threshold, in index order.  O(n * w) for maxima whose
    searches span w samples: quadratic on a drifting baseline.
    """
    sig = np.asarray(signal, dtype=float)
    out = []
    for idx in _plateau_maxima(sig):
        prom = _prominence(sig, idx)
        if prom >= min_prominence:
            out.append((idx, float(sig[idx]), prom))
    return out


def naive_best_split(X, g, h, rows, cfg) -> tuple[int, float] | None:
    """The booster's split search, one feature at a time.

    Returns (feature, threshold) of the highest-gain cut that clears
    ``cfg.gamma`` with at least ``cfg.min_child_weight`` hessian mass on
    each side, or None.  Ties keep the lowest feature, then the lowest
    threshold; a feature whose best cut scores NaN is skipped.
    """
    G = float(g[rows].sum())
    H = float(h[rows].sum())
    lam = cfg.reg_lambda
    parent = G * G / (H + lam)
    best_gain = cfg.gamma
    best: tuple[int, float] | None = None
    for f in range(X.shape[1]):
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cut = np.flatnonzero(np.diff(vs) > 0)
        if cut.size == 0:
            continue
        gs = np.cumsum(g[rows][order])
        hs = np.cumsum(h[rows][order])
        gl, hl = gs[cut], hs[cut]
        gr, hr = G - gl, H - hl
        gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
        valid = (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight)
        gain = np.where(valid, gain, -np.inf)
        k = int(np.argmax(gain))
        if gain[k] > best_gain:
            best_gain = float(gain[k])
            best = (f, float((vs[cut[k]] + vs[cut[k] + 1]) / 2.0))
    return best
