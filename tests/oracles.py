"""Independent reference implementations used only to check the real ones.

These deliberately take the slow, obvious route: exhaustive subsequence
enumeration for the banded longest-subsequence problem, a full sweep of
every peak fragment for segmentation, a textbook quadratic DBSCAN with
explicit neighborhood scans, an outward walk from every maximum for peak
prominence, a per-feature loop for the booster's split search, and one
candidate, signal and window at a time for the feature catalogue.  They
share no code with the implementations they validate, apart from the
feature layout's constants, the peak finder the catalogue counts peaks
with (itself checked against naive_prominent_peaks), and the one-band
search naive_segment runs on each fragment and band (longest_abs_periodic,
itself checked against the brute-force search).

The all-pairs interval oracles (naive_label_candidates,
naive_per_episode_metrics, loop_cluster) are the earlier bodies of the
functions they check, kept so that the overlap-range rewrites can be held
to the same results bit for bit; the episode oracle reports its counts
through evaluation._prf, the precision/recall arithmetic both share.
stack_prominences and searched_build_tree are kept the same way: the
earlier prominence stack, and the earlier tree builder that searches every
node, on the booster's own split search and order filter.  So are
set_per_second_metrics, the per-second scorer that builds a set of every
truth second, counter_score_seconds, the scorer that counts every covered
second in a Counter, and walked_segment, the segmenter whose screen
searches each band's widened windows and whose DP keeps a max-deque, then
walks back from each optimum to join the chain starts level by level.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations
from math import inf, sqrt
from typing import Callable, Sequence

import numpy as np

from chewdet.boosting import TreeNode, _best_split, _keep
from chewdet.episodes import DbscanConfig
from chewdet.evaluation import Metrics, _prf
from chewdet.features import (
    DEFAULT_MIN_PROMINENCE,
    FREQ_HZ,
    SIGNALS,
    WINDOW_PAD_S,
    WINDOWS,
)
from chewdet.peaks import Peak, find_prominent_peaks
from chewdet.records import LabeledInterval, covered_seconds
from chewdet.periodic import (
    CandidateWindow,
    PeriodicSubsequence,
    SweepConfig,
    _validate_times,
    longest_abs_periodic,
)
from chewdet.signals import DerivedTrace

# Guard band on window edges; absorbs sub-ns float wobble when a window
# boundary lands exactly on a sample time.
_EDGE_EPS = 1e-9


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


def naive_segment(
    peaks: Sequence[Peak], cfg: SweepConfig, min_len: int
) -> list[PeriodicSubsequence]:
    """chewdet.periodic.segment the long way: every fragment of at least two
    peaks is swept in full (every band's tied chains enumerated, a chain
    found in two bands kept in the lower), and the short candidates are
    dropped afterwards."""
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    times = [p.t for p in peaks]
    _validate_times(times)

    fragments: list[list[float]] = []
    current: list[float] = []
    for v in times:
        if current and v - current[-1] > cfg.max:
            fragments.append(current)
            current = []
        current.append(v)
    if current:
        fragments.append(current)

    found: dict[tuple[float, ...], PeriodicSubsequence] = {}
    for frag in fragments:
        if len(frag) < 2:
            continue
        for lo, hi in cfg.bands():
            for s in longest_abs_periodic(frag, lo, hi):
                if s.timestamps not in found:
                    found[s.timestamps] = PeriodicSubsequence(s.timestamps, lo, hi, cfg.epsilon)
    out = [s for s in found.values() if s.length >= min_len]
    out.sort(key=lambda s: (s.c1, s.p_min, s.timestamps))
    return out


def deque_optima(tl: list[float], p_min: float, p_max: float) -> list[int]:
    # opt[i]: gaps of the longest chain ending at tl[i].  Sliding-window DP:
    # dq holds candidate predecessors with non-increasing opt values; a
    # predecessor enters once its gap reaches p_min and leaves once its gap
    # passes p_max.
    n = len(tl)
    opt = [0] * n
    dq: deque[int] = deque()
    nxt = 0  # next index eligible to enter the window
    for i in range(n):
        ti = tl[i]
        while nxt < i and ti - tl[nxt] >= p_min:
            while dq and opt[dq[-1]] <= opt[nxt]:
                dq.pop()
            dq.append(nxt)
            nxt += 1
        while dq and ti - tl[dq[0]] > p_max:
            dq.popleft()
        if dq:
            opt[i] = opt[dq[0]] + 1
    return opt


def scanned_predecessors(tl: list[float], opt: list[int], i: int, p_min: float, p_max: float) -> list[int]:
    # The events one gap before i on a longest chain ending at i.
    out = []
    for j in range(i - 1, -1, -1):
        gap = tl[i] - tl[j]
        if gap > p_max:
            break
        if opt[j] == opt[i] - 1 and gap >= p_min:
            out.append(j)
    return out


def walked_longest_spans(
    tl: list[float], p_min: float, p_max: float, min_len: int
) -> tuple[int, set[tuple[float, float]]]:
    # The optimum and the distinct (first, last) times of its tied chains,
    # none when it is below min_len (>= 1).  On-optimum events are found
    # level by level back from the optimal endpoints; each then carries the
    # chain starts that reach it: its own, or the union of its predecessors'.
    opt = deque_optima(tl, p_min, p_max)
    best = max(opt)
    if best < min_len:
        return best, set()
    ends = level = [i for i in range(len(tl)) if opt[i] == best]
    preds: dict[int, list[int]] = {}
    while level:
        for i in level:
            preds[i] = scanned_predecessors(tl, opt, i, p_min, p_max)
        level = {j for i in level for j in preds[i]}
    starts: dict[int, set[int]] = {}
    for i in sorted(preds):  # an event's predecessors come before it
        starts[i] = set().union(*(starts[j] for j in preds[i])) or {i}
    return best, {(tl[s], tl[e]) for e in ends for s in starts[e]}


def searched_screen(times: np.ndarray, bands: list[tuple[float, float]], bounds: np.ndarray, min_len: int):
    # The (fragment, band) pairs, in that order, that may reach min_len gaps:
    # per band, two searches give every window, widened by 4 ulps of the
    # largest finite time or band edge, and min(min_len, 8) - 1 whole-array
    # rounds keep an event only while its window holds one kept before.
    scale = max(np.abs(times[np.isfinite(times)]).max(initial=0.0), bands[-1][1])
    tol = 4 * np.spacing(scale)
    frag = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    hit = np.zeros((bounds.size - 1, len(bands)), dtype=bool)
    count = np.zeros(times.size + 1, dtype=np.intp)
    for b, (p_min, p_max) in enumerate(bands):
        first = np.searchsorted(times, times - p_max - tol, "left")
        stop = np.searchsorted(times, times - p_min + tol, "right")
        alive = stop > first
        for _ in range(min(min_len, 8) - 1):
            np.cumsum(alive, out=count[1:])
            alive = count[stop] > count[first]
        hit[frag[alive], b] = True
    return zip(*np.nonzero(hit))


def walked_segment(peaks: Sequence[Peak], cfg: SweepConfig, min_len: int) -> list[CandidateWindow]:
    """chewdet.periodic.segment as the searched screen and the walked-back
    spans gave it: the same candidates by an independent window rule."""
    times = _validate_times([p.t for p in peaks])
    bands = cfg.bands()
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(times) > cfg.max) + 1, [times.size]))
    tl = times.tolist()
    found: dict[tuple[float, float], CandidateWindow] = {}
    for f, b in searched_screen(times, bands, bounds, min_len):
        p_min, p_max = bands[b]
        best, spans = walked_longest_spans(tl[bounds[f] : bounds[f + 1]], p_min, p_max, min_len)
        for c1, c2 in spans:
            found.setdefault((c1, c2), CandidateWindow(c1, c2, p_min, p_max, cfg.epsilon, best))
    return sorted(found.values(), key=lambda c: (c.c1, c.p_min, c.c2))


def set_per_second_metrics(pred_seconds, truth_intervals: Sequence[LabeledInterval]) -> Metrics:
    """chewdet.evaluation.per_second_metrics on sets of every whole second."""
    pred = set(int(s) for s in pred_seconds)
    truth: set[int] = set()
    for iv in truth_intervals:
        truth.update(covered_seconds(iv.start, iv.end))
    tp = len(pred & truth)
    return _prf(tp, len(pred), tp, len(truth))


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


def counter_score_seconds(positives: Sequence) -> list[tuple[int, int]]:
    """episodes.score_seconds as sorted (second, count) pairs, one Counter entry per covered second."""
    counts: Counter[int] = Counter()
    for cand in positives:
        counts.update(covered_seconds(cand.c1, cand.c2))
    return sorted(counts.items())


def loop_cluster(scores: np.ndarray, cfg: DbscanConfig) -> list[tuple[int, ...]]:
    """episodes.cluster's members, with one Python step per border point and
    per member; seconds are whole, so eps counts as floor(eps)."""
    if len(scores) == 0:
        return []
    pts = scores[:, 0].astype(float)
    eps = np.floor(cfg.eps)
    weights = scores[:, 1].astype(float) if cfg.use_score_weight else np.ones(len(scores))
    lo = np.searchsorted(pts, pts - eps, side="left")
    hi = np.searchsorted(pts, pts + eps, side="right")
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    core = prefix[hi] - prefix[lo] >= cfg.min_pts
    core_idx = np.flatnonzero(core)
    if core_idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(pts[core_idx]) > eps)
    spines = np.split(core_idx, breaks + 1)
    assignment = np.full(len(scores), -1, dtype=int)
    for label, spine in enumerate(spines):
        assignment[spine] = label
    core_pos = pts[core_idx]
    for i in np.flatnonzero(~core):
        # Border point: joins the leftmost core within eps, if any.
        k = int(np.searchsorted(core_pos, pts[i] - eps, side="left"))
        if k < core_idx.size and core_pos[k] - pts[i] <= eps:
            assignment[i] = assignment[core_idx[k]]
    clusters: dict[int, list[int]] = {}
    for i, label in enumerate(assignment):
        if label >= 0:
            clusters.setdefault(int(label), []).append(int(pts[i]))
    return [tuple(sorted(members)) for _, members in sorted(clusters.items())]


def naive_label_candidates(
    candidates: Sequence, chews: Sequence[LabeledInterval], min_overlap: float = 0.5
) -> np.ndarray:
    """features.label_candidates summing every chew for every candidate."""
    labels = np.zeros(len(candidates), dtype=int)
    spans = sorted((iv.start, iv.end) for iv in chews)
    for k, cand in enumerate(candidates):
        covered = 0.0
        for a, b in spans:
            covered += max(0.0, min(b, cand.c2) - max(a, cand.c1))
        duration = cand.c2 - cand.c1
        if duration > 0 and covered / duration >= min_overlap:
            labels[k] = 1
    return labels


def naive_per_episode_metrics(
    pred: Sequence[LabeledInterval],
    truth: Sequence[LabeledInterval],
    overlap_threshold: float = 0.5,
    base: str = "truth",
) -> Metrics:
    """evaluation.per_episode_metrics testing every (pred, truth) pair;
    both sides must already be disjoint."""

    def matched(p: LabeledInterval, t: LabeledInterval) -> bool:
        ov = min(p.end, t.end) - max(p.start, t.start)
        if ov <= 0:
            return False
        if base == "truth":
            ref = t.duration
        elif base == "pred":
            ref = p.duration
        else:
            ref = min(p.duration, t.duration)
        return ov >= overlap_threshold * ref

    tp_pred = sum(1 for p in pred if any(matched(p, t) for t in truth))
    detected = sum(1 for t in truth if any(matched(p, t) for p in pred))
    return _prf(tp_pred, len(pred), detected, len(truth))


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


def _stack_bases(highs: list[float], valleys: list[float]) -> list[float]:
    # Per high, the lowest valley back to the nearest strictly higher high
    # (or the start); valleys[k] lies just before highs[k].  A stack entry
    # carries the lowest valley since the entry below it; the infinite
    # sentinel at the bottom is never popped by a finite high.  An infinite
    # high is a wall between windows: no search crosses it, so the stack
    # starts over there.
    out: list[float] = []
    stack_h, stack_low = [inf], [inf]
    for h, low in zip(highs, valleys):
        if h == inf:
            stack_h, stack_low = [inf], [inf]
            out.append(inf)
            continue
        while stack_h[-1] <= h:
            stack_h.pop()
            below = stack_low.pop()
            if below < low:
                low = below
        stack_h.append(h)
        stack_low.append(low)
        out.append(low)
    return out


def stack_prominences(walled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions and prominences of the maxima of walled windows, by the stack alone.

    The earlier body of peaks._prominences, before the peel: every turning
    point goes through the monotone stack, left to right and back.
    """
    # Position in ``walled`` and prominence of every maximum of finite
    # windows laid between walls of infinite height (one at each end, one
    # between each pair).  A wall stops every base search, as a window's
    # end does, and keeps end samples and end-touching plateaus from being
    # peaks.  Turning points (leftmost sample of each run that reverses
    # direction) alternate low, high, ..., low; the walls between windows
    # are highs among them and are dropped from the result.
    step = np.diff(walled)
    change = np.flatnonzero(step)
    rising = step[change] > 0
    at = change[:-1][rising[:-1] != rising[1:]] + 1
    peak_at = at[1::2]
    heights = walled[peak_at]
    highs = heights.tolist()
    lows = walled[at[0::2]].tolist()
    left = _stack_bases(highs, lows)
    right = _stack_bases(highs[::-1], lows[:0:-1])[::-1]
    real = heights < inf
    return peak_at[real], heights[real] - np.maximum(left, right)[real]


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


def searched_build_tree(X, g, h, rows, presorted, cfg):
    """One boosting tree, every node below max_depth with 2+ rows searched.

    The earlier body of boosting._build_tree, before light nodes skipped the
    search: each child's sorted order is cut down as soon as it is made.
    """
    nodes: list[TreeNode] = []
    side = np.zeros(X.shape[0], dtype=bool)  # the rows to keep; read only at a node's rows
    side[rows] = True

    def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
        split = None
        if depth < cfg.max_depth and rows.size >= 2:
            split = _best_split(X, g, h, rows, order, cfg)
        idx = len(nodes)
        if split is None:
            G = float(g[rows].sum())
            H = float(h[rows].sum())
            value = -cfg.eta * G / (H + cfg.reg_lambda)
            nodes.append(TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=value))
            return idx
        f, thr = split
        nodes.append(TreeNode(feature=f, threshold=thr, left=-1, right=-1, value=0.0))
        children = []
        mask = X[rows, f] < thr
        for part in (mask, ~mask):
            side[rows] = part
            children.append(grow(rows[part], _keep(order, side, int(part.sum())), depth + 1))
        nodes[idx] = TreeNode(f, thr, *children, value=0.0)
        return idx

    grow(rows, _keep(presorted, side, rows.size), 0)
    # A root that cannot split produces no tree at all; the round is a no-op.
    return None if nodes[0].is_leaf else tuple(nodes)


def _moments(x: np.ndarray) -> tuple[float, float]:
    # Population skewness and excess kurtosis; constants give exactly 0.
    d = x - x.mean()
    sq = d * d
    m2 = float(np.mean(sq))
    if m2 == 0.0:
        return 0.0, 0.0
    # IEEE products and sqrt only; an overflow is inf or NaN, and the row
    # then fails as non-finite.
    skew = float(np.mean(sq * d)) / (m2 * sqrt(m2))
    kurt = float(np.mean(sq * sq)) / (m2 * m2) - 3.0
    return skew, kurt


def _stats_block(x: np.ndarray) -> list[float]:
    q1, med, q3 = (float(v) for v in np.percentile(x, [25.0, 50.0, 75.0]))
    skew, kurt = _moments(x)
    return [
        float(x.max()),
        float(x.min()),
        float(x.mean()),
        med,
        float(np.var(x)),
        float(np.sqrt(np.mean(x * x))),
        skew,
        kurt,
        q1,
        q3,
        q3 - q1,
    ]


def _freq_amplitudes(x: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    n = x.shape[0]
    if n < 2:
        return np.zeros(len(FREQ_HZ))
    spectrum = np.abs(np.fft.rfft(x - x.mean())) * (2.0 / n)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    bins = [int(np.argmin(np.abs(freqs - hz))) for hz in FREQ_HZ]
    return spectrum[bins]


def _longest_run(mask: np.ndarray) -> int:
    best = run = 0
    for flag in mask:
        run = run + 1 if flag else 0
        if run > best:
            best = run
    return best


def _timeseries_block(
    x: np.ndarray, tw: np.ndarray, min_prominence: float, first: int
) -> list[float]:
    # A non-finite sample is named by its index in the trace; x starts at
    # trace sample ``first``.
    nonfinite = np.flatnonzero(~np.isfinite(x))
    if nonfinite.size:
        k = int(nonfinite[0])
        raise ValueError(f"signal sample {first + k} is not finite ({x[k]})")
    n = x.shape[0]
    m = x.mean()
    below = x < m
    above = x > m
    return [
        float(below.sum()),
        float(above.sum()),
        float(int(np.argmin(x)) / n),
        float(int(np.argmax(x)) / n),
        float(_longest_run(below)),
        float(_longest_run(above)),
        float(len(find_prominent_peaks(x, tw, min_prominence))),
    ]


def _correlation(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    va = float(np.mean(da * da))
    vb = float(np.mean(db * db))
    if va == 0.0 or vb == 0.0:
        return 0.0
    return float(np.mean(da * db)) / np.sqrt(va * vb)


def _window_indices(t: np.ndarray, lo: float, hi: float) -> slice:
    i0 = int(np.searchsorted(t, lo - _EDGE_EPS, side="left"))
    i1 = int(np.searchsorted(t, hi + _EDGE_EPS, side="right"))
    return slice(i0, i1)


def naive_extract(
    trace: DerivedTrace,
    cand,
    clock: Callable[[float], int],
    *,
    signals: Sequence[str] = SIGNALS,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
    sample_rate_hz: float = 20.0,
) -> np.ndarray:
    """Feature vector for one candidate, one window and one signal at a time.

    The catalogue follows tsfresh (Christ et al., "Time Series FeatuRe
    Extraction on basis of Scalable Hypothesis tests", Neurocomputing 2018):
    distribution moments, spectrum amplitudes, counts below/above the mean,
    first locations of min/max and longest strikes below/above the mean.
    Layout given by chewdet.features.feature_layout(signals).  Windows are
    clipped to the trace span; a window left empty by clipping is an error
    naming the candidate.
    """
    if not len(trace):
        raise ValueError("cannot extract features from an empty trace")
    t0, t1 = float(trace.t[0]), float(trace.t[-1])
    spans = {
        "cw": (max(cand.c1 - WINDOW_PAD_S, t0), min(cand.c2 + WINDOW_PAD_S, t1)),
        "bw": (max(cand.c1 - WINDOW_PAD_S, t0), min(cand.c1 + WINDOW_PAD_S, t1)),
    }
    windows: dict[str, slice] = {}
    for w, (lo, hi) in spans.items():
        sl = _window_indices(trace.t, lo, hi)
        if sl.stop <= sl.start:
            raise ValueError(
                f"candidate [{cand.c1}, {cand.c2}]: window {w} is empty after "
                f"clipping to the trace span [{t0}, {t1}]"
            )
        windows[w] = sl

    values: list[float] = []
    for s in signals:
        if s not in SIGNALS:
            raise ValueError(f"unknown signal {s!r}, expected subset of {SIGNALS}")
        full = trace.signal(s)
        for w in WINDOWS:
            sl = windows[w]
            x = full[sl]
            values.extend(_stats_block(x))
            amps = _freq_amplitudes(x, sample_rate_hz)
            values.extend(float(v) for v in amps)
            values.extend(_moments(amps))
            values.extend(_timeseries_block(x, trace.t[sl], min_prominence, sl.start))
    for w in WINDOWS:
        sl = windows[w]
        for a, b in combinations(signals, 2):
            values.append(_correlation(trace.signal(a)[sl], trace.signal(b)[sl]))
    values.extend(
        [
            float(cand.p_min),
            float(cand.p_max),
            float(cand.epsilon),
            float(cand.length),
            float(clock(cand.c1)),
        ]
    )
    vec = np.array(values, dtype=float)
    if not np.all(np.isfinite(vec)):
        bad = int(np.flatnonzero(~np.isfinite(vec))[0])
        raise ValueError(
            f"candidate [{cand.c1}, {cand.c2}]: non-finite feature at index {bad}"
        )
    return vec
