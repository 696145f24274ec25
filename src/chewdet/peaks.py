"""Prominent-peak detection for the proximity signal.

Chewing shows up as peaks that stand out from nearby terrain, not merely
as local maxima.  A peak's prominence is its height above the higher of
the two minima separating it from higher terrain on each side; where no
higher terrain exists, the search runs to the end of the signal.  Noise
maxima ride on larger structures and get small prominences, so a single
threshold separates chew candidates from jitter.

Conventions: a flat plateau counts once, at its leftmost sample; the
first and last samples are never peaks, nor is a plateau touching an
end; the base search stops only at strictly higher terrain.

Cost: O(n) time and O(n) extra memory for a trace of n samples, on any
input (a drifting baseline included).  Runs of equal samples collapse to
one value and only turning points enter the base search, since a sample
on a monotone slope is never the lowest point between a maximum and
higher terrain.  Whole-array rounds then peel each maximum below both
neighbouring maxima: its bases are its two adjacent minima and no other
search stops at it, so it is settled and dropped, its minima merged.
Rounds stop once one settles under 1/8 of the maxima left (so they cost
at most 8n comparisons) or under 32, when a round costs more than the
stack work it saves; a monotone stack settles the rest in O(n).

``window_peak_counts`` counts the peaks of many windows of one signal in
one such pass, an infinite wall between each pair stopping every base search
as a window's end does: O(total window samples) time and extra memory, plus
some hundred numpy calls a pass, so callers pass many windows at once.
"""

from __future__ import annotations

from itertools import repeat
from math import inf
from typing import NamedTuple

import numpy as np

from .records import check_range


class Peak(NamedTuple):
    t: float
    height: float
    prominence: float


def _bases(highs: np.ndarray, valleys: np.ndarray) -> list[float]:
    # Per high, the lowest valley back to the nearest strictly higher high
    # (or the start); valleys[k] lies just before highs[k].  A stack entry
    # carries the lowest valley since the entry below it; the infinite
    # sentinel at the bottom is never popped by a finite high.  An infinite
    # high is a wall between windows: no search crosses it, so the stack
    # starts over there; its base is -inf, so its prominence is inf.
    out: list[float] = []
    stack_h, stack_low = [inf], [inf]
    for h, low in zip(highs.tolist(), valleys.tolist()):
        if h == inf:
            stack_h, stack_low = [inf], [inf]
            out.append(-inf)
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


def _prominences(walled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Position in ``walled`` and prominence of every maximum of finite
    # windows laid between walls of infinite height (one at each end, one
    # between each pair).  A wall stops every base search, as a window's
    # end does, and keeps end samples and end-touching plateaus from being
    # peaks.  Turning points (leftmost sample of each run that reverses
    # direction) alternate low, high, ..., low; walls are highs among them,
    # never peeled (see Cost above), and are dropped from the result.
    step = np.diff(walled)
    change = np.flatnonzero(step)
    rising = step[change] > 0
    at = change[:-1][rising[:-1] != rising[1:]] + 1
    peak_at = at[1::2]
    heights = walled[peak_at]
    prom, slot, h, v = np.empty(heights.size), np.arange(heights.size), heights, walled[at[0::2]]
    while h.size:
        low = (h < np.append(inf, h[:-1])) & (h < np.append(h[1:], inf))
        k = np.flatnonzero(low)
        prom[slot[k]] = h[k] - np.maximum(v[k], v[k + 1])
        v[k + 1] = np.minimum(v[k], v[k + 1])
        h, slot, v = h[~low], slot[~low], v[np.append(~low, True)]
        if 8 * k.size < h.size + k.size or k.size < 32:
            break
    prom[slot] = h - np.maximum(_bases(h, v), _bases(h[::-1], v[:0:-1])[::-1])
    real = heights < inf
    return peak_at[real], prom[real]


def _check_finite(values: np.ndarray, index: np.ndarray | None = None) -> None:
    # index[k] is values[k]'s index in the signal, when not k itself.
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        bad = k if index is None else int(index[k])
        raise ValueError(f"signal sample {bad} is not finite ({values[k]})")


def find_prominent_peaks(signal, t, min_prominence: float) -> list[Peak]:
    """Return local maxima whose topographic prominence reaches the threshold.

    Args:
        signal: 1-D sample values, all finite.
        t: matching timestamps in seconds.
        min_prominence: keep peaks with prominence >= this (signal units).

    Returns:
        Peaks sorted by time.  Fewer than 3 samples cannot contain an
        interior maximum and yield an empty list.

    Raises:
        ValueError: on a length mismatch, a threshold outside (0, inf), or
            a non-finite sample (naming the first one's index).
    """
    sig, ts = np.asarray(signal, dtype=float), np.asarray(t, dtype=float)
    if sig.shape != ts.shape:
        raise ValueError(f"signal length {sig.shape} != time length {ts.shape}")
    check_range("min_prominence", min_prominence, "(0, inf)")
    _check_finite(sig)
    if sig.shape[0] < 3:
        return []
    at, prom = _prominences(np.concatenate(([inf], sig, [inf])))
    sel = prom >= min_prominence
    peak_at = at[sel] - 1
    columns = zip(ts[peak_at].tolist(), sig[peak_at].tolist(), prom[sel].tolist())
    return list(map(tuple.__new__, repeat(Peak), columns))


def window_peak_counts(signal, starts, stops, min_prominence: float) -> np.ndarray:
    """Peak count of each window ``signal[starts[i]:stops[i]]``.

    Entry i equals ``len(find_prominent_peaks(x, t, min_prominence))`` for
    that window's samples x and times t.  Windows may overlap or repeat.
    One pass over the windows laid end to end: O(total window samples) time
    and extra memory.

    Raises:
        ValueError: on mismatched or out-of-range bounds, a threshold
            outside (0, inf), or a non-finite sample in a window (naming
            the first one's index in ``signal``).
    """
    sig = np.asarray(signal, dtype=float)
    a, b = np.asarray(starts, dtype=np.intp), np.asarray(stops, dtype=np.intp)
    if sig.ndim != 1 or a.shape != b.shape or a.ndim != 1:
        raise ValueError(
            f"need a 1-D signal and 1-D bounds of one shape, got {sig.shape}, {a.shape}, {b.shape}"
        )
    if a.size and (a.min() < 0 or (b < a).any() or b.max() > sig.size):
        raise ValueError(f"window bounds must satisfy 0 <= start <= stop <= {sig.size}")
    check_range("min_prominence", min_prominence, "(0, inf)")
    counts = np.zeros(a.size, dtype=np.intp)
    # An empty window holds no peak, and would put two walls side by side.
    keep = np.flatnonzero(b > a)
    if not keep.size:
        return counts
    lengths = b[keep] - a[keep]
    ends = np.cumsum(lengths)
    # Window j's samples land after j + 1 walls: one in front, one after
    # each earlier window.
    offset = np.arange(ends[-1])
    src = offset + np.repeat(a[keep] - (ends - lengths), lengths)
    values = sig[src]
    _check_finite(values, src)
    walled = np.full(ends[-1] + keep.size + 1, inf)
    walled[offset + np.repeat(np.arange(1, keep.size + 1), lengths)] = values
    at, prom = _prominences(walled)
    walls = np.concatenate(([0], ends + np.arange(1, keep.size + 1)))
    counts[keep] = np.diff(np.searchsorted(at[prom >= min_prominence], walls))
    return counts
