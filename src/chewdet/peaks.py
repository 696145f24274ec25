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
input.  Runs of equal samples collapse to one value and only turning
points enter the base search, since a sample on a monotone slope is never
the lowest point between a maximum and higher terrain.  Whole-array rounds
then peel each maximum leaning on a strictly higher neighbouring maximum
across a valley no lower than its other one: that search stops there, the
other base is at most the other valley, so the prominence is the height
less the higher valley, and a search that stopped at it goes on past no
lower valley.  A run of peeled maxima merges its valleys to their minimum.
Rounds stop once one settles under 1/8 of the maxima left (at most 8n
comparisons) or under 32, when a round saves less than it costs; a
monotone stack settles the rest in O(n).  A drifting baseline settles in
one round; an expanding oscillation leans nowhere and goes to the stack.

``window_peak_counts`` counts the peaks of many windows, of one or more
signals, in one such pass, an infinite wall between each pair stopping
every base search as a window's end does: O(total window samples) time
and extra memory, plus some hundred numpy calls a pass.
"""

from __future__ import annotations

from itertools import repeat
from math import inf, nan
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
    # carries the lowest valley since the entry below it; the NaN sentinel
    # at the bottom is never popped (NaN <= h is false).  An infinite high,
    # a wall between windows, pops all else: no later search crosses it.
    out: list[float] = []
    stack_h, stack_low = [nan], [inf]
    for h, low in zip(highs.tolist(), valleys.tolist()):
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
        before, after = v[:-1], v[1:]
        settled = (before <= after) & (h < np.append(h[1:], inf))
        settled |= (after <= before) & (h < np.append(inf, h[:-1]))
        k, kept = np.flatnonzero(settled), np.flatnonzero(~settled)
        prom[slot[k]] = h[k] - np.maximum(before[k], after[k])
        v = np.minimum.reduceat(v, np.append(0, kept + 1))
        h, slot = h[kept], slot[kept]
        if 8 * k.size < h.size + k.size or k.size < 32:
            break
    prom[slot] = h - np.maximum(_bases(h, v), _bases(h[::-1], v[:0:-1])[::-1])
    real = heights < inf
    return peak_at[real], prom[real]


def _check_finite(values: np.ndarray, starts=(0,), cuts=(0,)) -> None:
    # Window j of values, laid end to end, runs from cuts[j], at starts[j] in its signal.
    if not np.isfinite(values).all():
        k = int(np.flatnonzero(~np.isfinite(values))[0])
        j = np.searchsorted(cuts, k, "right") - 1
        raise ValueError(f"signal sample {starts[j] + k - cuts[j]} is not finite ({values[k]})")


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


def window_peak_counts(signal, starts, stops, min_prominence: float, of=None) -> np.ndarray:
    """Peak count of each window ``signal[starts[i]:stops[i]]``.

    Entry i equals ``len(find_prominent_peaks(x, t, min_prominence))`` for
    that window's samples x and times t.  Windows may overlap or repeat.
    Given ``of``, ``signal`` is a sequence of signals of one length, and
    window i reads ``signal[of[i]]``.  One pass over the windows laid end to
    end, in input order: O(total window samples) time and extra memory.

    Raises:
        ValueError: on mismatched or out-of-range bounds or ``of``, a
            threshold outside (0, inf), or a non-finite sample in a window
            (naming the first one's index in its signal).
    """
    sigs = [np.asarray(x, dtype=float) for x in ([signal] if of is None else signal)]
    a, b = np.asarray(starts, dtype=np.intp), np.asarray(stops, dtype=np.intp)
    which = np.zeros_like(a) if of is None else np.asarray(of, dtype=np.intp)
    n = sigs[0].size if sigs else 0
    if any(x.shape != (n,) for x in sigs) or not a.shape == b.shape == which.shape == (a.size,):
        raise ValueError(
            f"need 1-D signals of one length, and starts, stops and `of` of one 1-D shape, "
            f"got {[x.shape for x in sigs]}, {a.shape}, {b.shape}, {which.shape}"
        )
    if ((a < 0) | (b < a) | (b > n) | (which < 0) | (which >= len(sigs))).any():
        raise ValueError(f"window bounds must satisfy 0 <= start <= stop <= {n}, and 0 <= `of` < {len(sigs)}")
    check_range("min_prominence", min_prominence, "(0, inf)")
    counts = np.zeros(a.size, dtype=np.intp)
    # An empty window holds no peak, and would put two walls side by side.
    keep = np.flatnonzero(b > a)
    windows = zip(*(v[keep].tolist() for v in (which, a, b)))
    values = np.concatenate([np.empty(0), *(sigs[s][i:j] for s, i, j in windows)])
    cuts = np.append(0, np.cumsum(b[keep] - a[keep]))
    _check_finite(values, a[keep], cuts)
    # A wall before each window and after the last: wall j lands at cuts[j] + j.
    at, prom = _prominences(np.insert(values, cuts, inf))
    counts[keep] = np.diff(np.searchsorted(at[prom >= min_prominence], cuts + np.arange(cuts.size)))
    return counts
