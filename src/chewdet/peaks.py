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
higher terrain.  A monotone stack then finds each maximum's base on
either side, pushing and popping each maximum once per side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Peak:
    t: float
    height: float
    prominence: float


def _bases(highs: list[float], valleys: list[float]) -> list[float]:
    # Per high, the lowest valley back to the nearest strictly higher high
    # (or the start); valleys[k] lies just before highs[k].  A stack entry
    # carries the lowest valley since the entry below it; the infinite
    # sentinel at the bottom is never popped (samples are finite).
    out: list[float] = []
    stack_h, stack_low = [np.inf], [np.inf]
    for h, low in zip(highs, valleys):
        while stack_h[-1] <= h:
            stack_h.pop()
            below = stack_low.pop()
            if below < low:
                low = below
        stack_h.append(h)
        stack_low.append(low)
        out.append(low)
    return out


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
        ValueError: on a length mismatch, a non-positive threshold, or a
            non-finite sample (naming the first one's index).
    """
    sig = np.asarray(signal, dtype=float)
    ts = np.asarray(t, dtype=float)
    if sig.shape != ts.shape:
        raise ValueError(f"signal length {sig.shape} != time length {ts.shape}")
    if min_prominence <= 0:
        raise ValueError(f"min_prominence must be positive, got {min_prominence}")
    finite = np.isfinite(sig)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"signal sample {bad} is not finite ({sig[bad]})")
    if sig.shape[0] < 3:
        return []
    # Walls of infinite height at both ends stop every base search there,
    # as the signal's end does, and keep the end samples from being peaks.
    # Turning points of the walled signal (leftmost sample of each run that
    # reverses direction) then alternate low, high, ..., low.
    step = np.diff(np.concatenate(([np.inf], sig, [np.inf])))
    change = np.flatnonzero(step)
    rising = step[change] > 0
    at = change[:-1][rising[:-1] != rising[1:]]
    peak_at = at[1::2]
    heights = sig[peak_at]
    highs = heights.tolist()
    lows = sig[at[0::2]].tolist()
    left = _bases(highs, lows)
    right = _bases(highs[::-1], lows[:0:-1])[::-1]
    prom = heights - np.maximum(left, right)
    sel = prom >= min_prominence
    return [
        Peak(t=tv, height=hv, prominence=pv)
        for tv, hv, pv in zip(ts[peak_at[sel]].tolist(), heights[sel].tolist(), prom[sel].tolist())
    ]
