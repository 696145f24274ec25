"""The benchmark's span table against the library it wraps.

The tracer skips a ``(module, attribute)`` pair that the library no longer
defines, and the per-layer metrics fed by a span with no pair left read 0,
so a refactor that moves a name can silence a metric without any error.
"""

import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Spans known to have no target: featurize counts peaks with
# peaks.window_peak_counts, which the table does not wrap.
KNOWN_DEAD = {"features.peak_count"}


def test_every_span_keeps_a_target():
    live: dict[str, bool] = {}
    for module_name, attr, span, _ in runpy.run_path(str(BENCH / "tracing.py"))["WRAPS"]:
        found = hasattr(importlib.import_module(module_name), attr)
        live[span] = live.get(span, False) or found
    dead = {span for span, found in live.items() if not found}
    assert dead <= KNOWN_DEAD, f"spans with no target in the library: {sorted(dead - KNOWN_DEAD)}"
