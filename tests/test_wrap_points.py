"""The benchmark's layer spans are attached to names that exist in ``chfif``.

``perfbench/tracing.py`` swaps a timer into each ``(module, attribute)`` of
``WRAP_POINTS`` and records a missing one as zero time, so a renamed
function would silently empty its layer's metrics.  This test makes the
rename fail instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAP_POINTS
    missing = [f"{module}.{attribute}" for module, attribute, *_ in tracing.WRAP_POINTS
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert missing == []
