"""The benchmark's layer spans are attached to names that exist in ``chfif``.

``perfbench/tracing.py`` swaps a timer into each ``(module, attribute)`` of
``WRAP_POINTS`` and records a missing one as zero time, so a renamed
function would silently empty its layer's metrics.  It also reads a count
whose function changed its return shape as 0.  These tests make the
rename or the shape change fail instead.
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


def test_every_counter_reads_what_it_wraps(monkeypatch, tmp_path):
    from click.testing import CliRunner

    from chfif import attractor, smoothness
    from chfif.cli import main
    from helpers import model_for

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        for command in (("generate", "--method", "iterate", "--grid-size", "82"), ("classify",),
                        ("dimension", "--depth", "8", "--eps-max-exp", "8"),
                        ("moments", "--depth", "2"), ("validate",)):
            result = CliRunner().invoke(main, [*command, "--config", "fig4",
                                               "--out", str(tmp_path / "out.txt")])
            assert result.exit_code == 0, (command, result.output)
        model = model_for("fig4")
        smoothness.empirical_holder(attractor.sample_exact(model, 6), 2, 6)
        attractor.chaos_game(model, 1000, 0)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    counts = ("attractor.points_sampled", "attractor.sweeps", "attractor.chaos_points",
              "dimension.cells_counted", "smoothness.samples_scanned", "moments.table_words")
    assert {key: tracer.counts[key] > 0 for key in counts} == dict.fromkeys(counts, True)
