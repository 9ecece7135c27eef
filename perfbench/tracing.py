"""Spans around the public functions of each ``chfif`` layer.

The benchmark never edits the package.  It swaps a timing wrapper into the
module attribute where callers look a function up (``chfif.cli.sample_exact``
is the binding the CLI calls, ``chfif.dimension.box_count`` the one
``estimate_dimension`` calls), so the spans sit at the layer boundaries
without touching ``src/``.  A wrapped name that a later refactor removes is
recorded as missing and simply yields no spans; a count whose source
changed shape is recorded as missing too, and reads 0.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "geometry", "attractor", "moments", "smoothness", "dimension")


def _points(counts, args, result):
    counts["attractor.points_sampled"] += len(result.xs)


def _sweeps(counts, args, result):
    counts["attractor.sweeps"] += result.iterations


def _chaos_points(counts, args, result):
    counts["attractor.chaos_points"] += len(result)


def _cells(counts, args, result):
    counts["dimension.cells_counted"] += result


def _samples(counts, args, result):
    counts["smoothness.samples_scanned"] += len(args[0])


def _table_words(counts, args, result):
    counts["moments.table_words"] += sum(len(level.starts) for level in result.levels)


# (module, attribute, layer, counter fed from the arguments and return value)
WRAP_POINTS = (
    ("chfif.cli", "resolve_config", "cli", None),
    ("chfif.cli", "solve_model", "geometry", None),
    ("chfif.geometry", "solve_model", "geometry", None),
    ("chfif.cli", "sample_exact", "attractor", _points),
    ("chfif.moments", "sample_exact", "attractor", _points),
    ("chfif.attractor", "sample_exact", "attractor", _points),
    ("chfif.cli", "fixed_point_iterate", "attractor", _sweeps),
    ("chfif.cli", "chaos_game", "attractor", _chaos_points),
    ("chfif.attractor", "chaos_game", "attractor", _chaos_points),
    ("chfif.cli", "build_moment_table", "moments", _table_words),
    ("chfif.moments", "build_moment_table", "moments", _table_words),
    ("chfif.cli", "convergence_profile", "moments", None),
    ("chfif.cli", "classify", "smoothness", None),
    ("chfif.smoothness", "empirical_holder", "smoothness", None),
    ("chfif.smoothness", "max_oscillation", "smoothness", _samples),
    ("chfif.cli", "dimension_report", "dimension", None),
    ("chfif.dimension", "box_count", "dimension", _cells),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder; spans and counts are read after a run."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _originals: list[tuple] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: BaseException | None = None) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    def wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(index, exc)
                raise
            self.close(index)
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, TypeError):   # the return type changed
                    if f"count:{name}" not in self.missing:
                        self.missing.append(f"count:{name}")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap the wrappers into every wrap point that still exists."""
        self.missing.clear()
        for module_name, attr, layer, counter in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, f"{layer}.{attr}", counter))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)
        self._originals.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times, per-function times, counts and harness health.

        ``wall_s`` is the traced wall time of the same job list; what the
        top-level spans do not cover is reported as ``trace.unattributed_s``.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name in {f"{layer}.{attr}" for _, attr, layer, _ in WRAP_POINTS}:
            out[f"{name}_s"] = 0.0
        calls: Counter = Counter()
        top_level = 0.0
        for span, children in zip(self.spans, child_time):
            out[f"{span.layer}.self_s"] += span.duration - children
            out[f"{span.name}_s"] = out.get(f"{span.name}_s", 0.0) + span.duration
            calls[span.name] += 1
            if span.parent is None:
                top_level += span.duration
        out["cli.parse_s"] = out.pop("cli.resolve_config_s")
        out["geometry.solve_model_calls"] = calls["geometry.solve_model"]
        out["dimension.box_count_calls"] = calls["dimension.box_count"]
        out["smoothness.max_oscillation_calls"] = calls["smoothness.max_oscillation"]
        out["dimension.too_coarse"] = sum(
            1 for s in self.spans
            if s.name == "dimension.box_count" and s.error == "SamplingTooCoarseError")
        for key in COUNT_METRICS:
            out.setdefault(key, self.counts[key])
        sweeps = self.counts["attractor.sweeps"]
        chaos = self.counts["attractor.chaos_points"]
        out["attractor.us_per_sweep"] = (
            out["attractor.fixed_point_iterate_s"] / sweeps * 1e6 if sweeps else 0.0)
        out["attractor.ns_per_chaos_point"] = (
            out["attractor.chaos_game_s"] / chaos * 1e9 if chaos else 0.0)
        out["trace.unattributed_s"] = wall_s - top_level
        return out


# Exact counts: identical on every run of the same code, whatever the seed.
COUNT_METRICS = (
    "attractor.sweeps",
    "attractor.points_sampled",
    "attractor.chaos_points",
    "cli.bytes_out",
    "dimension.box_count_calls",
    "dimension.cells_counted",
    "dimension.too_coarse",
    "geometry.solve_model_calls",
    "smoothness.max_oscillation_calls",
    "smoothness.samples_scanned",
    "moments.table_words",
)
