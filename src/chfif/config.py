"""Run configurations: the YAML schema, its reader and the bundled gallery files.

A config document has a ``problem`` section (nodes, hidden ordinates and
one parameter mapping per interval) and an optional ``options`` section.
The problem, interval, power-term and option mappings are read field by
field from the dataclasses that hold them, :class:`InterpolationProblem`,
:class:`IntervalParams`, :class:`PowerTerm` and :class:`RunOptions`, so the
schema is written down once.  This module does not import ``click``, and
imports PyYAML only for documents outside the bundled configs' subset of YAML.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from importlib import resources
from itertools import accumulate
from pathlib import Path

from . import attractor
from .exceptions import ConfigError
from .geometry import InterpolationProblem, IntervalParams, PowerTerm

GALLERY_NAMES: tuple[str, ...] = tuple(f"fig{i}" for i in range(1, 17))
BUNDLED_NAMES: tuple[str, ...] = GALLERY_NAMES + ("fig1_corrected",)

# the evaluation routes of `generate` (`options.method`) and the size option each reads
ROUTE_SIZE = {"exact": "depth", "iterate": "grid_size", "chaos": "points"}


@dataclass(frozen=True)
class RunOptions:
    """Command options with their documented defaults."""

    depth: int = 10
    iterations: int = 60_000
    tol: float = 1e-10
    eps_min_exp: int = 4
    eps_max_exp: int = 12
    seed: int = 0
    precision: int = 12
    points: int = 20_000
    method: str = "exact"
    grid_size: int = 6561
    moments_depth: int = 3
    profile_m_max: int = 8
    probe_depth: int = 10
    out: str | None = None


@dataclass(frozen=True)
class RunConfig:
    problem: InterpolationProblem
    options: RunOptions = field(default_factory=RunOptions)
    name: str = "config"


def check_options(config: RunConfig, sizes) -> None:
    """Raise a :class:`ConfigError` naming the first option outside its range.

    Every option is held to its lowest value: ``grid_size`` needs a grid
    point at every node, so N + 1; ``dimension`` fits at least four scales,
    each 2**-j a finite, positive double: -1023 <= ``eps_min_exp`` and
    ``eps_max_exp`` <= 1074; ``precision`` <= 2**31 - 1, the most Python's
    float formatting takes.  Of the other options, only the size options
    named in ``sizes``, those the command reads, are held to their highest
    value, which keeps each array within
    ``attractor.DEFAULT_MAX_POINTS``: a level-d grid has N**(d+1) + 1
    points, and the N**d cells of a level-d moment table have the level-(d-1)
    grid for edges.
    """
    opts = config.options
    lowest = {"precision": 0, "depth": 0, "moments_depth": 0, "seed": 0, "points": 1,
              "iterations": 1, "grid_size": len(config.problem.nodes), "profile_m_max": 1,
              "probe_depth": opts.profile_m_max, "eps_min_exp": -1023,
              "eps_max_exp": opts.eps_min_exp + 3}
    for key, low in lowest.items():
        if getattr(opts, key) < low:
            raise ConfigError(f"options.{key}", f"expected an integer >= {_shown(low)}, got {_shown(getattr(opts, key))}")
    if not opts.tol > 0.0:   # NaN too
        raise ConfigError("options.tol", f"expected a number > 0, got {opts.tol}")
    budget = attractor.DEFAULT_MAX_POINTS
    # fewer than two intervals fail validation; bound their options as for two
    deepest = attractor.deepest_level(max(len(config.problem.nodes) - 1, 2), budget)
    highest = {"eps_max_exp": 1074, "precision": 2**31 - 1, "depth": deepest,
               "probe_depth": deepest, "moments_depth": deepest + 1, "points": budget,
               "grid_size": budget}
    for key in ("eps_max_exp", "precision", *sizes):
        if getattr(opts, key) > highest[key]:
            raise ConfigError(f"options.{key}", f"expected an integer <= {highest[key]}, got {_shown(getattr(opts, key))}")


class _UnreadInteger:
    """An ``!!int`` scalar that ``int()`` refuses: over ``sys.get_int_max_str_digits()`` digits, or malformed."""

    def __repr__(self) -> str:
        return "an integer literal that Python cannot read"


def _shown(obj, show=repr) -> str:
    """``show(obj)``, or what it is where ``str()`` refuses an integer over ``sys.get_int_max_str_digits()`` digits."""
    try:
        return show(obj)
    except ValueError:   # a hexadecimal literal is read at any length
        what = "an integer" if isinstance(obj, int) else f"a {type(obj).__name__} holding an integer"
        return f"{what} of more than {sys.get_int_max_str_digits()} digits"


@cache
def _yaml():
    """PyYAML and this module's loader, imported on first use."""
    import yaml

    class _Loader(yaml.SafeLoader):
        """SafeLoader that also reads YAML 1.2 floats such as 1e-12, 2e5 and 1.0e308.

        YAML 1.1, which PyYAML follows, wants a dot and a signed exponent, and
        reads those numbers as strings.  Quoted scalars stay strings.
        """

        def construct_int(self, node) -> int | _UnreadInteger:
            try:
                return self.construct_yaml_int(node)
            except ValueError:   # reported with the path of the field it fills
                return _UnreadInteger()

    _Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    _Loader.add_constructor("tag:yaml.org,2002:int", _Loader.construct_int)
    return yaml, _Loader


# record types a field annotation may name
_RECORDS = {"IntervalParams": IntervalParams, "PowerTerm": PowerTerm}
# what a `tuple[item, ...]` field's list holds, by item annotation
_PLURALS = {"tuple[float, float]": "[x, y] pairs", "float": "numbers", "IntervalParams": "parameter mappings"}
# the YAML key of a field whose name differs from it: `intervals` fills InterpolationProblem.params
_KEYS = {"params": "intervals"}


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        got = repr(obj) if isinstance(obj, _UnreadInteger) else type(obj).__name__
        raise ConfigError(where, f"expected a mapping, got {got}")
    return obj


def _reject_unknown(mapping: dict, allowed, prefix: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        # keys need not be strings: `1: 2` is an int key
        raise ConfigError(f"{prefix}{min(_shown(key, str) for key in unknown)}", "unknown key")


def _value(kind: str, obj, where: str):
    """Check ``obj`` against a field annotation: float, int, str, a record, ``tuple[float, float]``,
    ``tuple[X, ...]`` or ``X | None``."""
    if kind.endswith(" | None"):
        if obj is None:
            return None
        kind = kind.removesuffix(" | None")
    if kind.endswith(", ...]"):
        item = kind.removeprefix("tuple[").removesuffix(", ...]")
        if not isinstance(obj, list):
            raise ConfigError(where, f"expected a list of {_PLURALS[item]}")
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(obj))
    if kind == "tuple[float, float]":
        if not isinstance(obj, list) or len(obj) != 2:
            raise ConfigError(where, "expected a [x, y] pair")
        return tuple(_value("float", v, f"{where}[{k}]") for k, v in enumerate(obj))
    if kind == "float":
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise ConfigError(where, f"expected a number, got {_shown(obj)}")
        try:
            return float(obj)
        except OverflowError:
            raise ConfigError(where, "expected a number within the float range, got an integer beyond it") from None
    if kind == "int":
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ConfigError(where, f"expected an integer, got {_shown(obj)}")
        return obj
    if kind == "str":
        if not isinstance(obj, str):
            raise ConfigError(where, f"expected a string, got {_shown(obj)}")
        # YAML reads each \uXXXX escape alone, so a JSON pair for one character is two lone surrogates
        if any("\ud800" <= c <= "\udfff" for c in obj):
            raise ConfigError(where, f"expected text that UTF-8 can encode, got {obj!r}, which holds a lone surrogate")
        return obj
    return _record(_RECORDS[kind], obj, where)


def _record(cls, obj, where: str, document_order: bool = False):
    """Build dataclass ``cls`` from a mapping with one key per field.

    A field without a default is a required key.  Values are checked in
    the order of the fields, or of the document's keys when
    ``document_order`` is set, and the first bad one is reported.
    """
    mapping = _require_mapping(obj, where)
    by_key = {_KEYS.get(f.name, f.name): f for f in fields(cls)}
    _reject_unknown(mapping, by_key, f"{where}.")
    for key, f in by_key.items():
        if f.default is MISSING and f.default_factory is MISSING and key not in mapping:
            raise ConfigError(where, f"missing key {key!r}")
    keys = mapping if document_order else [key for key in by_key if key in mapping]
    return cls(**{by_key[key].name: _value(by_key[key].type, mapping[key], f"{where}.{key}")
                  for key in keys})


# the subset of YAML that the bundled configs are written in (`_read_subset`)
_SUBSET_KEY = "(" + "|".join(sorted({*_KEYS.values()}.union(
    f.name for cls in (RunConfig, InterpolationProblem, *_RECORDS.values(), RunOptions) for f in fields(cls)))) + ")"
_SUBSET_LINE = re.compile(r"( *)(?:(?:" + _SUBSET_KEY + r":|(-))(?: +(.*?))?)? *")
_SUBSET_ENTRY = re.compile(_SUBSET_KEY + ": ")
# no letters but schema keys and a number's e/E: json's NaN, Infinity, true and null never reach it
_SUBSET_FLOW = re.compile(r"(?:[\[\]{}, .0-9eE+-]|" + _SUBSET_ENTRY.pattern + ")*")
_SUBSET_DEPTH = 8   # deeper documents go to PyYAML, whose RecursionError has its own message


def _read_subset(text: str):
    """What ``yaml.load(text, Loader=_Loader)`` returns, read without PyYAML, or None.

    None outside the subset: printable ASCII; ``#`` comments at a line's start
    or after a space; block mappings of schema keys (YAML 1.1 reads keys such
    as ``no`` and ``on`` as booleans); block sequences indented under their
    key, of ``- <flow value>`` items; one-line flow values that are JSON once
    each ``key: `` is quoted: ``[...]``, ``{key: value, ...}`` with schema keys,
    and JSON numbers ``-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][-+]?[0-9]+)?``, with no
    trailing comma, string, ``NaN``, ``Infinity``, ``true``, ``false`` or ``null``;
    a row's block depth plus its flow nesting (most ``[``/``{`` open at once) below ``_SUBSET_DEPTH``.
    """
    if not (text.isascii() and text.replace("\n", "").isprintable()):
        return None
    lines = [_SUBSET_LINE.fullmatch("" if line.startswith("#") else line.split(" #", 1)[0])
             for line in text.split("\n")]
    if not all(lines):
        return None
    # (indent, key or None for a sequence item, flow text or ""/None); blank lines left out
    rows = [(len(line[1]), line[2], line[4]) for line in lines if line[2] or line[3]]
    try:   # json's errors, an int over int()'s digit limit among them, are ValueErrors too
        doc, end = _subset_block(rows, 0, 0) if rows else (None, 0)
    except ValueError:
        return None
    return doc if end == len(rows) else None


def _subset_block(rows, i: int, depth: int):
    """The block mapping or sequence whose first row is ``rows[i]``, and the index of the row after it."""
    indent, first_key, _ = rows[i]
    items = []
    while i < len(rows) and rows[i][0] == indent:   # a deeper row not under a key is left unread
        _, key, text = rows[i]
        i += 1
        if (key is None) != (first_key is None) or depth >= _SUBSET_DEPTH:
            raise ValueError("outside the subset")
        if text:
            # json nests deeper than PyYAML's composer: count the flow's levels, the most [ and { open at once
            nesting = max(accumulate((c in "[{") - (c in "]}") for c in text))
            if not _SUBSET_FLOW.fullmatch(text) or depth + nesting >= _SUBSET_DEPTH:
                raise ValueError("outside the subset")
            value = json.loads(_SUBSET_ENTRY.sub(lambda entry: f'"{entry[1]}": ', text))
        elif key and i < len(rows) and rows[i][0] > indent:
            value, i = _subset_block(rows, i, depth + 1)
        else:   # a null, or a sequence at its key's column
            raise ValueError("outside the subset")
        items.append((key, value))
    # the last of duplicate keys wins, as in PyYAML
    return (dict(items) if first_key else [value for _, value in items]), i


def parse_config(text: str, name: str = "config") -> RunConfig:
    """Parse and strictly validate a YAML configuration document.

    Schema errors carry the dotted path of the offending field; semantic
    constraints on the parameters themselves are left to validation so the
    two failure kinds stay distinguishable.
    """
    doc = _read_subset(text)
    if doc is None:
        yaml, loader = _yaml()
        try:
            doc = yaml.load(text, Loader=loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f"line {mark.line + 1}" if mark else "document"
            raise ConfigError(where, f"YAML parse error: {exc}") from exc
        except RecursionError as exc:   # PyYAML composes nested collections recursively
            raise ConfigError("document", "YAML parse error: nested too deeply") from exc
    if doc is None:
        raise ConfigError("document", "empty document; required sections: problem")
    doc = _require_mapping(doc, "document")

    _reject_unknown(doc, ("problem", "options"), "")
    if "problem" not in doc:
        raise ConfigError("document", "missing required section 'problem'")
    problem = _record(InterpolationProblem, doc["problem"], "problem")

    options = RunOptions()
    if doc.get("options") is not None:
        options = _record(RunOptions, doc["options"], "options", document_order=True)
        if options.method not in ROUTE_SIZE:
            raise ConfigError("options.method", f"expected {'|'.join(ROUTE_SIZE)}, got {options.method!r}")
    return RunConfig(problem=problem, options=options, name=name)


def load_bundled_config(name: str) -> str:
    path = resources.files("chfif").joinpath("configs", f"{name}.yaml")
    return path.read_text(encoding="utf-8")


def resolve_config(ref: str) -> RunConfig:
    """Load a config from a path, or by bundled name when no file matches."""
    path = Path(ref)
    if path.exists():
        return parse_config(path.read_text(encoding="utf-8"), name=path.stem)
    if ref in BUNDLED_NAMES:
        return parse_config(load_bundled_config(ref), name=ref)
    raise FileNotFoundError(
        f"{ref!r} is neither an existing file nor a bundled config "
        f"({', '.join(BUNDLED_NAMES)})")
