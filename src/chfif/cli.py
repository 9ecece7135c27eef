"""Config-driven command line interface.

Commands read a YAML configuration (a file path or the name of a bundled
gallery entry), run one pipeline stage, and emit deterministic text files:
byte-identical output for identical config, options and seed.

Exit codes: 0 success, 1 validation/parse failure or a rejected option
value, 2 I/O failure, 3 numeric degeneracy (degenerate classification
exponent, non-convergence, or too-coarse sampling).
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import click
import numpy as np
import yaml

from . import presets
from .attractor import chaos_game, fixed_point_iterate, sample_exact
from .dimension import dimension_report
from .exceptions import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_VALIDATION,
    ChfifError,
    ConfigError,
    NotConvergedError,
)
from .geometry import (
    InterpolationProblem,
    IntervalParams,
    PowerTerm,
    classification_ratios,
    is_self_affine_config,
    self_affine_discrepancies,
    solve_model,
    validate,
)
from .moments import build_moment_table, convergence_profile
from .smoothness import classify


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


# option name -> annotation text ("int", "float", "str", "str | None")
_OPTION_TYPES = {f.name: f.type for f in fields(RunOptions)}

_INTERVAL_KEYS = {"alpha", "beta", "gamma", "p_power", "q_power"}
_POWER_KEYS = {"coeff", "exponent"}


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as 1e-12, 2e5 and 1.0e308.

    YAML 1.1, which PyYAML follows, wants a dot and a signed exponent, and
    reads those numbers as strings.  Quoted scalars stay strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(where, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(where, f"expected a number, got {obj!r}")
    return float(obj)


def _parse_power(obj, where: str) -> PowerTerm:
    mapping = _require_mapping(obj, where)
    unknown = set(mapping) - _POWER_KEYS
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}", "unknown key")
    missing = _POWER_KEYS - set(mapping)
    if missing:
        raise ConfigError(where, f"missing key {sorted(missing)[0]!r}")
    return PowerTerm(
        coeff=_number(mapping["coeff"], f"{where}.coeff"),
        exponent=_number(mapping["exponent"], f"{where}.exponent"),
    )


def parse_config(text: str, name: str = "config") -> RunConfig:
    """Parse and strictly validate a YAML configuration document.

    Schema errors carry the dotted path of the offending field; semantic
    constraints on the parameters themselves are left to validation so the
    two failure kinds stay distinguishable.
    """
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark else "document"
        raise ConfigError(where, f"YAML parse error: {exc}") from exc
    if doc is None:
        raise ConfigError("document", "empty document; required sections: problem")
    doc = _require_mapping(doc, "document")

    unknown = set(doc) - {"problem", "options"}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")
    if "problem" not in doc:
        raise ConfigError("document", "missing required section 'problem'")

    prob = _require_mapping(doc["problem"], "problem")
    unknown = set(prob) - {"nodes", "hidden", "intervals"}
    if unknown:
        raise ConfigError(f"problem.{sorted(unknown)[0]}", "unknown key")
    for key in ("nodes", "hidden", "intervals"):
        if key not in prob:
            raise ConfigError("problem", f"missing required key {key!r}")

    if not isinstance(prob["nodes"], list):
        raise ConfigError("problem.nodes", "expected a list of [x, y] pairs")
    nodes = []
    for i, entry in enumerate(prob["nodes"]):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"problem.nodes[{i}]", "expected a [x, y] pair")
        nodes.append((
            _number(entry[0], f"problem.nodes[{i}][0]"),
            _number(entry[1], f"problem.nodes[{i}][1]"),
        ))

    if not isinstance(prob["hidden"], list):
        raise ConfigError("problem.hidden", "expected a list of numbers")
    hidden = tuple(
        _number(v, f"problem.hidden[{i}]") for i, v in enumerate(prob["hidden"])
    )

    if not isinstance(prob["intervals"], list):
        raise ConfigError("problem.intervals", "expected a list of parameter mappings")
    params = []
    for i, entry in enumerate(prob["intervals"]):
        where = f"problem.intervals[{i}]"
        mapping = _require_mapping(entry, where)
        unknown = set(mapping) - _INTERVAL_KEYS
        if unknown:
            raise ConfigError(f"{where}.{sorted(unknown)[0]}", "unknown key")
        for key in ("alpha", "beta", "gamma"):
            if key not in mapping:
                raise ConfigError(where, f"missing key {key!r}")
        params.append(IntervalParams(
            alpha=_number(mapping["alpha"], f"{where}.alpha"),
            beta=_number(mapping["beta"], f"{where}.beta"),
            gamma=_number(mapping["gamma"], f"{where}.gamma"),
            p_power=_parse_power(mapping["p_power"], f"{where}.p_power") if mapping.get("p_power") is not None else None,
            q_power=_parse_power(mapping["q_power"], f"{where}.q_power") if mapping.get("q_power") is not None else None,
        ))

    options = RunOptions()
    if "options" in doc and doc["options"] is not None:
        opts = _require_mapping(doc["options"], "options")
        unknown = set(opts) - set(_OPTION_TYPES)
        if unknown:
            raise ConfigError(f"options.{sorted(unknown)[0]}", "unknown key")
        values = {}
        for key, value in opts.items():
            kind = _OPTION_TYPES[key]
            where = f"options.{key}"
            if kind == "int":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(where, f"expected an integer, got {value!r}")
                values[key] = value
            elif kind == "float":
                values[key] = _number(value, where)
            else:
                if not isinstance(value, str):
                    raise ConfigError(where, f"expected a string, got {value!r}")
                values[key] = value
        options = replace(options, **values)
        if options.method not in ("exact", "iterate", "chaos"):
            raise ConfigError("options.method", f"expected exact|iterate|chaos, got {options.method!r}")

    problem = InterpolationProblem(nodes=tuple(nodes), hidden=hidden, params=tuple(params))
    return RunConfig(problem=problem, options=options, name=name)


def serialize_config(config: RunConfig) -> str:
    """YAML text that re-parses to an equivalent configuration."""
    intervals = []
    for p in config.problem.params:
        entry: dict = {"alpha": p.alpha, "beta": p.beta, "gamma": p.gamma}
        if p.p_power is not None:
            entry["p_power"] = {"coeff": p.p_power.coeff, "exponent": p.p_power.exponent}
        if p.q_power is not None:
            entry["q_power"] = {"coeff": p.q_power.coeff, "exponent": p.q_power.exponent}
        intervals.append(entry)
    doc = {
        "problem": {
            "nodes": [[x, y] for x, y in config.problem.nodes],
            "hidden": list(config.problem.hidden),
            "intervals": intervals,
        },
        "options": {
            key: getattr(config.options, key)
            for key in _OPTION_TYPES
            if getattr(config.options, key) != getattr(RunOptions(), key)
        },
    }
    if not doc["options"]:
        del doc["options"]
    return yaml.safe_dump(doc, sort_keys=False)


def bundled_config_names() -> tuple[str, ...]:
    return presets.GALLERY_NAMES + ("fig1_corrected",)


def load_bundled_config(name: str) -> str:
    path = resources.files("chfif").joinpath("configs", f"{name}.yaml")
    return path.read_text(encoding="utf-8")


def resolve_config(ref: str) -> RunConfig:
    """Load a config from a path, or by bundled name when no file matches."""
    path = Path(ref)
    if path.exists():
        return parse_config(path.read_text(encoding="utf-8"), name=path.stem)
    if ref in bundled_config_names():
        return parse_config(load_bundled_config(ref), name=ref)
    raise FileNotFoundError(
        f"{ref!r} is neither an existing file nor a bundled config "
        f"({', '.join(bundled_config_names())})")


# -- output formatting ----------------------------------------------------


def fmt(value, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{precision}g}"
    return str(value)


# Rows per %-format call in `generate`: enough to amortise the call, few
# enough that one chunk's floats and text stay a few MB at any row count.
_CHUNK_ROWS = 65_536


def _csv_pieces(xs, f1, f2, precision: int):
    """The ``x,f1,f2`` table as text pieces, one %-format call per chunk of rows.

    ``"%.{p}g" % v`` and ``format(v, ".{p}g")`` print a float the same way,
    so the bytes equal those of formatting each value with :func:`fmt`.
    """
    yield "x,f1,f2\n"
    row = f"%.{precision}g,%.{precision}g,%.{precision}g\n"
    for start in range(0, len(xs), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        block = np.stack((xs[start:stop], f1[start:stop], f2[start:stop]), axis=1)
        yield row * len(block) % tuple(block.ravel().tolist())


def _write_out(pieces, out: str | None) -> None:
    """Write text pieces in order to ``out``, or to stdout when it is None or "-".

    Each piece is written as soon as it is produced, so a generator of
    pieces is never held in memory whole.
    """
    if out is None or out == "-":
        for piece in pieces:
            click.echo(piece, nl=False)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def _kv_lines(pairs, precision: int) -> str:
    lines = []
    for key, value in pairs:
        if isinstance(value, (list, tuple, np.ndarray)):
            value = ",".join(fmt(v, precision) for v in value)
        else:
            value = fmt(value, precision)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _near_self_affine_warning(model) -> str | None:
    # hidden ordinates ride on the data and the collapse identity holds on
    # some intervals but not all: likely a mistyped parameter
    if not bool(np.all(np.abs(model.y - model.z) <= 1e-12)):
        return None
    gaps = np.abs(model.alpha + model.beta - model.gamma)
    failing = int(np.sum(gaps > 1e-12))
    if 0 < failing < model.n_intervals:
        issues = self_affine_discrepancies(model)
        return "near-self-affine: " + "; ".join(issues)
    return None


def _classification_pairs(config: RunConfig, model, report):
    ratios = classification_ratios(model)
    pairs = [
        ("command", "classify"),
        ("config", config.name),
        ("n_intervals", model.n_intervals),
        ("interval_lengths", model.a),
        ("lambda", model.lam),
        ("mu", model.mu),
        ("omega_i", ratios.omega_i),
        ("gamma_i", ratios.gamma_i),
        ("theta_i", ratios.theta_i),
        ("omega", ratios.omega),
        ("gamma", ratios.gamma),
        ("theta", ratios.theta),
        ("theta_regime", report.theta_regime),
        ("omega_state", report.omega_state),
        ("gamma_state", report.gamma_state),
        ("case", report.case_label),
        ("modulus_order", report.modulus_order),
        ("delta", report.delta),
        ("delta_tag", report.delta_tag),
        ("tau1", report.tau_bounds.tau1),
        ("tau2", report.tau_bounds.tau2),
        ("tau3", report.tau_bounds.tau3),
        ("tau4", report.tau_bounds.tau4),
        ("self_affine", is_self_affine_config(model)),
        ("degenerate", report.degenerate),
    ]
    if report.degenerate:
        pairs.append(("warning", report.degeneracy))
    near_miss = _near_self_affine_warning(model)
    if near_miss:
        pairs.append(("warning", near_miss))
    return pairs


@click.group()
def main() -> None:
    """Construct, classify and measure coalescence fractal interpolants."""


def _load(config_ref: str, overrides: dict) -> RunConfig:
    config = resolve_config(config_ref)
    fields = {k: v for k, v in overrides.items() if v is not None}
    if fields:
        config = replace(config, options=replace(config.options, **fields))
    # checked before any output is opened: a chunked writer would already
    # have written the header when the first row failed to format
    if config.options.precision < 0:
        raise ConfigError("options.precision",
                          f"expected a non-negative integer, got {config.options.precision}")
    return config


def _run(body) -> None:
    try:
        body()
    except (ChfifError, OSError, ValueError) as exc:
        # a plain ValueError is an option value the library rejects (depth -1)
        code = EXIT_IO if isinstance(exc, OSError) else getattr(exc, "exit_code", EXIT_VALIDATION)
        click.echo(f"error: {exc}", err=True)
        sys.exit(code)


config_opt = click.option("--config", "config_ref", required=True,
                          help="Config file path or bundled name (fig1..fig16, fig1_corrected).")
out_opt = click.option("--out", default=None, help="Output path (default: config's out, else stdout).")
precision_opt = click.option("--precision", type=int, default=None, help="Significant digits in output.")


@main.command()
@config_opt
@out_opt
@click.option("--depth", type=int, default=None, help="Refinement depth of the output grid.")
@click.option("--method", type=click.Choice(["exact", "iterate", "chaos"]), default=None,
              help="Evaluation route (default exact).")
@click.option("--seed", type=int, default=None, help="Chaos-game seed.")
@click.option("--points", type=int, default=None, help="Chaos-game point count.")
@click.option("--grid-size", type=int, default=None, help="Iteration grid size.")
@click.option("--tol", type=float, default=None, help="Iteration tolerance.")
@precision_opt
def generate(config_ref, out, depth, method, seed, points, grid_size, tol, precision):
    """Write the curve as delimiter-separated x,f1,f2 rows."""
    def body():
        config = _load(config_ref, dict(depth=depth, method=method, seed=seed,
                                        points=points, grid_size=grid_size, tol=tol,
                                        precision=precision, out=out))
        opts = config.options
        model = solve_model(config.problem)
        if opts.method == "chaos":
            cloud = chaos_game(model, opts.points, opts.seed)
            xs, f1, f2 = cloud[:, 0], cloud[:, 1], cloud[:, 2]
        elif opts.method == "iterate":
            result = fixed_point_iterate(model, opts.grid_size, opts.iterations, opts.tol)
            if not result.converged:
                raise NotConvergedError(
                    f"iteration did not reach tol {opts.tol} in {opts.iterations} sweeps "
                    f"(last distance {result.distances[-1]:.3g})")
            xs, f1, f2 = result.graph.xs, result.graph.f1s, result.graph.f2s
        else:
            graph = sample_exact(model, opts.depth)
            xs, f1, f2 = graph.xs, graph.f1s, graph.f2s
        _write_out(_csv_pieces(xs, f1, f2, opts.precision), opts.out)
    _run(body)


@main.command(name="classify")
@config_opt
@out_opt
@precision_opt
def classify_cmd(config_ref, out, precision):
    """Write the smoothness classification report."""
    def body():
        config = _load(config_ref, dict(precision=precision, out=out))
        model = solve_model(config.problem)
        report = classify(model)
        text = _kv_lines(_classification_pairs(config, model, report), config.options.precision)
        _write_out((text,), config.options.out)
        if report.degenerate:
            click.echo(f"warning: {report.degeneracy}", err=True)
            sys.exit(EXIT_DEGENERATE)
    _run(body)


@main.command()
@config_opt
@out_opt
@click.option("--depth", type=int, default=None, help="Sampling depth for box counting.")
@click.option("--eps-min-exp", type=int, default=None, help="Smallest dyadic exponent.")
@click.option("--eps-max-exp", type=int, default=None, help="Largest dyadic exponent.")
@precision_opt
def dimension(config_ref, out, depth, eps_min_exp, eps_max_exp, precision):
    """Write dimension bounds and the box-counting estimate."""
    def body():
        config = _load(config_ref, dict(depth=depth, eps_min_exp=eps_min_exp,
                                        eps_max_exp=eps_max_exp, precision=precision, out=out))
        opts = config.options
        model = solve_model(config.problem)
        smooth = classify(model)
        sampled = sample_exact(model, opts.depth)
        rep = dimension_report(
            model, smooth, sampled,
            range(opts.eps_min_exp, opts.eps_max_exp + 1))
        pairs = [
            ("command", "dimension"),
            ("config", config.name),
            ("critical_condition", rep.critical_condition),
            ("omega_critical", rep.omega_critical),
            ("gamma_critical", rep.gamma_critical),
            ("theta_critical", rep.theta_critical),
        ]
        if rep.bounds is not None:
            pairs += [
                ("lower_bound", rep.bounds.lower),
                ("upper_bound", rep.bounds.upper),
                ("lower_bound_unclamped", rep.bounds.lower_unclamped),
                ("upper_bound_unclamped", rep.bounds.upper_unclamped),
                ("bounds_delta", rep.bounds.delta),
                ("bounds_delta_tag", rep.bounds.delta_tag),
                ("bounds_equidistant", rep.bounds.equidistant),
            ]
        pairs += [
            ("empirical_estimate", rep.empirical.estimate),
            ("eps_min", rep.empirical.eps_min),
            ("eps_max", rep.empirical.eps_max),
            ("eps_exponents", rep.empirical.exponents),
            ("box_counts", rep.empirical.counts),
            ("r_squared", rep.empirical.r_squared),
            ("dimension_one_flag", rep.dimension_one_flag),
        ]
        if rep.dimension_one_note:
            pairs.append(("dimension_one_note", rep.dimension_one_note))
        if smooth.degenerate:
            pairs.append(("warning", smooth.degeneracy))
        _write_out((_kv_lines(pairs, opts.precision),), opts.out)
        if smooth.degenerate:
            click.echo(f"warning: {smooth.degeneracy}", err=True)
            sys.exit(EXIT_DEGENERATE)
    _run(body)


@main.command()
@config_opt
@out_opt
@click.option("--depth", type=int, default=None, help="Maximum address length tabulated.")
@precision_opt
def moments(config_ref, out, depth, precision):
    """Write per-address moment values and the averaging-operator profile."""
    def body():
        config = _load(config_ref, dict(precision=precision, out=out))
        opts = config.options
        table_depth = depth if depth is not None else opts.moments_depth
        model = solve_model(config.problem)
        table = build_moment_table(model, table_depth)
        p = opts.precision
        lines = [f"# config: {config.name}",
                 f"# whole-interval integrals: B={fmt(table.whole_b, p)} A={fmt(table.whole_a, p)}",
                 "word,start,length,b,a"]
        symbols = range(1, model.n_intervals + 1)
        for length, level in enumerate(table.levels, start=1):
            # spatial order: word r_1..r_m has index digits (r_m ... r_1) base N
            words = ("".join(map(str, reversed(w)))
                     for w in itertools.product(symbols, repeat=length))
            for w, s, l, b, a in zip(words, level.starts, level.lengths,
                                     level.b_values, level.a_values):
                lines.append(f"{w},{fmt(s, p)},{fmt(l, p)},{fmt(b, p)},{fmt(a, p)}")
        profile = convergence_profile(model, opts.profile_m_max, opts.probe_depth)
        lines.append("")
        lines.append("m,sup_error")
        for m, err in profile:
            lines.append(f"{m},{fmt(err, p)}")
        _write_out(("\n".join(lines) + "\n",), opts.out)
    _run(body)


@main.command(name="validate")
@config_opt
@out_opt
@precision_opt
def validate_cmd(config_ref, out, precision):
    """Check the configuration's data invariants."""
    def body():
        config = _load(config_ref, dict(precision=precision, out=out))
        result = validate(config.problem)
        pairs = [("command", "validate"), ("config", config.name), ("ok", result.ok)]
        for i, violation in enumerate(result.violations):
            pairs.append((f"violation_{i}", str(violation)))
        _write_out((_kv_lines(pairs, config.options.precision),), config.options.out)
        if not result.ok:
            sys.exit(EXIT_VALIDATION)
    _run(body)


if __name__ == "__main__":
    main()
