"""Config-driven command line interface.

Commands read a YAML configuration (a file path or the name of a bundled
gallery entry), run one pipeline stage, and emit deterministic text files:
byte-identical output for identical config, options and seed.

Exit codes: 0 success, 1 validation/parse failure or a rejected option
value, 2 I/O failure or click's usage error (an unknown flag, a value of
the wrong type, no --config), 3 numeric degeneracy (degenerate exponent,
non-convergence, too-coarse sampling, or a curve past the float range).
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from dataclasses import replace

import click
import numpy as np

from .attractor import chaos_game, exact_blocks, fixed_point_iterate, sample_exact
from .config import ROUTE_SIZE, RunConfig, check_options, resolve_config
from .dimension import dimension_report
from .exceptions import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_VALIDATION,
    ChfifError,
    NotConvergedError,
)
from .geometry import self_affine_discrepancies, solve_model, validate
from .moments import build_moment_table, convergence_profile
from .smoothness import classify


# -- output formatting ----------------------------------------------------

# The most significant digits a double has (5e-324 written out exactly).  A
# larger precision prints the same bytes, yet Python reserves a buffer of
# that many digits per value: 2 GiB at the 2**31 - 1 that `check_options` allows.
_MAX_DIGITS = 767


def _spec(precision: int) -> str:
    """The %-format spec of a float at ``precision`` significant digits.

    ``"%.{p}g" % v`` and ``format(v, ".{p}g")`` print every double the same,
    inf, nan and -0.0 included.
    """
    return f"%.{min(precision, _MAX_DIGITS)}g"


def fmt(value, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _spec(precision) % float(value)
    return str(value)


# Rows per %-format call of `_table_pieces`: enough to amortise the call,
# few enough that one chunk's float list, value tuple and bytes (written as
# they are, with no encoded copy) each stay under glibc's 128 KiB mmap
# threshold, so the heap reuses them chunk after chunk.
_CHUNK_ROWS = 2048


def _table_pieces(row: bytes, columns, labels):
    """The rows of equal-length float ``columns`` as bytes pieces, printed by ``row``.

    One %-format call per chunk of at most ``_CHUNK_ROWS`` rows.  ``labels``,
    unless None, yields each row's leading bytes cell.  Printed with
    :func:`_spec`'s spec, the bytes equal those of formatting each value
    with :func:`fmt` and encoding it.
    """
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = np.stack([c[start:start + _CHUNK_ROWS] for c in columns], axis=1)
        if labels is not None:
            cells = np.array(list(itertools.islice(labels, len(chunk))), dtype=object)
            chunk = np.column_stack((cells, chunk))
        yield row * len(chunk) % tuple(chunk.ravel().tolist())


def _csv_pieces(blocks, precision: int):
    """The ``x,f1,f2`` table of consecutive ``(xs, f1, f2)`` blocks as bytes pieces."""
    yield b"x,f1,f2\n"
    row = (",".join([_spec(precision)] * 3) + "\n").encode()
    for block in blocks:
        yield from _table_pieces(row, block, None)


def _write_out(pieces, out: str | None) -> None:
    """Write bytes pieces in order to ``out``, or to stdout when it is None or "-".

    Each piece is written as soon as it is produced, so a generator of
    pieces is never held in memory whole.  A file is written whole or not
    at all: the pieces go to a temporary file beside it, which replaces
    ``out`` after the last piece and is removed if producing one raises; an
    error opening or replacing it names ``out``, not the temporary file.
    Pieces are UTF-8, with surrogateescape for an undecodable config file
    name; stdout gets them as text, in its encoding, up to any error.
    """
    if out is None or out == "-":
        for piece in pieces:
            click.echo(piece.decode(errors="surrogateescape"), nl=False)
        return
    target = os.path.realpath(out)
    if os.path.exists(target) and not os.path.isfile(target):
        # a device or pipe cannot be replaced; write to it directly
        with open(target, "wb") as fh:
            fh.writelines(pieces)
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, target)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and tmp in (exc.filename, exc.filename2):
            # name the file asked for, not the temporary one beside it
            raise OSError(exc.errno, exc.strerror, out) from exc
        raise


def _kv_lines(pairs, precision: int) -> str:
    lines = []
    for key, value in pairs:
        if isinstance(value, (list, tuple, np.ndarray)):
            value = ",".join(fmt(v, precision) for v in value)
        else:
            value = fmt(value, precision)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _report(pairs, opts, degeneracy: str | None) -> None:
    """Write a key-value report; then, if ``degeneracy`` names one, warn on stderr and exit 3."""
    _write_out((_kv_lines(pairs, opts.precision).encode(errors="surrogateescape"),), opts.out)
    if degeneracy is not None:
        click.echo(f"warning: {degeneracy}", err=True)
        sys.exit(EXIT_DEGENERATE)


def _classification_pairs(config: RunConfig, model, report):
    issues = self_affine_discrepancies(model)
    pairs = [
        ("command", "classify"),
        ("config", config.name),
        ("n_intervals", model.n_intervals),
        ("interval_lengths", model.a),
        ("lambda", model.lam),
        ("mu", model.mu),
        ("omega_i", model.omega_i),
        ("gamma_i", model.gamma_i),
        ("theta_i", model.theta_i),
        ("omega", model.omega),
        ("gamma", model.gamma_ratio),
        ("theta", model.theta),
        ("theta_regime", report.theta_regime),
        ("omega_state", report.omega_state),
        ("gamma_state", report.gamma_state),
        ("case", report.case_label),
        ("modulus_order", report.modulus_order),
        ("delta", report.delta),
        ("delta_tag", report.delta_tag),
        ("tau1", report.tau1),
        ("tau2", report.tau2),
        ("tau3", min(report.tau1, report.tau2)),
        ("tau4", report.tau1),
        ("self_affine", not issues),
        ("degenerate", report.degeneracy is not None),
    ]
    if report.degeneracy is not None:
        pairs.append(("warning", report.degeneracy))
    # hidden ordinates ride on the data (no z_ clause) and the collapse
    # identity fails on some intervals but not all: likely a mistyped parameter
    failing = sum(issue.startswith("alpha_") for issue in issues)
    if 0 < failing < model.n_intervals and not issues[0].startswith("z_"):
        pairs.append(("warning", "near-self-affine: " + "; ".join(issues)))
    return pairs


@click.group()
def main() -> None:
    """Construct, classify and measure coalescence fractal interpolants."""


def _load(config_ref: str, flags: dict) -> RunConfig:
    config = resolve_config(config_ref)
    fields = {k: v for k, v in flags.items() if v is not None}
    if fields:
        config = replace(config, options=replace(config.options, **fields))
    return config


_CONFIG = click.option("--config", "config_ref", required=True,
                       help="Config file path or bundled name (fig1..fig16, fig1_corrected).")
_OUT = click.option("--out", help="Output path (default: config's out, else stdout).")
_PRECISION = click.option("--precision", type=int, help="Significant digits in output.")


def _command(*options, sizes):
    """Make ``body(config)`` a command with ``--config``, ``--out``, ``options`` and ``--precision``.

    Each option's destination is the :class:`RunOptions` field it sets; an
    option left unset keeps the config's value.  ``sizes(opts)`` names the
    size options the body reads, the only ones held to their highest value.
    A package, I/O or value error ends the run with an ``error:`` line and
    its exit code.
    """
    def decorate(body):
        @functools.wraps(body)
        def callback(config_ref: str, **flags) -> None:
            try:
                config = _load(config_ref, flags)
                # checked before any output is opened: a chunked writer would
                # already have written the header when the first row failed to format
                check_options(config, sizes(config.options))
                body(config)
            except (ChfifError, OSError, ValueError) as exc:
                # a plain ValueError is an option value the library rejects (depth -1)
                code = EXIT_IO if isinstance(exc, OSError) else getattr(exc, "exit_code", EXIT_VALIDATION)
                click.echo(f"error: {exc}", err=True)
                sys.exit(code)
        for option in reversed((_CONFIG, _OUT, *options, _PRECISION)):
            callback = option(callback)
        return callback
    return decorate


@main.command()
@_command(
    click.option("--depth", type=int, help="Refinement depth of the output grid."),
    click.option("--method", type=click.Choice(list(ROUTE_SIZE)),
                 help="Evaluation route (default exact)."),
    click.option("--seed", type=int, help="Chaos-game seed."),
    click.option("--points", type=int, help="Chaos-game point count."),
    click.option("--grid-size", type=int, help="Iteration grid size."),
    click.option("--tol", type=float, help="Iteration tolerance."),
    sizes=lambda opts: (ROUTE_SIZE[opts.method],),
)
def generate(config: RunConfig) -> None:
    """Write the curve as delimiter-separated x,f1,f2 rows."""
    opts = config.options
    model = solve_model(config.problem)
    if opts.method == "chaos":
        cloud = chaos_game(model, opts.points, opts.seed)
        blocks = [(cloud[:, 0], cloud[:, 1], cloud[:, 2])]
    elif opts.method == "iterate":
        result = fixed_point_iterate(model, opts.grid_size, opts.iterations, opts.tol)
        if not result.converged:
            raise NotConvergedError(
                f"iteration did not reach tol {opts.tol} in {opts.iterations} sweeps "
                f"(last distance {max(result.f1_distances[-1], result.f2_distances[-1]):.3g})")
        blocks = [(result.graph.xs, result.graph.f1s, result.f2s)]
    else:
        blocks = exact_blocks(model, opts.depth)
    _write_out(_csv_pieces(blocks, opts.precision), opts.out)


@main.command(name="classify")
@_command(sizes=lambda opts: ())
def classify_cmd(config: RunConfig) -> None:
    """Write the smoothness classification report."""
    model = solve_model(config.problem)
    report = classify(model)
    _report(_classification_pairs(config, model, report), config.options, report.degeneracy)


@main.command()
@_command(
    click.option("--depth", type=int, help="Sampling depth for box counting."),
    click.option("--eps-min-exp", type=int, help="Smallest dyadic exponent."),
    click.option("--eps-max-exp", type=int, help="Largest dyadic exponent."),
    sizes=lambda opts: ("depth",),
)
def dimension(config: RunConfig) -> None:
    """Write dimension bounds and the box-counting estimate."""
    opts = config.options
    model = solve_model(config.problem)
    smooth = classify(model)
    sampled = sample_exact(model, opts.depth)
    pairs = [
        ("command", "dimension"),
        ("config", config.name),
        *dimension_report(model, smooth, sampled, range(opts.eps_min_exp, opts.eps_max_exp + 1)),
    ]
    if smooth.degeneracy is not None:
        pairs.append(("warning", smooth.degeneracy))
    _report(pairs, opts, smooth.degeneracy)


@main.command()
@_command(click.option("--depth", "moments_depth", type=int, help="Maximum address length tabulated."),
          sizes=lambda opts: ("moments_depth", "probe_depth"))
def moments(config: RunConfig) -> None:
    """Write per-address moment values and the averaging-operator profile."""
    opts = config.options
    model = solve_model(config.problem)
    table = build_moment_table(model, opts.moments_depth)
    profile = convergence_profile(model, opts.profile_m_max, opts.probe_depth)
    _write_out(_moment_pieces(config.name, model.n_intervals, table, profile, opts.precision), opts.out)


def _moment_pieces(name: str, n_intervals: int, table, profile, p: int):
    # the report's bytes, a chunk of cells at a time: held whole, the text of
    # the deepest table the options allow (14.3M cells for N = 3) takes GBs
    yield (f"# config: {name}\n"
           f"# whole-interval integrals: B={fmt(table.whole_b, p)} A={fmt(table.whole_a, p)}\n"
           "word,start,length,b,a\n").encode(errors="surrogateescape")
    row = ("%s" + f",{_spec(p)}" * 4 + "\n").encode()
    symbols = [str(r).encode() for r in range(1, n_intervals + 1)]
    for length, level in enumerate(table.levels, start=1):
        columns = (level.starts, level.lengths, level.b_values, level.a_values)
        yield from _table_pieces(row, columns, _words(symbols, length))
    yield ("\nm,sup_error\n" + "".join(f"{m},{fmt(err, p)}\n" for m, err in profile)).encode()


def _words(symbols, length: int):
    # spatial order: word r_1..r_m has index digits (r_m ... r_1) base N, so
    # r_1 varies fastest in front of the words of r_2..r_m
    if not length:
        return iter((b"",))
    return (r + tail for tail in _words(symbols, length - 1) for r in symbols)


@main.command(name="validate")
@_command(sizes=lambda opts: ())
def validate_cmd(config: RunConfig) -> None:
    """Check the configuration's data invariants."""
    violations = validate(config.problem)
    pairs = [("command", "validate"), ("config", config.name), ("ok", not violations)]
    for i, violation in enumerate(violations):
        pairs.append((f"violation_{i}", str(violation)))
    _report(pairs, config.options, None)
    if violations:
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
