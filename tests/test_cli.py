"""Tests for config parsing and the command surface."""

import functools
import importlib
import math
import os
import struct
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chfif import (
    ConfigError,
    InterpolationProblem,
    IntervalParams,
    PowerTerm,
    exact_blocks,
    fixed_point_iterate,
    solve_model,
    validate,
)
from chfif import attractor, cli
from chfif.cli import main
from chfif.config import (
    BUNDLED_NAMES,
    load_bundled_config,
    RunConfig,
    RunOptions,
    parse_config,
    resolve_config,
)

from helpers import LATE_OVERFLOW, OVERFLOWING, config_json, csv_text, zero_param_problem

MINIMAL = """\
problem:
  nodes:
    - [0.0, 2.0]
    - [0.35, 7.0]
    - [0.75, 4.0]
    - [1.0, 9.0]
  hidden: [3.0, 1.0, 8.0, 5.0]
  intervals:
    - {alpha: 0.2, beta: 0.4, gamma: 0.3}
    - {alpha: 0.38, beta: 0.35, gamma: 0.3}
    - {alpha: 0.2, beta: 0.5, gamma: 0.24}
"""

# five equal intervals: 5**11 + 1 points at the default depth 10, above the budget
FIVE_INTERVALS = """\
problem:
  nodes: [[0.0, 2.0], [0.2, 7.0], [0.4, 4.0], [0.6, 9.0], [0.8, 1.0], [1.0, 3.0]]
  hidden: [3.0, 1.0, 8.0, 5.0, 2.0, 4.0]
  intervals: [{alpha: 0.2, beta: 0.4, gamma: 0.3}, {alpha: 0.2, beta: 0.4, gamma: 0.3},
              {alpha: 0.2, beta: 0.4, gamma: 0.3}, {alpha: 0.2, beta: 0.4, gamma: 0.3},
              {alpha: 0.2, beta: 0.4, gamma: 0.3}]
"""


finite = st.floats(allow_nan=False, allow_infinity=False)
# one value strategy per RunOptions annotation
OPTION_VALUES = {
    "int": st.integers(),
    "float": finite,
    "str": st.sampled_from(["exact", "iterate", "chaos"]),
    "str | None": st.none() | st.text(),
}


@st.composite
def run_configs(draw):
    """Admissible configs: increasing nodes, |alpha| < 1, |beta| + |gamma| < 1, exponents in (0, 1]."""
    xs = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=6, unique=True)))
    scale = st.floats(-0.49, 0.49)
    power = st.none() | st.builds(PowerTerm, coeff=finite, exponent=st.floats(0.01, 1.0))
    params = tuple(
        draw(st.builds(IntervalParams, alpha=st.floats(-0.99, 0.99), beta=scale, gamma=scale,
                       p_power=power, q_power=power))
        for _ in xs[1:])
    problem = InterpolationProblem(
        nodes=tuple((x, draw(finite)) for x in xs),
        hidden=tuple(draw(finite) for _ in xs),
        params=params)
    options = draw(st.fixed_dictionaries(
        {}, optional={f.name: OPTION_VALUES[f.type] for f in fields(RunOptions)}))
    return RunConfig(problem=problem, options=RunOptions(**options))


class TestParseConfig:
    def test_minimal_document(self):
        config = parse_config(MINIMAL)
        assert config.problem.nodes == ((0.0, 2.0), (0.35, 7.0), (0.75, 4.0), (1.0, 9.0))
        assert config.problem.hidden == (3.0, 1.0, 8.0, 5.0)
        assert config.problem.params[1].alpha == 0.38

    def test_option_defaults(self):
        opts = parse_config(MINIMAL).options
        assert opts.depth == 10
        assert opts.tol == 1e-10
        assert (opts.eps_min_exp, opts.eps_max_exp) == (4, 12)
        assert opts.precision == 12

    def test_bundled_entry_matches_presets(self):
        config = parse_config(load_bundled_config("fig4"), name="fig4")
        assert config.problem.nodes == ((0.0, 2.0), (0.35, 7.0), (0.75, 4.0), (1.0, 9.0))
        assert [p.alpha for p in config.problem.params] == [0.2, 0.38, 0.2]
        assert config.problem.hidden == (3.0, 1.0, 8.0, 5.0)

    def test_empty_document(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        assert "problem" in str(err.value)

    def test_unknown_key_is_path_addressed(self):
        text = MINIMAL + "options:\n  depht: 4\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "options.depht" in str(err.value)

    def test_unknown_interval_key(self):
        bad = MINIMAL.replace("{alpha: 0.2, beta: 0.4, gamma: 0.3}",
                              "{alpha: 0.2, beta: 0.4, gamma: 0.3, delta: 1}")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert "problem.intervals[0].delta" in str(err.value)

    def test_yaml_error_is_line_addressed(self):
        with pytest.raises(ConfigError) as err:
            parse_config("problem: [unclosed\n")
        assert "line" in str(err.value)

    def test_semantics_left_to_validation(self):
        # the parser accepts constraint-violating numbers; validation names them
        bad = MINIMAL.replace("{alpha: 0.2, beta: 0.4, gamma: 0.3}",
                              "{alpha: 0.2, beta: 0.7, gamma: 0.5}")
        config = parse_config(bad)
        violations = validate(config.problem)
        assert violations
        assert any("beta_1" in str(v) for v in violations)

    def test_yaml_1_2_exponent_floats(self):
        # YAML 1.1 reads these as strings; a quoted number must stay one
        text = (MINIMAL.replace("[1.0, 9.0]", "[1e0, 9E+0]").replace("5.0]", "5e0]")
                + "options:\n  tol: 1e-12\n")
        config = parse_config(text)
        assert config.problem.nodes[3] == (1.0, 9.0)
        assert config.problem.hidden[3] == 5.0
        assert config.options.tol == 1e-12
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "options:\n  tol: '1e-12'\n")
        assert "options.tol: expected a number, got '1e-12'" in str(err.value)

    def test_power_terms(self):
        text = MINIMAL.replace(
            "{alpha: 0.2, beta: 0.4, gamma: 0.3}",
            "{alpha: 0.2, beta: 0.4, gamma: 0.3, p_power: {coeff: 0.5, exponent: 0.6}}")
        config = parse_config(text)
        assert config.problem.params[0].p_power.exponent == 0.6

    @pytest.mark.parametrize("text", [
        MINIMAL + "options: null\n",
        MINIMAL.replace("gamma: 0.3}", "gamma: 0.3, p_power: null}", 1),
    ])
    def test_nulls_mean_defaults(self, text):
        assert parse_config(text) == parse_config(MINIMAL)

    def test_int_is_accepted_for_a_float(self):
        tol = parse_config(MINIMAL + "options:\n  tol: 1\n").options.tol
        assert tol == 1.0 and isinstance(tol, float)

    def test_out_may_be_null(self):
        # out is `str | None`; null keeps the default, writing to stdout
        assert parse_config(MINIMAL + "options:\n  out: null\n").options.out is None

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "options: {1: 2, depht: 3}\n")
        assert str(err.value) == "options.1: unknown key"

    def test_round_trip(self):
        original = parse_config(MINIMAL)
        again = parse_config(config_json(original))
        assert again.problem == original.problem
        assert again.options == original.options

    @pytest.mark.parametrize("name", BUNDLED_NAMES + ("power",))
    def test_bundled_configs_round_trip(self, name):
        if name == "power":
            text = (Path(__file__).parent / "data" / "power.yaml").read_text()
        else:
            text = load_bundled_config(name)
        original = parse_config(text, name=name)
        assert parse_config(config_json(original), name=name) == original

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(run_configs())
    def test_round_trip_random_configs(self, config):
        assert parse_config(config_json(config)) == config

    def test_float_like_strings_round_trip(self):
        # "1e5" written unquoted would read as a float: the loader takes YAML 1.2 floats
        config = replace(parse_config(MINIMAL), options=RunOptions(out="1e5"))
        assert parse_config(config_json(config)) == config

    def test_all_bundled_configs_parse_and_validate(self):
        for name in BUNDLED_NAMES:
            config = parse_config(load_bundled_config(name), name=name)
            assert not validate(config.problem), name

    def test_bundled_names_are_the_config_files_and_the_benchmark_gallery(self, monkeypatch):
        # a config file missing from BUNDLED_NAMES would not resolve, and one
        # missing from perfbench's gallery would not be benchmarked
        stems = sorted(path.stem for path in Path(cli.__file__).with_name("configs").glob("*.yaml"))
        assert sorted(BUNDLED_NAMES) == stems
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        assert importlib.import_module("workloads").GALLERY == BUNDLED_NAMES

    def test_resolve_prefers_files(self, tmp_path):
        path = tmp_path / "fig4"          # a file shadowing a bundled name
        path.write_text(MINIMAL.replace("0.38", "0.2"))
        config = resolve_config(str(path))
        assert config.problem.params[1].alpha == 0.2

    def test_resolve_unknown(self):
        with pytest.raises(FileNotFoundError):
            resolve_config("no_such_config")


class TestCommands:
    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_validate_ok(self):
        result = self.run("validate", "--config", "fig4")
        assert result.exit_code == 0
        assert "ok: true" in result.output

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-m", "chfif.cli", "validate", "--config", "fig4"],
                               capture_output=True, text=True, env=env, timeout=120)
        assert (child.returncode, child.stderr) == (0, "")
        assert "ok: true" in child.stdout.splitlines()

    def test_validate_failure_exit_code(self, tmp_path):
        bad = MINIMAL.replace("{alpha: 0.2, beta: 0.4, gamma: 0.3}",
                              "{alpha: 0.2, beta: 0.7, gamma: 0.5}")
        path = tmp_path / "bad.yaml"
        path.write_text(bad)
        result = self.run("validate", "--config", str(path))
        assert result.exit_code == 1
        assert "beta_1" in result.output

    def test_missing_config_is_io_error(self):
        result = self.run("classify", "--config", "/nonexistent/thing.yaml")
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--config", "fig4", "--no-such-flag"],
        ["--config", "fig4", "--precision", "abc"],
        [],
    ], ids=["unknown-flag", "mistyped-value", "no-config"])
    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_malformed_command_line_is_a_usage_error(self, command, args):
        # click refuses it before the command runs, with exit 2, as an I/O failure exits
        result = self.run(command, *args)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("Usage:")

    def test_classify_report(self, tmp_path):
        out = tmp_path / "report.txt"
        result = self.run("classify", "--config", "fig4", "--out", str(out))
        assert result.exit_code == 0
        text = out.read_text()
        assert "theta_regime: LT1" in text
        assert "delta: 1" in text
        assert "modulus_order: LIP_DELTA" in text

    def test_classify_degenerate_exit_code(self, tmp_path):
        out = tmp_path / "report.txt"
        result = self.run("classify", "--config", "fig6", "--out", str(out))
        assert result.exit_code == 3
        assert "degenerate: true" in out.read_text()

    def test_classify_flags_near_self_affine_data(self, tmp_path):
        out = tmp_path / "report.txt"
        self.run("classify", "--config", "fig1", "--out", str(out))
        text = out.read_text()
        assert "self_affine: false" in text
        assert "alpha_3 + beta_3" in text

    def test_generate_collapsed_components(self, tmp_path):
        out = tmp_path / "curve.csv"
        result = self.run("generate", "--config", "fig1_corrected",
                          "--depth", "5", "--out", str(out))
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,f1,f2"
        for line in lines[1:]:
            _, f1, f2 = line.split(",")
            assert f1 == f2

    def test_generate_zero_parameters_match_interpolant(self, tmp_path):
        config = tmp_path / "zero.yaml"
        config.write_text(config_json(RunConfig(zero_param_problem())))
        out = tmp_path / "curve.csv"
        result = self.run("generate", "--config", str(config), "--depth", "4", "--out", str(out))
        assert result.exit_code == 0
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        expected = np.interp(rows[:, 0], [0, 0.35, 0.75, 1.0], [2.0, 7.0, 4.0, 9.0])
        np.testing.assert_allclose(rows[:, 1], expected, atol=1e-9)

    def test_generate_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert self.run("generate", "--config", "fig4", "--depth", "6",
                        "--out", str(first)).exit_code == 0
        assert self.run("generate", "--config", "fig4", "--depth", "6",
                        "--out", str(second)).exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_generate_chaos_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            result = self.run("generate", "--config", "fig7", "--method", "chaos",
                              "--points", "500", "--seed", "13", "--out", str(path))
            assert result.exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_generate_iterate_route(self, tmp_path):
        out = tmp_path / "curve.csv"
        result = self.run("generate", "--config", "fig4", "--method", "iterate",
                          "--grid-size", "257", "--out", str(out))
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 258

    def test_moments_table(self, tmp_path):
        out = tmp_path / "moments.txt"
        result = self.run("moments", "--config", "fig4", "--depth", "2", "--out", str(out))
        assert result.exit_code == 0
        text = out.read_text().splitlines()
        assert "word,start,length,b,a" in text
        assert "m,sup_error" in text
        # 3 single-symbol rows + 9 two-symbol rows
        data_rows = [l for l in text if l and l[0].isdigit() and "," in l and l.count(",") == 4]
        assert len(data_rows) == 12

    def test_dimension_report(self, tmp_path):
        out = tmp_path / "dim.txt"
        result = self.run("dimension", "--config", "fig9", "--depth", "10",
                          "--eps-max-exp", "10", "--out", str(out))
        assert result.exit_code == 0
        text = out.read_text()
        assert "critical_condition: omega" in text
        assert "lower_bound: 1" in text
        assert "empirical_estimate:" in text

    @pytest.mark.parametrize("alpha, critical", [
        (0.5 * (1.0 + 5e-10), True),   # Omega = 1 + 5e-10: inside the critical window
        (0.5 * (1.0 + 2e-9), False),   # Omega = 1 + 2e-9: outside it
    ])
    def test_dimension_at_the_critical_window_edge(self, alpha, critical, tmp_path):
        path = tmp_path / "edge.yaml"
        path.write_text("problem:\n  nodes: [[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]\n"
                        "  hidden: [0.0, 1.0, 0.0]\n  intervals:\n"
                        f"    - {{alpha: {alpha!r}, beta: 0.2, gamma: 0.3}}\n"
                        f"    - {{alpha: {alpha!r}, beta: 0.2, gamma: 0.3}}\n")
        result = self.run("dimension", "--config", str(path), "--depth", "8",
                          "--eps-min-exp", "2", "--eps-max-exp", "6")
        assert result.exit_code == 0
        assert f"omega_critical: {'true' if critical else 'false'}\n" in result.stdout
        assert ("lower_bound: " in result.stdout) == critical
        assert ("upper_bound: " in result.stdout) == critical

    @pytest.mark.parametrize("low, high", [("-6", "-3"), ("-1023", "-1020")])
    def test_dimension_refuses_scales_wider_than_the_graph(self, low, high):
        result = self.run("dimension", "--config", "fig4", "--depth", "6",
                          "--eps-min-exp", low, "--eps-max-exp", high)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == f"error: box scale 2^{-int(low)} = {2.0 ** -int(low):.6g} " \
                                "is not narrower than the graph's width 1\n"

    def test_unwritable_output_is_io_error(self, tmp_path):
        result = self.run("classify", "--config", "fig4", "--out", str(tmp_path))
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", ["generate", "classify"])
    def test_out_into_a_missing_directory_names_the_path_given(self, command, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = self.run(command, "--config", "fig4", "--out", str(out))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_through_a_symlink_writes_its_target(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("earlier run\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert self.run("classify", "--config", "fig4", "--out", str(link)).exit_code == 0
        assert link.is_symlink()
        assert target.read_text().startswith("command: classify\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "report.txt"]

    def test_out_may_be_a_pipe(self, tmp_path):
        # a pipe cannot be replaced by a finished file: it is written directly
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        result = self.run("classify", "--config", "fig4", "--out", str(pipe))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert result.exit_code == 0
        assert received[0].startswith(b"command: classify\n")

    @pytest.mark.parametrize("args", [
        # a command line, then the message after "error: options."
        ("generate", "--depth", "-1", "depth: expected an integer >= 0, got -1"),
        ("generate", "--method", "chaos", "--points", "0", "points: expected an integer >= 1, got 0"),
        ("generate", "--method", "iterate", "--grid-size", "2", "grid_size: expected an integer >= 4, got 2"),
        ("generate", "--method", "chaos", "--seed", "-1", "seed: expected an integer >= 0, got -1"),
        ("generate", "--method", "iterate", "--tol", "0", "tol: expected a number > 0, got 0.0"),
        ("generate", "--method", "iterate", "--tol", "nan", "tol: expected a number > 0, got nan"),
        ("dimension", "--depth", "-1", "depth: expected an integer >= 0, got -1"),
        ("moments", "--depth", "-1", "moments_depth: expected an integer >= 0, got -1"),
        ("dimension", "--eps-min-exp", "5", "--eps-max-exp", "4",
         "eps_max_exp: expected an integer >= 8, got 4"),
        ("generate", "--depth", "1", "--precision", "2147483648",
         "precision: expected an integer <= 2147483647, got 2147483648"),
    ])
    def test_rejected_option_value_is_validation_error(self, args, tmp_path):
        *command, message = args
        out = tmp_path / "out.txt"
        for target in (("--out", str(out)), ()):   # refused before a file or stdout is written
            result = self.run(*command, "--config", "fig4", *target)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)   # not a traceback
            assert result.stdout == ""
            assert result.stderr == f"error: options.{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        # with a 5,000-point budget, level 6 (2,188 points) is the deepest
        # grid of fig4's three intervals and level 7 the deepest moment table
        ("generate", "--depth", "7", "depth: expected an integer <= 6, got 7"),
        ("dimension", "--depth", "7", "depth: expected an integer <= 6, got 7"),
        ("moments", "--depth", "8", "moments_depth: expected an integer <= 7, got 8"),
        ("generate", "--method", "chaos", "--points", "5001", "points: expected an integer <= 5000, got 5001"),
        ("generate", "--method", "iterate", "--grid-size", "5001",
         "grid_size: expected an integer <= 5000, got 5001"),
        ("moments", "probe_depth: expected an integer <= 6, got 7"),
    ])
    def test_option_above_the_point_budget_is_validation_error(self, args, tmp_path, monkeypatch):
        monkeypatch.setattr(attractor, "DEFAULT_MAX_POINTS", 5000)
        *command, message = args
        # the config keeps the other options within the budget, but for
        # probe_depth, which no flag sets and which is checked after them
        config = tmp_path / "fig4.yaml"
        config.write_text(load_bundled_config("fig4") + "options: {depth: 4, points: 500, grid_size: 257, "
                          "profile_m_max: 3, probe_depth: 7}\n")
        out = tmp_path / "out.txt"
        result = self.run(*command, "--config", str(config), "--out", str(out))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # not a traceback
        assert result.stderr == f"error: options.{message}\n"
        assert not out.exists()

    def test_iterate_non_convergence_exits_degenerate(self, tmp_path):
        path = tmp_path / "slow.yaml"
        path.write_text(MINIMAL + "options:\n  method: iterate\n  grid_size: 257\n  iterations: 5\n")
        result = self.run("generate", "--config", str(path))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)   # not a traceback
        assert "did not reach tol" in result.stderr
        assert "in 5 sweeps" in result.stderr
        # the last sweep's distance, the larger of its two components'
        sweeps = fixed_point_iterate(solve_model(parse_config(MINIMAL).problem), 257, 5, RunOptions().tol)
        last = max(sweeps.f1_distances[-1], sweeps.f2_distances[-1])
        assert f"(last distance {last:.3g})" in result.stderr

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_empty_sweep_budget_is_validation_error(self, iterations, tmp_path):
        path = tmp_path / "none.yaml"
        path.write_text(MINIMAL + f"options:\n  method: iterate\n  grid_size: 257\n  iterations: {iterations}\n")
        result = self.run("generate", "--config", str(path))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # not a traceback
        assert result.stderr == f"error: options.iterations: expected an integer >= 1, got {iterations}\n"

    @pytest.mark.parametrize("old, new, where", [
        ("[0.35, 7.0]", "[.nan, 7.0]", "nodes[1]"),
        ("[1.0, 9.0]", "[.inf, 9.0]", "nodes[3]"),
        ("[0.75, 4.0]", "[0.75, .nan]", "nodes[2]"),
        ("[0.0, 2.0]", "[0.0, -.inf]", "nodes[0]"),
        ("hidden: [3.0, 1.0, 8.0, 5.0]", "hidden: [3.0, .nan, 8.0, 5.0]", "hidden[1]"),
        ("hidden: [3.0, 1.0, 8.0, 5.0]", "hidden: [3.0, 1.0, 8.0, .inf]", "hidden[3]"),
        ("{alpha: 0.2, beta: 0.4, gamma: 0.3}",
         "{alpha: 0.2, beta: 0.4, gamma: 0.3, p_power: {coeff: .nan, exponent: 0.5}}",
         "params[1].p_power"),
        ("{alpha: 0.38, beta: 0.35, gamma: 0.3}",
         "{alpha: 0.38, beta: 0.35, gamma: 0.3, q_power: {coeff: -.inf, exponent: 0.7}}",
         "params[2].q_power"),
    ])
    def test_non_finite_input_is_rejected_with_its_path(self, old, new, where, tmp_path, monkeypatch):
        assert MINIMAL.count(old) == 1
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace(old, new))
        result = self.run("validate", "--config", str(path))
        assert result.exit_code == 1
        assert "ok: false" in result.output
        assert f"{where}: " in result.output and "is not finite" in result.output

        sweeps = []
        monkeypatch.setattr(cli, "fixed_point_iterate", lambda *args: sweeps.append(args))
        for command in (("classify",), ("dimension", "--depth", "4", "--eps-max-exp", "7"),
                        ("moments", "--depth", "1"), ("generate", "--depth", "2"),
                        ("generate", "--method", "iterate", "--grid-size", "257")):
            result = self.run(*command, "--config", str(path), "--out", str(tmp_path / "out.txt"))
            assert result.exit_code == 1, command
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.startswith("error: invalid interpolation problem")
            assert f"{where}: " in result.stderr
        assert not sweeps

    @pytest.mark.parametrize("command", [
        ("generate", "--depth", "2"), ("generate", "--method", "chaos", "--points", "10"),
        ("classify",), ("dimension", "--depth", "4", "--eps-max-exp", "7"),
        ("moments", "--depth", "1"), ("validate",),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_precision_is_rejected_before_output(self, command, source, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL + ("options:\n  precision: -1\n" if source == "config" else ""))
        flag = ("--precision", "-1") if source == "flag" else ()
        out = tmp_path / "out.txt"
        result = self.run(*command, "--config", str(path), *flag, "--out", str(out))
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # not a traceback
        assert result.stderr.startswith("error: options.precision: ")
        assert not out.exists()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's RLIMIT_AS")
    @pytest.mark.parametrize("command", [
        ("classify",), ("generate", "--depth", "1"), ("moments", "--depth", "1"),
    ])
    def test_highest_precision_formats_in_bounded_memory(self, command):
        # Python reserves a digit buffer of the requested precision per value,
        # 2 GiB here; the child allows itself half a GiB above its own size
        script = "\n".join((
            "import resource, sys",
            "from chfif.cli import main",
            "size = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmSize:'))",
            "limit = 1024 * size + 2**29",
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))",
            "main(sys.argv[1:])",
        ))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        args = (*command, "--config", "fig4", "--precision")
        child = subprocess.run([sys.executable, "-c", script, *args, "2147483647"],
                               capture_output=True, text=True, env=env, timeout=120)
        assert (child.returncode, child.stderr) == (0, "")
        # 767 digits spell out any double exactly, so no higher precision prints more
        assert child.stdout == self.run(*args, "767").stdout

    def test_overflowing_solved_model_is_rejected_with_its_path(self, tmp_path):
        path = tmp_path / "huge.yaml"
        path.write_text(MINIMAL.replace("[0.0, 2.0]", "[0.0, 1.0e+308]")
                        .replace("[0.35, 7.0]", "[0.35, -1.0e+308]")
                        .replace("[0.75, 4.0]", "[0.75, 1.0e+308]"))
        result = self.run("validate", "--config", str(path))
        assert result.exit_code == 1
        assert "ok: false" in result.output
        assert "params[1]: solved model is not finite: c = " in result.output
        for command in (("classify",), ("dimension", "--depth", "4", "--eps-max-exp", "7"),
                        ("moments", "--depth", "1"), ("generate", "--depth", "2"),
                        ("generate", "--method", "iterate", "--grid-size", "257"),
                        ("generate", "--method", "chaos", "--points", "10")):
            out = tmp_path / "out.txt"
            result = self.run(*command, "--config", str(path), "--out", str(out))
            assert result.exit_code == 1, command
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.startswith("error: invalid interpolation problem: params[1]: ")
            assert not out.exists()

    @pytest.mark.filterwarnings("error")   # and no numpy overflow warning on the way
    @pytest.mark.parametrize("command, where", [
        (("dimension", "--depth", "8"), "sample_exact at depth 8"),
        (("moments",), "whole_interval_integrals"),
        (("generate", "--depth", "3"), "sample_exact at depth 3"),
        (("generate", "--method", "chaos", "--points", "50"), "chaos_game"),
        (("generate", "--method", "iterate", "--grid-size", "100"), "fixed_point_iterate at sweep 1"),
    ])
    def test_curve_past_the_float_range_exits_degenerate(self, command, where, tmp_path):
        path = tmp_path / "overflow.yaml"
        path.write_text(OVERFLOWING)
        assert self.run("validate", "--config", str(path)).exit_code == 0   # every input is finite
        out = tmp_path / "out.txt"
        result = self.run(*command, "--config", str(path), "--out", str(out))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)   # not a traceback
        assert result.stderr == f"error: {where} overflows: the curve leaves the float range\n"
        assert not out.exists()

    def test_overflow_past_the_first_block_leaves_out_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setattr(attractor, "_BLOCK_POINTS", 3)   # N + 1 points
        path = tmp_path / "late.yaml"
        path.write_text(LATE_OVERFLOW)
        error = "error: sample_exact at depth 2 overflows: the curve leaves the float range\n"
        out = tmp_path / "out.csv"
        result = self.run("generate", "--config", str(path), "--depth", "2", "--out", str(out))
        assert result.exit_code == 3
        assert result.stderr == error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["late.yaml"]   # no temporary left
        out.write_bytes(b"earlier run\n")
        result = self.run("generate", "--config", str(path), "--depth", "2", "--out", str(out))
        assert result.exit_code == 3
        assert out.read_bytes() == b"earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["late.yaml", "out.csv"]
        # stdout keeps the rows streamed before the overflow
        result = self.run("generate", "--config", str(path), "--depth", "2")
        assert result.exit_code == 3
        first = next(exact_blocks(solve_model(parse_config(LATE_OVERFLOW).problem), 2))
        assert result.stdout == csv_text(*first, 12)
        assert result.stderr == error

    @pytest.mark.parametrize("nodes, hidden, intervals", [
        ("[]", "[]", "[]"),
        ("[[0.0, 2.0]]", "[3.0]", "[]"),
        ("[[0.0, 2.0], [1.0, 9.0]]", "[3.0, 5.0]", "[{alpha: 0.2, beta: 0.4, gamma: 0.3}]"),
    ])
    def test_fewer_than_two_intervals_reach_validation(self, nodes, hidden, intervals, tmp_path):
        # their grids never outgrow the point budget, so `dimension`, which
        # reads `depth`, bounds it as for two intervals and then validates
        path = tmp_path / "few.yaml"
        path.write_text(f"problem:\n  nodes: {nodes}\n  hidden: {hidden}\n  intervals: {intervals}\n")
        result = self.run("validate", "--config", str(path))
        assert result.exit_code == 1
        assert "need at least 3 nodes (2 intervals)" in result.stdout
        result = self.run("dimension", "--config", str(path))
        assert result.exit_code == 1
        assert "need at least 3 nodes (2 intervals)" in result.stderr

    @pytest.mark.parametrize("command, error", [
        (("classify",), ""), (("validate",), ""),
        (("generate", "--method", "chaos"), ""), (("generate", "--method", "iterate"), ""),
        # level 9 (5**10 + 1 points) is the deepest grid within the budget
        (("generate",), "error: options.depth: expected an integer <= 9, got 10\n"),
        (("dimension",), "error: options.depth: expected an integer <= 9, got 10\n"),
        (("moments",), "error: options.probe_depth: expected an integer <= 9, got 10\n"),
    ])
    def test_size_bounds_apply_to_the_commands_that_read_them(self, command, error, tmp_path):
        # five intervals with default options: `depth` and `probe_depth` are
        # above their highest value, which only bounds the commands reading them
        path = tmp_path / "five.yaml"
        path.write_text(FIVE_INTERVALS)
        result = self.run(*command, "--config", str(path), "--out", str(tmp_path / "out.txt"))
        assert result.exit_code == (1 if error else 0)
        assert result.stderr == error

    def test_refused_depth_writes_nothing(self):
        result = self.run("generate", "--config", "fig4", "--depth", "15")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: options.depth: expected an integer <= 14, got 15\n"

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_every_bundled_config_runs_end_to_end(self, name, tmp_path):
        out = tmp_path / "report.txt"
        result = self.run("classify", "--config", name, "--out", str(out))
        assert result.exit_code in (0, 3)    # 3 = degenerate exponent, still reported
        assert "theta_regime:" in out.read_text()
        curve = tmp_path / "curve.csv"
        assert self.run("generate", "--config", name, "--depth", "3",
                        "--out", str(curve)).exit_code == 0
        assert len(curve.read_text().splitlines()) == 3**4 + 2


# (s, t) of y -> s*y + t, z -> s*z + t.  Every classify line reads only the
# abscissas, the scalings, the exponents and whether z = y and the power
# terms agree, so none may move; (1, 1e5) puts the solved coefficients'
# rounding far above any absolute tolerance.
ORDINATE_MAPS = ((1.0, 1e5), (1e6, 12345.678), (1e3, 0.0), (1e6, 0.0), (-2.0, 3.0))


ORDINATE_REFS = [*BUNDLED_NAMES, pytest.param(str(Path(__file__).parent / "data" / "power.yaml"), id="power")]


def _written(config, problem, tmp_path) -> str:
    """The path of ``config`` with ``problem`` in place of its own, under the same stem."""
    path = tmp_path / f"{config.name}.yaml"    # the same stem prints the same config line
    path.write_text(config_json(replace(config, problem=problem)))
    return str(path)


def _ordinates_mapped(ref, s, t, tmp_path) -> str:
    """The path of ``ref``'s config with y -> s*y + t and z -> s*z + t, under the same stem.

    The power coefficients scale by s too, so that f1 -> s*f1 + t and f2 -> s*f2 + t.
    """
    config = resolve_config(ref)

    def scaled(term):
        return term and replace(term, coeff=s * term.coeff)

    problem = config.problem
    problem = replace(
        problem,
        nodes=tuple((x, s * y + t) for x, y in problem.nodes),
        hidden=tuple(s * z + t for z in problem.hidden),
        params=tuple(replace(prm, p_power=scaled(prm.p_power), q_power=scaled(prm.q_power))
                     for prm in problem.params))
    return _written(config, problem, tmp_path)


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("s, t", ORDINATE_MAPS)
def test_classify_report_is_invariant_under_an_affine_map_of_the_ordinates(ref, s, t, tmp_path):
    base, mapped = (CliRunner().invoke(main, ["classify", "--config", where, "--out", "-"])
                    for where in (ref, _ordinates_mapped(ref, s, t, tmp_path)))
    assert (mapped.exit_code, mapped.stdout, mapped.stderr) == (base.exit_code, base.stdout, base.stderr)


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("s, t", ORDINATE_MAPS)
def test_validate_report_is_invariant_under_an_affine_map_of_the_ordinates(ref, s, t, tmp_path):
    # every invariant reads the abscissas and the scalings, never an ordinate's value
    base, mapped = (CliRunner().invoke(main, ["validate", "--config", where, "--out", "-"])
                    for where in (ref, _ordinates_mapped(ref, s, t, tmp_path)))
    assert (mapped.exit_code, mapped.stdout, mapped.stderr) == (base.exit_code, base.stdout, base.stderr)


def _stdout(*args) -> str:
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.stderr
    return result.stdout


# each bundled config's own output, shared by the five maps
_base_stdout = functools.lru_cache(maxsize=None)(_stdout)


def _rounding_unit(ref, s, t) -> float:
    """One rounding unit of the mapped curve's largest value: |s| times a certified bound on |f1| and |f2|, plus |t|."""
    return np.finfo(float).eps * (abs(s) * max(solve_model(resolve_config(ref).problem).value_bounds()) + abs(t))


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("s, t", ORDINATE_MAPS)
def test_exact_generate_maps_with_an_affine_map_of_the_ordinates(ref, s, t, tmp_path):
    """Every exact value v becomes s*v + t; the abscissas keep every digit.

    A level-d value has gone through d map applications on data no larger
    than the mapped bound, each rounding a few terms, and the scalings are
    below 1, so earlier errors do not grow: 4 (d + 1) units, as for the
    reflection in ``test_attractor.py``, with no term for the abscissas,
    which do not move.  The original's error, times |s|, and the rounding
    of s*v + t fit the same count.  The worst on these cases was 1.1 units
    per level.
    """
    depth = 6
    base, mapped = (np.array([row.split(",") for row in text.splitlines()[1:]])
                    for text in (_base_stdout("generate", "--config", ref, "--depth", str(depth), "--precision", "17"),
                                 _stdout("generate", "--config", _ordinates_mapped(ref, s, t, tmp_path),
                                         "--depth", str(depth), "--precision", "17")))
    assert (mapped[:, 0] == base[:, 0]).all()
    error = np.abs(mapped[:, 1:].astype(float) - (s * base[:, 1:].astype(float) + t))
    assert np.max(error) <= 4 * (depth + 1) * _rounding_unit(ref, s, t)


# chaos_game's blocked scan against the step-by-step recurrence, relative
# to 1 + |v|, as test_attractor.py holds it
SCAN_GAP = 1e-11


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("s, t", ORDINATE_MAPS)
def test_chaos_generate_maps_with_an_affine_map_of_the_ordinates(ref, s, t, tmp_path):
    """Every chaos value v becomes s*v + t; the abscissas keep every digit.

    The picks and the x orbit read only the seed and the abscissas.  Each
    printed value is the blocked scan's, within SCAN_GAP (1 + |v|) of the
    step-by-step recurrence in each run, so |s| SCAN_GAP (1 + |v|) +
    SCAN_GAP (1 + |v'|) for the base value v and the mapped v'.  The two
    recurrences differ by their own rounding: a few units a step, damped
    by the scalings, at most 4 / (1 - max|gamma|) for f2 and
    (4 + max|beta| times that) / (1 - max|alpha|) for f1 in each run.
    The worst on these cases was 0.001 of this allowance (48 units, on
    fig3), and 0.16 of the recurrence terms alone.
    """
    args = ("--method", "chaos", "--points", "2000", "--precision", "17")
    base, mapped = (np.array([row.split(",") for row in text.splitlines()[1:]])
                    for text in (_base_stdout("generate", "--config", ref, *args),
                                 _stdout("generate", "--config", _ordinates_mapped(ref, s, t, tmp_path), *args)))
    assert (mapped[:, 0] == base[:, 0]).all()
    base, mapped = base[:, 1:].astype(float), mapped[:, 1:].astype(float)
    model = solve_model(resolve_config(ref).problem)
    f2_steps = 4 / (1 - np.max(np.abs(model.gamma)))
    steps = np.array([(4 + np.max(np.abs(model.beta)) * f2_steps) / (1 - np.max(np.abs(model.alpha))), f2_steps])
    unit = _rounding_unit(ref, s, t)
    allowance = SCAN_GAP * (abs(s) * (1 + np.abs(base)) + 1 + np.abs(mapped)) / unit + 2 * steps
    assert np.all(np.abs(mapped - (s * base + t)) / unit <= allowance)


def _moment_numbers(text: str):
    """(B, A), the table's [start, length, b, a] rows and the [m, sup_error] rows of a ``moments`` report."""
    head, profile = text.split("\nm,sup_error\n")
    lines = head.splitlines()
    whole = np.array([part.split("=")[1] for part in lines[1].split()[-2:]], dtype=float)
    table = np.array([row.split(",")[1:] for row in lines[3:]], dtype=float)
    return whole, table, np.array([row.split(",") for row in profile.splitlines()], dtype=float)


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("s, t", ORDINATE_MAPS)
def test_moments_map_with_an_affine_map_of_the_ordinates(ref, s, t, tmp_path):
    """Each integral b or a over a cell of length l becomes s*b + t*l, and each sup_error |s| times it.

    Tolerances, in rounding units of the mapped curve's largest value:
    - B and A are sums of N closed-form integrals, each a few units,
      divided by 1 - sum l_i gamma_i and 1 - sum l_i alpha_i, and B takes
      A's error too: 4 / (both divisors) units.
    - A level-m cell's integral is a difference of antiderivative values
      at its ends, a few units however short the cell, plus l_i times its
      parent's error: B's allowance plus 4 m units.
    - Q_m - f1 is off by a cell's error over its length, at most the cell
      allowance over min(l_i)**m, plus the probe value's error of
      4 (probe_depth + 1) units; in both runs, hence twice that.
    The worst on these cases was 0.24, 0.07 and 0.08 of these allowances.
    """
    model = solve_model(resolve_config(ref).problem)
    defaults = RunOptions()
    unit = _rounding_unit(ref, s, t)
    (whole, table, profile), (mapped_whole, mapped_table, mapped_profile) = (
        _moment_numbers(text) for text in (_base_stdout("moments", "--config", ref, "--precision", "17"),
                                           _stdout("moments", "--config", _ordinates_mapped(ref, s, t, tmp_path),
                                                   "--precision", "17")))
    whole_allowance = 4 / ((1 - np.sum(model.a * model.gamma)) * (1 - np.sum(model.a * model.alpha)))
    assert np.max(np.abs(mapped_whole - (s * whole + t))) <= whole_allowance * unit

    assert (mapped_table[:, :2] == table[:, :2]).all()
    levels = np.arange(1, defaults.moments_depth + 1)
    levels = np.repeat(levels, model.n_intervals ** levels)   # each row's word length
    error = np.abs(mapped_table[:, 2:] - (s * table[:, 2:] + t * table[:, 1:2]))
    assert np.all(error.max(axis=1) <= (whole_allowance + 4 * levels) * unit)

    m = profile[:, 0]
    cell_allowance = whole_allowance + 4 * m
    allowance = 2 * (cell_allowance / np.min(model.a) ** m + 4 * (defaults.probe_depth + 1))
    assert (mapped_profile[:, 0] == m).all()
    assert np.all(np.abs(mapped_profile[:, 1] - abs(s) * profile[:, 1]) <= allowance * unit)


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("s, t", ORDINATE_MAPS)
def test_iterate_sweeps_map_with_an_affine_map_of_the_ordinates(ref, s, t, tmp_path):
    """After the same sweeps, every iterate value v becomes s*v + t; the abscissas keep every digit.

    Both runs sweep up to 200 times; with a tolerance of 1e-300 a run stops
    early only on a sweep that moved nothing, so its values are those a
    later sweep would give, and runs stopping at different sweeps still
    compare.  A sweep rounds a few terms of each value, and the scalings
    damp earlier errors, so each run is off the exact sweeps by at most
    4 / (1 - max|gamma|) units for f2 and (4 + max|beta| times that) /
    (1 - max|alpha|) for f1, as for the chaos game; twice that for the
    two runs.  The worst on these cases was 0.08 of this allowance, and
    0.81 units times one minus its damping rate; the runs stopped after 27
    to 38 sweeps, often at different counts.
    """
    base, mapped = (fixed_point_iterate(solve_model(resolve_config(where).problem), 513, 200, 1e-300)
                    for where in (ref, _ordinates_mapped(ref, s, t, tmp_path)))
    for run in (base, mapped):
        assert not run.converged or max(run.f1_distances[-1], run.f2_distances[-1]) == 0.0
    assert (mapped.graph.xs == base.graph.xs).all()
    model = solve_model(resolve_config(ref).problem)
    f2_steps = 4 / (1 - np.max(np.abs(model.gamma)))
    f1_steps = (4 + np.max(np.abs(model.beta)) * f2_steps) / (1 - np.max(np.abs(model.alpha)))
    unit = _rounding_unit(ref, s, t)
    assert np.max(np.abs(mapped.graph.f1s - (s * base.graph.f1s + t))) <= 2 * f1_steps * unit
    assert np.max(np.abs(mapped.f2s - (s * base.f2s + t))) <= 2 * f2_steps * unit


# k of x -> 2**k x: x_0 + span * u and (x_i - x_0) / span are exact under it
ABSCISSA_SCALINGS = (2, -3)


def _abscissas_scaled(ref, k, tmp_path) -> str:
    """The path of ``ref``'s config with every node abscissa times 2**k, under the same stem."""
    config = resolve_config(ref)
    nodes = tuple((math.ldexp(x, k), y) for x, y in config.problem.nodes)
    return _written(config, replace(config.problem, nodes=nodes), tmp_path)


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("k", ABSCISSA_SCALINGS)
@pytest.mark.parametrize("command", ["classify", "validate", "moments"])
def test_report_is_invariant_under_a_power_of_two_scaling_of_the_abscissas(command, ref, k, tmp_path):
    # each report reads the unit domain, where no bit moves
    base, scaled = (CliRunner().invoke(main, [command, "--config", where, "--out", "-"])
                    for where in (ref, _abscissas_scaled(ref, k, tmp_path)))
    assert (scaled.exit_code, scaled.stdout, scaled.stderr) == (base.exit_code, base.stdout, base.stderr)


@pytest.mark.parametrize("ref", ORDINATE_REFS)
@pytest.mark.parametrize("k", ABSCISSA_SCALINGS)
@pytest.mark.parametrize("route", [("--depth", "5"), ("--method", "chaos", "--points", "500"),
                                   ("--method", "iterate", "--grid-size", "82")], ids=["exact", "chaos", "iterate"])
def test_generate_scales_its_abscissas_with_a_power_of_two(route, ref, k, tmp_path):
    """Every x becomes 2**k x exactly, and f1 and f2 print the same digits."""
    args = (*route, "--precision", "17")
    base, scaled = (np.array([row.split(",") for row in text.splitlines()[1:]])
                    for text in (_base_stdout("generate", "--config", ref, *args),
                                 _stdout("generate", "--config", _abscissas_scaled(ref, k, tmp_path), *args)))
    assert (scaled[:, 0].astype(float) == np.ldexp(base[:, 0].astype(float), k)).all()
    assert (scaled[:, 1:] == base[:, 1:]).all()


class _Stop(Exception):
    """Ends a command at its first library call."""


def _flag_params():
    for name, command in sorted(main.commands.items()):
        for param in command.params:
            if param.name != "config_ref":
                yield pytest.param(name, param, id=f"{name} {param.opts[0]}")


def _flag_value(param):
    if isinstance(param.type, click.Choice):
        return param.type.choices[-1]
    # each differs from its option's default, which fig4 keeps
    return {"integer": 7, "float": 5e-7, "text": "chosen.txt"}[param.type.name]


@pytest.mark.parametrize("command, param", list(_flag_params()))
def test_every_flag_sets_the_option_of_its_name(command, param, monkeypatch):
    loaded = []
    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda ref, flags: loaded.append(load(ref, flags)) or loaded[-1])

    def stop(problem):
        raise _Stop

    monkeypatch.setattr(cli, "solve_model", stop)
    monkeypatch.setattr(cli, "validate", stop)
    value = _flag_value(param)
    result = CliRunner().invoke(main, [command, "--config", "fig4", param.opts[0], str(value)])
    assert isinstance(result.exception, _Stop)
    (config,) = loaded
    assert config.options == replace(resolve_config("fig4").options, **{param.name: value})


# the exponents of the usual scales, and both ends of the range whose 2**-j
# is a finite, positive double (-1023..1074), crossed
EPS_EXPONENTS = st.integers(-3, 14) | st.integers(-1100, -1020) | st.integers(1070, 1100)
# bounded so that every run is quick; the out-of-range values are the point
FLAG_VALUES = {
    "depth": st.integers(-2, 6),
    "moments_depth": st.integers(-2, 6),
    "method": st.sampled_from(["exact", "iterate", "chaos"]),
    "seed": st.integers(-2, 2**64),
    "points": st.integers(-2, 2000),
    "grid_size": st.integers(-2, 600),
    "tol": st.floats() | st.sampled_from([0.0, -1e-10, 1e-300]),
    "eps_min_exp": EPS_EXPONENTS,
    "eps_max_exp": EPS_EXPONENTS,
    "precision": st.integers(-2, 20),
}


@pytest.mark.parametrize("command", sorted(main.commands))
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data(), iterations=st.integers(-1, 50))
def test_random_flags_end_in_an_exit_code(command, data, iterations):
    flags = []
    for param in main.commands[command].params:
        if param.name not in ("config_ref", "out"):
            value = data.draw(st.none() | FLAG_VALUES[param.name], label=param.name)
            if value is not None:
                flags += [param.opts[0], str(value)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.yaml")
        # the options no flag sets, and the defaults of unset flags, kept as small
        path.write_text(MINIMAL + f"options:\n  iterations: {iterations}\n  depth: 4\n"
                        "  points: 500\n  grid_size: 257\n  profile_m_max: 3\n  probe_depth: 5\n")
        out = data.draw(st.sampled_from(["-", str(Path(tmp, "out.txt"))]), label="out")
        result = CliRunner().invoke(main, [command, "--config", str(path), "--out", out, *flags])
    assert result.exit_code in (0, 1, 2, 3)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    if result.exit_code:
        assert any(line.startswith(("error:", "warning:")) for line in result.stderr.splitlines())


# magnitudes across the float range, zero included
MAGNITUDES = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-300, 300))
SCALING = st.floats(-(1 - 1e-7), 1 - 1e-7)
POWERS = st.none() | st.builds(PowerTerm, coeff=MAGNITUDES, exponent=st.floats(0.05, 1.0))
# every report key that may print inf on exit 0: a log ratio over a zero parameter maximum
INF_KEYS = ("tau1:", "tau2:", "tau3:", "tau4:")


@st.composite
def fuzz_configs(draw):
    """A random problem on a shifted, scaled raw domain, with options small enough to run every command.

    The dimension scales run from about half the domain's width down by
    3-5 octaves and the depth is the deepest within 4097 points, so a
    graph on near-equal intervals is resolved and the command exits 0.
    """
    n = draw(st.integers(2, 5))
    width = 10.0 ** draw(st.integers(-3, 3))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    xs = draw(st.floats(-1e6, 1e6)) + width * np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum()
    gammas = draw(st.lists(SCALING, min_size=n, max_size=n))
    params = [
        IntervalParams(alpha=draw(SCALING), beta=draw(st.floats(-0.99, 0.99)) * (1.0 - abs(gamma)),
                       gamma=gamma, p_power=draw(POWERS), q_power=draw(POWERS))
        for gamma in gammas]
    if draw(st.integers(0, 3)) == 3:
        # an exponent outside (0, 1] is a violation: exit 1
        i = draw(st.integers(0, n - 1))
        params[i] = replace(params[i], q_power=PowerTerm(1.0, draw(st.sampled_from([0.0, -0.5, 1.5]))))
    problem = InterpolationProblem(
        nodes=tuple((float(x), draw(MAGNITUDES)) for x in xs),
        hidden=tuple(draw(MAGNITUDES) for _ in xs), params=tuple(params))
    depth = attractor.deepest_level(n, 4097)
    eps_min_exp = 1 - int(np.floor(np.log2(width))) + draw(st.integers(0, 2))
    options = RunOptions(
        depth=depth, eps_min_exp=eps_min_exp, eps_max_exp=eps_min_exp + draw(st.integers(3, 5)),
        iterations=100, grid_size=257, tol=1e-9, points=500, moments_depth=2,
        profile_m_max=2, probe_depth=3)
    return RunConfig(problem=problem, options=options)


FUZZ_RUNS = (["validate"], ["classify"], ["dimension"], ["moments"], ["generate"],
             ["generate", "--method", "iterate"], ["generate", "--method", "chaos"])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(config=fuzz_configs())
def test_random_problems_end_in_an_exit_code(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.yaml")
        path.write_text(config_json(config))
        for run in FUZZ_RUNS:
            result = CliRunner().invoke(main, [*run, "--config", str(path)])
            assert result.exit_code in (0, 1, 3), (run, result.stderr)
            assert result.exception is None or isinstance(result.exception, SystemExit), run
            if result.exit_code == 0:
                for line in result.stdout.splitlines():
                    assert "nan" not in line, (run, line)
                    assert "inf" not in line or line.startswith(INF_KEYS), (run, line)


SPECIAL_VALUES = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1, -2.5, 1 / 3, 0.0, 7.0])

NEGATIVE_NAN = math.copysign(math.nan, -1.0)

# any double: hypothesis's floats, every bit pattern, and the values whose
# printing a formatter most often gets wrong
DOUBLES = st.one_of(
    st.floats(),
    st.integers(0, 2 ** 64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from([NEGATIVE_NAN, math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320]),
)


def _run_module(config, *args, encoding: str):
    """Run ``python -m chfif.cli`` with ``config`` (str or bytes) and return its stdout bytes."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONIOENCODING=encoding)
    child = subprocess.run([sys.executable, "-m", "chfif.cli", args[0], "--config", config, *args[1:]],
                           capture_output=True, env=env, timeout=120)
    assert (child.returncode, child.stderr) == (0, b"")
    return child.stdout


class TestGenerateWriter:
    """The chunked ``generate`` and ``moments`` writers against per-value formatting oracles."""

    CHUNK = 7   # odd and small: rows cross chunk boundaries, the last chunk is partial

    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    @pytest.mark.parametrize("precision", [0, 1, 12, 17])
    def test_special_values_match_oracle(self, precision, tmp_path, monkeypatch):
        xs = np.resize(SPECIAL_VALUES, 23)
        f1, f2 = np.roll(xs, 3), -np.roll(xs, 5)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        monkeypatch.setattr(cli, "exact_blocks", lambda model, depth: [(xs, f1, f2)])
        want = csv_text(xs, f1, f2, precision)
        out = tmp_path / "curve.csv"
        args = ("generate", "--config", "fig4", "--precision", str(precision))
        assert self.run(*args, "--out", str(out)).exit_code == 0
        assert out.read_bytes() == want.encode()
        result = self.run(*args)
        assert result.exit_code == 0
        assert result.stdout_bytes == want.encode()

    @pytest.mark.parametrize("args", [
        ("--depth", "3"),
        ("--method", "iterate", "--grid-size", "257", "--tol", "1e-9"),
        ("--method", "chaos", "--points", "100", "--seed", "4"),
    ])
    def test_stdout_equals_out_file_on_every_route(self, args, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        out = tmp_path / "curve.csv"
        assert self.run("generate", "--config", "fig4", *args, "--out", str(out)).exit_code == 0
        result = self.run("generate", "--config", "fig4", *args)
        assert result.exit_code == 0
        assert result.stdout_bytes == out.read_bytes()
        assert out.read_text().count("\n") > 2 * self.CHUNK

    def test_exact_route_holds_one_block(self, tmp_path):
        # one copy of the level-10 grid: three arrays of 3**11 + 1 doubles
        grid_bytes = 3 * (3 ** 11 + 1) * 8
        out = tmp_path / "curve.csv"
        tracemalloc.start()
        try:
            result = self.run("generate", "--config", "fig4", "--depth", "10", "--out", str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert out.read_text().count("\n") == 3 ** 11 + 2
        assert peak < grid_bytes

    def test_moments_report_in_chunks_equals_golden(self, tmp_path, monkeypatch):
        # 3, 9 and 27 cells in chunks of 7: chunks end inside and at the ends of levels
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        out = tmp_path / "fig4.moments.txt"
        assert self.run("moments", "--config", "fig4", "--out", str(out)).exit_code == 0
        assert out.read_bytes() == (Path(__file__).parent / "golden" / "fig4.moments.txt").read_bytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(DOUBLES, DOUBLES, DOUBLES, DOUBLES), min_size=1, max_size=3),
           precision=st.integers(0, 800))
    @example(rows=[(NEGATIVE_NAN, math.inf, -math.inf, -0.0), (0.0, 5e-324, -2.5e-320, math.nan)],
             precision=0)
    @example(rows=[(NEGATIVE_NAN, 5e-324, -math.inf, -0.0)], precision=767)
    @example(rows=[(-2.5e-320, math.nan, math.inf, 0.0)], precision=800)
    def test_byte_templates_match_fmt(self, rows, precision):
        # the generate and moments row templates, applied as bytes, against fmt per value
        def line(values):
            return b",".join(cli.fmt(v, precision).encode() for v in values) + b"\n"

        columns = [np.array(column) for column in zip(*rows)]
        pieces = list(cli._csv_pieces([columns[:3]], precision))
        assert b"".join(pieces[1:]) == b"".join(line(row[:3]) for row in rows)
        level = SimpleNamespace(starts=columns[0], lengths=columns[1], b_values=columns[2], a_values=columns[3])
        table = SimpleNamespace(whole_b=0.5, whole_a=0.25, levels=[level])
        pieces = list(cli._moment_pieces("t", len(rows), table, [], precision))
        # between the header and the profile: words 1..N, then the four values
        assert b"".join(pieces[1:-1]) == b"".join(b"%d," % i + line(row) for i, row in enumerate(rows, 1))

    @pytest.mark.parametrize("command, line", [("validate", "config: {}\n"), ("moments", "# config: {}\n")],
                             ids=["validate", "moments"])
    def test_stdout_prints_config_name_in_its_encoding(self, command, line, tmp_path):
        config = tmp_path / "f\xefg.yaml"
        config.write_text(load_bundled_config("fig4"), encoding="utf-8")
        want = line.format("f\xefg")
        assert want.encode("latin-1") in _run_module(str(config), command, encoding="latin-1").splitlines(True)
        assert want.encode() in _run_module(str(config), command, encoding="utf-8").splitlines(True)
        out = tmp_path / "report.txt"
        assert _run_module(str(config), command, "--out", str(out), encoding="latin-1") == b""
        assert want.encode() in out.read_bytes().splitlines(True)

    @pytest.mark.skipif(sys.platform != "linux", reason="needs a file name that is not UTF-8")
    @pytest.mark.parametrize("command, line", [("validate", b"config: f\xffg\n"), ("moments", b"# config: f\xffg\n")],
                             ids=["validate", "moments"])
    def test_undecodable_config_name_keeps_its_bytes(self, command, line, tmp_path):
        # the name's file-name bytes, on stdout and in the --out file alike
        config = os.path.join(os.fsencode(tmp_path), b"f\xffg.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(load_bundled_config("fig4"))
        stdout = _run_module(config, command, encoding="utf-8:surrogateescape")
        assert line in stdout.splitlines(True)
        out = tmp_path / "report.txt"
        assert _run_module(config, command, "--out", str(out), encoding="utf-8") == b""
        assert out.read_bytes() == stdout
