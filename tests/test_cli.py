"""Tests for config parsing, serialization and the command surface."""

from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from chfif import ConfigError, validate
from chfif import cli
from chfif.cli import (
    bundled_config_names,
    load_bundled_config,
    main,
    parse_config,
    resolve_config,
    serialize_config,
)

from helpers import csv_text

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
        result = validate(config.problem)
        assert not result.ok
        assert any("beta_1" in str(v) for v in result.violations)

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

    def test_round_trip(self):
        original = parse_config(MINIMAL)
        again = parse_config(serialize_config(original))
        assert again.problem == original.problem
        assert again.options == original.options

    def test_all_bundled_configs_parse_and_validate(self):
        for name in bundled_config_names():
            config = parse_config(load_bundled_config(name), name=name)
            assert validate(config.problem).ok, name

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
        config.write_text(MINIMAL.replace("alpha: 0.2", "alpha: 0.0")
                          .replace("alpha: 0.38", "alpha: 0.0")
                          .replace("beta: 0.4", "beta: 0.0")
                          .replace("beta: 0.35", "beta: 0.0")
                          .replace("beta: 0.5", "beta: 0.0")
                          .replace("gamma: 0.3", "gamma: 0.0")
                          .replace("gamma: 0.24", "gamma: 0.0"))
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

    def test_unwritable_output_is_io_error(self, tmp_path):
        result = self.run("classify", "--config", "fig4", "--out", str(tmp_path))
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ("--depth", "-1"),
        ("--method", "chaos", "--points", "0"),
        ("--method", "iterate", "--grid-size", "2"),
    ])
    def test_rejected_option_value_is_validation_error(self, args):
        result = self.run("generate", "--config", "fig4", *args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)   # not a traceback
        assert result.stderr.startswith("error: ")

    def test_iterate_non_convergence_exits_degenerate(self, tmp_path):
        path = tmp_path / "slow.yaml"
        path.write_text(MINIMAL + "options:\n  method: iterate\n  grid_size: 257\n  iterations: 5\n")
        result = self.run("generate", "--config", str(path))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)   # not a traceback
        assert "did not reach tol" in result.stderr
        assert "in 5 sweeps" in result.stderr

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
        for command in (("classify",), ("dimension", "--depth", "4", "--eps-max-exp", "5"),
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
        ("classify",), ("dimension", "--depth", "4", "--eps-max-exp", "5"),
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

    def test_overflowing_solved_model_is_rejected_with_its_path(self, tmp_path):
        path = tmp_path / "huge.yaml"
        path.write_text(MINIMAL.replace("[0.0, 2.0]", "[0.0, 1.0e+308]")
                        .replace("[0.35, 7.0]", "[0.35, -1.0e+308]")
                        .replace("[0.75, 4.0]", "[0.75, 1.0e+308]"))
        result = self.run("validate", "--config", str(path))
        assert result.exit_code == 1
        assert "ok: false" in result.output
        assert "params[1]: solved model is not finite: c = " in result.output
        for command in (("classify",), ("dimension", "--depth", "4", "--eps-max-exp", "5"),
                        ("moments", "--depth", "1"), ("generate", "--depth", "2"),
                        ("generate", "--method", "iterate", "--grid-size", "257"),
                        ("generate", "--method", "chaos", "--points", "10")):
            out = tmp_path / "out.txt"
            result = self.run(*command, "--config", str(path), "--out", str(out))
            assert result.exit_code == 1, command
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.startswith("error: invalid interpolation problem: params[1]: ")
            assert not out.exists()

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_every_bundled_config_runs_end_to_end(self, name, tmp_path):
        out = tmp_path / "report.txt"
        result = self.run("classify", "--config", name, "--out", str(out))
        assert result.exit_code in (0, 3)    # 3 = degenerate exponent, still reported
        assert "theta_regime:" in out.read_text()
        curve = tmp_path / "curve.csv"
        assert self.run("generate", "--config", name, "--depth", "3",
                        "--out", str(curve)).exit_code == 0
        assert len(curve.read_text().splitlines()) == 3**4 + 2


SPECIAL_VALUES = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1, -2.5, 1 / 3, 0.0, 7.0])


class TestGenerateWriter:
    """The chunked ``generate`` writer against a per-value formatting oracle."""

    CHUNK = 7   # odd and small: rows cross chunk boundaries, the last chunk is partial

    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    @pytest.mark.parametrize("precision", [0, 1, 12, 17])
    def test_special_values_match_oracle(self, precision, tmp_path, monkeypatch):
        xs = np.resize(SPECIAL_VALUES, 23)
        f1, f2 = np.roll(xs, 3), -np.roll(xs, 5)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", self.CHUNK)
        monkeypatch.setattr(cli, "sample_exact", lambda model, depth: SimpleNamespace(
            xs=xs, f1s=f1, f2s=f2))
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
