"""Config error messages: one bad document per schema check, pinned to the exact text.

Each document goes through ``chfif validate``, which must exit 1 with
``error: <path>: <message>`` on stderr.  The table checks the messages
where users read them, so it holds whichever module parses the config.
The last rows hold two errors each and pin which one is reported.  A
hypothesis test then puts one random value at one schema position of a
bundled document: parsing and the option checks either accept it or refuse
it with a :class:`ConfigError` located in that section.
"""

import copy
import json
import math
import sys
from dataclasses import fields

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from chfif.cli import main
from chfif.config import RunOptions, check_options, load_bundled_config, parse_config
from chfif.exceptions import ConfigError

NODES = "[[0.0, 2.0], [0.35, 7.0], [0.75, 4.0], [1.0, 9.0]]"
HIDDEN = "[3.0, 1.0, 8.0, 5.0]"
FIRST = "{alpha: 0.2, beta: 0.4, gamma: 0.3}"
REST = "{alpha: 0.38, beta: 0.35, gamma: 0.3}, {alpha: 0.2, beta: 0.5, gamma: 0.24}"


def problem(nodes=NODES, hidden=HIDDEN, intervals=None, extra=""):
    intervals = intervals or f"[{FIRST}, {REST}]"
    return f"problem:\n  nodes: {nodes}\n  hidden: {hidden}\n  intervals: {intervals}\n{extra}"


def first_interval(text):
    return problem(intervals=f"[{text}, {REST}]")


def options(text):
    return problem() + f"options: {text}\n"


YAML_SYNTAX = (
    "line 2: YAML parse error: while parsing a flow sequence\n"
    '  in "<unicode string>", line 1, column 10:\n'
    "    problem: [unclosed\n"
    "             ^\n"
    "expected ',' or ']', but got '<stream end>'\n"
    '  in "<unicode string>", line 2, column 1:\n'
    "    \n"
    "    ^")
YAML_READER = (
    "document: YAML parse error: unacceptable character #x0007: "
    "special characters are not allowed\n"
    '  in "<unicode string>", position 0')

BEYOND_FLOAT = "1" + "0" * 400
BEYOND_FLOAT_RANGE = "expected a number within the float range, got an integer beyond it"
OVER_DIGIT_LIMIT = "9" * 5000   # int() reads at most 4,300 decimal digits
UNREAD = "an integer literal that Python cannot read"
# a hexadecimal literal is read at any length, but str() refuses it past the digit limit
OVER_DIGIT_LIMIT_HEX = "0x" + "f" * 4000
UNWRITTEN = f"an integer of more than {sys.get_int_max_str_digits()} digits"

# id -> (document, message after "error: ")
CASES = {
    # the document
    "empty": ("", "document: empty document; required sections: problem"),
    "null-document": ("~\n", "document: empty document; required sections: problem"),
    "list-document": ("- problem\n", "document: expected a mapping, got list"),
    "scalar-document": ("just text\n", "document: expected a mapping, got str"),
    "yaml-syntax": ("problem: [unclosed\n", YAML_SYNTAX),
    "yaml-reader": ("\x07", YAML_READER),
    # PyYAML refuses a control character anywhere, inside a comment too
    "yaml-reader-in-comment": ("# \x07\n" + problem(), YAML_READER.replace("position 0", "position 2")),
    "yaml-too-deep": ("problem: " + "[" * 5000 + "]" * 5000 + "\n",
                      "document: YAML parse error: nested too deeply"),
    "unknown-top-key": (problem() + "extra: 1\n", "extra: unknown key"),
    "unknown-top-keys": (problem() + "zeta: 1\nbeta: 2\n", "beta: unknown key"),
    "missing-problem": ("options: {depth: 3}\n", "document: missing required section 'problem'"),
    # the problem section
    "problem-list": ("problem: [1, 2]\n", "problem: expected a mapping, got list"),
    "problem-null": ("problem:\n", "problem: expected a mapping, got NoneType"),
    "unknown-problem-key": (problem(extra="  params: []\n"), "problem.params: unknown key"),
    # YAML 1.1 reads the key `no` as False
    "unknown-problem-key-read-as-bool": (problem(extra="  no: 1\n"), "problem.False: unknown key"),
    "missing-nodes": (f"problem:\n  hidden: {HIDDEN}\n  intervals: [{FIRST}]\n",
                      "problem: missing key 'nodes'"),
    "missing-hidden": (f"problem:\n  nodes: {NODES}\n",
                       "problem: missing key 'hidden'"),
    "missing-intervals": (f"problem:\n  nodes: {NODES}\n  hidden: {HIDDEN}\n",
                          "problem: missing key 'intervals'"),
    "nodes-mapping": (problem(nodes="{x: 0.0}"),
                      "problem.nodes: expected a list of [x, y] pairs"),
    "node-scalar": (problem(nodes="[[0.0, 2.0], 0.35, [0.75, 4.0], [1.0, 9.0]]"),
                    "problem.nodes[1]: expected a [x, y] pair"),
    "node-triple": (problem(nodes="[[0.0, 2.0, 1.0], [0.35, 7.0], [0.75, 4.0], [1.0, 9.0]]"),
                    "problem.nodes[0]: expected a [x, y] pair"),
    "node-bool": (problem(nodes="[[0.0, true], [0.35, 7.0], [0.75, 4.0], [1.0, 9.0]]"),
                  "problem.nodes[0][1]: expected a number, got True"),
    "node-quoted": (problem(nodes="[[0.0, 2.0], [0.35, 7.0], ['0.75', 4.0], [1.0, 9.0]]"),
                    "problem.nodes[2][0]: expected a number, got '0.75'"),
    "hidden-scalar": (problem(hidden="3.0"), "problem.hidden: expected a list of numbers"),
    "hidden-null-entry": (problem(hidden="[3.0, 1.0, 8.0, null]"),
                          "problem.hidden[3]: expected a number, got None"),
    "intervals-mapping": (problem(intervals="{alpha: 0.2}"),
                          "problem.intervals: expected a list of parameter mappings"),
    "interval-list": (first_interval("[0.2, 0.4, 0.3]"),
                      "problem.intervals[0]: expected a mapping, got list"),
    "interval-null": (problem(intervals=f"[{FIRST}, {REST}, null]"),
                      "problem.intervals[3]: expected a mapping, got NoneType"),
    # one interval
    "unknown-interval-key": (first_interval("{alpha: 0.2, beta: 0.4, gamma: 0.3, delta: 1}"),
                             "problem.intervals[0].delta: unknown key"),
    "missing-beta": (first_interval("{alpha: 0.2, gamma: 0.3}"),
                     "problem.intervals[0]: missing key 'beta'"),
    "alpha-bool": (first_interval("{alpha: false, beta: 0.4, gamma: 0.3}"),
                   "problem.intervals[0].alpha: expected a number, got False"),
    "gamma-quoted": (first_interval("{alpha: 0.2, beta: 0.4, gamma: '0.3'}"),
                     "problem.intervals[0].gamma: expected a number, got '0.3'"),
    "beta-null": (first_interval("{alpha: 0.2, beta: null, gamma: 0.3}"),
                  "problem.intervals[0].beta: expected a number, got None"),
    # power terms
    "p-power-number": (first_interval(f"{FIRST[:-1]}, p_power: 1.5}}"),
                       "problem.intervals[0].p_power: expected a mapping, got float"),
    "q-power-list": (first_interval(f"{FIRST[:-1]}, q_power: [1.5, 0.5]}}"),
                     "problem.intervals[0].q_power: expected a mapping, got list"),
    "power-unknown-key": (
        first_interval(f"{FIRST[:-1]}, p_power: {{coeff: 1.5, exponent: 0.5, power: 2}}}}"),
        "problem.intervals[0].p_power.power: unknown key"),
    "power-missing-exponent": (first_interval(f"{FIRST[:-1]}, p_power: {{coeff: 1.5}}}}"),
                               "problem.intervals[0].p_power: missing key 'exponent'"),
    "power-empty": (first_interval(f"{FIRST[:-1]}, q_power: {{}}}}"),
                    "problem.intervals[0].q_power: missing key 'coeff'"),
    "power-coeff-quoted": (
        first_interval(f"{FIRST[:-1]}, q_power: {{coeff: 'x', exponent: 0.5}}}}"),
        "problem.intervals[0].q_power.coeff: expected a number, got 'x'"),
    "power-exponent-bool": (
        first_interval(f"{FIRST[:-1]}, p_power: {{coeff: 1.5, exponent: true}}}}"),
        "problem.intervals[0].p_power.exponent: expected a number, got True"),
    # options
    "options-list": (options("[1]"), "options: expected a mapping, got list"),
    "options-number": (options("5"), "options: expected a mapping, got int"),
    "unknown-option": (options("{depht: 4}"), "options.depht: unknown key"),
    "unknown-options": (options("{zeta: 1, alpha: 2}"), "options.alpha: unknown key"),
    "float-for-int": (options("{depth: 4.0}"), "options.depth: expected an integer, got 4.0"),
    "bool-for-int": (options("{seed: true}"), "options.seed: expected an integer, got True"),
    "quoted-int": (options("{points: '100'}"), "options.points: expected an integer, got '100'"),
    "quoted-float": (options("{tol: '1e-12'}"), "options.tol: expected a number, got '1e-12'"),
    "bool-for-float": (options("{tol: false}"), "options.tol: expected a number, got False"),
    "int-for-str": (options("{method: 3}"), "options.method: expected a string, got 3"),
    "int-for-out": (options("{out: 5}"), "options.out: expected a string, got 5"),
    # YAML reads the pair that JSON writes for one emoji as two lone surrogates
    "surrogate-pair-in-out": (options('{out: "\\ud83d\\ude00.csv"}'),
                              "options.out: expected text that UTF-8 can encode, got '\\ud83d\\ude00.csv', "
                              "which holds a lone surrogate"),
    "lone-surrogate-in-method": (options('{method: "ex\\udcffact"}'),
                                 "options.method: expected text that UTF-8 can encode, got 'ex\\udcffact', "
                                 "which holds a lone surrogate"),
    "bad-method": (options("{method: fast}"),
                   "options.method: expected exact|iterate|chaos, got 'fast'"),
    "grid-below-node-count": (options("{grid_size: 3}"), "options.grid_size: expected an integer >= 4, got 3"),
    "profile-without-levels": (options("{profile_m_max: 0}"),
                               "options.profile_m_max: expected an integer >= 1, got 0"),
    "probe-above-levels": (options("{profile_m_max: 6, probe_depth: 4}"),
                           "options.probe_depth: expected an integer >= 6, got 4"),
    "fewer-than-four-scales": (options("{eps_min_exp: 5, eps_max_exp: 4}"),
                               "options.eps_max_exp: expected an integer >= 8, got 4"),
    # 2**1024 overflows and 2**-1075 rounds to 0.0
    "scale-above-float-range": (options("{eps_min_exp: -1030, eps_max_exp: -1020}"),
                                "options.eps_min_exp: expected an integer >= -1023, got -1030"),
    "scale-below-float-range": (options("{eps_min_exp: 2000, eps_max_exp: 2010}"),
                                "options.eps_max_exp: expected an integer <= 1074, got 2010"),
    "scale-just-below-float-range": (options("{eps_max_exp: 1075}"),
                                     "options.eps_max_exp: expected an integer <= 1074, got 1075"),
    # Python's float formatting refuses a precision above 2**31 - 1
    "precision-above-format-limit": (options("{precision: 2147483648}"),
                                     "options.precision: expected an integer <= 2147483647, got 2147483648"),
    # integers beyond the float range, where float() overflows, and over
    # the digit limit, where int() refuses them
    "node-beyond-float-range": (problem(nodes=f"[[0.0, 2.0], [0.35, {BEYOND_FLOAT}], [0.75, 4.0], [1.0, 9.0]]"),
                                f"problem.nodes[1][1]: {BEYOND_FLOAT_RANGE}"),
    "hidden-beyond-float-range": (problem(hidden=f"[3.0, 1.0, -{BEYOND_FLOAT}, 5.0]"),
                                  f"problem.hidden[2]: {BEYOND_FLOAT_RANGE}"),
    "beta-beyond-float-range": (first_interval(f"{{alpha: 0.2, beta: {BEYOND_FLOAT}, gamma: 0.3}}"),
                                f"problem.intervals[0].beta: {BEYOND_FLOAT_RANGE}"),
    "power-coeff-beyond-float-range": (
        first_interval(f"{FIRST[:-1]}, q_power: {{coeff: {BEYOND_FLOAT}, exponent: 0.5}}}}"),
        f"problem.intervals[0].q_power.coeff: {BEYOND_FLOAT_RANGE}"),
    "tol-beyond-float-range": (options(f"{{tol: {BEYOND_FLOAT}}}"), f"options.tol: {BEYOND_FLOAT_RANGE}"),
    "node-over-digit-limit": (problem(nodes=f"[[0.0, {OVER_DIGIT_LIMIT}], [0.35, 7.0], [0.75, 4.0], [1.0, 9.0]]"),
                              f"problem.nodes[0][1]: expected a number, got {UNREAD}"),
    "alpha-over-digit-limit": (first_interval(f"{{alpha: -{OVER_DIGIT_LIMIT}, beta: 0.4, gamma: 0.3}}"),
                               f"problem.intervals[0].alpha: expected a number, got {UNREAD}"),
    "depth-over-digit-limit": (options(f"{{depth: {OVER_DIGIT_LIMIT}}}"),
                               f"options.depth: expected an integer, got {UNREAD}"),
    "method-over-digit-limit": (options(f"{{method: {OVER_DIGIT_LIMIT}}}"),
                                f"options.method: expected a string, got {UNREAD}"),
    "problem-over-digit-limit": (f"problem: {OVER_DIGIT_LIMIT}\n",
                                 f"problem: expected a mapping, got {UNREAD}"),
    "interval-over-digit-limit": (first_interval(OVER_DIGIT_LIMIT),
                                  f"problem.intervals[0]: expected a mapping, got {UNREAD}"),
    "options-over-digit-limit": (options(OVER_DIGIT_LIMIT), f"options: expected a mapping, got {UNREAD}"),
    "seed-below-range-over-digit-limit": (options(f"{{seed: -{OVER_DIGIT_LIMIT_HEX}}}"),
                                          f"options.seed: expected an integer >= 0, got {UNWRITTEN}"),
    "precision-above-range-over-digit-limit": (
        options(f"{{precision: {OVER_DIGIT_LIMIT_HEX}}}"),
        f"options.precision: expected an integer <= 2147483647, got {UNWRITTEN}"),
    # two errors: which one is reported
    "interval-fields-in-declaration-order": (
        first_interval("{gamma: '0.3', alpha: '0.2', beta: 0.4}"),
        "problem.intervals[0].alpha: expected a number, got '0.2'"),
    "power-terms-in-declaration-order": (
        first_interval(f"{FIRST[:-1]}, q_power: 1, p_power: 2}}"),
        "problem.intervals[0].p_power: expected a mapping, got int"),
    "intervals-in-list-order": (
        problem(intervals="[{alpha: 0.2, beta: 0.4}, {alpha: true, beta: 0.35, gamma: 0.3}]"),
        "problem.intervals[0]: missing key 'gamma'"),
    "unknown-interval-key-before-missing": (first_interval("{alpha: 0.2, delta: 1}"),
                                            "problem.intervals[0].delta: unknown key"),
    "options-in-document-order": (options("{tol: 'a', depth: 1.5}"),
                                  "options.tol: expected a number, got 'a'"),
    "option-type-before-method": (options("{method: fast, depth: 1.5}"),
                                  "options.depth: expected an integer, got 1.5"),
    "unknown-option-before-type": (options("{depth: 1.5, depht: 4}"),
                                   "options.depht: unknown key"),
    "problem-before-options": (
        problem(hidden="[3.0, 1.0, 8.0, '5.0']") + "options: {depth: 1.5}\n",
        "problem.hidden[3]: expected a number, got '5.0'"),
}


@pytest.mark.parametrize("text, message", list(CASES.values()), ids=list(CASES))
def test_config_error_message(text, message, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["validate", "--config", str(path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


# ---- one random value at one schema position of fig4's document ----

FIG4 = {**yaml.safe_load(load_bundled_config("fig4")), "options": {}}
INTERVAL_KEYS = ("alpha", "beta", "gamma", "p_power", "q_power")
POWER_KEYS = ("coeff", "exponent")
OPTION_KEYS = tuple(f.name for f in fields(RunOptions))
SIZES = ("depth", "probe_depth", "moments_depth", "points", "grid_size")

POSITIONS = [
    ("problem",), ("problem", "nodes"), ("problem", "hidden"), ("problem", "intervals"),
    *[("problem", "nodes", i) for i in range(4)],
    *[("problem", "nodes", i, k) for i in range(4) for k in range(2)],
    *[("problem", "hidden", i) for i in range(4)],
    *[("problem", "intervals", i) for i in range(3)],
    *[("problem", "intervals", i, key) for i in range(3) for key in INTERVAL_KEYS],
    *[("problem", "intervals", i, power, key)
      for i in range(3) for power in ("p_power", "q_power") for key in POWER_KEYS],
    ("options",),
    *[("options", key) for key in OPTION_KEYS],
]


class Value:
    """Marks where the random value's YAML text goes."""

    def __init__(self, text):
        self.text = text


def placed(position, text):
    """fig4's document with ``text`` at ``position``; a power term on the way is made up."""
    doc = copy.deepcopy(FIG4)
    parent = doc
    for key in position[:-1]:
        if isinstance(parent, dict) and key not in parent:
            parent[key] = {"coeff": 1.5, "exponent": 0.5}
        parent = parent[key]
    parent[position[-1]] = Value(text)
    return doc


def flow(obj) -> str:
    """``obj`` as YAML flow text."""
    if isinstance(obj, Value):
        return obj.text
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{flow(key)}: {flow(value)}" for key, value in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(flow, obj)) + "]"
    return json.dumps(obj)   # the document's own scalars: finite floats and strings


def float_text(x: float) -> str:
    if math.isnan(x):
        return ".nan"
    return {math.inf: ".inf", -math.inf: "-.inf"}.get(x, repr(x))


LONG_INTEGERS = [OVER_DIGIT_LIMIT, f"-{OVER_DIGIT_LIMIT}", OVER_DIGIT_LIMIT_HEX, f"-{OVER_DIGIT_LIMIT_HEX}"]
SCALARS = st.one_of(
    st.sampled_from(["null", "~", "true", "false"]),
    st.integers().map(str),
    st.sampled_from(LONG_INTEGERS),
    st.floats().map(float_text),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6).map(json.dumps),
)
KEYS = st.sampled_from([*INTERVAL_KEYS, *POWER_KEYS, *OPTION_KEYS, "nodes", "intervals", "null", "1",
                        *LONG_INTEGERS])
VALUES = st.one_of(st.sampled_from(LONG_INTEGERS), st.recursive(SCALARS, lambda items: st.one_of(
    st.lists(items, max_size=4).map(lambda texts: "[" + ", ".join(texts) + "]"),
    st.dictionaries(KEYS, items, max_size=3).map(
        # `? ` marks an explicit key, which may be longer than 1024 characters
        lambda pairs: "{" + ", ".join(f"? {key}: {value}" for key, value in pairs.items()) + "}"),
), max_leaves=6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(position=st.sampled_from(POSITIONS), value=VALUES)
def test_a_random_value_is_read_or_refused_with_its_section(position, value):
    try:
        check_options(parse_config(flow(placed(position, value))), SIZES)
    except ConfigError as exc:
        assert exc.where.startswith(position[0])
        assert "_UnreadInteger" not in str(exc) and "Exceeds the limit" not in str(exc)
