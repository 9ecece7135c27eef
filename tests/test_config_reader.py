"""The config reader that needs no PyYAML: the value PyYAML reads, or None.

``chfif.config._read_subset`` reads documents in the subset of YAML that
the bundled configs are written in, and returns None for any other, which
PyYAML then reads.  Wherever it returns a value, ``yaml.load(text,
Loader=_Loader)`` must return one with the same ``repr``, so an int stays
an int and ``-0.0`` keeps its sign.
"""

import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfif import InterpolationProblem, IntervalParams, PowerTerm, cli
from chfif.config import BUNDLED_NAMES, RunOptions, _read_subset, _yaml, load_bundled_config

YAML, LOADER = _yaml()
POWER = Path(__file__).parent / "data" / "power.yaml"
TEXTS = {**{name: load_bundled_config(name) for name in BUNDLED_NAMES}, "power": POWER.read_text()}


# documents that the reader took, by `assert_read_as_pyyaml_reads` (for the command-line run)
TAKEN = [0]


def assert_read_as_pyyaml_reads(text):
    value = _read_subset(text)
    if value is not None:
        TAKEN[0] += 1
        assert repr(value) == repr(YAML.load(text, Loader=LOADER)), text


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_bundled_configs_are_read_without_pyyaml(name):
    # an edit of a bundled file that leaves the subset would put every run back on PyYAML
    assert _read_subset(TEXTS[name]) is not None
    assert_read_as_pyyaml_reads(TEXTS[name])


def test_resolving_bundled_configs_leaves_pyyaml_unimported():
    script = "\n".join((
        "import sys",
        "import chfif.cli",
        "from chfif.config import BUNDLED_NAMES",
        "for ref in (*BUNDLED_NAMES, sys.argv[1]):",
        "    chfif.cli.resolve_config(ref)",
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'yaml'))",
    ))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", script, str(POWER)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert (child.returncode, child.stderr, child.stdout) == (0, "", "[]\n")


# ---- the flow values that json reads, and those it must not ----

def bundled_style(value):
    return f"problem:\n  hidden: [3.0, {value}, 8.0]\n  intervals:\n    - {{alpha: 0.2, beta: {value}}}\n"


@pytest.mark.parametrize("value", ["1e-12", "2.5E+3", "-0e0", "1e400", "-12.5e-3", "1234567890123456789"])
def test_exponents_and_long_integers_are_read(value):
    assert _read_subset(bundled_style(value)) is not None
    assert_read_as_pyyaml_reads(bundled_style(value))


@pytest.mark.parametrize("text", [
    *(bundled_style(value) for value in ("NaN", "Infinity", "-Infinity", "true", "false", "null", '"1"')),
    "problem:\n  hidden: [3.0, 1.0,]\n",
    "problem:\n  intervals:\n    - {alpha: 0.2,}\n",
    "problem: " + "[" * 8 + "]" * 8 + "\n",
    "problem:\n  nodes:\n    - " + "[" * 6 + "]" * 6 + "\n",
])
def test_json_only_forms_and_deep_nesting_go_to_pyyaml(text):
    assert _read_subset(text) is None


@pytest.mark.parametrize("pairs", [6, 11, 40])
def test_one_line_node_lists_are_read(pairs):
    # the cap is on nesting, not on the count of brackets: a row of many pairs is two levels
    nodes = ", ".join(f"[{k / pairs!r}, {k % 3}.5]" for k in range(pairs))
    text = f"problem:\n  nodes: [{nodes}]\n  hidden: [3.0, 1.0]\n"
    assert _read_subset(text) is not None
    assert_read_as_pyyaml_reads(text)


def test_nesting_up_to_the_cap_is_read():
    # block depth 2 (problem, nodes, the item) and 5 flow levels: 7 in all
    text = "problem:\n  nodes:\n    - " + "[" * 5 + "]" * 5 + "\n"
    assert _read_subset(text) == {"problem": {"nodes": [[[[[[]]]]]]}}
    assert _read_subset("problem: " + "[" * 7 + "]" * 7 + "\n") == {"problem": [[[[[[[]]]]]]]}


# ---- documents drawn in and near the subset ----

SCHEMA_KEYS = sorted({"problem", "options", "intervals"}.union(
    f.name for cls in (InterpolationProblem, IntervalParams, PowerTerm, RunOptions) for f in fields(cls)))
# words YAML 1.1 reads as booleans or null, and keys outside the schema
OTHER_KEYS = ["no", "No", "NO", "yes", "on", "On", "off", "true", "false", "null", "y", "n", "x", "1", "~"]
# each number form the reader takes, and forms near them, most of which it leaves to PyYAML
NUMBER_FORMS = ["0", "-0", "0.0", "-0.0", "7", "-12", "0.35", "123456789012345678"]
OTHER_FORMS = [
    "1234567890123456789", "1e5", "1.0e5", "-2E-3", ".5", "+1", "0x1F", "0o7", "0b101", "1_000", "00",
    "01", "1.", "1:30", ".inf", "-.inf", ".nan", "~", "2001-01-01", "'0.5'", '"1"', "abc", "1 2", "true",
    "null", "",
]
SEPARATORS = [", ", ", ", ",", " , ", ",  "]
ENDS = ["", "", "", "", ",", ", "]   # PyYAML takes a trailing comma
COLONS = [": "] * 6 + [":  ", ":", " : "]
TAILS = [""] * 12 + [" ", " # comment", "#x", "  #", "\n", "\n# comment", "\n  "]


def key(rng):
    return rng.choice(SCHEMA_KEYS if rng.random() < 0.9 else OTHER_KEYS)


def number(rng):
    pick = rng.random()
    if pick < 0.1:
        return rng.choice(OTHER_FORMS)
    if pick < 0.4:   # 19 and more digits now and then
        return str(rng.randint(-10**20, 10**20) // 10**rng.randint(2, 20))
    if pick < 0.6:   # repr writes an exponent below 1e-4 and from 1e16
        return repr(rng.uniform(-1e3, 1e3) * 10.0**rng.randint(-6, 14))
    return rng.choice(NUMBER_FORMS)


def flow(rng, depth=0):
    if depth == 3 or rng.random() < 0.5:
        return number(rng)
    items = [flow(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    brackets = "[]"
    if rng.random() < 0.5:
        items, brackets = [key(rng) + rng.choice(COLONS) + item for item in items], "{}"
    return brackets[0] + rng.choice(SEPARATORS).join(items) + rng.choice(ENDS if items else [""]) + brackets[1]


def block(rng, indent, depth=0):
    """The lines of a block mapping or sequence, now and then misindented."""
    lines = []
    sequence = rng.random() < 0.4
    for _ in range(rng.randint(1, 3)):
        pad = " " * max(0, indent + rng.choice([0] * 16 + [-1, 1]))
        if sequence:
            lines.append(pad + "-" + rng.choice([" "] * 6 + ["  ", ""]) + flow(rng))
        elif depth < 3 and rng.random() < 0.4:
            lines.append(pad + key(rng) + ":" + rng.choice(["", "", " ", " # comment"]))
            lines += block(rng, indent + rng.choice([0, 1, 2, 2, 2, 4]), depth + 1)
        else:
            lines.append(pad + key(rng) + rng.choice(COLONS) + flow(rng))
        lines[-1] += rng.choice(TAILS)
    return lines


# a seeded Random draws each document: one hypothesis draw per part took ~10 ms a document
@settings(max_examples=500, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=True))
def test_grammar_documents_read_as_pyyaml_reads(rng):
    assert_read_as_pyyaml_reads("\n".join(block(rng, rng.choice([0, 0, 0, 2]))) + rng.choice(["\n", "", "\n\n"]))


# ---- random character edits of the bundled files ----

EDITS = list(" -:#[]{},.0123456789e+_\n\tnoy'\"&*!|>?@`%~\x07\r") + ["no", "- ", ": ", "---", "...", "\n  "]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rng=st.randoms(use_true_random=True))
def test_edited_configs_read_as_pyyaml_reads(rng):
    text = rng.choice(list(TEXTS.values()))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        chars, cut = rng.choice([(rng.choice(EDITS), 0), ("", 1), (rng.choice(EDITS), 1)])   # insert, delete, replace
        text = text[:i] + chars + text[i + cut:]
    assert_read_as_pyyaml_reads(text)


def differential(n: int = 100_000, seed: int = 1) -> int:
    """Check n documents, half from each generator above, against PyYAML; 1 on any difference."""
    tests = (test_grammar_documents_read_as_pyyaml_reads, test_edited_configs_read_as_pyyaml_reads)
    differed = 0
    for k, (test, count) in enumerate(zip(tests, (n - n // 2, n // 2))):
        rng = random.Random(f"{seed}-{k}")
        for _ in range(count):
            try:
                test.hypothesis.inner_test(rng=rng)
            except AssertionError as exc:
                differed += 1
                print(f"differs from PyYAML: {exc.args[0]!r}", file=sys.stderr)
    print(f"{n} documents (seed {seed}): the reader took {TAKEN[0]}, {differed} differed from PyYAML")
    return 1 if differed else 0


if __name__ == "__main__":   # PYTHONPATH=src python tests/test_config_reader.py [N] [SEED]
    sys.exit(differential(*(int(arg) for arg in sys.argv[1:3])))
