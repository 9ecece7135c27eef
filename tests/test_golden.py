"""Byte-for-byte gate over the CLI outputs.

Every bundled config, plus ``data/power.yaml`` (power terms in p and q),
runs through ``classify``, ``dimension``, ``moments`` and ``validate``,
whose full text is stored, and through the three ``generate`` routes,
whose SHA-256 is stored.  Exit codes are stored for every case.  After an
intended output change, re-record from the repository root with

    PYTHONPATH=src python tests/test_golden.py

which prints each case whose exit code, text or digest differs from the
stored manifest, or that none does, and re-records every case.
"""

import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from chfif.cli import main
from chfif.config import BUNDLED_NAMES

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
MANIFEST = GOLDEN / "manifest.json"
PERFBENCH = HERE.parent / "perfbench"

CONFIGS = {name: name for name in BUNDLED_NAMES}
CONFIGS["power"] = str(HERE / "data" / "power.yaml")

TEXT_COMMANDS = ("classify", "dimension", "moments", "validate")
GENERATE_ROUTES = {
    "exact": ["--depth", "8"],
    "iterate": ["--method", "iterate", "--grid-size", "257", "--tol", "1e-9"],
    "chaos": ["--method", "chaos", "--points", "3000"],
}

# case id -> (CLI arguments without --out, whether the full text is stored)
CASES = {}
for _name, _ref in CONFIGS.items():
    for _command in TEXT_COMMANDS:
        CASES[f"{_name}.{_command}"] = ([_command, "--config", _ref], True)
    for _route, _extra in GENERATE_ROUTES.items():
        CASES[f"{_name}.generate-{_route}"] = (["generate", "--config", _ref, *_extra], False)


def run_case(case: str, out: Path) -> tuple[int, bytes]:
    args, _ = CASES[case]
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.exit_code, out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_unchanged(case, tmp_path):
    want = json.loads(MANIFEST.read_text())[case]
    code, data = run_case(case, tmp_path / "out")
    assert code == want["exit_code"]
    if CASES[case][1]:
        assert data.decode() == (GOLDEN / f"{case}.txt").read_bytes().decode()
    else:
        assert hashlib.sha256(data).hexdigest() == want["sha256"]


@pytest.mark.parametrize("case", [f"{name}.{command}" for name in BUNDLED_NAMES
                                  for command in ("classify", "dimension", "moments")])
def test_golden_passes_the_benchmark_check(case, monkeypatch):
    # the benchmark's gallery checks these reports against its own record;
    # a re-recorded golden it would reject fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    name, command = case.split(".")
    want = json.loads((PERFBENCH / "expected.json").read_text())["gallery"]["cli"][f"{name}/{command}"]
    assert json.loads(MANIFEST.read_text())[case]["exit_code"] == want["exit"]
    assert workloads.compare_report((GOLDEN / f"{case}.txt").read_text(encoding="utf-8"), want["text"]) is None


def record() -> None:
    stored = json.loads(MANIFEST.read_text())
    manifest, changed = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for case, (_, keep_text) in sorted(CASES.items()):
            code, data = run_case(case, Path(tmp) / "out")
            manifest[case] = {"exit_code": code}
            want = stored.get(case, {})
            changes = [f"exit code {want.get('exit_code')} -> {code}"] if want.get("exit_code") != code else []
            if keep_text:
                text = GOLDEN / f"{case}.txt"
                if not text.exists() or text.read_bytes() != data:
                    changes.append("text")
                text.write_bytes(data)
            else:
                manifest[case]["sha256"] = hashlib.sha256(data).hexdigest()
                if manifest[case]["sha256"] != want.get("sha256"):
                    changes.append("digest")
            if changes:
                changed.append(case)
                print(f"{case}: {', '.join(changes)}")
    if not changed:
        print("no case changed")
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(manifest)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
