"""Record the reference outputs every benchmark run is checked against.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src:perfbench python3 perfbench/record.py

It rewrites ``perfbench/expected.json``: the SHA-256 digest of each
``export``/``iterate`` CSV, the exit code and text of each ``gallery``
report, the Hölder estimates, and the chaos-cloud statistics for the
default seed.  Re-record only when a change alters outputs on purpose.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads

DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent


def record(out_dir: Path) -> dict:
    from chfif import attractor, geometry

    expected: dict = {}
    for workload in workloads.CONFIGS:
        cli = {}
        for name, args, out in workloads.cli_commands(workload, out_dir):
            code = workloads.run_cli(args)
            if workload == "gallery":
                cli[name] = {"exit": code, "text": out.read_text(encoding="utf-8")}
            else:
                if code != 0:
                    raise SystemExit(f"{name}: exit {code}")
                cli[name] = {"sha256": workloads.sha256(out), "bytes": out.stat().st_size}
            out.unlink()
        expected[workload] = {"cli": cli}

    holder, chaos = {}, {}
    for name, config in workloads.resolve_configs("gallery").items():
        model = geometry.solve_model(config.problem)
        holder[name] = workloads.holder_summary(workloads.holder_route(model))
        cloud = attractor.chaos_game(model, workloads.CHAOS_POINTS, DEFAULT_SEED)
        reason = workloads.check_orbit(cloud, workloads.map_system(config.problem))
        if reason:
            raise SystemExit(f"{name}: {reason}")
        chaos[name] = workloads.cloud_summary(cloud)
    expected["gallery"].update(holder=holder, chaos=chaos, chaos_seed=DEFAULT_SEED)
    return expected


def main() -> None:
    out_dir = HERE.parent / ".bench_out" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        expected = record(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
