"""Benchmark of the ``chfif`` package: three workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload export --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --runs 3

One workload run times the set-up (several cold interpreter starts up to
``import chfif.cli`` plus config resolution), then runs repetitions of the
workload, each in a fresh single-threaded worker process (``worker.py``),
while the next one still fits in ``--seconds``.  The run and its children
stay on one CPU, and every timing is rescaled by a calibration unit timed
next to it (``calibrate.py``), so times read as seconds at the reference
machine speed; the raw seconds go to the run record.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced repetitions and reports its per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record, with the
environment, goes to ``.bench_out/results/``.

``--all`` runs every workload ``--runs`` times untraced (seeds ``--seed``,
``--seed``+1, ...) and once traced, prints each end-to-end metric's median
and quartiles per workload, and writes ``.bench_out/summary.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import JobClock, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
STATE = ROOT / ".bench_state" / "counts.json"

SETUP_PROBES = 9          # timed cold starts per run; the median is reported
DEADLINE_S = 170          # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def worker_cmd(workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that each
    calibration unit runs where the work it is compared with runs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def time_setup(workload: str, env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to configs resolved, per
    probe: rescaled to the reference speed, and raw.

    ``perf_counter`` reads the system-wide monotonic clock on Linux, so the
    child's reading at the end of set-up compares with the parent's at spawn.
    The first, untimed probe writes the bytecode caches a user's install has.
    """
    times, raw = [], []
    warm_up()
    for i in range(SETUP_PROBES + 1):
        # no samples while the child runs: they would take its CPU
        with JobClock(sample=False) as clock:
            start = time.perf_counter()
            done = subprocess.run(worker_cmd(workload, "--probe"), env=env, cwd=ROOT, check=True,
                                  capture_output=True, text=True, timeout=60)
        if i:
            elapsed = float(done.stdout.split()[-1]) - start
            raw.append(elapsed)
            times.append(elapsed * clock.normalized / clock.raw)
    return times, raw


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "click", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


def source_digest() -> str:
    """Digest of the package sources: counts must repeat while it is unchanged."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def counts_repeat(workload: str, counts: dict) -> str | None:
    """Compare exact counts with earlier runs of the same sources, then store them."""
    state = json.loads(STATE.read_text()) if STATE.exists() else {}
    key = f"{source_digest()}/{workload}"
    before = state.get(key)
    if before is not None and before != counts:
        return f"exact counts {counts} differ from an earlier run of the same code: {before}"
    state[key] = counts
    STATE.parent.mkdir(exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, STATE)
    return None


def run_rep(workload: str, seed: int, trace: bool, env: dict[str, str], deadline: float) -> dict:
    """One repetition in a fresh worker process."""
    result_path = OUT / "work" / f"{workload}.result.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    cmd = worker_cmd(workload, "--seed", str(seed), "--trace", str(int(trace)),
                     "--out-dir", str(OUT / "work" / workload), "--result", str(result_path))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=deadline - time.perf_counter())
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up probes (untraced runs only), then repetitions while the
    next one still fits in ``seconds``.  A traced run alternates untraced and
    traced repetitions, starting untraced."""
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    setup, raw_setup = ([], []) if trace else time_setup(workload, env)
    plain: list[dict] = []
    traced: list[dict] = []
    rep_seconds: list[float] = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        use_trace = trace and len(plain) > len(traced)
        (traced if use_trace else plain).append(run_rep(workload, seed, use_trace, env, deadline))
        rep_seconds.append(time.perf_counter() - start)
        done = time.perf_counter() - begin + statistics.median(rep_seconds)
        if plain and (traced or not trace) and done > seconds:
            break

    reps = plain + traced
    result = {
        "workload": workload,
        "seed": seed,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": [f for r in reps for f in r["failures"]][:20],
        "setup_times": setup,
        "raw_setup_times": raw_setup,
        "walls": [r["wall"] for r in plain],
        "raw_walls": [r["raw_wall"] for r in plain],
        "unit_medians": [r["unit_median"] for r in plain],
        "wall_s": sum(statistics.median(r["job_times"][job] for r in plain)
                      for job in plain[0]["job_times"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if trace:
        counts = [r["counts"] for r in traced]
        if any(c != counts[0] for c in counts):
            result["failed"] += 1
            result["failures"].append(f"exact counts differ between traced repetitions: {counts}")
        else:
            reason = counts_repeat(workload, counts[0])
            if reason:
                result["failed"] += 1
                result["failures"].append(reason)
        layers = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(result["walls"]))
        result.update(layers=layers, counts=counts[0], traced_walls=[r["wall"] for r in traced],
                      missing_wrap_points=traced[0]["missing_wrap_points"])
    return result


def metric_values(result: dict, trace: bool) -> dict[str, float]:
    if trace:
        return result["layers"]
    return {
        "wall_s": result["wall_s"],
        "setup_s": statistics.median(result["setup_times"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(result: dict, spec: dict, trace: bool) -> dict:
    """The contract's result object: every metric of the chosen kind, with its unit."""
    values = metric_values(result, trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(spec: dict, seed: int, seconds: float, runs: int) -> None:
    summary: dict = {"environment": environment(seed), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_workload(workload, seed + i, seconds, False) for i in range(runs)]
        traced = run_workload(workload, seed, seconds, True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([metric_values(r, False)[m["name"]] for r in results])
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
            print(f"{workload:8s} {m['name']:12s} {med:12.6g} {m['unit']:3s} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}] over {runs} runs")
        print(f"{workload:8s} {'failed_ratio':12s} {failed / attempted:12.6g} "
              f"({failed} of {attempted} jobs)")
        summary["workloads"][workload] = {
            "runs": runs, "end_to_end": rows, "failed_ratio": failed / attempted,
            "attempted": attempted, "failed": failed,
            "failures": [f for r in results + [traced] for f in r["failures"]],
            "per_layer": traced["layers"], "traced_failed": traced["failed"],
        }
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"per-layer metrics and the full summary: {OUT / 'summary.json'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload with --all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chfif" / "__init__.py").is_file():
        print(f"error: no chfif sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.all:
        pin_to_one_cpu()
        run_all(spec, args.seed, args.seconds, args.runs)
        return 0
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    trace = bool(args.trace)
    pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    result["environment"] = environment(args.seed)
    out = report(result, spec, trace)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**result, "report": out}, indent=1) + "\n")
    print("environment " + json.dumps(result["environment"]))
    for failure in result["failures"]:
        print(f"failure: {failure}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    for name, metric in out["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
