"""One repetition of a workload, in a fresh interpreter started by ``run.py``.

Set-up (``import chfif.cli`` and config resolution) happens before the
clock starts.  The job list then runs once; each job is timed on its own
by a ``calibrate.JobClock``, which also gives its time at the reference
machine speed, and checked right after, outside the timed region.  A
fresh process per repetition keeps ``ru_maxrss`` a per-repetition peak,
as each CLI call of a user has.  With ``--trace 1`` the layer functions are wrapped for the
repetition and per-layer metrics are added.  The result is written as JSON
to ``--result``.

``--probe`` only performs the set-up and prints ``time.perf_counter()``
when it is done; ``run.py`` uses it to time set-up from a cold start.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _set_up(workload: str) -> dict:
    import chfif.cli  # noqa: F401  (the import users pay on every call)
    import workloads

    return workloads.resolve_configs(workload)


def run_once(workload: str, seed: int, trace: bool, out_dir: Path) -> dict:
    configs = _set_up(workload)
    import workloads
    from calibrate import UNIT_S, JobClock, warm_up
    from tracing import COUNT_METRICS, Tracer

    chfif_file = Path(sys.modules["chfif"].__file__).resolve()
    if not chfif_file.is_relative_to(ROOT / "src"):
        raise SystemExit(f"chfif imported from {chfif_file}, not from {ROOT / 'src'}")
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    tracer = Tracer()

    def bytes_out(n: int) -> None:
        tracer.counts["cli.bytes_out"] += n

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    jobs = workloads.build_jobs(workload, configs, expected, seed, out_dir, bytes_out)
    if trace:
        tracer.install()
    job_times: dict[str, float] = {}
    raw_times: dict[str, float] = {}
    units: list[float] = []
    failures: list[str] = []
    warm_up()
    for job in jobs:
        error = None
        # no samples inside traced jobs: their time would land in the spans
        with JobClock(sample=not trace) as clock:
            # CLI jobs get a top-level span here; library jobs are covered by
            # the spans of the wrapped functions they call
            span = tracer.open("cli.main") if trace and job.cli else None
            try:
                outcome = job.run()
            except Exception as exc:   # a raising job is a failed job, not a crash
                error = exc
            if span is not None:
                tracer.close(span, error)
        raw_times[job.name] = clock.raw
        job_times[job.name] = clock.normalized
        units += clock.units
        if error is None:
            try:
                reason = job.check(outcome)
            except Exception as exc:   # e.g. the job wrote no output file
                reason = f"check raised {type(exc).__name__}: {exc}"
        else:
            reason = f"raised {type(error).__name__}: {error}"
        if reason is not None:
            failures.append(f"{job.name}: {reason}")
    tracer.uninstall()

    wall = sum(job_times.values())
    raw_wall = sum(raw_times.values())
    result = {
        "wall": wall,
        "job_times": job_times,
        "raw_wall": raw_wall,
        "raw_job_times": raw_times,
        "unit_median": statistics.median(units),
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        # layer times at the repetition's median speed, like the job times
        factor = UNIT_S / statistics.median(units)
        result["layers"] = {key: value * factor if _is_time(key) else value
                            for key, value in tracer.metrics(raw_wall).items()}
        result["counts"] = {key: result["layers"][key] for key in COUNT_METRICS}
        result["missing_wrap_points"] = tracer.missing
    return result


def _is_time(metric: str) -> bool:
    return metric.endswith("_s") or metric in ("attractor.us_per_sweep",
                                               "attractor.ns_per_chaos_point")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        _set_up(args.workload)
        print(repr(time.perf_counter()))
        return
    result = run_once(args.workload, args.seed, bool(args.trace), args.out_dir)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
