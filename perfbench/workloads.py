"""The benchmark's workloads: what each one runs and how its outputs are checked.

``export`` writes one large exact-route CSV (the formatting/writing path),
``iterate`` runs the fixed-point sweep on the two slowest-converging
configs, and ``gallery`` runs every analysis command plus the Hölder and
chaos-game routes on all 17 bundled configs.  Outputs of ``export`` and
``iterate`` must stay byte-identical, so they are checked by digest;
``gallery`` reports are parsed and compared with tolerances that admit
rounding-level changes and the planned box-count fix, but not a wrong
regime, exit code or number.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GALLERY = tuple(f"fig{i}" for i in range(1, 17)) + ("fig1_corrected",)

CONFIGS = {
    "export": ("fig4",),
    "iterate": ("fig2", "fig3"),
    "gallery": GALLERY,
}

EXPORT_DEPTH = 12
HOLDER_DEPTH, HOLDER_SCALES = 8, (4, 10)   # acceptance criterion 8's parameters
CHAOS_POINTS = 50_000

# Report comparison.  Rounding-level drift passes the default tolerance.
# Box counts may drop by one cell or rise by COUNT_UP, doubled for each
# scale finer than 2**-9, plus two cells; the regression outputs built on
# them may move by SLOPE_TOL / R2_TOL.  That admits charging each
# column-boundary crossing to both neighbouring columns (ROADMAP item 3),
# which on the gallery raises counts by at most 0.2% down to 2**-9, 0.44%,
# 0.85% and 1.7% at 2**-10..2**-12, the slope by 2.5e-3 and r^2 by 1e-4.
REL_TOL, ABS_TOL = 1e-8, 1e-12
COUNT_UP, COUNT_UP_FROM = 0.003, 9
SLOPE_TOL, R2_TOL = 5e-3, 1e-3

# The chaos cloud's level-2 cells each hold 1/N**2 of the invariant measure
# under uniform map choice; 50k points land within a few percent of that.
CELL_SHARE_TOL = 0.5
ORBIT_TOL = 1e-9


@dataclass(frozen=True)
class Job:
    """One unit of timed work and the check applied to its outcome.

    ``run`` returns the outcome; ``check`` returns None when the outcome
    is correct, else the reason it is not.  Checks run outside the timed
    region.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    cli: bool = False


def resolve_configs(workload: str) -> dict:
    """Parse the workload's configs: the last step of the set-up users pay."""
    from chfif import cli

    return {name: cli.resolve_config(name) for name in CONFIGS[workload]}


def run_cli(args: list[str]) -> int:
    """Run one CLI command in-process and return its exit code."""
    from chfif import cli

    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _digest_check(path: Path, want: dict, bytes_out: Callable[[int], None]):
    def check(code) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        size = path.stat().st_size
        bytes_out(size)
        got = sha256(path)
        path.unlink()
        if got != want["sha256"]:
            return f"sha256 {got[:12]} != recorded {want['sha256'][:12]} ({size} bytes)"
        return None
    return check


# -- report comparison ------------------------------------------------------

_TOKEN = re.compile(r"[^,\s:=]+")


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _close(got: float, want: float, rel: float, abs_: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_)


def _count_ok(got: float, want: float, exponent: int) -> bool:
    rise = COUNT_UP * 2.0 ** max(0, exponent - COUNT_UP_FROM)
    return got == int(got) and want - 1 <= got <= want * (1 + rise) + 2


def compare_report(text: str, want: str) -> str | None:
    """First difference between a report and its recorded text, or None."""
    got_lines, want_lines = text.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, recorded {len(want_lines)}"
    exponents: list[int] = []
    for got_line, want_line in zip(got_lines, want_lines):
        got, ref = _TOKEN.findall(got_line), _TOKEN.findall(want_line)
        if len(got) != len(ref):
            return f"{got_line!r} != recorded {want_line!r}"
        key = ref[0] if ref else ""
        if key == "eps_exponents":
            exponents = [int(t) for t in ref[1:]]
        for i, (g, w) in enumerate(zip(got, ref)):
            gv, wv = _number(g), _number(w)
            if wv is None or gv is None:
                ok = g == w
            elif key == "box_counts":
                ok = _count_ok(gv, wv, exponents[i - 1])
            elif key == "empirical_estimate":
                ok = abs(gv - wv) <= SLOPE_TOL
            elif key == "r_squared":
                ok = abs(gv - wv) <= R2_TOL
            else:
                ok = _close(gv, wv, REL_TOL, ABS_TOL)
            if not ok:
                return f"{key}: {g} != recorded {w}"
    return None


def _report_check(path: Path, want: dict, bytes_out: Callable[[int], None]):
    def check(code) -> str | None:
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}"
        text = path.read_text(encoding="utf-8")
        bytes_out(len(text.encode("utf-8")))
        path.unlink()
        return compare_report(text, want["text"])
    return check


# -- library routes -----------------------------------------------------------


def holder_summary(estimate) -> dict:
    return {
        "estimate": estimate.estimate,
        "r_squared": estimate.r_squared,
        "oscillations": list(estimate.oscillations),
    }


def _holder_check(want: dict):
    def check(estimate) -> str | None:
        got = holder_summary(estimate)
        if len(got["oscillations"]) != len(want["oscillations"]):
            return f"{len(got['oscillations'])} scales, recorded {len(want['oscillations'])}"
        pairs = [("estimate", got["estimate"], want["estimate"]),
                 ("r_squared", got["r_squared"], want["r_squared"])]
        pairs += [("oscillation", g, w) for g, w in zip(got["oscillations"], want["oscillations"])]
        for label, g, w in pairs:
            if not _close(g, w, REL_TOL, ABS_TOL):
                return f"holder {label} {g!r} != recorded {w!r}"
        return None
    return check


def map_system(problem) -> dict[str, np.ndarray]:
    """Unit-domain coefficients of the maps W_i, solved here from the config.

    W_i sends (0, y_0, z_0) to (u_{i-1}, y_{i-1}, z_{i-1}) and (1, y_N, z_N)
    to (u_i, y_i, z_i); p_i(u) = c u + d + h u**lam, q_i(u) = e u + f + k u**mu.
    Solved independently of ``chfif.geometry`` so the chaos check is an oracle.
    """
    xs = np.array([x for x, _ in problem.nodes], dtype=float)
    ys = np.array([y for _, y in problem.nodes], dtype=float)
    zs = np.array(problem.hidden, dtype=float)
    u = (xs - xs[0]) / (xs[-1] - xs[0])
    par = problem.params
    alpha = np.array([p.alpha for p in par])
    beta = np.array([p.beta for p in par])
    gamma = np.array([p.gamma for p in par])
    h = np.array([p.p_power.coeff if p.p_power else 0.0 for p in par])
    lam = np.array([p.p_power.exponent if p.p_power else 1.0 for p in par])
    k = np.array([p.q_power.coeff if p.q_power else 0.0 for p in par])
    mu = np.array([p.q_power.exponent if p.q_power else 1.0 for p in par])
    d = ys[:-1] - alpha * ys[0] - beta * zs[0]
    c = ys[1:] - alpha * ys[-1] - beta * zs[-1] - d - h
    f = zs[:-1] - gamma * zs[0]
    e = zs[1:] - gamma * zs[-1] - f - k
    return dict(x0=xs[0], span=xs[-1] - xs[0], a=np.diff(u), b=u[:-1],
                alpha=alpha, beta=beta, gamma=gamma,
                c=c, d=d, h=h, lam=lam, e=e, f=f, k=k, mu=mu)


def cloud_summary(cloud: np.ndarray) -> dict:
    return {"min": cloud.min(axis=0).tolist(), "max": cloud.max(axis=0).tolist(),
            "mean": cloud.mean(axis=0).tolist()}


def check_orbit(cloud: np.ndarray, maps: dict) -> str | None:
    """Each point must be the image of its predecessor under one map W_j,
    and the level-2 cells must share the points about equally."""
    if cloud.shape != (CHAOS_POINTS, 3) or not np.all(np.isfinite(cloud)):
        return f"cloud shape {cloud.shape} or non-finite values"
    u = (cloud[:, 0] - maps["x0"]) / maps["span"]
    f1, f2 = cloud[:, 1], cloud[:, 2]
    pu, p1, p2 = u[:-1], f1[:-1], f2[:-1]
    image_u = maps["a"][:, None] * pu + maps["b"][:, None]
    j = np.argmin(np.abs(image_u - u[1:]), axis=0)
    m = {key: maps[key][j] for key in ("alpha", "beta", "gamma", "c", "d", "h", "lam", "e", "f", "k", "mu")}
    image_1 = m["alpha"] * p1 + m["beta"] * p2 + m["c"] * pu + m["d"] + m["h"] * pu ** m["lam"]
    image_2 = m["gamma"] * p2 + m["e"] * pu + m["f"] + m["k"] * pu ** m["mu"]
    scale = 1.0 + float(np.max(np.abs(cloud[:, 1:])))
    worst = max(float(np.max(np.abs(image_u[j, np.arange(len(j))] - u[1:]))),
                float(np.max(np.abs(image_1 - f1[1:]))) / scale,
                float(np.max(np.abs(image_2 - f2[1:]))) / scale)
    if not worst <= ORBIT_TOL:
        return f"chaos point off the orbit of its predecessor by {worst:.3g}"
    n = len(maps["a"])
    starts = np.sort((maps["b"][:, None] + maps["a"][:, None] * maps["b"][None, :]).ravel())
    share = np.bincount(np.searchsorted(starts, u, side="right") - 1, minlength=n * n) / len(u)
    if np.any(np.abs(share * n * n - 1.0) > CELL_SHARE_TOL):
        return f"level-2 cell shares {np.round(share, 4).tolist()} far from 1/{n * n}"
    return None


def _chaos_check(problem, want: dict | None):
    maps = map_system(problem)

    def check(cloud) -> str | None:
        reason = check_orbit(cloud, maps)
        if reason or want is None:
            return reason
        got = cloud_summary(cloud)
        for stat, values in want.items():
            for g, w in zip(got[stat], values):
                if not _close(g, w, REL_TOL, ABS_TOL):
                    return f"chaos {stat} {got[stat]} != recorded {values}"
        return None
    return check


# -- job lists ----------------------------------------------------------------


def cli_commands(workload: str, out_dir: Path) -> list[tuple[str, list[str], Path]]:
    """(job name, CLI arguments, output path) of each CLI job of a workload."""
    if workload == "export":
        out = out_dir / "fig4.csv"
        return [("fig4", ["generate", "--config", "fig4", "--depth", str(EXPORT_DEPTH),
                          "--out", str(out)], out)]
    if workload == "iterate":
        return [(name, ["generate", "--config", name, "--method", "iterate",
                        "--out", str(out_dir / f"{name}.csv")], out_dir / f"{name}.csv")
                for name in CONFIGS["iterate"]]
    return [(f"{name}/{command}", [command, "--config", name, "--out", str(out)], out)
            for name in CONFIGS["gallery"]
            for command in ("classify", "dimension", "moments")
            for out in [out_dir / f"{name}.{command}.txt"]]


def holder_route(model):
    """Criterion 8's Hölder estimate, looked up through the module attributes
    at call time so that tracing sees the calls."""
    from chfif import attractor, smoothness

    lo, hi = HOLDER_SCALES
    return smoothness.empirical_holder(attractor.sample_exact(model, HOLDER_DEPTH), lo, hi)


def build_jobs(workload: str, configs: dict, expected: dict, seed: int,
               out_dir: Path, bytes_out: Callable[[int], None]) -> list[Job]:
    """The workload's job list; ``expected`` is the recorded baseline."""
    want = expected[workload]
    make_check = _report_check if workload == "gallery" else _digest_check
    cli_jobs = [Job(name, lambda args=args: run_cli(args), make_check(out, want["cli"][name], bytes_out),
                    cli=True)
                for name, args, out in cli_commands(workload, out_dir)]
    if workload != "gallery":
        return cli_jobs
    jobs = []
    for name, config in configs.items():
        jobs += [job for job in cli_jobs if job.name.split("/")[0] == name]
        jobs += _library_jobs(name, config.problem, want, seed)
    return jobs


def _library_jobs(name: str, problem, want: dict, seed: int) -> list[Job]:
    from chfif import attractor, geometry

    models = {}

    def holder():
        models["model"] = geometry.solve_model(problem)
        return holder_route(models["model"])

    def chaos():
        return attractor.chaos_game(models["model"], CHAOS_POINTS, seed)

    chaos_want = want["chaos"].get(name) if seed == want["chaos_seed"] else None
    return [Job(f"{name}/holder", holder, _holder_check(want["holder"][name])),
            Job(f"{name}/chaos", chaos, _chaos_check(problem, chaos_want))]
