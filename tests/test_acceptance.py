"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Two criteria (5 and 6) encode tolerances that the underlying
mathematics cannot meet for every bundled configuration; they are
implemented exactly as stated and left to fail honestly, with the
measured numbers in the failure message.  The README's acceptance notes
give the quantitative analysis.
"""

import itertools
import time

import numpy as np
from click.testing import CliRunner

from chfif import (
    SampledGraph,
    classify,
    convergence_profile,
    dimension_one_predicate,
    empirical_holder,
    estimate_dimension,
    fixed_point_iterate,
    sample_exact,
    self_affine_discrepancies,
    solve_model,
    theoretical_bounds,
)
from chfif.cli import main as cli_main
from chfif.config import GALLERY_NAMES

from helpers import (EXPECTED_REGIMES, equidistant_problem, exact_grid, exact_residuals, interval_of, moment_a,
                     moment_b, model_for, zero_param_problem)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"CRITERION {num:2d} [{status}] {name}{suffix}")
    return f"criterion {num} ({name}): {detail}"


def test_criterion_01_interpolation_property():
    worst = 0.0
    slowest = 0.0
    for name in GALLERY_NAMES:
        model = model_for(name)
        t0 = time.perf_counter()
        graph = sample_exact(model, 8)
        elapsed = time.perf_counter() - t0
        idx = np.searchsorted(graph.xs, model.node_x)
        err = max(
            float(np.max(np.abs(graph.f1s[idx] - model.y))),
            float(np.max(np.abs(exact_grid(model, 8)[2][idx] - model.z))),
        )
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-12 and slowest < 1.0
    msg = report(1, "interpolation property", ok,
                 f"max node error {worst:.2e}, slowest config {slowest:.3f}s")
    assert ok, msg


def test_criterion_02_functional_equation_residuals():
    worst = 0.0
    for name in GALLERY_NAMES:
        r1, r2 = exact_residuals(model_for(name), 8)
        worst = max(worst, r1, r2)
    ok = worst <= 1e-10
    msg = report(2, "functional-equation residuals", ok, f"max residual {worst:.2e}")
    assert ok, msg


def test_criterion_03_evaluation_path_equivalence():
    # the two routes share the interpolation nodes by construction; grid
    # 6561 also places the node abscissas of the bundled data on-grid
    worst = 0.0
    laggard = None
    for name in GALLERY_NAMES:
        model = model_for(name)
        result = fixed_point_iterate(model, 6561, max_iters=60_000, tol=1e-10)
        if not result.converged:
            laggard = name
            continue
        exact = sample_exact(model, 8)
        grid = result.graph
        idx_exact = np.searchsorted(exact.xs, model.node_x)
        idx_grid = np.searchsorted(grid.xs, model.node_x)
        assert np.allclose(grid.xs[idx_grid], model.node_x, atol=1e-12)
        err = max(
            float(np.max(np.abs(exact.f1s[idx_exact] - grid.f1s[idx_grid]))),
            float(np.max(np.abs(exact_grid(model, 8)[2][idx_exact] - result.f2s[idx_grid]))),
        )
        worst = max(worst, err)
    ok = worst <= 1e-6 and laggard is None
    msg = report(3, "evaluation-path equivalence", ok,
                 f"max shared-abscissa gap {worst:.2e}"
                 + (f", non-converged: {laggard}" if laggard else ""))
    assert ok, msg


def test_criterion_04_self_affine_collapse():
    corrected = model_for("fig1_corrected")
    graph = sample_exact(corrected, 10)
    gap = float(np.max(np.abs(graph.f1s - exact_grid(corrected, 10)[2])))
    original = model_for("fig1")
    issues = self_affine_discrepancies(original)
    flagged = any("alpha_3 + beta_3" in msg for msg in issues)
    ok = gap <= 1e-12 and not self_affine_discrepancies(corrected) and flagged
    msg = report(4, "self-affine collapse", ok,
                 f"corrected max|f1-f2| {gap:.2e}; uncorrected flagged: {flagged}")
    assert ok, msg


def test_criterion_05_moment_oracle():
    t0 = time.perf_counter()
    failures = []
    worst_overall = 0.0
    additivity_ok = True
    for name in GALLERY_NAMES:
        model = model_for(name)
        graph = sample_exact(model, 12)
        xs, f1, f2 = graph.xs, graph.f1s, exact_grid(model, 12)[2]
        worst = 0.0
        for wl in range(0, 4):
            for word in itertools.product((1, 2, 3), repeat=wl):
                start, length = interval_of(model, word)
                lo = np.searchsorted(xs, start - 1e-13)
                hi = np.searchsorted(xs, start + length + 1e-13)
                b_err = abs(moment_b(model, word) - float(np.trapezoid(f1[lo:hi], xs[lo:hi])))
                a_err = abs(moment_a(model, word) - float(np.trapezoid(f2[lo:hi], xs[lo:hi])))
                worst = max(worst, b_err, a_err)
                if wl < 3:
                    ref = moment_b(model, word)
                    total = sum(moment_b(model, (r,) + word) for r in (1, 2, 3))
                    if abs(total - ref) > 1e-12 * max(1.0, abs(ref)):
                        additivity_ok = False
        worst_overall = max(worst_overall, worst)
        if worst > 1e-6:
            failures.append(f"{name}:{worst:.2e}")
    elapsed = time.perf_counter() - t0
    ok = not failures and additivity_ok and elapsed < 30.0
    msg = report(5, "moment oracle vs quadrature", ok,
                 f"worst {worst_overall:.2e}, additivity {'ok' if additivity_ok else 'BAD'}, "
                 f"{elapsed:.1f}s; over-tolerance: {', '.join(failures) or 'none'}")
    assert ok, msg


def test_criterion_06_averaging_operator_convergence():
    failures = []
    for name in GALLERY_NAMES:
        profile = dict(convergence_profile(model_for(name), 8, 8))
        ratio = profile[8] / profile[2]
        monotone = profile[6] > profile[7] > profile[8]
        if ratio >= 0.1 or not monotone:
            failures.append(f"{name}:ratio={ratio:.3f},monotone={monotone}")
    ok = not failures
    msg = report(6, "uniform convergence of the averaging operator", ok,
                 f"failing configs: {', '.join(failures) or 'none'}")
    assert ok, msg


def test_criterion_07_regime_classification_matches_captions():
    mismatches = []
    for name, expected in sorted(EXPECTED_REGIMES.items()):
        rpt = classify(model_for(name))
        got = (rpt.theta_regime, rpt.omega_state, rpt.gamma_state)
        if got != expected:
            mismatches.append(f"{name}:{got}!={expected}")
    ok = not mismatches
    msg = report(7, "regime classification vs published labels", ok,
                 f"{len(EXPECTED_REGIMES)} entries checked; mismatches: "
                 f"{', '.join(mismatches) or 'none'}")
    assert ok, msg


def test_criterion_08_empirical_holder_calibration():
    linear_est = empirical_holder(sample_exact(solve_model(zero_param_problem()), 8), 4, 10).estimate
    xs = np.linspace(0.0, 1.0, 2**14 + 1)
    sqrt_est = empirical_holder(
        SampledGraph(xs=xs, f1s=np.sqrt(xs)), 4, 12).estimate
    ceiling = 0.0
    for name in GALLERY_NAMES:
        est = empirical_holder(sample_exact(model_for(name), 8), 4, 10).estimate
        ceiling = max(ceiling, est)
    ok = abs(linear_est - 1.0) <= 0.1 and abs(sqrt_est - 0.5) <= 0.05 and ceiling <= 1.05
    msg = report(8, "empirical Holder calibration", ok,
                 f"linear {linear_est:.3f}, sqrt {sqrt_est:.3f}, gallery max {ceiling:.3f}")
    assert ok, msg


SYNTHETIC_DIMENSION = 1.0 + np.log(1.4) / np.log(2.0)


def test_criterion_09_dimension_oracle():
    t0 = time.perf_counter()
    model = solve_model(equidistant_problem(
        alphas=(0.7, 0.7), betas=(0.0, 0.0), gammas=(0.7, 0.7)))
    graph = sample_exact(model, 12)
    # depth-12 spacing is eps_min/2, so the default density gate must be
    # relaxed to run at the stated parameters at all
    result = estimate_dimension(graph, range(4, 13), density_factor=2.0)
    elapsed = time.perf_counter() - t0
    ok = abs(result.estimate - SYNTHETIC_DIMENSION) <= 0.1 and elapsed < 60.0
    msg = report(9, "box-dimension oracle on the synthetic family", ok,
                 f"estimate {result.estimate:.3f} vs {SYNTHETIC_DIMENSION:.3f} +/- 0.1, "
                 f"{elapsed:.1f}s")
    assert ok, msg


def test_criterion_10_critical_case_bounds():
    problems = []
    for name in ("fig5", "fig9"):
        model = model_for(name)
        rpt = classify(model)
        bounds = theoretical_bounds(model, rpt)
        graph = sample_exact(model, 12)
        est = estimate_dimension(graph, range(4, 13)).estimate
        in_window = bounds.lower - 0.1 <= est <= bounds.upper + 0.1
        ordered = bounds.lower <= bounds.upper
        # the raw formula value dips below 1 here; the report must keep it
        recorded = bounds.lower_unclamped < bounds.lower
        if not (in_window and ordered and recorded):
            problems.append(f"{name}: est={est:.3f} window=[{bounds.lower - 0.1:.3f},"
                            f"{bounds.upper + 0.1:.3f}]")
        print(f"  {name}: estimate {est:.3f}, clamped bounds "
              f"[{bounds.lower:.3f}, {bounds.upper:.3f}], raw lower {bounds.lower_unclamped:.3f}")
    ok = not problems
    msg = report(10, "critical-case dimension bounds", ok, "; ".join(problems) or "both in window")
    assert ok, msg


def test_criterion_11_dimension_one_predicate():
    model = solve_model(equidistant_problem(
        alphas=(0.3, 0.3), betas=(0.0, 0.0), gammas=(0.3, 0.3)))
    rpt = classify(model)
    holds, _ = dimension_one_predicate(model, rpt)
    est = estimate_dimension(sample_exact(model, 13), range(4, 13)).estimate
    ok = holds and abs(est - 1.0) <= 0.05
    msg = report(11, "dimension-one predicate", ok,
                 f"flag {holds}, estimate {est:.3f}")
    assert ok, msg


def test_criterion_12_cli_determinism(tmp_path):
    runner = CliRunner()
    commands = {
        "generate": ["generate", "--config", "fig4", "--depth", "6"],
        "chaos": ["generate", "--config", "fig7", "--method", "chaos",
                  "--points", "400", "--seed", "9"],
        "classify": ["classify", "--config", "fig4"],
        "moments": ["moments", "--config", "fig4", "--depth", "2"],
        "dimension": ["dimension", "--config", "fig9", "--depth", "10",
                      "--eps-max-exp", "10"],
        "validate": ["validate", "--config", "fig4"],
    }
    unstable = []
    for label, args in commands.items():
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{label}_{run}.txt"
            result = runner.invoke(cli_main, args + ["--out", str(out)])
            assert result.exit_code == 0, (label, result.output)
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            unstable.append(label)
    ok = not unstable
    msg = report(12, "CLI determinism", ok,
                 f"unstable commands: {', '.join(unstable) or 'none'}")
    assert ok, msg
