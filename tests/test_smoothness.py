"""Tests for regime classification and the oscillation estimator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chfif import (
    InsufficientScalesError,
    SampledGraph,
    classify,
    dimension_report,
    empirical_holder,
    max_oscillation,
    remark_special_case,
    sample_exact,
    solve_model,
    validate,
)
from chfif.geometry import CRITICAL_RTOL
from chfif.smoothness import regime_state

from helpers import (
    ALL_GALLERY,
    EXPECTED_REGIMES,
    brute_force_oscillation,
    classify_oracle,
    deque_oscillation,
    equidistant_problem,
    make_problem,
    model_for,
    power,
    sampled_for,
    zero_param_problem,
)

LOG_HALF_RATIO = np.log(0.5) / np.log(0.25)   # = 1/2


class TestRegimeState:
    def test_critical_window(self):
        assert regime_state(1.0) == "EQ1"
        assert regime_state(1.0 + 5e-10) == "EQ1"
        assert regime_state(1.0 - 5e-10) == "EQ1"
        assert regime_state(1.0 + 1e-8) == "GT1"
        assert regime_state(1.0 - 1e-8) == "LT1"


class TestClassifyGallery:
    @pytest.mark.parametrize("name,expected", sorted(EXPECTED_REGIMES.items()))
    def test_regimes_match_expected_table(self, name, expected):
        report = classify(model_for(name))
        assert (report.theta_regime, report.omega_state, report.gamma_state) == expected

    def test_mild_case_is_lipschitz_one(self):
        report = classify(model_for("fig4"))
        assert report.modulus_order == "LIP_DELTA"
        assert report.delta == 1.0
        assert report.delta_tag == "delta1"
        assert report.case_label == "a"

    def test_fully_critical_case_gets_squared_log(self):
        report = classify(model_for("fig5"))
        assert report.modulus_order == "DELTA_LOG2"
        assert report.delta == 1.0
        assert report.delta_tag == "delta1"
        assert report.case_label == "b"

    def test_degenerate_exponent_is_reported_not_hidden(self):
        report = classify(model_for("fig6"))
        assert report.delta == 0.0           # log(alpha*gamma)/log(I_min) - mu lands exactly at 0
        assert "delta6" in report.degeneracy
        assert report.modulus_order == "LIP_DELTA"

    def test_high_scaling_with_small_hidden_rate(self):
        report = classify(model_for("fig8"))
        assert report.delta_tag == "delta7"
        assert report.delta == pytest.approx(LOG_HALF_RATIO, rel=1e-12)
        assert report.modulus_order == "LIP_DELTA"

    def test_low_scaling_with_large_hidden_rate(self):
        report = classify(model_for("fig7"))
        assert report.delta_tag == "delta4"
        assert report.delta == pytest.approx(0.5, rel=1e-12)

    def test_log_order_on_single_critical_ratio(self):
        report = classify(model_for("fig10"))
        assert report.modulus_order == "DELTA_LOG"
        assert report.delta == 1.0 and report.delta_tag == "delta1"

    def test_critical_omega_with_large_gamma(self):
        report = classify(model_for("fig11"))
        assert report.modulus_order == "DELTA_LOG2"
        assert report.delta_tag == "delta4"
        assert report.delta == pytest.approx(0.5, rel=1e-12)

    def test_high_theta_with_critical_gamma(self):
        report = classify(model_for("fig12"))
        assert report.modulus_order == "DELTA_LOG"
        assert report.delta_tag == "delta7"
        assert report.delta == pytest.approx(0.5, rel=1e-12)

    def test_tau_bounds_reported(self):
        report = classify(model_for("fig8"))
        assert report.tau1 == pytest.approx(np.log(0.5) / np.log(0.25), rel=1e-12)
        assert report.tau2 == pytest.approx(np.log(0.3) / np.log(0.25), rel=1e-12)
        assert report.tau3 == min(report.tau1, report.tau2)
        assert report.tau4 == report.tau1


class TestClassifySplitExponents:
    """Distinct Lipschitz exponents unlock the remaining branches."""

    def test_theta_above_one_with_omega_below(self):
        # p in Lip 1/2 (power template), q affine: Theta > 1 > Omega
        problem = equidistant_problem(
            alphas=(0.6, 0.6), betas=(0.0, 0.0), gammas=(0.3, 0.3),
            p_powers=(power(0.4, 0.5), power(0.4, 0.5)))
        report = classify(solve_model(problem))
        assert (report.theta_regime, report.omega_state, report.gamma_state) == ("GT1", "LT1", "LT1")
        assert report.delta_tag == "delta5"
        assert report.delta == pytest.approx(0.5, rel=1e-12)   # min(lam, tau1)

    def test_theta_above_one_with_omega_below_gamma_above(self):
        problem = equidistant_problem(
            alphas=(0.6, 0.6), betas=(0.0, 0.0), gammas=(0.8, 0.8),
            p_powers=(power(0.4, 0.5), power(0.4, 0.5)))
        report = classify(solve_model(problem))
        assert (report.theta_regime, report.omega_state, report.gamma_state) == ("GT1", "LT1", "GT1")
        assert report.delta_tag == "delta8"
        delta6 = np.log(0.6 * 0.8) / np.log(0.5) - 1.0
        assert report.delta == pytest.approx(min(0.5, delta6), rel=1e-12)

    def test_theta_below_one_with_omega_above(self):
        # q in Lip 1/2, p affine: Omega > 1 > Theta
        problem = equidistant_problem(
            alphas=(0.6, 0.6), betas=(0.1, 0.1), gammas=(0.8, 0.8),
            q_powers=(power(0.4, 0.5), power(0.4, 0.5)))
        report = classify(solve_model(problem))
        assert (report.theta_regime, report.omega_state, report.gamma_state) == ("LT1", "GT1", "GT1")
        assert report.delta_tag == "delta2"
        tau3 = min(np.log(0.6) / np.log(0.5), np.log(0.8) / np.log(0.5))
        assert report.delta == pytest.approx(tau3, rel=1e-12)
        assert report.modulus_order == "LIP_DELTA"

    def test_remark_requires_equal_exponents(self):
        problem = equidistant_problem(
            alphas=(0.3, 0.3), betas=(0.0, 0.0), gammas=(0.3, 0.3),
            p_powers=(power(0.4, 0.5), power(0.4, 0.5)))
        with pytest.raises(ValueError):
            remark_special_case(solve_model(problem))


class TestRemarkSpecialCase:
    @pytest.mark.parametrize("name", ALL_GALLERY)
    def test_same_modulus_order_as_general_table(self, name):
        model = model_for(name)
        assert remark_special_case(model).modulus_order == classify(model).modulus_order

    @pytest.mark.parametrize("name,tag", [
        ("fig4", "delta1"),
        ("fig10", "delta1"),
        ("fig7", "tau2"),
        ("fig9", "delta1"),
        ("fig5", "delta1"),
        ("fig11", "delta4"),
        ("fig8", "tau1"),
        ("fig12", "tau1"),
        ("fig6", "delta6"),
    ])
    def test_subcase_labels(self, name, tag):
        report = remark_special_case(model_for(name))
        assert report.delta_tag == tag
        theta, _, gamma = EXPECTED_REGIMES[name]
        assert (report.theta_regime, report.gamma_state) == (theta, gamma)

    def test_low_theta_low_gamma_is_lipschitz_mu(self):
        report = remark_special_case(model_for("fig4"))
        assert report.modulus_order == "LIP_DELTA"
        assert report.delta == model_for("fig4").mu == 1.0

    def test_critical_theta_high_gamma_keeps_squared_log(self):
        report = remark_special_case(model_for("fig11"))
        assert report.modulus_order == "DELTA_LOG2"
        model = model_for("fig11")
        assert report.delta == pytest.approx(
            min(model.lam, report.tau2), rel=1e-12)

    def test_high_theta_critical_gamma_gets_log_with_tau1(self):
        report = remark_special_case(model_for("fig12"))
        assert report.modulus_order == "DELTA_LOG"
        assert report.delta == pytest.approx(report.tau1, rel=1e-12)


class TestTotality:
    def test_random_valid_models_always_classify(self):
        rng = np.random.default_rng(7)
        tags = {"delta1", "delta2", "delta3", "delta4",
                "delta5", "delta6", "delta7", "delta8"}
        for _ in range(200):
            n = int(rng.integers(2, 5))
            xs = np.sort(rng.uniform(0.0, 1.0, n - 1))
            nodes = tuple((float(x), float(rng.uniform(-5, 5)))
                          for x in np.concatenate([[0.0], xs, [1.0]]))
            betas = rng.uniform(-1, 1, n)
            gammas = (1.0 - np.abs(betas)) * rng.uniform(-0.99, 0.99, n)
            use_power = rng.random() < 0.3
            problem = make_problem(
                nodes=nodes, hidden=tuple(rng.uniform(-5, 5, n + 1)),
                alphas=tuple(rng.uniform(-0.99, 0.99, n)),
                betas=tuple(betas), gammas=tuple(gammas),
                q_powers=tuple(
                    power(0.3, float(rng.uniform(0.2, 1.0))) if use_power else None
                    for _ in range(n)))
            report = classify(solve_model(problem))
            assert report.delta_tag in tags
            if report.degeneracy is None:
                assert 0.0 < report.delta <= 1.0


class TestMonotoneConsistency:
    ORDER = {"LT1": 0, "EQ1": 1, "GT1": 2}

    @pytest.mark.parametrize("name", ["fig4", "fig9", "fig8"])
    def test_growing_alpha_never_lowers_regimes(self, name):
        base = model_for(name)
        report = classify(base)
        problem = base.problem
        scaled = make_problem(
            nodes=problem.nodes, hidden=problem.hidden,
            alphas=tuple(min(p.alpha * 1.2, 0.99) for p in problem.params),
            betas=tuple(p.beta for p in problem.params),
            gammas=tuple(p.gamma for p in problem.params))
        scaled_report = classify(solve_model(scaled))
        assert self.ORDER[scaled_report.omega_state] >= self.ORDER[report.omega_state]
        assert self.ORDER[scaled_report.theta_regime] >= self.ORDER[report.theta_regime]


class TestEmpiricalHolder:
    def test_polyline_calibration(self):
        model = solve_model(zero_param_problem())
        estimate = empirical_holder(sample_exact(model, 8), 4, 10)
        assert 0.9 <= estimate.estimate <= 1.1
        assert estimate.r_squared > 0.99

    def test_square_root_calibration(self):
        xs = np.linspace(0.0, 1.0, 2**14 + 1)
        graph = SampledGraph(xs=xs, f1s=np.sqrt(xs), f2s=np.zeros_like(xs))
        estimate = empirical_holder(graph, 4, 12)
        assert 0.45 <= estimate.estimate <= 0.55

    def test_classifier_exponent_is_respected_up_to_log_factors(self):
        # estimate stays below 1 and above the reported exponent less slack
        report = classify(model_for("fig8"))
        estimate = empirical_holder(sampled_for("fig8", 8), 4, 10)
        assert estimate.estimate <= 1.0
        assert estimate.estimate >= report.delta - 0.15

    def test_degenerate_entry_still_measures(self):
        report = classify(model_for("fig6"))
        estimate = empirical_holder(sampled_for("fig6", 8), 4, 10)
        assert estimate.estimate <= 1.0
        assert estimate.estimate >= report.delta - 0.15   # delta is 0 here

    @pytest.mark.parametrize("name", ["fig2", "fig5", "fig13"])
    def test_ceiling_for_gallery_entries(self, name):
        estimate = empirical_holder(sampled_for(name, 8), 4, 10)
        assert estimate.estimate <= 1.05

    def test_flat_data_has_no_usable_scales(self):
        xs = np.linspace(0.0, 1.0, 4097)
        graph = SampledGraph(xs=xs, f1s=np.full_like(xs, 3.0), f2s=xs)
        with pytest.raises(InsufficientScalesError):
            empirical_holder(graph, 4, 10)

    def test_diagnostics_shape(self):
        estimate = empirical_holder(sampled_for("fig4", 8), 4, 9)
        assert len(estimate.scales) == len(estimate.oscillations)
        assert len(estimate.scales) == 6


@st.composite
def oscillation_cases(draw):
    """Sorted abscissas, values and a window chosen to sit on the window rule's edges."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        xs = draw(st.lists(st.floats(-3.0, 7.0), min_size=n, max_size=n))
    else:
        # a coarse decimal grid: tied abscissas and gaps that are not exact
        xs = [0.1 * k for k in draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))]
    xs = np.sort(np.array(xs, dtype=float))
    if draw(st.booleans()):
        ys = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    else:
        ys = draw(st.lists(st.sampled_from([-1.5, 0.0, 2.0]), min_size=n, max_size=n))
    ys = np.array(ys, dtype=float)
    kind = draw(st.sampled_from(["gap", "below", "above", "wide", "any"]))
    if n and kind in ("gap", "below", "above"):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
        window = float(xs[j] - xs[i])
        # one ulp either side: xs - window can round onto or across a sample
        if kind != "gap":
            window = float(np.nextafter(window, np.inf if kind == "above" else 0.0))
        if draw(st.booleans()):
            # make (i, j) the widest pair, so whether it fits decides the result
            ys[i], ys[j] = 1e4, -1e4
    elif kind == "wide":
        window = float(np.ptp(xs)) + 1.0 if n else 1.0
    else:
        window = draw(st.floats(0.0, 12.0))
    return xs, ys, window


class TestMaxOscillation:
    """The sparse-table scan against a brute-force pair scan and the deque scan it replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(oscillation_cases())
    def test_matches_oracles(self, case):
        xs, ys, window = case
        got = max_oscillation(xs, ys, window)
        assert type(got) is float
        assert got == brute_force_oscillation(xs, ys, window) == deque_oscillation(xs, ys, window)

    @pytest.mark.parametrize("xs, ys, window, expected", [
        ((), (), 1.0, 0.0),
        ((0.5,), (3.0,), 1.0, 0.0),
        ((0.0, 1.0), (0.0, 2.0), 1.0, 2.0),    # the gap equals the window: the pair counts
        ((0.0, 1.0), (0.0, 2.0), 0.5, 0.0),
        ((0.0, 1.0, 1.0), (5.0, 1.0, 4.0), 0.0, 3.0),   # tied abscissas are 0 apart
    ])
    def test_small_cases(self, xs, ys, window, expected):
        assert max_oscillation(np.array(xs), np.array(ys), window) == expected

    def test_every_window_length(self):
        # windows of every length up to 2**7 + 1 samples, one query level each
        xs = np.arange(300.0)
        ys = np.random.default_rng(3).normal(size=xs.size)
        for width in range(130):
            assert max_oscillation(xs, ys, float(width)) == deque_oscillation(xs, ys, float(width))

    @pytest.mark.parametrize("name", ["fig4", "fig9"])
    def test_gallery_scales(self, name):
        graph = sampled_for(name, 8)
        for j in range(4, 11):
            assert max_oscillation(graph.xs, graph.f1s, 2.0 ** -j) == deque_oscillation(
                graph.xs, graph.f1s, 2.0 ** -j)

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            max_oscillation(np.arange(3.0), np.arange(3.0), -1.0)


# both sides of each edge of the critical window |ratio - 1| <= CRITICAL_RTOL
WINDOW_EDGES = tuple(1.0 + s * f * CRITICAL_RTOL for s in (-1.0, 1.0) for f in (0.5, 2.0))


@st.composite
def placed_ratio_problems(draw):
    """Admissible models whose Omega or Theta, and Gamma, may sit just inside or outside the window."""
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        xs = np.linspace(0.0, 1.0, n + 1)
    else:
        gaps = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        xs = np.concatenate(([0.0], np.cumsum(gaps)))
    lam, mu = (draw(st.sampled_from([1.0, 0.5]) | st.floats(0.2, 1.0)) for _ in range(2))
    p_powers = tuple(power(draw(st.floats(-2.0, 2.0)), lam) for _ in range(n)) if lam < 1.0 else None
    q_powers = tuple(power(draw(st.floats(-2.0, 2.0)), mu) for _ in range(n)) if mu < 1.0 else None
    ys, zs = (tuple(draw(st.lists(st.floats(-5.0, 5.0), min_size=n + 1, max_size=n + 1)))
              for _ in range(2))
    nodes = tuple(zip(xs.tolist(), ys))
    a = solve_model(make_problem(nodes=nodes, hidden=zs, alphas=(0.0,) * n, betas=(0.0,) * n,
                                 gammas=(0.0,) * n, p_powers=p_powers, q_powers=q_powers)).a

    def placed(exponent):
        # |value_k| / |I_k|**exponent is the target; every other interval's ratio is below it
        target = draw(st.sampled_from((1.0,) + WINDOW_EDGES) | st.floats(0.0, 1.6))
        fractions = np.array(draw(st.lists(st.floats(0.0, 0.9), min_size=n, max_size=n)))
        fractions[draw(st.integers(0, n - 1))] = 1.0
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
        return tuple((signs * fractions * target * a ** exponent).tolist())

    alphas = placed(draw(st.sampled_from([lam, mu])))   # places Omega or Theta
    gammas = placed(mu)
    betas = tuple(b * (1.0 - abs(g)) for b, g in zip(
        draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n)), gammas))
    problem = make_problem(nodes=nodes, hidden=zs, alphas=alphas, betas=betas, gammas=gammas,
                           p_powers=p_powers, q_powers=q_powers)
    assume(not validate(problem))
    return solve_model(problem)


# a fine straight graph: dimension_report's box count needs one, and its value is not checked
LINE = SampledGraph(xs=np.linspace(0.0, 1.0, 257), f1s=np.linspace(0.0, 1.0, 257),
                    f2s=np.zeros(257))


class TestClassifyMatchesOracle:
    """``classify`` and ``dimension_report`` against the case table written out in ``classify_oracle``."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(placed_ratio_problems())
    def test_random_problems_at_the_window_edges(self, model):
        want = classify_oracle(model)
        report = classify(model)
        assert (report.theta_regime, report.omega_state, report.gamma_state) == (
            want.theta, want.omega, want.gamma)
        assert (report.modulus_order, report.delta, report.delta_tag, report.degeneracy is not None) == (
            want.order, want.delta, want.tag, want.degenerate)
        assert (report.tau1, report.tau2) == (want.tau1, want.tau2)

        rep = dict(dimension_report(model, report, LINE, range(1, 5)))
        critical = {"omega": want.omega == "EQ1", "gamma": want.gamma == "EQ1",
                    "theta": want.theta == "EQ1"}
        assert (rep["omega_critical"], rep["gamma_critical"], rep["theta_critical"]) == tuple(
            critical.values())
        first = next((name for name, crit in critical.items() if crit), "none")
        assert rep["critical_condition"] == ("none" if want.degenerate else first)
