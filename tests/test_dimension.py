"""Tests for dimension bounds, box counting and the regression estimate."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chfif import (
    InsufficientScalesError,
    SampledGraph,
    SamplingTooCoarseError,
    box_count,
    classify,
    dimension_one_predicate,
    dimension_report,
    estimate_dimension,
    is_equidistant,
    sample_exact,
    solve_model,
    theoretical_bounds,
)
from chfif import dimension
from chfif.config import BUNDLED_NAMES
from chfif.smoothness import SmoothnessReport

from helpers import equidistant_problem, model_for, zero_param_problem

SYNTHETIC_DIMENSION = 1.0 + np.log(1.4) / np.log(2.0)   # two maps, rates 0.7


def synthetic_self_affine(gamma=0.7, alpha=None):
    alpha = gamma if alpha is None else alpha
    problem = equidistant_problem(
        alphas=(alpha, alpha), betas=(0.0, 0.0), gammas=(gamma, gamma))
    return solve_model(problem)


def fake_report(theta, delta, tag):
    return SmoothnessReport(
        theta_regime=theta, omega_state="LT1", gamma_state="LT1",
        modulus_order="LIP_DELTA", delta=delta, delta_tag=tag,
        tau1=1.0, tau2=1.0, case_label="a", degeneracy=None)


def column(xs, epsilon):
    """Column j with j * eps <= x < (j + 1) * eps, against the float products as ``box_count`` bins."""
    j = np.floor(xs / epsilon)
    j -= j * epsilon > xs
    return j + ((j + 1) * epsilon <= xs)


def folded_and_direct(graph, epsilons, density_factor=dimension.DEFAULT_DENSITY_FACTOR):
    """Counts through ``graph`` in the order given, and on a fresh copy of it per scale.

    Each fresh copy holds no column table, so it splits its samples; the
    shared graph folds a scale's table from the one at half of it, when
    that scale was counted before.
    """
    folded = [box_count(graph, eps, density_factor) for eps in epsilons]
    direct = [box_count(dataclasses.replace(graph), eps, density_factor) for eps in epsilons]
    return folded, direct


@st.composite
def sparse_graphs(draw):
    """A sorted graph on 2**-e columns, its first column index in -9..9, gaps up to 4 columns."""
    e = draw(st.integers(-2, 6))
    eps = 2.0 ** -e
    x0 = (draw(st.integers(-9, 9)) + draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.99))) * eps
    gaps = draw(st.lists(st.sampled_from([0.5, 1.0, 4.0]) | st.floats(0.01, 4.0), min_size=1, max_size=60))
    xs = x0 + eps * np.cumsum([0.0, *gaps])
    ys = np.array(draw(st.lists(st.integers(-12, 12), min_size=xs.size, max_size=xs.size))) * eps / 4
    return SampledGraph(xs=xs, f1s=ys, f2s=xs), eps


@pytest.fixture
def box_count_calls(monkeypatch):
    """The epsilons ``estimate_dimension`` passes to ``box_count``, which it looks up on its module."""
    calls = []

    def spy(sampled, epsilon, density_factor):
        calls.append(epsilon)
        return box_count(sampled, epsilon, density_factor)

    monkeypatch.setattr(dimension, "box_count", spy)
    return calls


def brute_force_count(graph, epsilon, points_per_cell=8, chunk=1 << 15):
    """Distinct half-open cells hit by dense points on each polyline segment.

    Each segment gets ``points_per_cell`` points per cell side it spans, so
    the count can only miss cells that the polyline clips at a corner: it
    never exceeds the exact count and approaches it as the sampling grows.
    """
    xs, ys = graph.xs, graph.f1s
    cells = [column(xs[-1:], epsilon) + 1j * np.floor(ys[-1:] / epsilon)]
    for start in range(0, xs.size - 1, chunk):
        x0, y0 = xs[start:start + chunk + 1], ys[start:start + chunk + 1]
        dx, dy = np.diff(x0), np.diff(y0)
        n = np.ceil(points_per_cell * np.maximum(np.abs(dx), np.abs(dy)) / epsilon)
        n = n.astype(np.int64) + 1
        seg = np.repeat(np.arange(dx.size), n)
        t = (np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)) / n[seg]
        px, py = x0[seg] + t * dx[seg], y0[seg] + t * dy[seg]
        cells.append(np.unique(column(px, epsilon) + 1j * np.floor(py / epsilon)))
    return np.unique(np.concatenate(cells)).size


class TestTheoreticalBounds:
    def test_unit_sum_collapses_to_point_interval(self):
        # equidistant two-map family with |alpha| summing to 1 and delta 1
        model = synthetic_self_affine(gamma=0.3, alpha=0.5)
        report = classify(model)
        assert report.delta == 1.0
        bounds = theoretical_bounds(model, report)
        assert bounds is not None
        assert bounds.critical_condition == "omega"
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(1.0, abs=1e-12)
        assert is_equidistant(model)

    def test_non_critical_has_no_bounds(self):
        model = model_for("fig4")
        assert theoretical_bounds(model, classify(model)) is None

    def test_critical_ratio_bounds_with_clamping(self):
        model = model_for("fig5")
        bounds = theoretical_bounds(model, classify(model))
        assert bounds.critical_condition == "omega"     # takes priority over gamma
        assert bounds.lower_unclamped == pytest.approx(
            1.0 - np.log(0.82) / np.log(0.40), rel=1e-12)
        assert bounds.lower_unclamped < 1.0
        assert bounds.lower == 1.0
        assert bounds.upper == pytest.approx(-np.log(3.0) / np.log(0.40), rel=1e-12)
        assert bounds.lower <= bounds.upper

    def test_gamma_only_critical_uses_gamma_sums(self):
        model = model_for("fig10")
        bounds = theoretical_bounds(model, classify(model))
        assert bounds.critical_condition == "gamma"
        assert bounds.lower_unclamped == pytest.approx(
            1.0 - np.log(0.85) / np.log(0.40), rel=1e-12)

    def test_high_theta_critical_gamma(self):
        model = model_for("fig12")
        report = classify(model)
        bounds = theoretical_bounds(model, report)
        assert report.delta == pytest.approx(0.5, rel=1e-12)
        assert bounds.upper == pytest.approx(0.5 - np.log(3.0) / np.log(0.40), rel=1e-12)

    @pytest.mark.parametrize("name", ["fig5", "fig9", "fig10", "fig11", "fig12"])
    def test_bounds_ordering_after_clamping(self, name):
        model = model_for(name)
        bounds = theoretical_bounds(model, classify(model))
        assert bounds is not None
        assert 1.0 <= bounds.lower <= bounds.upper <= 2.0


class TestBoxCount:
    def test_horizontal_segment(self):
        xs = np.linspace(0.0, 1.0, 2001)
        graph = SampledGraph(xs=xs, f1s=np.full_like(xs, 0.37), f2s=xs)
        count = box_count(graph, 1.0 / 16)
        assert count in (16, 17)

    def test_diagonal_segment(self):
        xs = np.linspace(0.0, 1.0, 2001)
        graph = SampledGraph(xs=xs, f1s=xs.copy(), f2s=xs)
        count = box_count(graph, 1.0 / 16)
        assert 16 <= count <= 32

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
    def test_rejects_epsilon_not_positive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            box_count(sample_exact(model_for("fig4"), 6), epsilon)

    @pytest.mark.parametrize("density_factor", [0.0, -1.0, float("nan")])
    def test_rejects_density_factor_not_positive(self, density_factor):
        graph = sample_exact(model_for("fig4"), 6)
        with pytest.raises(ValueError, match="density_factor must be positive"):
            box_count(graph, 2.0 ** -4, density_factor)
        with pytest.raises(ValueError, match="density_factor must be positive"):
            estimate_dimension(graph, range(1, 5), density_factor)

    def test_counted_graph_is_read_only(self):
        # the graph holds its widest gap and column tables from the first
        # count, so a write into its arrays would leave the next count stale
        graph = sample_exact(model_for("fig4"), 6)
        box_count(graph, 2.0 ** -6)
        for values in (graph.xs, graph.f1s, graph.f2s):
            with pytest.raises(ValueError, match="read-only"):
                values[:] = 0.0

    def test_refinement_monotonicity(self):
        graph = sample_exact(model_for("fig5"), 12)
        counts = [box_count(graph, 2.0 ** (-j)) for j in range(4, 13)]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_refuses_coarse_sampling(self):
        graph = sample_exact(model_for("fig5"), 6)
        with pytest.raises(SamplingTooCoarseError):
            box_count(graph, 2.0 ** (-12))

    def test_density_factor_override(self):
        graph = sample_exact(model_for("fig5"), 6)   # spacing 0.4**7 = 1.6e-3
        assert box_count(graph, 2.0 ** (-8), density_factor=2.0) > 0

    def test_component_selection(self):
        model = synthetic_self_affine()
        graph = sample_exact(model, 10)
        c1 = box_count(graph, 2.0 ** (-6))
        c2 = box_count(dataclasses.replace(graph, f1s=graph.f2s), 2.0 ** (-6))
        assert c1 == c2   # the two components coincide for this model

    @pytest.mark.parametrize("ys, expected", [
        # rising into the sample (1, 1.0): the left column reaches rows -1
        # and 0, never row 1; charging the limit to row 1 would give 5
        ((-0.5, -0.5, 1.0, 0.5), 4),
        # falling into the sample (1, 1.0): the left column reaches rows 2
        # and 1; dropping the limit would give 2
        ((2.5, 2.5, 1.0, 1.5), 3),
    ])
    def test_right_edge_limit_on_row_boundary(self, ys, expected):
        xs = np.array([0.0, 0.5, 1.0, 1.5])
        graph = SampledGraph(xs=xs, f1s=np.array(ys), f2s=xs)
        assert box_count(graph, 1.0, density_factor=2.0) == expected
        assert brute_force_count(graph, 1.0, points_per_cell=64) == expected

    def test_column_boundary_rounded_below_its_multiple(self):
        # 3 * 0.7 rounds to 2.0999999999999996, whose x/eps floors to 2; the
        # right column must still start at that crossing (y = 1.0, row 1)
        xs = np.array([1.5, 1.9, 2.3, 2.7])
        graph = SampledGraph(xs=xs, f1s=np.array([0.0, 0.0, 2.0, 2.0]), f2s=xs)
        assert box_count(graph, 0.7, density_factor=1.5) == 4
        assert brute_force_count(graph, 0.7, points_per_cell=64) == 4

    def test_first_sample_rounded_onto_the_first_crossing(self):
        # xs[0] = 3 * 0.7 rounds to 2.0999999999999996, which floors to column 2
        # but is the product boundary of column 3: column 2 holds no sample
        # and is not counted, and crossing 0 closes nothing.  Column 3 has
        # rows 0..2 (the last a limit of the rise to 2.0), column 4 rows 0..2.
        xs = np.array([3 * 0.7, 2.5, 2.9, 3.3])
        graph = SampledGraph(xs=xs, f1s=np.array([0.0, 1.0, 2.0, 0.5]), f2s=xs)
        assert box_count(graph, 0.7, density_factor=1.5) == 6
        # the oracle bins against the same products, so it too puts xs[0] in column 3
        assert brute_force_count(graph, 0.7, points_per_cell=64) == 6

    def test_column_without_samples(self):
        # y = x from 0 to 2.5 with one-cell boxes: column 1 holds only its
        # crossing, so its rows come from the crossings at x = 1 and x = 2
        xs = np.array([0.0, 2.5])
        graph = SampledGraph(xs=xs, f1s=xs.copy(), f2s=xs)
        assert box_count(graph, 1.0, density_factor=0.25) == 3
        assert brute_force_count(graph, 1.0, points_per_cell=64) == 3

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_folded_counts_equal_direct_counts(self, name, box_count_calls):
        # estimate_dimension counts finest first, each scale folding the one below
        graph = sample_exact(model_for(name), 10)
        counts = estimate_dimension(graph, range(4, 13)).counts
        assert box_count_calls == [2.0 ** -j for j in range(12, 3, -1)]
        assert counts == tuple(box_count(dataclasses.replace(graph), 2.0 ** -j) for j in range(4, 13))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sparse_graphs())
    def test_folded_counts_equal_direct_counts_on_sparse_graphs(self, case):
        # negative and odd first columns, and columns holding no sample
        graph, eps = case
        folded, direct = folded_and_direct(graph, [eps * 2.0 ** k for k in range(4)], 0.25)
        assert folded == direct

    @pytest.mark.parametrize("xs, ys, coarse_count", [
        ((1.5, 1.9, 2.3, 2.7), (0.0, 0.0, 2.0, 2.0), 4),
        ((3 * 0.7, 2.5, 2.9, 3.3), (0.0, 1.0, 2.0, 0.5), 6),
    ])
    def test_fold_of_a_non_dyadic_scale(self, xs, ys, coarse_count):
        # 0.35 is exactly 0.7 / 2, so 0.7 folds the table at 0.35, across the
        # rounded crossings of the two tests above
        xs = np.array(xs)
        graph = SampledGraph(xs=xs, f1s=np.array(ys), f2s=xs)
        folded, direct = folded_and_direct(graph, [0.35, 0.7], density_factor=0.5)
        assert folded == direct
        assert folded[1] == coarse_count

    def test_no_fold_when_halving_is_inexact(self):
        # 3 * 2**-1074 / 2 rounds to 2**-1073, whose table is held and whose end
        # columns halve to the same ones, but whose boundaries are not these
        tiny = 2.0 ** -1074
        xs = np.arange(9) * tiny
        graph = SampledGraph(xs=xs, f1s=np.array([0, 3, 1, 4, 1, 5, 9, 2, 6]) * tiny, f2s=xs)
        folded, direct = folded_and_direct(graph, [2 * tiny, 3 * tiny], density_factor=0.25)
        assert folded == direct

    def test_no_fold_when_the_end_columns_differ(self):
        # -2**-1074 / 3 rounds to -0.0, in column 0 at eps = 3, but -2**-1074 / 1.5
        # to -2**-1074, in column -1 at eps = 1.5: the fold would count 5
        xs = np.concatenate(([-2.0 ** -1074], np.linspace(0.1, 3.5, 35)))
        graph = SampledGraph(xs=xs, f1s=2.0 * np.sin(3.0 * xs), f2s=xs)
        folded, direct = folded_and_direct(graph, [1.5, 3.0])
        assert folded == direct == [12, 4]

    @pytest.mark.parametrize("model, depth, exponents, density_factor", [
        (synthetic_self_affine(), 12, range(4, 13), 2.0),
        (model_for("fig4"), 10, range(4, 11), 4.0),
    ], ids=["criterion-9-family", "fig4"])
    def test_matches_brute_force_oracle(self, model, depth, exponents, density_factor):
        graph = sample_exact(model, depth)
        for j in exponents:
            eps = 2.0 ** (-j)
            count = box_count(graph, eps, density_factor)
            brute = brute_force_count(graph, eps)
            # dense sampling misses only corner clips: well under 0.2 %
            assert brute <= count <= brute + 2 + 0.002 * count, (j, brute, count)


class TestEstimateDimension:
    def test_requires_enough_scales(self):
        graph = sample_exact(model_for("fig4"), 8)
        with pytest.raises(InsufficientScalesError):
            estimate_dimension(graph, [4, 5, 6])

    @pytest.mark.parametrize("exponents, coarsest", [
        (range(-6, -2), "2^6 = 64"), (range(-1023, -1019), "2^1023 = 8.98847e+307"), (range(0, 4), "2^0 = 1"),
    ])
    def test_refuses_scales_not_narrower_than_the_graph(self, exponents, coarsest):
        # a cell as wide as the graph holds whole columns of it: counts 1,1,1,2
        # gave an estimate of 0.3, and constant counts an estimate of 0 with r^2 = 1
        graph = sample_exact(model_for("fig4"), 6)
        message = f"box scale {coarsest} is not narrower than the graph's width 1"
        with pytest.raises(InsufficientScalesError, match=re.escape(message)):
            estimate_dimension(graph, exponents)

    def test_coarsest_failing_scale_is_reported(self, box_count_calls):
        # spacing 0.4**7 fails the gate from 2**-8 down; counting runs finest
        # first, but box_count refuses the coarsest failing scale before any
        message = "sample spacing 0.00164 exceeds epsilon/4 = 0.000977; refine the sampling"
        with pytest.raises(SamplingTooCoarseError, match=re.escape(message)):
            estimate_dimension(sample_exact(model_for("fig5"), 6), range(4, 13))
        assert box_count_calls == [2.0 ** -8]

    def test_scale_bound_is_the_raw_width(self):
        graph = sample_exact(model_for("fig4"), 6)
        wide = SampledGraph(xs=10.0 * graph.xs, f1s=graph.f1s, f2s=graph.f2s)
        assert estimate_dimension(wide, range(-3, 1)).exponents == (-3, -2, -1, 0)   # 2^3 = 8 < 10
        message = "box scale 2^4 = 16 is not narrower than the graph's width 10"
        with pytest.raises(InsufficientScalesError, match=re.escape(message)):
            estimate_dimension(wide, range(-4, 0))
        assert estimate_dimension(graph, range(1, 5)).exponents == (1, 2, 3, 4)

    def test_polyline_is_one_dimensional(self):
        model = solve_model(zero_param_problem())
        result = estimate_dimension(sample_exact(model, 10), range(4, 11))
        assert 0.95 <= result.estimate <= 1.10

    def test_flat_data(self):
        problem = equidistant_problem(
            alphas=(0.0, 0.0), betas=(0.0, 0.0), gammas=(0.0, 0.0),
            ys=(2.0, 2.0, 2.0))
        result = estimate_dimension(sample_exact(solve_model(problem), 14), range(4, 13))
        assert 0.95 <= result.estimate <= 1.05

    def test_known_self_affine_dimension(self):
        # two equidistant maps with vertical rate 0.7: dimension
        # 1 + log(1.4)/log(2); depth chosen to satisfy the density rule
        # with a factor-8 margin at the finest scale
        model = synthetic_self_affine()
        graph = sample_exact(model, 14)
        result = estimate_dimension(graph, range(4, 13))
        assert abs(result.estimate - SYNTHETIC_DIMENSION) <= 0.1

    def test_hidden_component_route_matches(self):
        # the hidden component is autonomous, so its dimension is set by
        # gamma alone no matter what the visible parameters do
        problem = equidistant_problem(
            alphas=(0.2, 0.2), betas=(0.0, 0.0), gammas=(0.7, 0.7))
        graph = sample_exact(solve_model(problem), 14)
        result = estimate_dimension(dataclasses.replace(graph, f1s=graph.f2s), range(4, 13))
        assert abs(result.estimate - SYNTHETIC_DIMENSION) <= 0.1

    def test_diagnostics(self):
        result = estimate_dimension(sample_exact(model_for("fig9"), 10), range(4, 11))
        assert result.r_squared > 0.99
        assert len(result.counts) == 7
        assert result.exponents == tuple(range(4, 11))


class TestDimensionOnePredicate:
    def test_positive_case(self):
        model = synthetic_self_affine(gamma=0.3, alpha=0.3)
        report = classify(model)
        assert report.delta == 1.0 and report.delta_tag == "delta1"
        result = dimension_one_predicate(model, report)
        assert result.holds

    def test_non_equidistant_gate(self):
        model = model_for("fig4")
        result = dimension_one_predicate(model, classify(model))
        assert not result.holds
        assert "equidistant" in result.note

    def test_large_alpha_sum_blocks_the_gamma_branch_case(self):
        model = synthetic_self_affine(gamma=0.3, alpha=0.7)   # sum 1.4
        result = dimension_one_predicate(model, fake_report("LT1", 1.0, "delta4"))
        assert not result.holds

    def test_gamma_sum_can_carry_first_case(self):
        model = synthetic_self_affine(gamma=0.3, alpha=0.7)   # alpha sum 1.4, gamma sum 0.6
        result = dimension_one_predicate(model, fake_report("LT1", 1.0, "delta1"))
        assert result.holds

    def test_delta_below_one_fails(self):
        model = synthetic_self_affine(gamma=0.3, alpha=0.3)
        result = dimension_one_predicate(model, fake_report("LT1", 0.9, "delta1"))
        assert not result.holds


class TestDimensionReport:
    def test_full_assembly(self):
        model = model_for("fig9")
        smooth = classify(model)
        report = dict(dimension_report(model, smooth, sample_exact(model, 10), range(4, 11)))
        assert report["critical_condition"] == "omega"
        assert report["omega_critical"] and report["theta_critical"]
        assert not report["gamma_critical"]
        assert "lower_bound" in report and "upper_bound" in report
        assert (report["bounds_delta"], report["bounds_delta_tag"]) == (smooth.delta, smooth.delta_tag)
        assert not report["dimension_one_flag"]
        assert 1.0 <= report["empirical_estimate"] <= 1.4

    def test_non_critical_report(self):
        model = model_for("fig4")
        report = dict(dimension_report(
            model, classify(model), sample_exact(model, 10), range(4, 11)))
        assert report["critical_condition"] == "none"
        assert "lower_bound" not in report and "upper_bound" not in report
