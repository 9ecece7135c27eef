"""Tests for the moment recursion, the table, and the averaging operator."""

import itertools

import numpy as np
import pytest

from chfif import (
    build_moment_table,
    convergence_profile,
    interval_of,
    moment_a,
    moment_b,
    q_m_operator,
    q_m_values,
    sample_exact,
    solve_model,
    whole_interval_integrals,
)

from helpers import make_problem, model_for, sampled_for, zero_param_problem


def trapezoid_over(graph, start, length, component="f1"):
    xs = graph.xs
    ys = graph.f1s if component == "f1" else graph.f2s
    lo = np.searchsorted(xs, start - 1e-13)
    hi = np.searchsorted(xs, start + length + 1e-13)
    return float(np.trapezoid(ys[lo:hi], xs[lo:hi]))


class TestWholeIntervalIntegrals:
    def test_zero_parameters_give_polyline_areas(self):
        model = solve_model(zero_param_problem())
        a_val, b_val = whole_interval_integrals(model)
        # trapezoid areas of the two node polylines
        assert b_val == pytest.approx(0.35 * 4.5 + 0.4 * 5.5 + 0.25 * 6.5, abs=1e-14)
        assert a_val == pytest.approx(0.35 * 2.0 + 0.4 * 4.5 + 0.25 * 6.5, abs=1e-14)

    def test_against_quadrature(self):
        # quadrature of depth-10 exact samples carries its own trapezoid
        # error, measured at 2.3e-6 for this configuration
        model = model_for("fig4")
        _, b_val = whole_interval_integrals(model)
        graph = sample_exact(model, 10)
        assert b_val == pytest.approx(trapezoid_over(graph, 0.0, 1.0), abs=5e-6)

    def test_self_affine_components_integrate_equally(self):
        a_val, b_val = whole_interval_integrals(model_for("fig1_corrected"))
        assert a_val == pytest.approx(b_val, abs=1e-12)


class TestMomentRecursion:
    def test_empty_word_is_base_case(self):
        model = model_for("fig5")
        a_val, b_val = whole_interval_integrals(model)
        assert moment_a(model, ()) == a_val
        assert moment_b(model, ()) == b_val

    def test_single_symbol_with_decoupled_hidden(self):
        # gamma = 0 collapses the recursion to one template integral
        model = solve_model(make_problem(gammas=(0.0, 0.0, 0.0)))
        for i in range(1, 4):
            expected = model.a[i - 1] * model.q.integral(i - 1, 0.0, 1.0)
            assert moment_a(model, (i,)) == pytest.approx(expected, rel=1e-14)

    def test_single_symbol_with_decoupled_visible(self):
        model = solve_model(make_problem(alphas=(0.0, 0.0, 0.0), betas=(0.0, 0.0, 0.0)))
        for i in range(1, 4):
            expected = model.a[i - 1] * model.p.integral(i - 1, 0.0, 1.0)
            assert moment_b(model, (i,)) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_quadrature_oracle_to_depth_three(self, name):
        model = model_for(name)
        graph = sample_exact(model, 12)
        for wl in range(0, 4):
            for word in itertools.product((1, 2, 3), repeat=wl):
                start, length = interval_of(model, word)
                assert moment_b(model, word) == pytest.approx(
                    trapezoid_over(graph, start, length, "f1"), abs=1e-6)
                assert moment_a(model, word) == pytest.approx(
                    trapezoid_over(graph, start, length, "f2"), abs=1e-6)

    @pytest.mark.parametrize("name", ["fig1", "fig6", "fig16"])
    def test_innermost_symbol_additivity(self, name):
        model = model_for(name)
        for wl in range(0, 3):
            for word in itertools.product((1, 2, 3), repeat=wl):
                total_b = sum(moment_b(model, (r,) + word) for r in (1, 2, 3))
                total_a = sum(moment_a(model, (r,) + word) for r in (1, 2, 3))
                ref_b = moment_b(model, word)
                ref_a = moment_a(model, word)
                assert abs(total_b - ref_b) <= 1e-12 * max(1.0, abs(ref_b))
                assert abs(total_a - ref_a) <= 1e-12 * max(1.0, abs(ref_a))

    @pytest.mark.parametrize("name", ["fig4", "fig8"])
    def test_mean_value_property(self, name):
        model = model_for(name)
        graph = sample_exact(model, 12)
        for word in itertools.product((1, 2, 3), repeat=3):
            start, length = interval_of(model, word)
            lo = np.searchsorted(graph.xs, start - 1e-13)
            hi = np.searchsorted(graph.xs, start + length + 1e-13)
            mean = moment_b(model, word) / length
            segment = graph.f1s[lo:hi]
            assert segment.min() - 1e-9 <= mean <= segment.max() + 1e-9


class TestMomentTable:
    def test_lookup_matches_direct_walk(self):
        model = model_for("fig7")
        table = build_moment_table(model, 4)
        rng = np.random.default_rng(0)
        for _ in range(25):
            word = tuple(rng.integers(1, 4, size=rng.integers(0, 5)))
            b_val, a_val = table.lookup(word)
            assert b_val == pytest.approx(moment_b(model, word), rel=1e-13, abs=1e-15)
            assert a_val == pytest.approx(moment_a(model, word), rel=1e-13, abs=1e-15)

    def test_intervals_match_address_geometry(self):
        model = model_for("fig4")
        table = build_moment_table(model, 3)
        level = table.levels[2]
        for word in itertools.product((1, 2, 3), repeat=3):
            start, length = interval_of(model, word)
            i = table.word_index(word)
            assert level.starts[i] == pytest.approx(start, abs=1e-15)
            assert level.lengths[i] == pytest.approx(length, abs=1e-15)

    def test_levels_are_spatially_sorted(self):
        table = build_moment_table(model_for("fig11"), 5)
        for level in table.levels:
            assert np.all(np.diff(level.starts) > 0)

    def test_depth_guard(self):
        table = build_moment_table(model_for("fig4"), 2)
        with pytest.raises(KeyError):
            table.lookup((1, 2, 3))

    @pytest.mark.parametrize("word", [(0,), (-1,), (4,), (0, 2), (2, 4)])
    def test_out_of_range_symbols_rejected(self, word):
        model = model_for("fig4")
        table = build_moment_table(model, 2)
        for query in (moment_a, moment_b, lambda _, w: table.lookup(w)):
            with pytest.raises(ValueError):
                query(model, word)


class TestAveragingOperator:
    def test_interior_point_with_decoupled_visible(self):
        model = solve_model(make_problem(alphas=(0.0, 0.0, 0.0), betas=(0.0, 0.0, 0.0)))
        for i in range(1, 4):
            mid = model.b[i - 1] + model.a[i - 1] / 2
            expected = model.p.integral(i - 1, 0.0, 1.0)   # mean of f1 over the interval
            assert q_m_operator(model, 1, float(mid)) == pytest.approx(expected, rel=1e-13)

    def test_constant_data_is_reproduced_at_every_level(self):
        problem = make_problem(
            nodes=((0.0, 5.0), (0.35, 5.0), (0.75, 5.0), (1.0, 5.0)),
            hidden=(5.0, 5.0, 5.0, 5.0),
            alphas=(0.0, 0.0, 0.0), betas=(0.0, 0.0, 0.0), gammas=(0.0, 0.0, 0.0))
        model = solve_model(problem)
        for m in (1, 3, 5):
            for x in (0.0, 0.2, 0.35, 0.9, 1.0):
                assert q_m_operator(model, m, x) == pytest.approx(5.0, abs=1e-12)

    def test_boundary_tie_breaking_is_left_closed(self):
        model = solve_model(zero_param_problem())
        # x on a shared cell edge belongs to the cell that starts there;
        # x = 1 belongs to the final (closed) cell
        assert q_m_operator(model, 1, 0.35) == pytest.approx(5.5, abs=1e-12)
        assert q_m_operator(model, 1, 1.0) == pytest.approx(6.5, abs=1e-12)
        assert q_m_operator(model, 1, 0.35 - 1e-12) == pytest.approx(4.5, abs=1e-9)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            q_m_operator(model_for("fig4"), 2, 1.5)

    def test_sup_error_decreases_with_level(self):
        model = model_for("fig4")
        graph = sampled_for("fig4", 10)
        xs = graph.xs
        sups = []
        table = build_moment_table(model, 8)
        for m in range(2, 9):
            qm = q_m_values(model, m, xs, table)
            sups.append(np.max(np.abs(qm - graph.f1s)))
        assert all(b < a for a, b in zip(sups, sups[1:]))


class TestConvergenceProfile:
    def test_polyline_bound(self):
        # means of a linear piece deviate by at most half the rise per cell
        model = solve_model(zero_param_problem())
        max_slope = 20.0   # steepest node-to-node slope of the data
        for m, err in convergence_profile(model, 6, 8):
            assert err <= max_slope / 2 * model.length_max**m + 1e-12

    @pytest.mark.parametrize("name", ["fig2", "fig5", "fig14"])
    def test_profile_eventually_decreases(self, name):
        profile = convergence_profile(model_for(name), 8, 8)
        assert profile[-1][1] < profile[0][1]

    def test_strong_decay_for_moderate_scaling(self):
        # measured decay for this configuration: sup errors shrink to
        # about 1/8 between levels 2 and 8
        profile = dict(convergence_profile(model_for("fig6"), 8, 8))
        assert profile[8] < 0.15 * profile[2]

    def test_probe_depth_must_cover_levels(self):
        with pytest.raises(ValueError):
            convergence_profile(model_for("fig4"), 6, 4)


class TestAddressOf:
    def test_consistent_with_cell_assignment(self):
        from chfif import address_of
        model = model_for("fig8")
        table = build_moment_table(model, 4)
        rng = np.random.default_rng(2)
        for x in rng.uniform(0.0, 1.0, 40):
            word = address_of(model, float(x), 4)
            start, length = interval_of(model, word)
            assert start <= x <= start + length + 1e-15
            b_val, _ = table.lookup(word)
            assert q_m_values(model, 4, np.array([x]), table)[0] == pytest.approx(
                b_val / length, rel=1e-12)
