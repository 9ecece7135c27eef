"""Tests for problem validation, coefficient solving and ratios."""

import numpy as np
import pytest

from chfif import (
    ValidationError,
    is_equidistant,
    is_self_affine_config,
    self_affine_discrepancies,
    solve_model,
    validate,
)
from chfif.config import resolve_config

from helpers import ALL_GALLERY, make_problem, model_for, power, zero_param_problem


class TestValidate:
    def test_extreme_but_legal_coupling(self):
        # |beta| + |gamma| = 0.995 stays strictly below 1
        assert not validate(resolve_config("fig2").problem)

    def test_zero_parameters_ok(self):
        assert not validate(zero_param_problem())

    def test_coupling_bound_violation_names_interval(self):
        problem = make_problem(betas=(0.6, 0.35, 0.5), gammas=(0.5, 0.3, 0.24))
        violations = validate(problem)
        assert violations
        assert any("beta_1" in str(v) and "1.1" in str(v) for v in violations)

    def test_alpha_bound_violation(self):
        violations = validate(make_problem(alphas=(1.0, 0.2, 0.2)))
        assert any("alpha_1" in str(v) for v in violations)

    def test_non_increasing_abscissas(self):
        problem = make_problem(nodes=((0.0, 2.0), (0.75, 7.0), (0.35, 4.0), (1.0, 9.0)))
        violations = validate(problem)
        assert any("strictly increasing" in str(v) for v in violations)

    def test_hidden_length_mismatch(self):
        problem = make_problem(hidden=(3.0, 1.0, 8.0))
        assert any("hidden" in v.where for v in validate(problem))

    def test_single_interval_rejected(self):
        problem = make_problem(
            nodes=((0.0, 2.0), (1.0, 9.0)), hidden=(2.0, 9.0),
            alphas=(0.2,), betas=(0.4,), gammas=(0.3,))
        assert validate(problem)

    def test_overflowing_abscissa_span(self):
        problem = make_problem(nodes=((-1e308, 2.0), (0.0, 7.0), (0.5, 4.0), (1e308, 9.0)))
        assert [v.where for v in validate(problem)] == ["nodes"]

    def test_power_exponent_range(self):
        problem = make_problem(p_powers=(power(0.5, 1.5), None, None))
        assert any("exponent" in str(v) for v in validate(problem))

    @pytest.mark.parametrize("nodes, where, field", [
        # finite data whose solved map coefficient c overflows
        (((0.0, 1e308), (0.35, -1e308), (0.75, 1e308), (1.0, 9.0)), ["params[1]", "params[2]"], "c = "),
        # an interval too short to keep a length on the unit domain
        (((0.0, 2.0), (1e-310, 7.0), (0.75, 4.0), (1e300, 9.0)), ["params[1]"], "omega_i = inf"),
    ])
    def test_overflowing_solved_model(self, nodes, where, field):
        problem = make_problem(nodes=nodes)
        violations = validate(problem)
        assert [v.where for v in violations] == where
        assert all(field in v.message for v in violations)
        with pytest.raises(ValidationError) as err:
            solve_model(problem)
        assert err.value.violations == violations


class TestSolveModel:
    def test_domain_map_coefficients(self):
        model = model_for("fig4")
        np.testing.assert_allclose(model.a, [0.35, 0.40, 0.25], rtol=0, atol=1e-15)
        np.testing.assert_allclose(model.b, [0.0, 0.35, 0.75], rtol=0, atol=1e-15)

    def test_domain_map_endpoint_conditions_exact(self):
        model = model_for("fig8")
        for i in range(1, model.n_intervals + 1):
            assert model.b[i - 1] == model.node_x[i - 1]
            assert model.a[i - 1] + model.b[i - 1] == pytest.approx(model.node_x[i], abs=1e-15)

    def test_contractive_homeomorphism(self):
        model = model_for("fig5")
        for i in range(1, model.n_intervals + 1):
            a = model.a[i - 1]
            assert 0.0 < a < 1.0
            x, xp, b = 0.12, 0.87, model.b[i - 1]
            assert abs((a * x + b) - (a * xp + b)) == pytest.approx(a * abs(x - xp))

    @pytest.mark.parametrize("name", ALL_GALLERY)
    def test_map_endpoint_conditions(self, name):
        model = model_for(name)
        for i in range(1, model.n_intervals + 1):
            j = i - 1
            lo1 = model.alpha[j] * model.y[0] + model.beta[j] * model.z[0] + model.p(i - 1, 0.0)
            lo2 = model.gamma[j] * model.z[0] + model.q(i - 1, 0.0)
            hi1 = model.alpha[j] * model.y[-1] + model.beta[j] * model.z[-1] + model.p(i - 1, 1.0)
            hi2 = model.gamma[j] * model.z[-1] + model.q(i - 1, 1.0)
            assert abs(lo1 - model.y[j]) <= 1e-12
            assert abs(lo2 - model.z[j]) <= 1e-12
            assert abs(hi1 - model.y[i]) <= 1e-12
            assert abs(hi2 - model.z[i]) <= 1e-12

    def test_zero_parameters_reduce_to_linear_interpolation(self):
        model = solve_model(zero_param_problem())
        for i in range(1, 4):
            assert model.p(i - 1, 0.0) == pytest.approx(model.y[i - 1], abs=1e-14)
            assert model.p(i - 1, 1.0) == pytest.approx(model.y[i], abs=1e-14)

    def test_power_template_endpoints(self):
        problem = make_problem(p_powers=(power(0.7, 0.5), None, None),
                               q_powers=(None, power(-0.3, 0.8), None))
        model = solve_model(problem)
        assert model.lam == 0.5
        assert model.mu == 0.8
        # endpoint conditions absorb the fixed power coefficient
        assert model.p(0, 1.0) + model.alpha[0] * model.y[-1] + model.beta[0] * model.z[-1] \
            == pytest.approx(model.y[1], abs=1e-12)

    def test_model_arrays_are_read_only(self):
        model = solve_model(make_problem(p_powers=(power(0.5, 0.5), None, None)))
        arrays = [value for obj in (model, model.p, model.q)
                  for value in vars(obj).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 19   # 11 model arrays and 4 per map function
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_invalid_problem_raises(self):
        with pytest.raises(ValidationError) as err:
            solve_model(make_problem(betas=(0.7, 0.35, 0.5), gammas=(0.5, 0.3, 0.24)))
        assert "beta_1" in str(err.value)

    def test_non_unit_domain_normalised(self):
        problem = make_problem(nodes=((2.0, 2.0), (3.4, 7.0), (5.0, 4.0), (6.0, 9.0)))
        model = solve_model(problem)
        assert model.x0 == 2.0 and model.span == 4.0
        np.testing.assert_allclose(model.node_x, [0.0, 0.35, 0.75, 1.0], atol=1e-15)
        np.testing.assert_allclose(model.to_raw(model.node_x), [2.0, 3.4, 5.0, 6.0], atol=1e-12)


class TestClassificationRatios:
    def test_mild_configuration_values(self):
        model = model_for("fig4")
        np.testing.assert_allclose(
            model.omega_i, [0.2 / 0.35, 0.95, 0.8], rtol=1e-12)
        assert model.omega == pytest.approx(0.95, abs=1e-15)
        assert model.omega < 1.0

    def test_critical_configuration_is_exactly_one(self):
        model = model_for("fig5")
        assert model.omega == 1.0
        assert model.gamma_ratio == 1.0
        assert model.theta == 1.0

    def test_zero_alphas(self):
        model = solve_model(make_problem(alphas=(0.0, 0.0, 0.0)))
        assert model.omega == 0.0 and model.theta == 0.0

    @pytest.mark.parametrize("name", ALL_GALLERY)
    def test_equal_exponents_make_omega_equal_theta(self, name):
        # all gallery templates are affine, so lam = mu and the lists agree
        model = model_for(name)
        assert model.lam == model.mu == 1.0
        np.testing.assert_array_equal(model.omega_i, model.theta_i)

    def test_recomputation_is_bit_identical(self):
        first = solve_model(resolve_config("fig7").problem)
        second = solve_model(resolve_config("fig7").problem)
        for name in ("omega_i", "gamma_i", "theta_i"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert (first.omega, first.gamma_ratio, first.theta) == (
            second.omega, second.gamma_ratio, second.theta)


class TestSelfAffine:
    def test_collapse_by_construction(self):
        problem = make_problem(
            hidden=(2.0, 7.0, 4.0, 9.0),
            alphas=(0.5, 0.5, 0.5), betas=(0.2, 0.2, 0.2), gammas=(0.7, 0.7, 0.7))
        assert is_self_affine_config(solve_model(problem))

    def test_distinct_hidden_data_is_not_self_affine(self):
        assert not is_self_affine_config(model_for("fig4"))

    def test_nominal_self_affine_entry_fails_on_third_interval(self):
        model = model_for("fig1")
        assert not is_self_affine_config(model)
        issues = self_affine_discrepancies(model)
        assert any("alpha_3 + beta_3" in msg and "gamma_3" in msg for msg in issues)

    def test_corrected_entry_collapses(self):
        assert is_self_affine_config(model_for("fig1_corrected"))


class TestEquidistant:
    def test_gallery_data_is_not_equidistant(self):
        assert not is_equidistant(model_for("fig4"))

    def test_uniform_nodes_are(self):
        problem = make_problem(
            nodes=((0.0, 1.0), (0.5, 3.0), (1.0, 2.0)), hidden=(1.0, 3.0, 2.0),
            alphas=(0.3, 0.3), betas=(0.0, 0.0), gammas=(0.3, 0.3))
        assert is_equidistant(solve_model(problem))


class TestValueBounds:
    @pytest.mark.parametrize("name", ["fig2", "fig4", "fig14"])
    def test_samples_within_certified_bounds(self, name):
        from chfif import sample_exact
        model = model_for(name)
        graph = sample_exact(model, 8)
        b1, b2 = model.value_bounds()
        assert np.max(np.abs(graph.f1s)) <= b1
        assert np.max(np.abs(graph.f2s)) <= b2
