"""Tests for the three evaluation routes and their cross-checks."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chfif import (
    DepthLimitError,
    apply_operator,
    chaos_game,
    exact_residuals,
    fixed_point_iterate,
    functional_residuals,
    interval_of,
    max_oscillation,
    sample_exact,
    solve_model,
    validate,
)
from chfif.attractor import _SweepPlan
from chfif.cli import resolve_config

from helpers import (
    NODES_X,
    NODES_Y,
    bit_identical,
    equidistant_problem,
    interp_sweep,
    make_problem,
    model_for,
    power,
    preimages,
    sampled_for,
    zero_param_problem,
)

POWER_CONFIG = Path(__file__).resolve().parent / "data" / "power.yaml"


def node_indices(model, xs):
    idx = np.searchsorted(xs, model.node_x)
    assert np.allclose(xs[idx], model.node_x, atol=1e-12)
    return idx


class TestIntervalOf:
    def test_empty_word_is_whole_domain(self):
        assert interval_of(model_for("fig4"), ()) == (0.0, 1.0)

    def test_single_symbol(self):
        start, length = interval_of(model_for("fig4"), (1,))
        assert start == 0.0
        assert length == pytest.approx(0.35, abs=1e-15)

    def test_two_symbols_compose_outermost_last(self):
        # word (2, 1): the image of interval 2 under the first map
        start, length = interval_of(model_for("fig4"), (2, 1))
        assert start == pytest.approx(0.1225, abs=1e-15)
        assert length == pytest.approx(0.35 * 0.40, abs=1e-15)

    def test_length_is_product_of_selected_lengths(self):
        model = model_for("fig6")
        rng = np.random.default_rng(3)
        for _ in range(20):
            word = tuple(rng.integers(1, 4, size=rng.integers(1, 7)))
            _, length = interval_of(model, word)
            expected = np.prod([model.a[r - 1] for r in word])
            assert length == pytest.approx(expected, rel=1e-12)

    def test_recursion_step(self):
        model = model_for("fig5")
        word = (3, 1, 2)
        start, length = interval_of(model, word)
        inner_start, inner_length = interval_of(model, word[:-1])
        r = word[-1]
        assert start == pytest.approx(model.L(r - 1, inner_start), rel=1e-14)
        assert length == pytest.approx(model.a[r - 1] * inner_length, rel=1e-14)

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            interval_of(model_for("fig4"), (4,))


class TestSampleExact:
    def test_depth_zero_returns_seed_nodes(self):
        graph = sample_exact(model_for("fig4"), 0)
        np.testing.assert_array_equal(graph.xs, NODES_X)
        np.testing.assert_array_equal(graph.f1s, NODES_Y)
        np.testing.assert_array_equal(graph.f2s, [3.0, 1.0, 8.0, 5.0])

    def test_grid_size_and_monotonicity(self):
        graph = sampled_for("fig4", 6)
        assert len(graph) == 3 ** 7 + 1
        assert np.all(np.diff(graph.xs) > 0)

    @pytest.mark.parametrize("name", ["fig2", "fig5", "fig13"])
    def test_interpolation_property(self, name):
        model = model_for(name)
        graph = sampled_for(name, 8)
        idx = node_indices(model, graph.xs)
        np.testing.assert_allclose(graph.f1s[idx], model.y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(graph.f2s[idx], model.z, rtol=0, atol=1e-12)

    def test_zero_parameters_give_linear_interpolant(self):
        model = solve_model(zero_param_problem())
        graph = sample_exact(model, 6)
        expected = np.interp(graph.xs, NODES_X, NODES_Y)
        np.testing.assert_allclose(graph.f1s, expected, atol=1e-12)

    def test_self_affine_collapse(self):
        graph = sample_exact(model_for("fig1_corrected"), 10)
        assert np.max(np.abs(graph.f1s - graph.f2s)) <= 1e-12

    def test_depth_limit(self):
        with pytest.raises(DepthLimitError):
            sample_exact(model_for("fig4"), 10, max_points=1000)

    def test_raw_domain_round_trip(self):
        from helpers import make_problem
        problem = make_problem(nodes=((2.0, 2.0), (3.4, 7.0), (5.0, 4.0), (6.0, 9.0)))
        model = solve_model(problem)
        graph = sample_exact(model, 6)
        assert graph.xs[0] == 2.0 and graph.xs[-1] == 6.0
        idx = np.searchsorted(graph.xs, [2.0, 3.4, 5.0, 6.0])
        np.testing.assert_allclose(graph.xs[idx], [2.0, 3.4, 5.0, 6.0], atol=1e-12)
        np.testing.assert_allclose(graph.f1s[idx], [2.0, 7.0, 4.0, 9.0], atol=1e-12)

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig11"])
    def test_functional_equation_residuals(self, name):
        r1, r2 = exact_residuals(model_for(name), 8)
        assert r1 <= 1e-10
        assert r2 <= 1e-10

    @pytest.mark.parametrize("name", ["fig4", "fig10"])
    def test_interpolated_residual_route_agrees_on_mild_data(self, name):
        graph = sampled_for(name, 8)
        r1, r2 = functional_residuals(model_for(name), graph)
        assert r1 <= 1e-10
        assert r2 <= 1e-10


class TestFixedPointIterate:
    def test_zero_parameters_converge_immediately(self):
        model = solve_model(zero_param_problem())
        result = fixed_point_iterate(model, 201, max_iters=10, tol=1e-12)
        assert result.converged
        assert result.iterations == 1

    def test_agrees_with_exact_sampling_at_nodes(self):
        model = model_for("fig4")
        result = fixed_point_iterate(model, 6561, max_iters=500, tol=1e-10)
        assert result.converged
        idx = node_indices(model, result.graph.xs)
        np.testing.assert_allclose(result.graph.f1s[idx], model.y, atol=1e-9)
        np.testing.assert_allclose(result.graph.f2s[idx], model.z, atol=1e-9)

    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig8", "fig9"])
    def test_grid_vs_address_agreement(self, name):
        # linear-interpolated iterate tracks exact samples within a small
        # multiple of the grid's resolvable oscillation
        model = model_for(name)
        result = fixed_point_iterate(model, 4097, max_iters=2000, tol=1e-10)
        assert result.converged
        exact = sampled_for(name, 8)
        xs_unit = exact.xs
        approx = np.interp(xs_unit, result.graph.xs, result.graph.f1s)
        spacing = 1.0 / 4096
        interp_bound = max_oscillation(exact.xs, exact.f1s, spacing)
        assert np.max(np.abs(approx - exact.f1s)) <= 5 * interp_bound

    def test_residual_bounded_by_tolerance(self):
        model = model_for("fig9")
        result = fixed_point_iterate(model, 2049, max_iters=2000, tol=1e-10)
        r1, r2 = functional_residuals(model, result.graph)
        assert max(r1, r2) <= 10 * 1e-10

    @pytest.mark.parametrize("name", ["fig1", "fig4", "fig7"])
    def test_hidden_component_contracts_at_gamma_rate(self, name):
        model = model_for(name)
        result = fixed_point_iterate(model, 513, max_iters=400, tol=1e-12)
        d2 = result.f2_distances
        floor = 1e-13
        for k in range(3, len(d2)):
            if d2[k - 1] <= floor or d2[k] <= floor:
                break
            assert d2[k] / d2[k - 1] <= model.gamma_max + 0.05

    def test_non_convergence_reported_not_raised(self):
        result = fixed_point_iterate(model_for("fig2"), 513, max_iters=5, tol=1e-14)
        assert not result.converged
        assert len(result.distances) == 5

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            fixed_point_iterate(model_for("fig4"), 3)


def _reference_iterate(model, grid_size, sweeps):
    """Run ``sweeps`` oracle sweeps from the nodes' piecewise-linear interpolant."""
    xs = np.linspace(0.0, 1.0, grid_size)
    f1 = np.interp(xs, model.node_x, model.y)
    f2 = np.interp(xs, model.node_x, model.z)
    d1s, d2s = [], []
    for _ in range(sweeps):
        new_f1, new_f2 = interp_sweep(model, xs, f1, f2)
        d1s.append(float(np.max(np.abs(new_f1 - f1))))
        d2s.append(float(np.max(np.abs(new_f2 - f2))))
        f1, f2 = new_f1, new_f2
    return f1, f2, tuple(d1s), tuple(d2s)


@st.composite
def sweep_cases(draw):
    """A random admissible problem, a uniform grid and two grid functions."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        # equidistant nodes on a grid with a multiple of n steps: many
        # preimages land exactly on grid points
        grid_size = n * draw(st.integers(1, 300)) + 1
        xs = np.linspace(0.0, 1.0, n + 1)
    else:
        grid_size = draw(st.integers(n + 1, 3000))
        gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        x0 = draw(st.floats(-5.0, 5.0))
        xs = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
    values = st.floats(-10.0, 10.0)
    ys = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    zs = draw(st.lists(values, min_size=n + 1, max_size=n + 1))
    alphas = draw(st.lists(st.floats(-0.99, 0.99), min_size=n, max_size=n))
    betas = draw(st.lists(st.floats(-0.49, 0.49), min_size=n, max_size=n))
    gammas = draw(st.lists(st.floats(-0.49, 0.49), min_size=n, max_size=n))
    term = st.none() | st.builds(power, st.floats(-3.0, 3.0), st.floats(0.05, 1.0))
    p_powers = draw(st.lists(term, min_size=n, max_size=n))
    q_powers = draw(st.lists(term, min_size=n, max_size=n))
    problem = make_problem(
        nodes=tuple(zip(xs.tolist(), ys)), hidden=tuple(zs), alphas=tuple(alphas),
        betas=tuple(betas), gammas=tuple(gammas), p_powers=tuple(p_powers),
        q_powers=tuple(q_powers))
    assume(validate(problem).ok)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f1, f2 = rng.normal(scale=5.0, size=(2, grid_size))
    # signed zeros must survive the sweep's copies of stored samples
    f1[rng.random(grid_size) < 0.1] = -0.0
    f2[rng.random(grid_size) < 0.1] = 0.0
    return solve_model(problem), np.linspace(0.0, 1.0, grid_size), f1, f2


class TestSweepMatchesInterp:
    """The precomputed sweep against the np.interp oracle, bit for bit."""

    @pytest.mark.parametrize("config, grid_size, max_iters", [
        ("fig2", 6561, 300),
        (str(POWER_CONFIG), 1000, 10_000),
    ])
    def test_fixed_point_iterate(self, config, grid_size, max_iters):
        model = solve_model(resolve_config(config).problem)
        result = fixed_point_iterate(model, grid_size, max_iters=max_iters, tol=1e-10)
        f1, f2, d1s, d2s = _reference_iterate(model, grid_size, result.iterations)
        assert bit_identical(result.graph.f1s, f1)
        assert bit_identical(result.graph.f2s, f2)
        assert result.f1_distances == d1s
        assert result.f2_distances == d2s

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sweep_cases())
    def test_random_problems_and_grids(self, case):
        model, xs, f1, f2 = case
        for got, want in zip(apply_operator(model, xs, f1, f2), interp_sweep(model, xs, f1, f2)):
            assert bit_identical(got, want)
        # the gathered values themselves, where signed zeros still show
        plan = _SweepPlan(model, xs)
        _, u = preimages(model, xs)
        for f in (f1, f2):
            assert bit_identical(plan._gather(f), np.interp(u, xs, f))

    def test_preimage_on_last_grid_point(self):
        # the node x = 0.5 closes interval 0, whose inverse map sends it to
        # u = 1.0 = xs[-1], where np.interp returns the last sample
        model = solve_model(equidistant_problem((0.3, -0.4), (0.2, 0.1), (0.5, -0.6),
                                                ys=(1.0, -2.0, 0.5), zs=(0.0, 3.0, -1.0)))
        xs = np.linspace(0.0, 1.0, 5)
        assert model.L_inv(0, xs[2]) == xs[-1]
        f1 = np.array([0.5, -1.0, 2.0, 0.25, -0.0])
        f2 = np.array([1.5, 0.0, -3.0, 2.5, 4.0])
        t1, t2 = apply_operator(model, xs, f1, f2)
        assert t1[2] == model.alpha[0] * f1[-1] + model.beta[0] * f2[-1] + model.p(0, 1.0)
        assert t2[2] == model.gamma[0] * f2[-1] + model.q(0, 1.0)
        want1, want2 = interp_sweep(model, xs, f1, f2)
        assert bit_identical(t1, want1)
        assert bit_identical(t2, want2)


class TestChaosGame:
    def test_bit_identical_for_same_seed(self):
        model = model_for("fig6")
        first = chaos_game(model, 2000, seed=42)
        second = chaos_game(model, 2000, seed=42)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        model = model_for("fig6")
        assert not np.array_equal(chaos_game(model, 500, seed=1), chaos_game(model, 500, seed=2))

    def test_zero_parameters_land_on_interpolant(self):
        model = solve_model(zero_param_problem())
        cloud = chaos_game(model, 3000, seed=11)
        expected = np.interp(cloud[:, 0], NODES_X, NODES_Y)
        assert np.max(np.abs(cloud[:, 1] - expected)) <= 1e-9

    def test_self_affine_collapse_in_cloud(self):
        cloud = chaos_game(model_for("fig1_corrected"), 5000, seed=5)
        assert np.max(np.abs(cloud[:, 1] - cloud[:, 2])) <= 1e-6

    def test_cloud_within_certified_bounds(self):
        model = model_for("fig14")
        cloud = chaos_game(model, 4000, seed=9)
        b1, b2 = model.value_bounds()
        assert np.max(np.abs(cloud[:, 1])) <= b1
        assert np.max(np.abs(cloud[:, 2])) <= b2

    def test_requires_points(self):
        with pytest.raises(ValueError):
            chaos_game(model_for("fig4"), 0, seed=1)
