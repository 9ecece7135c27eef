"""Tests for the three evaluation routes and their cross-checks."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chfif import (
    CurveOverflowError,
    DepthLimitError,
    chaos_game,
    classify,
    convergence_profile,
    exact_blocks,
    fixed_point_iterate,
    max_oscillation,
    sample_exact,
    solve_model,
    validate,
)
from chfif import attractor
from chfif.attractor import _SweepPlan, deepest_level
from chfif.config import BUNDLED_NAMES, parse_config, resolve_config

from helpers import (
    LATE_OVERFLOW,
    NODES_X,
    NODES_Y,
    bit_identical,
    breadth_first_exact,
    chaos_reference,
    equidistant_problem,
    exact_residuals,
    functional_residuals,
    interp_sweep,
    interval_of,
    make_problem,
    mirrored,
    model_for,
    moment_b,
    orbit_defect,
    power,
    preimages,
    q_m_values,
    sampled_for,
    zero_param_problem,
)

POWER_CONFIG = Path(__file__).resolve().parent / "data" / "power.yaml"
ALL_CONFIGS = (*BUNDLED_NAMES, str(POWER_CONFIG))


def node_indices(model, xs):
    idx = np.searchsorted(xs, model.node_x)
    assert np.allclose(xs[idx], model.node_x, atol=1e-12)
    return idx


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
    assume(not validate(problem))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f1, f2 = rng.normal(scale=5.0, size=(2, grid_size))
    # signed zeros must survive the sweep's copies of stored samples
    f1[rng.random(grid_size) < 0.1] = -0.0
    f2[rng.random(grid_size) < 0.1] = 0.0
    return solve_model(problem), np.linspace(0.0, 1.0, grid_size), f1, f2


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
        assert start == pytest.approx(model.a[r - 1] * inner_start + model.b[r - 1], rel=1e-14)
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
        assert len(graph.xs) == 3 ** 7 + 1
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
            sample_exact(model_for("fig4"), 15)

    def test_raw_domain_round_trip(self):
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


class TestExactBlocks:
    """The streamed exact route against the breadth-first level loop it replaced."""

    @pytest.mark.parametrize("ref", ALL_CONFIGS, ids=lambda ref: Path(ref).stem)
    def test_blocks_equal_breadth_first_oracle(self, ref, monkeypatch):
        model = solve_model(resolve_config(ref).problem)
        n = model.n_intervals
        sizes = (1, 2, n + 1, n + 2, 100, attractor._BLOCK_POINTS)
        for depth in range(10):
            want = breadth_first_exact(model, depth)
            graph = sample_exact(model, depth)
            for have, oracle in zip((graph.xs, graph.f1s, graph.f2s), want):
                assert bit_identical(have, oracle), depth
            # below N**2 + 1 points only level 0 is held, and depth 9 would be
            # N**9 tiny blocks of nine maps each: those sizes stop at depth 5
            for size in (s for s in sizes if depth <= 5 or s > n ** 2):
                monkeypatch.setattr(attractor, "_BLOCK_POINTS", size)
                blocks = list(exact_blocks(model, depth))
                got = [np.concatenate([block[k] for block in blocks]) for k in range(3)]
                for have, oracle in zip(got, want):
                    assert bit_identical(have, oracle), (depth, size)
                assert np.all(np.diff(got[0]) > 0), (depth, size)   # across block joins too

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sweep_cases())
    def test_blocks_equal_breadth_first_oracle_on_random_problems(self, case):
        # the bundled configs all have N = 3; these have 2 to 5 intervals, so
        # the level loop writes map j's image at offsets j * (m - 1) for other N
        model = case[0]
        n = model.n_intervals
        for depth in range(deepest_level(n, 3000) + 2):   # through the first level above 3,000 points
            want = breadth_first_exact(model, depth)
            graph = sample_exact(model, depth)
            for have, oracle in zip((graph.xs, graph.f1s, graph.f2s), want):
                assert bit_identical(have, oracle), depth
            # N + 1 points hold only level 0, so each block is a whole word's chain
            # of maps; sample_exact then builds every level above N + 1 (or 100)
            # points in several chunks, each map's at offsets j * (m - 1) + lo
            for size in (n + 1, 100) if depth <= 4 else (100,):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(attractor, "_BLOCK_POINTS", size)
                    blocks = list(exact_blocks(model, depth))
                    chunked = sample_exact(model, depth)
                for k, oracle in enumerate(want):
                    assert bit_identical(np.concatenate([block[k] for block in blocks]), oracle), (depth, size)
                    assert bit_identical((chunked.xs, chunked.f1s, chunked.f2s)[k], oracle), (depth, size)

    @pytest.mark.parametrize("block_points, depth, held", [
        (1, 3, 0), (4, 3, 0), (9, 3, 0), (10, 3, 1), (100, 4, 3), (6562, 9, 7),
        (8192, 9, 7), (8192, 5, 5), (8192, 0, 0),
    ])
    def test_held_level_is_the_deepest_that_fits(self, block_points, depth, held, monkeypatch):
        monkeypatch.setattr(attractor, "_BLOCK_POINTS", block_points)
        n = model_for("fig4").n_intervals
        sizes = [len(xs) for xs, _, _ in exact_blocks(model_for("fig4"), depth)]
        assert sizes == [n ** (held + 1) + 1] + [n ** (held + 1)] * (n ** (depth - held) - 1)

    def test_depth_checks_run_at_the_call(self):
        with pytest.raises(ValueError):
            exact_blocks(model_for("fig4"), -1)
        with pytest.raises(DepthLimitError):
            exact_blocks(model_for("fig4"), 15)   # 3**16 + 1 points

    @pytest.mark.filterwarnings("error")   # overflow stays inside each block's errstate
    def test_overflow_past_the_first_block(self, monkeypatch):
        monkeypatch.setattr(attractor, "_BLOCK_POINTS", 3)
        model = solve_model(parse_config(LATE_OVERFLOW).problem)
        settings_before = np.geterr()
        blocks = exact_blocks(model, 2)
        xs, f1, f2 = next(blocks)
        assert len(xs) == 3 and np.isfinite(f1).all() and np.isfinite(f2).all()
        assert np.geterr() == settings_before
        with pytest.raises(CurveOverflowError, match="sample_exact at depth 2 overflows"):
            next(blocks)
        assert np.geterr() == settings_before


@st.composite
def affine_problems(draw):
    """A random admissible problem without power terms, its nodes equidistant or on a shifted domain."""
    n = draw(st.integers(2, 5))
    gaps = [1.0] * n if draw(st.booleans()) else draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    xs = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    ys, zs = (draw(st.lists(st.floats(-10.0, 10.0), min_size=n + 1, max_size=n + 1)) for _ in range(2))
    alphas = draw(st.lists(st.floats(-0.99, 0.99), min_size=n, max_size=n))
    betas, gammas = (draw(st.lists(st.floats(-0.49, 0.49), min_size=n, max_size=n)) for _ in range(2))
    problem = make_problem(nodes=tuple(zip(xs.tolist(), ys)), hidden=tuple(zs), alphas=tuple(alphas),
                           betas=tuple(betas), gammas=tuple(gammas))
    assume(not validate(problem))
    return problem


def assert_exact_route_mirrors(problem, depths):
    """The mirrored problem's exact values, reversed, are the original's to rounding.

    A level-d value has gone through d map applications, each rounding a
    few terms (alpha f1, beta f2, p) no larger than a few times the largest
    value; the scalings are below 1, so earlier errors do not grow.  The
    mirror's unit-domain abscissas are rounded from raw ones, off 1 - x by
    up to kappa = max(|x0|, |xN|) / (xN - x0) rounding units, which moves p.
    So the allowance is 4 (1 + kappa) units of the largest value per level:
    over 6,000 random problems of this kind (depths through the first level
    above 3,000 points) the worst was 1.3 such units per level, and 5.3 in
    all; on the bundled configs, 1.6 in all.
    """
    (x0, _), (xn, _) = problem.nodes[0], problem.nodes[-1]
    kappa = max(abs(x0), abs(xn)) / (xn - x0)
    model, mirror = solve_model(problem), solve_model(mirrored(problem))
    for depth in depths:
        graph, reflected = sample_exact(model, depth), sample_exact(mirror, depth)
        unit = np.finfo(float).eps * max(1.0, np.max(np.abs(graph.f1s)), np.max(np.abs(graph.f2s)))
        for have, want in ((reflected.f1s[::-1], graph.f1s), (reflected.f2s[::-1], graph.f2s)):
            assert np.max(np.abs(have - want)) <= 4 * (depth + 1) * (1 + kappa) * unit, depth


class TestReflection:
    """The exact route commutes with the reflection x -> x0 + xN - x (no power terms)."""

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_bundled_configs(self, name):
        assert_exact_route_mirrors(resolve_config(name).problem, (0, 3, 8))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(affine_problems())
    def test_random_problems(self, problem):
        n = len(problem.params)
        assert_exact_route_mirrors(problem, range(deepest_level(n, 3000) + 2))


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
        assert result.iterations == 5

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            fixed_point_iterate(model_for("fig4"), 3, max_iters=10, tol=1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_rejects_tol_not_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            fixed_point_iterate(model_for("fig4"), 82, max_iters=5, tol=tol)

    def test_settled_hidden_component_is_not_swept(self, monkeypatch):
        # fig3's f2 is a bitwise fixed point from sweep 9: from then on a
        # sweep gathers f1 only, where sweeping both would gather 600 times
        gathers = []
        gather = _SweepPlan._gather
        monkeypatch.setattr(_SweepPlan, "_gather", lambda plan, f: gathers.append(1) or gather(plan, f))
        result = fixed_point_iterate(model_for("fig3"), 513, max_iters=300, tol=1e-10)
        assert result.iterations == 300
        assert result.iterations < len(gathers) <= result.iterations + 12
        assert set(result.f2_distances[9:]) == {0.0}

    def test_signed_zeros_do_not_settle(self):
        # x = 0 is its own preimage, and gamma_0 < 0 with q_0(0) = -0.0 flips
        # the sign of f2(0) = 0 every sweep: f2 is 0.0 away from the sweep
        # before from sweep 3 on, yet never has the same bits
        model = solve_model(equidistant_problem((0.9, 0.8), (0.1, 0.1), (-0.4, 0.3),
                                                ys=(1.0, 2.0, 0.5), zs=(-0.0, -1.0, 0.5)))
        result = fixed_point_iterate(model, 9, max_iters=10, tol=1e-300)
        assert result.iterations == 4 and result.f2_distances[2:] == (0.0, 0.0)
        assert np.signbit(result.graph.f2s[0])
        assert_matches_reference(model, result)


def _reference_iterate(model, grid_size, sweeps):
    """Run ``sweeps`` oracle sweeps of both components from the nodes' piecewise-linear interpolant."""
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


def assert_matches_reference(model, result):
    """``result``'s curve and distances equal the oracle's after as many sweeps, bit for bit."""
    f1, f2, d1s, d2s = _reference_iterate(model, len(result.graph.xs), result.iterations)
    assert bit_identical(result.graph.f1s, f1)
    assert bit_identical(result.graph.f2s, f2)
    assert bit_identical(result.f1_distances, d1s)
    assert bit_identical(result.f2_distances, d2s)


class TestSweepMatchesInterp:
    """The precomputed sweep against the np.interp oracle, bit for bit."""

    @pytest.mark.parametrize("config, grid_size, max_iters", [
        # f2 is a bitwise fixed point from sweep 9 on fig2 and fig3, so
        # these run the f1-only sweeps
        ("fig2", 6561, 300),
        ("fig3", 513, 300),
        (str(POWER_CONFIG), 1000, 10_000),
    ])
    def test_fixed_point_iterate(self, config, grid_size, max_iters):
        model = solve_model(resolve_config(config).problem)
        assert_matches_reference(model, fixed_point_iterate(model, grid_size, max_iters=max_iters, tol=1e-10))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sweep_cases())
    def test_fixed_point_iterate_on_random_problems(self, case):
        # most of these problems settle f2 within 40 sweeps; tol 1e-300
        # stops a run only once both components are bitwise fixed
        model, xs, _, _ = case
        assert_matches_reference(model, fixed_point_iterate(model, len(xs), max_iters=200, tol=1e-300))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sweep_cases())
    def test_random_problems_and_grids(self, case):
        # the plan's map coefficients at the preimages, and its gathered
        # values, where signed zeros still show
        model, xs, f1, f2 = case
        plan = _SweepPlan(model, xs)
        idx, u = preimages(model, xs)
        want = model.alpha[idx], model.beta[idx], model.gamma[idx], model.p(idx, u), model.q(idx, u)
        for got, oracle in zip(plan.coefficients, want, strict=True):
            assert bit_identical(got, oracle)
        for f in (f1, f2):
            assert bit_identical(plan._gather(f), np.interp(u, xs, f))

    def test_preimage_on_last_grid_point(self):
        # the node x = 0.5 closes interval 0, whose inverse map sends it to
        # u = 1.0 = xs[-1], where np.interp returns the last sample
        model = solve_model(equidistant_problem((0.3, -0.4), (0.2, 0.1), (0.5, -0.6),
                                                ys=(1.0, -2.0, 0.5), zs=(0.0, 3.0, -1.0)))
        xs = np.linspace(0.0, 1.0, 5)
        assert (xs[2] - model.b[0]) / model.a[0] == xs[-1]
        plan = _SweepPlan(model, xs)
        _, u = preimages(model, xs)
        for f in (np.array([0.5, -1.0, 2.0, 0.25, -0.0]), np.array([1.5, 0.0, -3.0, 2.5, 4.0])):
            g = plan._gather(f)
            assert bit_identical(g[2], f[-1])
            assert bit_identical(g, np.interp(u, xs, f))
        assert_matches_reference(model, fixed_point_iterate(model, 5, max_iters=5, tol=1e-300))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sweep_cases(), st.data())
def test_random_admissible_problem(case, data):
    """Properties of every admissible problem, each at rounding level for the data's scale."""
    model = case[0]
    n = model.n_intervals
    graph = sample_exact(model, 3)
    # one rounding unit of the largest value on the grid: over 4,000 random
    # problems every check below stayed within 2.3 of them
    unit = np.finfo(float).eps * max(1.0, np.max(np.abs(graph.f1s)), np.max(np.abs(graph.f2s)))
    # node i is grid point i * N**3, reached through three map applications
    nodes = np.arange(n + 1) * n**3
    assert np.array_equal(graph.xs[nodes], model.to_raw(model.node_x))
    assert np.max(np.abs(graph.f1s[nodes] - model.y)) <= 24 * unit
    assert np.max(np.abs(graph.f2s[nodes] - model.z)) <= 24 * unit
    # the depth-4 grid is the maps' image of the depth-3 grid, value for value
    assert max(exact_residuals(model, 3)) <= 8 * unit
    # the moment over a word is the sum over its N children (s, *word), each
    # len(word) + 1 steps of the cell recursion
    word = tuple(data.draw(st.lists(st.integers(1, n), max_size=3), label="word"))
    children = sum(moment_b(model, (s, *word)) for s in range(1, n + 1))
    assert abs(children - moment_b(model, word)) <= 8 * (len(word) + 2) * unit
    # the profile reads each probe point's cell from its index; the oracle
    # searches for it among the cells of a probe sampled on the unit domain
    probe = sample_exact(replace(model, x0=0.0, span=1.0), 4)
    searched = [(m, float(np.max(np.abs(q_m_values(model, m, probe.xs) - probe.f1s)))) for m in (1, 2, 3)]
    assert convergence_profile(model, 3, 4) == tuple(searched)
    # one branch of the case table fires; delta5..delta8 are the Theta > 1 branches
    report = classify(model)
    high = report.theta_regime == "GT1"
    assert report.delta_tag in [f"delta{k}" for k in ((5, 6, 7, 8) if high else (1, 2, 3, 4))]
    assert report.modulus_order in ("LIP_DELTA", "DELTA_LOG", "DELTA_LOG2")


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

    # point counts whose step counts, burn-in included, end on both sides of
    # the second block boundary and of the first chunk boundary
    BLOCK_EDGE = tuple(2 * attractor._SCAN_BLOCK - attractor.CHAOS_BURN_IN + d for d in (-1, 0, 1))
    CHUNK_EDGE = tuple(attractor._SCAN_CHUNK - attractor.CHAOS_BURN_IN + d for d in (-1, 0, 1))

    @pytest.mark.parametrize("n", (1, 63, 64, 65, 65_535, 65_536, 65_537))
    def test_scan_matches_step_by_step_recurrence(self, n):
        rng = np.random.default_rng(n)
        a, c = rng.uniform(-0.99, 0.99, n), rng.normal(size=n)
        y, want = 0.5, []
        for slope, offset in zip(a.tolist(), c.tolist()):
            y = slope * y + offset
            want.append(y)
        got = attractor._affine_scan(a, c, 0.5)
        assert got.shape == (n,)
        # the worst chaos-game gap below is 3.7e-13; 1e-11 leaves a margin of about 30
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-11

    @pytest.mark.parametrize("ref", ALL_CONFIGS, ids=lambda ref: Path(ref).stem)
    def test_cloud_matches_sequential_oracle(self, ref):
        # the scan rounds differently from the step-by-step loop: 3.7e-13
        # relative to 1 + |v| at worst over these configs, seeds and lengths
        problem = resolve_config(ref).problem
        model = solve_model(problem)
        short = (1, 63, 64, 65, *self.BLOCK_EDGE)
        for seed, lengths in ((0, short), (1, short), (7, (*short, 70_000))):
            for n in lengths:
                cloud = chaos_game(model, n, seed)
                want = chaos_reference(model, n, seed)
                assert cloud.shape == want.shape == (n, 3)
                assert np.max(np.abs(cloud - want) / (1.0 + np.abs(want))) <= 1e-11, (seed, n)
                if n > 1:
                    assert orbit_defect(problem, cloud) <= 1e-12, (seed, n)

    @pytest.mark.parametrize("ref", ("fig2", "fig14", str(POWER_CONFIG)), ids=lambda ref: Path(ref).stem)
    def test_prefix_stable(self, ref):
        model = model_for(ref)
        whole = chaos_game(model, 70_000, seed=3)
        for k in (1, *self.BLOCK_EDGE, *self.CHUNK_EDGE):
            assert bit_identical(chaos_game(model, k, seed=3), whole[:k]), k
