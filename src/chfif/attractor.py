"""Evaluation of the interpolating pair (f1, f2).

Three routes are provided on purpose, because each one checks the others:

* :func:`sample_exact` propagates node values through the functional
  equations, giving exact values on address-refined grids;
* :func:`fixed_point_iterate` runs the contraction operator on a uniform
  grid until successive sweeps agree;
* :func:`chaos_game` renders the attractor by seeded random iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DepthLimitError
from .geometry import ChfifModel

CHAOS_BURN_IN = 100

# sample_exact(depth) materialises N**(depth+1) + 1 points per component.
DEFAULT_MAX_POINTS = 20_000_000


def _map_coefficients(model: ChfifModel, j, x):
    # the parts of the maps that do not depend on (f1, f2)
    return model.alpha[j], model.beta[j], model.gamma[j], model.p(j, x), model.q(j, x)


def _apply_maps(coefficients, f1, f2):
    # alpha*f1 + beta*f2 + p and gamma*f2 + q, in that order, summed in
    # place into the fresh products
    alpha, beta, gamma, p, q = coefficients
    out1 = alpha * f1
    out1 += beta * f2
    out1 += p
    out2 = gamma * f2
    out2 += q
    return out1, out2


def map_images(model: ChfifModel, j, x, f1, f2):
    """Values of (f1, f2) at L_j(x), given their values at x.

    alpha_j f1 + beta_j f2 + p_j(x) and gamma_j f2 + q_j(x), with ``j`` a
    0-based interval index or an index array aligned with ``x``.
    """
    return _apply_maps(_map_coefficients(model, j, x), f1, f2)


@dataclass(frozen=True)
class SampledGraph:
    """Sorted abscissas with the two component values at each point.

    ``depth`` records the refinement level when the grid is an
    address-refined node grid; None for other grids.
    """

    xs: np.ndarray
    f1s: np.ndarray
    f2s: np.ndarray
    depth: int | None = None

    def __len__(self) -> int:
        return len(self.xs)


def sample_exact(model: ChfifModel, depth: int, *, max_points: int = DEFAULT_MAX_POINTS) -> SampledGraph:
    """Exact values of (f1, f2) on the level-``depth`` subdivision grid.

    Seeds the node values and pushes them through the functional equations
    once per level: values at the image points L_i(x) are alpha_i f1(x) +
    beta_i f2(x) + p_i(x) and gamma_i f2(x) + q_i(x).  No truncation error
    is introduced; every output value is an exact (floating-point) image of
    the seed values.  Depth m produces N**(m+1) + 1 points; depth 0 returns
    the original nodes.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = model.n_intervals
    final = n ** (depth + 1) + 1
    if final > max_points:
        raise DepthLimitError(
            f"depth {depth} needs {final} points, above the limit of {max_points}")

    xs = model.node_x.copy()
    f1 = model.y.copy()
    f2 = model.z.copy()
    for _ in range(depth):
        bx, b1, b2 = [], [], []
        for j in range(n):
            img_x = model.a[j] * xs + model.b[j]
            img_x[-1] = model.node_x[j + 1]   # keep shared boundaries canonical
            img_1, img_2 = map_images(model, j, xs, f1, f2)
            if j > 0:   # drop the duplicate of the previous block's endpoint
                img_x, img_1, img_2 = img_x[1:], img_1[1:], img_2[1:]
            bx.append(img_x)
            b1.append(img_1)
            b2.append(img_2)
        xs = np.concatenate(bx)
        f1 = np.concatenate(b1)
        f2 = np.concatenate(b2)

    return SampledGraph(xs=model.to_raw(xs), f1s=f1, f2s=f2, depth=depth)


def _interval_index(model: ChfifModel, xs: np.ndarray) -> np.ndarray:
    # node abscissas belong to the interval they close on the right
    idx = np.searchsorted(model.node_x, xs, side="left") - 1
    return np.clip(idx, 0, model.n_intervals - 1)


class _SweepPlan:
    """The parts of an operator sweep that stay fixed on one grid.

    Built once per grid: the interval of each abscissa x, its preimage
    u = L_i^{-1}(x), np.interp's bracket for u and the map coefficients
    at u.  A sweep then reads each component at the preimages with the
    two-tap gather ((f[hi] - f[lo]) / dx) * t + f[lo].  Where u lies
    strictly between two grid points that is np.interp's arithmetic in
    np.interp's order.  Elsewhere np.interp returns a stored sample (u on
    a grid point, or at or past either end of the grid); there the plan
    holds hi = lo and t = -0.0, so the product is -0.0 and f[lo] + -0.0 is
    f[lo] bit for bit, signed zeros included.  Sweeps are therefore
    bit-identical to interpolating with np.interp, for finite values.
    """

    def __init__(self, model: ChfifModel, xs) -> None:
        xs = np.asarray(xs, dtype=float)
        idx = _interval_index(model, xs)
        u = np.clip((xs - model.b[idx]) / model.a[idx], 0.0, 1.0)
        lo = np.clip(np.searchsorted(xs, u, side="right") - 1, 0, len(xs) - 1)
        between = (xs[0] <= u) & (u < xs[-1]) & (xs[lo] != u)
        self.lo = lo
        self.hi = np.where(between, lo + 1, lo)
        self.t = np.where(between, u - xs[lo], -0.0)
        self.dx = np.where(between, xs[self.hi] - xs[lo], 1.0)
        self.coefficients = _map_coefficients(model, idx, u)

    def _gather(self, f: np.ndarray) -> np.ndarray:
        lo = f.take(self.lo)
        g = f.take(self.hi)
        g -= lo
        g /= self.dx
        g *= self.t
        g += lo
        return g

    def __call__(self, f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _apply_maps(self.coefficients, self._gather(f1), self._gather(f2))


def apply_operator(model: ChfifModel, xs: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One sweep of the contraction operator on a grid function.

    ``xs`` must be sorted unit-domain abscissas covering [0, 1]; values of
    the current iterate at L_i^{-1}(x) are obtained by linear interpolation
    between grid samples.
    """
    return _SweepPlan(model, xs)(np.asarray(f1, dtype=float), np.asarray(f2, dtype=float))


def _sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.max(np.abs(d, out=d)))


@dataclass(frozen=True)
class IterationResult:
    """Fixed-point iteration output with its convergence history."""

    graph: SampledGraph
    f1_distances: tuple[float, ...]
    f2_distances: tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def distances(self) -> tuple[float, ...]:
        return tuple(max(d1, d2) for d1, d2 in zip(self.f1_distances, self.f2_distances))


def fixed_point_iterate(
    model: ChfifModel,
    grid_size: int,
    max_iters: int = 10_000,
    tol: float = 1e-10,
) -> IterationResult:
    """Iterate the operator on a uniform grid until sweeps stop moving.

    Starts from the piecewise-linear interpolant of the nodes (which already
    satisfies the endpoint conditions) and records the sup-distance between
    successive sweeps per component.  Non-convergence is reported through
    ``converged`` rather than raised, so callers can inspect the distance
    sequence; it usually means the tolerance is tighter than the grid
    resolution supports.
    """
    if grid_size < model.n_intervals + 1:
        raise ValueError("grid_size must be at least N + 1")
    if tol <= 0:
        raise ValueError("tol must be positive")

    xs = np.linspace(0.0, 1.0, grid_size)
    f1 = np.interp(xs, model.node_x, model.y)
    f2 = np.interp(xs, model.node_x, model.z)

    sweep = _SweepPlan(model, xs)
    d1s: list[float] = []
    d2s: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_f1, new_f2 = sweep(f1, f2)
        d1 = _sup_distance(new_f1, f1)
        d2 = _sup_distance(new_f2, f2)
        f1, f2 = new_f1, new_f2
        d1s.append(d1)
        d2s.append(d2)
        if max(d1, d2) < tol:
            converged = True
            break

    graph = SampledGraph(xs=model.to_raw(xs), f1s=f1, f2s=f2, depth=None)
    return IterationResult(
        graph=graph,
        f1_distances=tuple(d1s),
        f2_distances=tuple(d2s),
        iterations=iterations,
        converged=converged,
    )


def functional_residuals(model: ChfifModel, graph: SampledGraph) -> tuple[float, float]:
    """Sup-norm residuals of the two functional equations on a grid function.

    Evaluates one operator sweep with linear interpolation, so this is the
    natural residual for iterates (bounded by a small multiple of the
    iteration tolerance once converged).  On exact address-grid samples the
    interpolated preimage lookup can amplify one-ulp abscissa noise by the
    local oscillation; use :func:`exact_residuals` for those.
    """
    xs = (np.asarray(graph.xs, dtype=float) - model.x0) / model.span
    t1, t2 = apply_operator(model, xs, graph.f1s, graph.f2s)
    return float(np.max(np.abs(t1 - graph.f1s))), float(np.max(np.abs(t2 - graph.f2s)))


def exact_residuals(model: ChfifModel, depth: int) -> tuple[float, float]:
    """Functional-equation residuals of exact samples, by value lookup.

    For every level-``depth`` grid point x and every interval i, compares
    the stored value at L_i(x) (a level-``depth + 1`` grid point) against
    alpha_i f1(x) + beta_i f2(x) + p_i(x) and the hidden analogue.  Exact
    propagation makes these vanish to machine precision.
    """
    coarse = sample_exact(model, depth)
    fine = sample_exact(model, depth + 1)
    xs = (np.asarray(coarse.xs, dtype=float) - model.x0) / model.span
    per_block = len(xs)
    worst1 = worst2 = 0.0
    for j in range(model.n_intervals):
        lo = j * (per_block - 1)
        sl = slice(lo, lo + per_block)
        image_x = model.a[j] * xs + model.b[j]
        stored_x = (np.asarray(fine.xs[sl], dtype=float) - model.x0) / model.span
        if not np.allclose(stored_x, image_x, rtol=0, atol=1e-9):
            raise AssertionError("refined grid misaligned with interval images")
        rhs1, rhs2 = map_images(model, j, xs, coarse.f1s, coarse.f2s)
        worst1 = max(worst1, float(np.max(np.abs(fine.f1s[sl] - rhs1))))
        worst2 = max(worst2, float(np.max(np.abs(fine.f2s[sl] - rhs2))))
    return worst1, worst2


def chaos_game(model: ChfifModel, n_points: int, seed: int, burn_in: int = CHAOS_BURN_IN) -> np.ndarray:
    """Random-iteration rendering of the attractor.

    Applies a uniformly chosen map per step from a seeded pseudorandom
    stream, discards ``burn_in`` initial points, and returns an
    (n_points, 3) array of (x, f1, f2) rows.  Bit-identical for identical
    (seed, n_points, burn_in).
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, model.n_intervals, size=burn_in + n_points)

    # the abscissa orbit never reads (f1, f2), so it runs first and p, q are
    # evaluated on it as vectors; only the (f1, f2) recurrence stays scalar
    xs = np.empty(len(picks) + 1)
    x = xs[0] = 0.0
    for k, (a, b) in enumerate(zip(model.a[picks], model.b[picks]), start=1):
        x = xs[k] = a * x + b
    ps = model.p(picks, xs[:-1])
    qs = model.q(picks, xs[:-1])

    f1 = np.empty(len(picks))
    f2 = np.empty(len(picks))
    fy, fz = model.y[0], model.z[0]
    steps = zip(model.alpha[picks], model.beta[picks], model.gamma[picks], ps, qs)
    for k, (alpha, beta, gamma, p, q) in enumerate(steps):
        fy, fz = alpha * fy + beta * fz + p, gamma * fz + q
        f1[k] = fy
        f2[k] = fz
    return np.column_stack((model.to_raw(xs[burn_in + 1:]), f1[burn_in:], f2[burn_in:]))
