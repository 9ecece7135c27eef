"""Evaluation of the interpolating pair (f1, f2).

Three routes are provided on purpose, because each one checks the others:

* :func:`sample_exact` propagates node values through the functional
  equations, giving exact values on address-refined grids
  (:func:`exact_blocks` streams the same grid a block at a time);
* :func:`fixed_point_iterate` runs the contraction operator on a uniform
  grid until successive sweeps agree;
* :func:`chaos_game` renders the attractor by seeded random iteration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CurveOverflowError, DepthLimitError
from .geometry import ChfifModel

CHAOS_BURN_IN = 100

# sample_exact(depth) materialises N**(depth+1) + 1 points per component.
DEFAULT_MAX_POINTS = 20_000_000

# exact_blocks holds the deepest level with at most this many points, so a
# block costs a few hundred KB; held grids of 730 to 59,050 points timed
# alike on a depth-12 export, the per-block overhead being amortised by then
_BLOCK_POINTS = 8192

# chaos-game steps converted to Python floats at a time: enough to amortise
# the conversion, few enough that the lists stay well under a MB
_CHAOS_CHUNK = 4096


def check_finite(what: str, *arrays) -> None:
    """Raise :class:`CurveOverflowError` unless every value is finite.

    Finite, validated coefficients can still carry the curve past the
    float range (a node near 1e308 and scalings near 1); the routes
    compute with overflow warnings off and report it here instead.
    """
    if not all(np.isfinite(a).all() for a in arrays):
        raise CurveOverflowError(f"{what} overflows: the curve leaves the float range")


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


def _check_depth(model: ChfifModel, depth: int, max_points: int) -> None:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    final = model.n_intervals ** (depth + 1) + 1
    if final > max_points:
        raise DepthLimitError(
            f"depth {depth} needs {final} points, above the limit of {max_points}")


def _image(model: ChfifModel, j: int, xs, f1, f2, ends_at_one: bool):
    # W_j on a block; while the block still ends at x = 1 its image ends on
    # the node x_{j+1}, set exactly so shared boundaries stay canonical
    img_x = model.a[j] * xs + model.b[j]
    if ends_at_one:
        img_x[-1] = model.node_x[j + 1]
    return (img_x, *map_images(model, j, xs, f1, f2))


def _blocks(model: ChfifModel, depth: int, held: int):
    # the level-``held`` grid, built level by level, then each word's image of it
    n = model.n_intervals
    with np.errstate(over="ignore", invalid="ignore"):
        xs, f1, f2 = model.node_x.copy(), model.y.copy(), model.z.copy()
        for _ in range(held):
            bx, b1, b2 = zip(*(_image(model, j, xs, f1, f2, True) for j in range(n)))
            # every block but the first drops its first point, the previous block's endpoint
            xs = np.concatenate((bx[0], *(v[1:] for v in bx[1:])))
            f1 = np.concatenate((b1[0], *(v[1:] for v in b1[1:])))
            f2 = np.concatenate((b2[0], *(v[1:] for v in b2[1:])))
            del bx, b1, b2   # else they stay alive next to the next level's images
    grid = xs, f1, f2
    for index, word in enumerate(itertools.product(range(n), repeat=depth - held)):
        with np.errstate(over="ignore", invalid="ignore"):
            block, ends_at_one = grid, True
            for j in reversed(word):   # the innermost map acts first
                block = _image(model, j, *block, ends_at_one)
                ends_at_one = ends_at_one and j == n - 1
            xs, f1, f2 = (v[1:] for v in block) if index else block
            check_finite(f"sample_exact at depth {depth}", f1, f2)
            xs = model.to_raw(xs)
        yield xs, f1, f2


def exact_blocks(model: ChfifModel, depth: int):
    """The level-``depth`` grid of :func:`sample_exact` as consecutive ``(xs, f1, f2)`` blocks.

    The graph is the attractor of the maps W_j, so the level-``depth`` grid
    is the images W_j1(...W_jm(G)) of a shallower grid G, word by word in
    lexicographic order.  G is the deepest level with at most
    ``_BLOCK_POINTS`` points; each block is one word's image, less the
    point it shares with the block before.  Every value goes through the
    same chain of map applications as in :func:`sample_exact`, so the
    concatenated blocks equal its arrays bit for bit, while memory holds G
    and one block.  The depth checks, with :func:`sample_exact`'s default
    point budget, run at the call, before any block.
    """
    _check_depth(model, depth, DEFAULT_MAX_POINTS)
    held = 0
    while held < depth and model.n_intervals ** (held + 2) + 1 <= _BLOCK_POINTS:
        held += 1
    return _blocks(model, depth, held)


def sample_exact(model: ChfifModel, depth: int, *, max_points: int = DEFAULT_MAX_POINTS) -> SampledGraph:
    """Exact values of (f1, f2) on the level-``depth`` subdivision grid.

    Seeds the node values and pushes them through the functional equations
    once per level: values at the image points L_i(x) are alpha_i f1(x) +
    beta_i f2(x) + p_i(x) and gamma_i f2(x) + q_i(x).  No truncation error
    is introduced; every output value is an exact (floating-point) image of
    the seed values.  Depth m produces N**(m+1) + 1 points; depth 0 returns
    the original nodes.  The whole grid is one block of
    :func:`exact_blocks`' construction, held at level ``depth``; stream
    with :func:`exact_blocks` when the grid is not needed at once.
    """
    _check_depth(model, depth, max_points)
    (xs, f1, f2), = _blocks(model, depth, depth)
    return SampledGraph(xs=xs, f1s=f1, f2s=f2, depth=depth)


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


@np.errstate(over="ignore", invalid="ignore")
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
        if not (math.isfinite(d1) and math.isfinite(d2)):
            # finite sweeps far apart can overflow only their difference
            check_finite(f"fixed_point_iterate at sweep {iterations}", f1, f2)
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


@np.errstate(over="ignore", invalid="ignore")
def chaos_game(model: ChfifModel, n_points: int, seed: int, burn_in: int = CHAOS_BURN_IN) -> np.ndarray:
    """Random-iteration rendering of the attractor.

    Applies a uniformly chosen map per step from a seeded pseudorandom
    stream, discards ``burn_in`` initial points, and returns an
    (n_points, 3) array of (x, f1, f2) rows.  Bit-identical for identical
    (seed, n_points, burn_in).  The two recurrences run on Python floats
    (the same double arithmetic as numpy scalars, at a fraction of the
    cost), converted a chunk of steps at a time so memory stays flat.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, model.n_intervals, size=burn_in + n_points)
    chunks = [slice(start, start + _CHAOS_CHUNK) for start in range(0, len(picks), _CHAOS_CHUNK)]

    # the abscissa orbit never reads (f1, f2), so it runs first and p, q are
    # evaluated on it as vectors; only the (f1, f2) recurrence stays scalar
    xs = np.empty(len(picks) + 1)
    x = xs[0] = 0.0
    for chunk in chunks:
        orbit = []
        j = picks[chunk]
        for a, b in zip(model.a[j].tolist(), model.b[j].tolist()):
            x = a * x + b
            orbit.append(x)
        xs[1:][chunk] = orbit
    ps = model.p(picks, xs[:-1])
    qs = model.q(picks, xs[:-1])

    f1 = np.empty(len(picks))
    f2 = np.empty(len(picks))
    fy, fz = float(model.y[0]), float(model.z[0])
    for chunk in chunks:
        ys, zs = [], []
        j = picks[chunk]
        steps = (v.tolist() for v in (model.alpha[j], model.beta[j], model.gamma[j], ps[chunk], qs[chunk]))
        for alpha, beta, gamma, p, q in zip(*steps):
            fy, fz = alpha * fy + beta * fz + p, gamma * fz + q
            ys.append(fy)
            zs.append(fz)
        f1[chunk] = ys
        f2[chunk] = zs
    check_finite("chaos_game", f1, f2)
    return np.column_stack((model.to_raw(xs[burn_in + 1:]), f1[burn_in:], f2[burn_in:]))
