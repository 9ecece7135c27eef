"""Evaluation of the interpolating pair (f1, f2).

Three routes are provided on purpose, because each one checks the others:

* :func:`sample_exact` propagates node values through the functional
  equations, giving exact values on address-refined grids
  (:func:`exact_blocks` streams the same grid a block at a time);
* :func:`fixed_point_iterate` runs the contraction operator on a uniform
  grid until successive sweeps agree;
* :func:`chaos_game` renders the attractor by seeded random iteration,
  each coordinate's orbit a blocked affine prefix scan (:func:`_affine_scan`)
  that agrees with the step-by-step recurrence to rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CurveOverflowError, DepthLimitError
from .geometry import ChfifModel, _freeze_arrays

CHAOS_BURN_IN = 100

# sample_exact(depth) materialises N**(depth+1) + 1 points per component.
DEFAULT_MAX_POINTS = 20_000_000

# exact_blocks holds the deepest level with at most this many points, so a
# block costs a few hundred KB; held grids of 730 to 59,050 points timed
# alike on a depth-12 export, the per-block overhead being amortised by then;
# the held-level loop maps a level in chunks this long (8,192 and 32,768 alike)
_BLOCK_POINTS = 8192

# _affine_scan's block length and chaos_game's chunk length, the chunk a
# multiple of the block: 32- to 128-step blocks timed alike on 17 x 50k
# chaos points, 256 and 512 slower; each of a chunk's (block, blocks)
# arrays takes 0.5 MB
_SCAN_BLOCK = 64
_SCAN_CHUNK = 65_536


def check_finite(what: str, *arrays) -> None:
    """Raise :class:`CurveOverflowError` unless every value is finite.

    Finite, validated coefficients can still carry the curve past the
    float range (a node near 1e308 and scalings near 1); the routes
    compute with overflow warnings off and report it here instead.
    """
    if not all(np.isfinite(a).all() for a in arrays):
        raise CurveOverflowError(f"{what} overflows: the curve leaves the float range")


@dataclass(frozen=True)
class SampledGraph:
    """Sorted abscissas with the two component values at each point, made read-only in place."""

    xs: np.ndarray
    f1s: np.ndarray
    f2s: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)

    @functools.cached_property
    def max_gap(self) -> float:
        """The widest spacing of ``xs``, computed on first use and then held (``xs`` is read-only)."""
        return float(np.max(np.diff(np.asarray(self.xs, dtype=float))))

    @functools.cached_property
    def box_columns(self) -> dict:
        """:func:`~chfif.dimension.box_count`'s column tables, keyed by epsilon, held like :attr:`max_gap`."""
        return {}


def deepest_level(n_intervals: int, max_points: int) -> int:
    """The deepest level d whose grid, N**(d+1) + 1 points, holds at most ``max_points``.

    Level 0, the nodes, when no level fits.  Below two intervals the grid
    never grows, so no level is the deepest: that raises ``ValueError``.
    """
    if n_intervals < 2:
        raise ValueError("deepest_level needs at least 2 intervals")
    level = 0
    while n_intervals ** (level + 2) + 1 <= max_points:
        level += 1
    return level


def _check_depth(model: ChfifModel, depth: int) -> None:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > deepest_level(model.n_intervals, DEFAULT_MAX_POINTS):
        raise DepthLimitError(f"depth {depth} needs {model.n_intervals ** (depth + 1) + 1} points, "
                              f"above the limit of {DEFAULT_MAX_POINTS}")


def _image(model: ChfifModel, j: int, xs, f1, f2, ends_at_one: bool, out=(None, None, None)):
    # W_j on a block, into fresh arrays or ``out``; while the block still ends
    # at x = 1 its image ends on the node x_{j+1}, set exactly so shared
    # boundaries stay canonical
    img_x = np.multiply(model.a[j], xs, out=out[0])
    img_x += model.b[j]
    if ends_at_one:
        img_x[-1] = model.node_x[j + 1]
    # alpha*f1 + beta*f2 + p and gamma*f2 + q, in that order, summed in place
    img_1 = np.multiply(model.alpha[j], f1, out=out[1])
    img_1 += model.beta[j] * f2
    img_1 += model.p(j, xs)
    img_2 = np.multiply(model.gamma[j], f2, out=out[2])
    img_2 += model.q(j, xs)
    return img_x, img_1, img_2


def _blocks(model: ChfifModel, depth: int, held: int):
    """The level-``depth`` grid as ``(xs, f1, f2)`` blocks: each word's image of the level-``held`` grid.

    The held grid is built level by level, ``_BLOCK_POINTS`` points of a
    level of m at a time: map j's image of points lo .. hi-1 is written
    straight into points j*(m-1)+lo .. j*(m-1)+hi-1 of the next level.
    Chunks run in order, maps last first within each, so the point two
    neighbouring images share (the right one's point 0, in the first chunk)
    ends up with the left image's value, the endpoint that sets it to the
    node exactly.
    """
    n = model.n_intervals
    xs, f1, f2 = model.node_x.copy(), model.y.copy(), model.z.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(held):
            m = len(xs)
            level = [np.empty(n * (m - 1) + 1) for _ in range(3)]
            for lo in range(0, m, _BLOCK_POINTS):
                hi = min(lo + _BLOCK_POINTS, m)
                for j in reversed(range(n)):
                    _image(model, j, xs[lo:hi], f1[lo:hi], f2[lo:hi], hi == m,
                           out=[v[j * (m - 1) + lo:j * (m - 1) + hi] for v in level])
            xs, f1, f2 = level
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
    and one block.  The depth checks, with :func:`sample_exact`'s
    ``DEFAULT_MAX_POINTS`` budget, run at the call, before any block.
    """
    _check_depth(model, depth)
    return _blocks(model, depth, min(depth, deepest_level(model.n_intervals, _BLOCK_POINTS)))


def sample_exact(model: ChfifModel, depth: int) -> SampledGraph:
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
    _check_depth(model, depth)
    (xs, f1, f2), = _blocks(model, depth, depth)
    return SampledGraph(xs=xs, f1s=f1, f2s=f2)


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
        # node abscissas belong to the interval they close on the right
        idx = np.clip(np.searchsorted(model.node_x, xs, side="left") - 1, 0, model.n_intervals - 1)
        u = np.clip((xs - model.b[idx]) / model.a[idx], 0.0, 1.0)
        lo = np.clip(np.searchsorted(xs, u, side="right") - 1, 0, len(xs) - 1)
        between = (xs[0] <= u) & (u < xs[-1]) & (xs[lo] != u)
        self.lo = lo
        self.hi = np.where(between, lo + 1, lo)
        self.t = np.where(between, u - xs[lo], -0.0)
        self.dx = np.where(between, xs[self.hi] - xs[lo], 1.0)
        self.coefficients = model.alpha[idx], model.beta[idx], model.gamma[idx], model.p(idx, u), model.q(idx, u)

    def _gather(self, f: np.ndarray) -> np.ndarray:
        lo = f.take(self.lo)
        g = f.take(self.hi)
        g -= lo
        g /= self.dx
        g *= self.t
        g += lo
        return g


def _sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return float(np.max(np.abs(d, out=d)))


@dataclass(frozen=True)
class IterationResult:
    """Fixed-point iteration output with its convergence history."""

    graph: SampledGraph
    f1_distances: tuple[float, ...]
    f2_distances: tuple[float, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.f1_distances)


@np.errstate(over="ignore", invalid="ignore")
def fixed_point_iterate(model: ChfifModel, grid_size: int, max_iters: int, tol: float) -> IterationResult:
    """Iterate the operator on a uniform grid until sweeps stop moving.

    Starts from the piecewise-linear interpolant of the nodes (which already
    satisfies the endpoint conditions) and records the sup-distance between
    successive sweeps per component.  Non-convergence is reported through
    ``converged`` rather than raised, so callers can inspect the distance
    sequence; it usually means the tolerance is tighter than the grid
    resolution supports.  A ``tol`` that is not positive, or NaN, raises.

    The hidden component f2 never reads f1, so once a sweep leaves f2
    bitwise unchanged (distance 0.0 and the same bit pattern, signed zeros
    included) every later sweep would too: from then on only f1 is swept,
    against the held term beta_i f2(u), and 0.0 is recorded as the f2
    distance.  Every value goes through the same operations in the same
    order as a full sweep, so the results are bit-identical to sweeping
    both components throughout.
    """
    if grid_size < model.n_intervals + 1:
        raise ValueError("grid_size must be at least N + 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not tol > 0:   # NaN too
        raise ValueError("tol must be positive")

    xs = np.linspace(0.0, 1.0, grid_size)
    f1 = np.interp(xs, model.node_x, model.y)
    f2 = np.interp(xs, model.node_x, model.z)

    sweep = _SweepPlan(model, xs)
    alpha, beta, gamma, p, q = sweep.coefficients
    d1s: list[float] = []
    d2s: list[float] = []
    converged = f2_settled = False
    for iterations in range(1, max_iters + 1):
        if not f2_settled:
            g2 = sweep._gather(f2)
            beta_g2 = beta * g2
            new_f2 = gamma * g2
            new_f2 += q
            d2 = _sup_distance(new_f2, f2)
            # the same bits, not only equal values: 0.0 == -0.0, yet the
            # sweep can map the two to zeros of different sign
            f2_settled = d2 == 0.0 and np.array_equal(new_f2.view(np.int64), f2.view(np.int64))
            f2 = new_f2
        new_f1 = alpha * sweep._gather(f1)
        new_f1 += beta_g2
        new_f1 += p
        d1 = _sup_distance(new_f1, f1)
        f1 = new_f1
        d1s.append(d1)
        d2s.append(d2)
        if not (math.isfinite(d1) and math.isfinite(d2)):
            # finite sweeps far apart can overflow only their difference
            check_finite(f"fixed_point_iterate at sweep {iterations}", f1, f2)
        if max(d1, d2) < tol:
            converged = True
            break

    graph = SampledGraph(xs=model.to_raw(xs), f1s=f1, f2s=f2)
    return IterationResult(
        graph=graph,
        f1_distances=tuple(d1s),
        f2_distances=tuple(d2s),
        converged=converged,
    )


def _affine_scan(a: np.ndarray, c: np.ndarray, y0: float) -> np.ndarray:
    """y_k = a_k y_{k-1} + c_k for k = 1..n, from y_0 = ``y0``.

    Affine maps compose associatively, so the recurrence is a prefix scan.
    The steps are laid out as ``_SCAN_BLOCK``-step blocks, one block per
    column of a (``_SCAN_BLOCK``, blocks) array.  Each row operation
    advances every block one step from a zero start (``offsets``), and the
    products of the slopes build up alongside (``slopes``).  One scalar
    pass over the block ends gives each block its true start value, and
    then y = slopes * start + offsets.  A short last block is padded with
    identity steps after its end, so y_k is computed from steps 1..k alone,
    the same way for every n.
    """
    n = len(a)
    blocks = -(-n // _SCAN_BLOCK)
    steps = np.ones(blocks * _SCAN_BLOCK)
    offsets = np.zeros(blocks * _SCAN_BLOCK)
    steps[:n] = a
    offsets[:n] = c
    steps = np.ascontiguousarray(steps.reshape(blocks, _SCAN_BLOCK).T)
    offsets = np.ascontiguousarray(offsets.reshape(blocks, _SCAN_BLOCK).T)
    for i in range(1, _SCAN_BLOCK):
        offsets[i] += steps[i] * offsets[i - 1]
    slopes = np.cumprod(steps, axis=0)
    y, starts = float(y0), []
    for slope, offset in zip(slopes[-1].tolist(), offsets[-1].tolist()):
        starts.append(y)
        y = slope * y + offset
    slopes *= starts
    slopes += offsets
    return slopes.T.ravel()[:n]


@np.errstate(over="ignore", invalid="ignore")
def chaos_game(model: ChfifModel, n_points: int, seed: int) -> np.ndarray:
    """Random-iteration rendering of the attractor.

    Applies a uniformly chosen map W_j per step from a seeded pseudorandom
    stream, starting at the first node, discards the first
    ``CHAOS_BURN_IN`` points, and returns an (n_points, 3) array of
    (x, f1, f2) rows.  Once the picks are drawn, each coordinate follows an
    affine recurrence of one scalar: x <- a_j x + b_j, then
    f2 <- gamma_j f2 + q_j(x) and f1 <- alpha_j f1 + (beta_j f2 + p_j(x)),
    with the previous step's x and f2.  Each runs as the blocked prefix
    scan of :func:`_affine_scan`, whose rounding differs from the
    step-by-step recurrence: over the bundled configs, seeds 0-3 and up to
    70,000 points, the worst gap was 3.7e-13 (1 + |v|), and the tests hold
    it to 1e-11 (1 + |v|).  The steps run ``_SCAN_CHUNK`` at a time, the
    chunks at fixed step positions and carrying (x, f1, f2) across, so
    beside the picks and the rows only one chunk's orbits are held.
    Output is fixed by (seed, n_points), and the first k rows are the same
    bits for every n_points >= k.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, model.n_intervals, size=CHAOS_BURN_IN + n_points)
    rows = np.empty((len(picks), 3))
    x, f1, f2 = 0.0, model.y[0], model.z[0]
    for start in range(0, len(picks), _SCAN_CHUNK):
        j = picks[start:start + _SCAN_CHUNK]
        chunk = rows[start:start + len(j)]
        # each step's p, q and beta * f2 read the x and f2 before the step
        xs = np.concatenate(([x], _affine_scan(model.a[j], model.b[j], x)))
        f2s = np.concatenate(([f2], _affine_scan(model.gamma[j], model.q(j, xs[:-1]), f2)))
        chunk[:, 1] = _affine_scan(model.alpha[j], model.beta[j] * f2s[:-1] + model.p(j, xs[:-1]), f1)
        chunk[:, 2] = f2s[1:]
        chunk[:, 0] = model.to_raw(xs[1:])
        x, f1, f2 = xs[-1], chunk[-1, 1], f2s[-1]
        check_finite("chaos_game", chunk[:, 1:])
    return rows[CHAOS_BURN_IN:]
