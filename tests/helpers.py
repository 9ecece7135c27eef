"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

from chfif import InterpolationProblem, IntervalParams, PowerTerm, sample_exact, solve_model
from chfif.attractor import map_images
from chfif.presets import GALLERY_NAMES, gallery_problem

ALL_GALLERY = GALLERY_NAMES
NODES_X = np.array([0.0, 0.35, 0.75, 1.0])
NODES_Y = np.array([2.0, 7.0, 4.0, 9.0])

# finite inputs whose curve leaves the float range, though not in the first
# level-2 block when blocks hold N + 1 points
LATE_OVERFLOW = """\
problem:
  nodes: [[0.0, 0.0], [0.5, 1.0e308], [1.0, 0.0]]
  hidden: [0.0, 1.0e308, 0.0]
  intervals:
    - {alpha: 0.9, beta: 0.05, gamma: 0.9}
    - {alpha: 0.9, beta: 0.05, gamma: 0.9}
"""


@functools.lru_cache(maxsize=None)
def model_for(name: str):
    return solve_model(gallery_problem(name))


@functools.lru_cache(maxsize=8)
def sampled_for(name: str, depth: int):
    if depth > 10:
        raise ValueError("cache only small grids; sample deep grids locally")
    return sample_exact(model_for(name), depth)


def make_problem(
    nodes=((0.0, 2.0), (0.35, 7.0), (0.75, 4.0), (1.0, 9.0)),
    hidden=(3.0, 1.0, 8.0, 5.0),
    alphas=(0.2, 0.38, 0.2),
    betas=(0.4, 0.35, 0.5),
    gammas=(0.3, 0.3, 0.24),
    p_powers=None,
    q_powers=None,
) -> InterpolationProblem:
    n = len(alphas)
    p_powers = p_powers or (None,) * n
    q_powers = q_powers or (None,) * n
    params = tuple(
        IntervalParams(alpha=a, beta=b, gamma=g, p_power=pp, q_power=qp)
        for a, b, g, pp, qp in zip(alphas, betas, gammas, p_powers, q_powers)
    )
    return InterpolationProblem(nodes=tuple(nodes), hidden=tuple(hidden), params=params)


def zero_param_problem() -> InterpolationProblem:
    return make_problem(alphas=(0.0, 0.0, 0.0), betas=(0.0, 0.0, 0.0), gammas=(0.0, 0.0, 0.0))


def equidistant_problem(alphas, betas, gammas, ys=(0.0, 1.0, 0.0), zs=None, q_powers=None,
                        p_powers=None) -> InterpolationProblem:
    n = len(alphas)
    xs = np.linspace(0.0, 1.0, n + 1)
    nodes = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    hidden = tuple(zs) if zs is not None else tuple(ys)
    return make_problem(nodes=nodes, hidden=hidden, alphas=alphas, betas=betas,
                        gammas=gammas, p_powers=p_powers, q_powers=q_powers)


def power(coeff: float, exponent: float) -> PowerTerm:
    return PowerTerm(coeff=coeff, exponent=exponent)


def preimages(model, xs):
    """Interval index of each unit-domain abscissa and its preimage L_i^{-1}(x)."""
    idx = np.clip(np.searchsorted(model.node_x, xs, side="left") - 1, 0, model.n_intervals - 1)
    return idx, np.clip((xs - model.b[idx]) / model.a[idx], 0.0, 1.0)


def interp_sweep(model, xs, f1, f2):
    """Oracle for one operator sweep: np.interp at the preimages, then the maps.

    The direct way to write the sweep, to check the library's precomputed
    gather against bit for bit.  The map arithmetic is written out rather
    than taken from the library, so the oracle shares no code with it.
    """
    idx, u = preimages(model, xs)
    g1 = np.interp(u, xs, f1)
    g2 = np.interp(u, xs, f2)
    return (model.alpha[idx] * g1 + model.beta[idx] * g2 + model.p(idx, u),
            model.gamma[idx] * g2 + model.q(idx, u))


def bit_identical(a, b) -> bool:
    """Same dtype, shape and bytes: equal values and equal signs of zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@np.errstate(over="ignore", invalid="ignore")
def breadth_first_exact(model, depth):
    """Oracle for the exact route: the level loop that built the whole grid before streaming.

    Every level is all N images of the level before, concatenated; returns
    raw-domain ``(xs, f1, f2)`` with no finiteness check.
    """
    n = model.n_intervals
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
    return model.to_raw(xs), f1, f2


def csv_text(xs, f1, f2, precision: int) -> str:
    """Oracle for ``generate`` output: the header, then every value formatted on its own."""
    rows = ["x,f1,f2"] + [",".join(format(float(v), f".{precision}g") for v in row)
                          for row in zip(xs, f1, f2)]
    return "\n".join(rows) + "\n"


def brute_force_oscillation(xs, ys, window) -> float:
    """Oracle for ``max_oscillation``: the largest |ys[j] - ys[i]| over all pairs i <= j with xs[j] - xs[i] <= window.

    O(n**2) in time and memory; keep n small.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    i, j = np.triu_indices(xs.size)
    spreads = np.abs(ys[j] - ys[i])[xs[j] - xs[i] <= window]
    return float(spreads.max()) if spreads.size else 0.0


def deque_oscillation(xs, ys, window) -> float:
    """Oracle for ``max_oscillation``: the sliding-window scan with monotonic deques it replaced."""
    n = len(xs)
    best = 0.0
    lo = 0
    max_q: deque[int] = deque()   # indices, ys decreasing
    min_q: deque[int] = deque()   # indices, ys increasing
    for hi in range(n):
        yhi = ys[hi]
        while max_q and ys[max_q[-1]] <= yhi:
            max_q.pop()
        max_q.append(hi)
        while min_q and ys[min_q[-1]] >= yhi:
            min_q.pop()
        min_q.append(hi)
        while xs[hi] - xs[lo] > window:
            lo += 1
        while max_q[0] < lo:
            max_q.popleft()
        while min_q[0] < lo:
            min_q.popleft()
        spread = ys[max_q[0]] - ys[min_q[0]]
        if spread > best:
            best = spread
    return float(best)
