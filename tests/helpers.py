"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import functools
import math
from collections import deque
from types import SimpleNamespace

import numpy as np

from chfif import (InterpolationProblem, IntervalParams, PowerTerm, apply_operator, build_moment_table,
                   sample_exact, solve_model, whole_interval_integrals)
from chfif.attractor import CHAOS_BURN_IN, map_images
from chfif.config import GALLERY_NAMES, resolve_config
from chfif.geometry import CRITICAL_RTOL
from chfif.moments import _child

ALL_GALLERY = GALLERY_NAMES
NODES_X = np.array([0.0, 0.35, 0.75, 1.0])
NODES_Y = np.array([2.0, 7.0, 4.0, 9.0])

# Expected (theta, omega, gamma) regime per gallery entry with ratios
# computed from the fixed data set: criterion 7's caption data, also
# documented in the README.  Entries 4-16 cover all nine regime combinations.
EXPECTED_REGIMES: dict[str, tuple[str, str, str]] = {
    "fig4": ("LT1", "LT1", "LT1"),
    "fig5": ("EQ1", "EQ1", "EQ1"),
    "fig6": ("GT1", "GT1", "GT1"),
    "fig7": ("LT1", "LT1", "GT1"),
    "fig8": ("GT1", "GT1", "LT1"),
    "fig9": ("EQ1", "EQ1", "LT1"),
    "fig10": ("LT1", "LT1", "EQ1"),
    "fig11": ("EQ1", "EQ1", "GT1"),
    "fig12": ("GT1", "GT1", "EQ1"),
    "fig13": ("LT1", "LT1", "LT1"),
    "fig14": ("GT1", "GT1", "GT1"),
    "fig15": ("GT1", "GT1", "LT1"),
    "fig16": ("GT1", "GT1", "GT1"),
}

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
    return solve_model(resolve_config(name).problem)


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


def functional_residuals(model, graph):
    """Sup-norm residuals of the two functional equations after one operator sweep.

    The natural residual for iterates; on exact samples use ``exact_residuals``.
    """
    xs = (np.asarray(graph.xs, dtype=float) - model.x0) / model.span
    t1, t2 = apply_operator(model, xs, graph.f1s, graph.f2s)
    return float(np.max(np.abs(t1 - graph.f1s))), float(np.max(np.abs(t2 - graph.f2s)))


def address_of(model, x: float, m: int) -> tuple[int, ...]:
    """Oracle for the moment table's cell lookup: the length-m address of the cell holding ``x``.

    Walks the inverse domain maps, outermost symbol first, with the table's tie-breaking.
    """
    word: list[int] = []
    for _ in range(m):
        idx = int(np.clip(np.searchsorted(model.node_x, x, side="right") - 1, 0, model.n_intervals - 1))
        word.append(idx + 1)
        x = min(max((x - model.b[idx]) / model.a[idx], 0.0), 1.0)
    return tuple(reversed(word))


def _checked_word(word, n: int) -> tuple[int, ...]:
    word = tuple(word)
    for r in word:
        if not 1 <= r <= n:
            raise ValueError(f"address symbol {r} outside 1..{n}")
    return word


def _walk(model, word) -> tuple[float, float, float, float]:
    # (start, length, a_w, b_w) after absorbing the word left to right, one
    # step of the moment table's own cell recursion per symbol
    cell = (0.0, 1.0, *whole_interval_integrals(model))
    for r in _checked_word(word, model.n_intervals):
        cell = _child(model, r - 1, *cell)
    return cell


def interval_of(model, word) -> tuple[float, float]:
    """Oracle for the table's cells: unit-domain (start, length) of the subinterval named by ``word``.

    A word (r_1, ..., r_m) over {1..N} names a subinterval; the empty word
    names the whole domain.  Symbol r_k acts as the k-th applied map, so
    the last symbol selects the top-level interval the subinterval sits in
    and the length is the product of the interval lengths selected.
    """
    start, length, _, _ = _walk(model, word)
    return start, length


def moment_a(model, word) -> float:
    """Oracle for the table: the integral of the hidden component over the address interval."""
    return _walk(model, word)[2]


def moment_b(model, word) -> float:
    """Oracle for the table: the integral of the visible component over the address interval."""
    return _walk(model, word)[3]


def word_index(table, word) -> int:
    """Position of ``word`` among the table's words of its length: sum (r_j - 1) * N**(j-1).

    N is the count of words of length 1, so the table holds at least that level.
    """
    n = len(table.levels[0].starts)
    return sum((r - 1) * n ** pos for pos, r in enumerate(_checked_word(word, n)))


def lookup(table, word) -> tuple[float, float]:
    """The table's (b, a) moment pair for a stored word."""
    word = tuple(word)
    i = word_index(table, word)
    if not word:
        return table.whole_b, table.whole_a
    if len(word) > len(table.levels):
        raise KeyError(f"word of length {len(word)} beyond table depth {len(table.levels)}")
    lvl = table.levels[len(word) - 1]
    return float(lvl.b_values[i]), float(lvl.a_values[i])


def q_m_values(model, m: int, xs) -> np.ndarray:
    """Oracle for the averaging operator: the level-m cell mean at unit-domain points, found by search.

    Cells are [start, start + length) except the last, which is closed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    level = build_moment_table(model, m).levels[m - 1]
    idx = np.searchsorted(level.starts, np.asarray(xs, dtype=float), side="right") - 1
    idx = np.clip(idx, 0, len(level.starts) - 1)
    return level.b_values[idx] / level.lengths[idx]


def repeated_profile(model, m_max: int, probe_depth: int):
    """Oracle for ``convergence_profile``: each level's means repeated over the probe, then |Q_m - f1|.

    The level-m mean is repeated N**(probe_depth+1-m) times, once per probe
    point of its cell, and the last mean once more for the last point.
    """
    probe = sample_exact(model, probe_depth)
    table = build_moment_table(model, m_max)
    out = []
    for m, level in enumerate(table.levels, start=1):
        means = level.b_values / level.lengths
        qm = np.append(np.repeat(means, model.n_intervals ** (probe_depth + 1 - m)), means[-1])
        out.append((m, float(np.max(np.abs(qm - probe.f1s)))))
    return tuple(out)


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


@np.errstate(over="ignore", invalid="ignore")
def chaos_reference(model, n_points: int, seed: int) -> np.ndarray:
    """Oracle for ``chaos_game``: the step-by-step recurrence it replaced.

    The same picks, start point and burn-in; x, then (f1, f2), advanced one
    step at a time on Python floats, so every value is the sequential
    recurrence's rounding.  No finiteness check.
    """
    picks = np.random.default_rng(seed).integers(0, model.n_intervals, size=CHAOS_BURN_IN + n_points)
    xs = [0.0]
    for a, b in zip(model.a[picks].tolist(), model.b[picks].tolist()):
        xs.append(a * xs[-1] + b)
    xs = np.array(xs)
    ps = model.p(picks, xs[:-1]).tolist()
    qs = model.q(picks, xs[:-1]).tolist()
    fy, fz = float(model.y[0]), float(model.z[0])
    f1, f2 = [], []
    for alpha, beta, gamma, p, q in zip(model.alpha[picks].tolist(), model.beta[picks].tolist(),
                                        model.gamma[picks].tolist(), ps, qs):
        fy, fz = alpha * fy + beta * fz + p, gamma * fz + q
        f1.append(fy)
        f2.append(fz)
    return np.column_stack((model.to_raw(xs[CHAOS_BURN_IN + 1:]), f1[CHAOS_BURN_IN:], f2[CHAOS_BURN_IN:]))


def orbit_defect(problem, cloud) -> float:
    """Oracle for a chaos cloud: how far each row is from the image W_j of the row before.

    The maps are solved here from the problem, not taken from
    ``chfif.geometry``: W_j sends (0, y_0, z_0) to (u_{j-1}, y_{j-1}, z_{j-1})
    and (1, y_N, z_N) to (u_j, y_j, z_j), with p_j(u) = c u + d + h u**lam
    and q_j(u) = e u + f + k u**mu.  Each row's j is the map whose abscissa
    image lies nearest.  Returns the worst defect, of u absolute and of
    (f1, f2) relative to 1 + max|f|.
    """
    xs = np.array([x for x, _ in problem.nodes])
    ys = np.array([y for _, y in problem.nodes])
    zs = np.array(problem.hidden)
    nodes_u = (xs - xs[0]) / (xs[-1] - xs[0])
    par = problem.params
    alpha, beta, gamma = (np.array([getattr(q, key) for q in par]) for key in ("alpha", "beta", "gamma"))
    h = np.array([q.p_power.coeff if q.p_power else 0.0 for q in par])
    lam = np.array([q.p_power.exponent if q.p_power else 1.0 for q in par])
    k = np.array([q.q_power.coeff if q.q_power else 0.0 for q in par])
    mu = np.array([q.q_power.exponent if q.q_power else 1.0 for q in par])
    d = ys[:-1] - alpha * ys[0] - beta * zs[0]
    c = ys[1:] - alpha * ys[-1] - beta * zs[-1] - d - h
    f = zs[:-1] - gamma * zs[0]
    e = zs[1:] - gamma * zs[-1] - f - k

    u = (cloud[:, 0] - xs[0]) / (xs[-1] - xs[0])
    pu, p1, p2 = u[:-1], cloud[:-1, 1], cloud[:-1, 2]
    image_u = np.diff(nodes_u)[:, None] * pu + nodes_u[:-1, None]
    j = np.argmin(np.abs(image_u - u[1:]), axis=0)
    image_1 = alpha[j] * p1 + beta[j] * p2 + c[j] * pu + d[j] + h[j] * pu ** lam[j]
    image_2 = gamma[j] * p2 + e[j] * pu + f[j] + k[j] * pu ** mu[j]
    scale = 1.0 + float(np.max(np.abs(cloud[:, 1:])))
    return max(float(np.max(np.abs(image_u[j, np.arange(len(j))] - u[1:]))),
               float(np.max(np.abs(image_1 - cloud[1:, 1]))) / scale,
               float(np.max(np.abs(image_2 - cloud[1:, 2]))) / scale)


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


# (theta > 1, omega > 1, gamma > 1) -> the case table's exponent tag
_ORACLE_TAGS = {
    (False, False, False): "delta1", (False, True, True): "delta2",
    (False, True, False): "delta3", (False, False, True): "delta4",
    (True, False, False): "delta5", (True, True, True): "delta6",
    (True, True, False): "delta7", (True, False, True): "delta8",
}


def classify_oracle(model):
    """Oracle for ``classify``: the case table with its own regimes and exponent formulas.

    Decides each ratio's regime with its own copy of the critical window and
    evaluates tau1, tau2 and delta1..delta8 from the model's parameter
    arrays; a log ratio over a zero parameter maximum is infinite.  Returns
    the regimes ``theta``, ``omega``, ``gamma`` and the report's ``order``,
    ``delta``, ``tag``, ``tau1``, ``tau2`` and ``degenerate``.
    """
    def regime_state(value, rtol):
        if abs(value - 1.0) <= rtol:
            return "EQ1"
        return "LT1" if value < 1.0 else "GT1"

    def log_ratio(top):
        return math.log(top) / math.log(i_min) if top > 0.0 else math.inf

    rtol = CRITICAL_RTOL
    theta = regime_state(model.theta, rtol)
    omega = regime_state(model.omega, rtol)
    gamma = regime_state(model.gamma_ratio, rtol)

    i_min = float(np.min(model.a))
    alpha_max = float(np.max(np.abs(model.alpha)))
    gamma_max = float(np.max(np.abs(model.gamma)))
    lam, mu = model.lam, model.mu
    tau1, tau2 = log_ratio(alpha_max), log_ratio(gamma_max)
    delta6 = log_ratio(alpha_max * gamma_max) - mu
    deltas = {
        "delta1": min(lam, mu), "delta2": min(tau1, tau2), "delta3": min(tau1, mu),
        "delta4": min(lam, tau2), "delta5": min(lam, tau1), "delta6": delta6,
        "delta7": tau1, "delta8": min(lam, delta6),
    }
    tag = _ORACLE_TAGS[(theta == "GT1", omega == "GT1", gamma == "GT1")]
    delta = deltas[tag]

    critical_subcase = omega == "EQ1" or gamma == "EQ1"
    if theta == "GT1":
        order = "DELTA_LOG" if critical_subcase else "LIP_DELTA"
    elif theta == "EQ1":
        order = "DELTA_LOG2" if critical_subcase else "DELTA_LOG"
    else:
        order = "DELTA_LOG" if critical_subcase else "LIP_DELTA"

    degenerate = not delta > 0.0
    if not degenerate and delta > 1.0:
        delta = 1.0
    return SimpleNamespace(theta=theta, omega=omega, gamma=gamma, order=order, delta=delta,
                           tag=tag, tau1=tau1, tau2=tau2, degenerate=degenerate)
