"""Integral moments over address intervals and the averaging operator.

The integral of each component over an address interval obeys a one-step
recursion in the outermost address symbol:

    a_{w r} = |I_r| ( int_{I_w} q_r  + gamma_r a_w )
    b_{w r} = |I_r| ( int_{I_w} p_r  + beta_r a_w + alpha_r b_w )

with the whole-interval integrals A, B as base case.  Template integrals
are closed-form, so the recursion is exact; quadrature appears only in test
oracles.  The level-m averaging operator returns the mean b_w / |I_w| of
the cell containing the query point and converges uniformly to f1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attractor
from .attractor import check_finite, sample_exact
from .exceptions import DepthLimitError
from .geometry import ChfifModel


@np.errstate(over="ignore", invalid="ignore")
def whole_interval_integrals(model: ChfifModel) -> tuple[float, float]:
    """Whole-domain integrals (A, B) of the hidden and visible components.

    Integrating both functional equations over the unit domain and summing
    over intervals gives closed-form linear solves; the denominators cannot
    vanish because |alpha_i| < 1, |gamma_i| < 1 and the lengths sum to 1.
    """
    j = np.arange(model.n_intervals)
    int_q = model.q.integral(j, 0.0, 1.0)
    int_p = model.p.integral(j, 0.0, 1.0)
    lengths = model.a
    a_val = float(np.sum(lengths * int_q) / (1.0 - np.sum(lengths * model.gamma)))
    b_val = float(
        np.sum(lengths * (int_p + model.beta * a_val))
        / (1.0 - np.sum(lengths * model.alpha))
    )
    check_finite("whole_interval_integrals", a_val, b_val)
    return a_val, b_val


def _child(model: ChfifModel, j, start, length, a_val, b_val):
    """One step of the cell recursion: the image of a cell under map ``j``.

    Takes the cell's (start, length, a_w, b_w) and returns the same four
    for the cell named by appending symbol j + 1; scalars or arrays of
    cells.
    """
    end = start + length
    iq = model.q.integral(j, start, end)
    ip = model.p.integral(j, start, end)
    return (
        model.a[j] * start + model.b[j],
        model.a[j] * length,
        model.a[j] * (iq + model.gamma[j] * a_val),
        model.a[j] * (ip + model.beta[j] * a_val + model.alpha[j] * b_val),
    )


@dataclass(frozen=True, eq=False)
class LevelMoments:
    """Moment data for every word of one length, in spatial order."""

    starts: np.ndarray
    lengths: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Moments for all words up to a depth, ``len(levels)``.

    Built level by level, so shared prefixes are computed once.  Words of
    length k are stored at index sum (r_j - 1) * N**(j-1), which coincides
    with left-to-right spatial order of the intervals.
    """

    whole_a: float
    whole_b: float
    levels: tuple[LevelMoments, ...]


def build_moment_table(model: ChfifModel, depth: int) -> MomentTable:
    """Tabulate moments for every word of length <= depth.

    Raises :class:`DepthLimitError` when the N**depth + 1 cell edges exceed
    ``attractor.DEFAULT_MAX_POINTS``, the budget of :func:`sample_exact`.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > attractor.deepest_level(model.n_intervals, attractor.DEFAULT_MAX_POINTS) + 1:
        raise DepthLimitError(f"depth {depth} needs more cell edges than the {attractor.DEFAULT_MAX_POINTS}-point limit")
    whole_a, whole_b = whole_interval_integrals(model)
    cells = (np.array([0.0]), np.array([1.0]), np.array([whole_a]), np.array([whole_b]))
    levels: list[LevelMoments] = []
    for _ in range(depth):
        # every map's image of every cell at once, (map, cell), read map by map
        cells = tuple(v.ravel() for v in _child(model, np.arange(model.n_intervals)[:, None], *cells))
        levels.append(LevelMoments(*cells))
    return MomentTable(whole_a=whole_a, whole_b=whole_b, levels=tuple(levels))


def convergence_profile(model: ChfifModel, m_max: int, probe_depth: int) -> tuple[tuple[int, float], ...]:
    """Empirical uniform-convergence certificate for the averaging operator.

    For each level m <= m_max, the sup over a level-``probe_depth`` exact
    sample grid of |Q_m - f1|.  The probe has N**(probe_depth+1) + 1 points
    and holds every coarser grid at stride s = N**(probe_depth+1-m), so
    point i lies in level-m cell min(i // s, N**m - 1), whose Q_m is the
    cell's mean.  A level-m cell's largest and smallest f1 fold those of
    its N consecutive level-(m+1) cells, from the points up (the last cell
    also takes the last point), by ``np.maximum``/``np.minimum`` over N
    strided columns, faster than reducing a short axis.  Rounded,
    mean - f falls as f rises, so the sup over a cell is
    max(top - mean, mean - bot): the same bits as the largest
    |mean - f| over its points.
    """
    if probe_depth < m_max:
        raise ValueError("probe_depth must be >= m_max")
    n = model.n_intervals
    f1 = sample_exact(model, probe_depth).f1s
    table = build_moment_table(model, m_max)
    top = bot = f1[:-1]
    out = []
    for m in range(probe_depth, 0, -1):
        tops, bots = top.reshape(-1, n).T, bot.reshape(-1, n).T
        top, bot = np.maximum(tops[0], tops[1]), np.minimum(bots[0], bots[1])
        for k in range(2, n):
            np.maximum(top, tops[k], out=top)
            np.minimum(bot, bots[k], out=bot)
        if m == probe_depth:
            top[-1], bot[-1] = max(top[-1], f1[-1]), min(bot[-1], f1[-1])
        if m <= m_max:
            level = table.levels[m - 1]
            means = level.b_values / level.lengths
            # abs: a cell whose points all equal its mean gives 0.0 or -0.0, and |mean - f| is 0.0
            out.append((m, float(np.max(np.abs(np.maximum(top - means, means - bot))))))
    return tuple(reversed(out))
