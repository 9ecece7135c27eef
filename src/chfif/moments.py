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

from .attractor import SampledGraph, sample_exact
from .geometry import ChfifModel


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
    return a_val, b_val


def _checked_word(word, n: int) -> tuple[int, ...]:
    word = tuple(word)
    for r in word:
        if not 1 <= r <= n:
            raise ValueError(f"address symbol {r} outside 1..{n}")
    return word


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


def _walk(model: ChfifModel, word) -> tuple[float, float, float, float]:
    # (start, length, a_w, b_w) after absorbing the word left to right
    cell = (0.0, 1.0, *whole_interval_integrals(model))
    for r in _checked_word(word, model.n_intervals):
        cell = _child(model, r - 1, *cell)
    return cell


def interval_of(model: ChfifModel, word: tuple[int, ...]) -> tuple[float, float]:
    """Unit-domain (start, length) of the subinterval named by ``word``.

    A word (r_1, ..., r_m) over {1..N} names a subinterval; the empty word
    names the whole domain.  Symbol r_k acts as the k-th applied map, so
    the last symbol selects the top-level interval the subinterval sits in
    and the length is the product of the interval lengths selected.
    """
    start, length, _, _ = _walk(model, word)
    return start, length


def moment_a(model: ChfifModel, word: tuple[int, ...]) -> float:
    """Integral of the hidden component over the address interval."""
    return _walk(model, word)[2]


def moment_b(model: ChfifModel, word: tuple[int, ...]) -> float:
    """Integral of the visible component over the address interval."""
    return _walk(model, word)[3]


@dataclass(frozen=True)
class LevelMoments:
    """Moment data for every word of one length, in spatial order."""

    starts: np.ndarray
    lengths: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray


@dataclass(frozen=True)
class MomentTable:
    """Moments for all words up to a depth, with O(1) lookup by word.

    Built level by level, so shared prefixes are computed once.  Words of
    length k are stored at index sum (r_j - 1) * N**(j-1), which coincides
    with left-to-right spatial order of the intervals.
    """

    n_intervals: int
    depth: int
    whole_a: float
    whole_b: float
    levels: tuple[LevelMoments, ...]

    def word_index(self, word: tuple[int, ...]) -> int:
        n = self.n_intervals
        return sum((r - 1) * n ** pos for pos, r in enumerate(_checked_word(word, n)))

    def lookup(self, word: tuple[int, ...]) -> tuple[float, float]:
        """(b, a) moment pair for a stored word."""
        word = tuple(word)
        i = self.word_index(word)
        if not word:
            return self.whole_b, self.whole_a
        if len(word) > self.depth:
            raise KeyError(f"word of length {len(word)} beyond table depth {self.depth}")
        lvl = self.levels[len(word) - 1]
        return float(lvl.b_values[i]), float(lvl.a_values[i])


def build_moment_table(model: ChfifModel, depth: int) -> MomentTable:
    """Tabulate moments for every word of length <= depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    whole_a, whole_b = whole_interval_integrals(model)
    cells = (np.array([0.0]), np.array([1.0]), np.array([whole_a]), np.array([whole_b]))
    levels: list[LevelMoments] = []
    for _ in range(depth):
        children = [_child(model, j, *cells) for j in range(model.n_intervals)]
        cells = tuple(np.concatenate(parts) for parts in zip(*children))
        levels.append(LevelMoments(*cells))
    return MomentTable(
        n_intervals=model.n_intervals,
        depth=depth,
        whole_a=whole_a,
        whole_b=whole_b,
        levels=tuple(levels),
    )


def _cell_indices(level: LevelMoments, xs: np.ndarray) -> np.ndarray:
    # cells are [start, start + length) except the last, which is closed
    idx = np.searchsorted(level.starts, xs, side="right") - 1
    return np.clip(idx, 0, len(level.starts) - 1)


def q_m_values(
    model: ChfifModel,
    m: int,
    xs: np.ndarray,
    table: MomentTable | None = None,
) -> np.ndarray:
    """Level-m averaging operator evaluated at unit-domain points."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if table is None or table.depth < m:
        table = build_moment_table(model, m)
    level = table.levels[m - 1]
    idx = _cell_indices(level, np.asarray(xs, dtype=float))
    return level.b_values[idx] / level.lengths[idx]


def q_m_operator(model: ChfifModel, m: int, x: float, table: MomentTable | None = None) -> float:
    """Mean of f1 over the level-m cell containing ``x``.

    Cells partition [0, 1] half-open with the last cell closed, so shared
    cell endpoints resolve to the cell they start.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return float(q_m_values(model, m, np.array([x]), table)[0])


def address_of(model: ChfifModel, x: float, m: int) -> tuple[int, ...]:
    """Length-m address of the cell containing ``x`` (same tie-breaking)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    word: list[int] = []
    for _ in range(m):
        idx = int(np.clip(np.searchsorted(model.node_x, x, side="right") - 1, 0, model.n_intervals - 1))
        word.append(idx + 1)
        x = min(max(model.L_inv(idx, x), 0.0), 1.0)
    return tuple(reversed(word))


def convergence_profile(
    model: ChfifModel,
    m_max: int,
    probe_depth: int,
    probe: SampledGraph | None = None,
) -> tuple[tuple[int, float], ...]:
    """Empirical uniform-convergence certificate for the averaging operator.

    For each level m <= m_max, the sup over a level-``probe_depth`` exact
    sample grid of |Q_m - f1|.
    """
    if probe_depth < m_max:
        raise ValueError("probe_depth must be >= m_max")
    if probe is None:
        probe = sample_exact(model, probe_depth)
    xs = (np.asarray(probe.xs, dtype=float) - model.x0) / model.span
    table = build_moment_table(model, m_max)
    out = []
    for m in range(1, m_max + 1):
        qm = q_m_values(model, m, xs, table)
        out.append((m, float(np.max(np.abs(qm - probe.f1s)))))
    return tuple(out)
