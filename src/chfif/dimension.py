"""Fractal-dimension bounds for critical configurations and box counting.

Theoretical bounds exist whenever one of the ratios Omega, Gamma, Theta is
critical (equal to 1 within tolerance).  The empirical side counts
origin-anchored square grid cells touched by the polyline through the
samples and regresses log-count against log-scale over a dyadic range.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .attractor import SampledGraph, _Interp
from .exceptions import InsufficientScalesError, SamplingTooCoarseError
from .geometry import CRITICAL_RTOL, ChfifModel, is_equidistant
from .smoothness import SmoothnessReport, loglog_fit

# Sample spacing must be at most epsilon / DENSITY_FACTOR, or counts at the
# finest scales are biased low.
DEFAULT_DENSITY_FACTOR = 4.0

CriticalCondition = Literal["omega", "gamma", "theta", "none"]

_COLUMN_TABLES = weakref.WeakKeyDictionary()   # each graph's `_column_table`s by epsilon, while the graph lives


@dataclass(frozen=True)
class TheoreticalBounds:
    """Dimension bounds under a critical condition, clamped to [1, 2].

    ``lower_unclamped``/``upper_unclamped`` record the raw formula values;
    the formulas can leave [1, 2] for extreme parameters and the clamped
    values are the reported interval.
    """

    lower: float
    upper: float
    lower_unclamped: float
    upper_unclamped: float
    critical_condition: CriticalCondition


def _abs_sum(model: ChfifModel, channel: Literal["alpha", "gamma"]) -> float:
    """sum |alpha_i| or sum |gamma_i|."""
    return float(np.sum(np.abs(getattr(model, channel))))


def theoretical_bounds(model: ChfifModel, report: SmoothnessReport) -> TheoreticalBounds | None:
    """Dimension bounds for the visible component's graph, if critical.

    With I_max the largest interval length, N the interval count and S the
    relevant parameter sum (|alpha| when Omega or Theta is critical,
    |gamma| when only Gamma is):

        lower = 1 - log(S) / log(I_max)
        upper = 1 - delta - log(N) / log(I_max)

    For equidistant nodes these reduce to 1 + log(S)/log(N) and 2 - delta.
    Returns None when the classifier found no critical ratio, or when its
    exponent is degenerate.
    """
    if report.degeneracy is not None:
        return None
    if report.omega_state == "EQ1":
        condition: CriticalCondition = "omega"
        channel: Literal["alpha", "gamma"] = "alpha"
    elif report.gamma_state == "EQ1":
        condition = "gamma"
        channel = "gamma"
    elif report.theta_regime == "EQ1":
        condition = "theta"
        channel = "alpha"
    else:
        return None
    s = _abs_sum(model, channel)

    log_imax = math.log(model.length_max)
    n = model.n_intervals
    lower_raw = 1.0 - (math.log(s) / log_imax if s > 0 else math.inf)
    upper_raw = 1.0 - report.delta - math.log(n) / log_imax
    lower = min(max(lower_raw, 1.0), 2.0)
    upper = min(max(upper_raw, 1.0), 2.0)
    return TheoreticalBounds(
        lower=lower,
        upper=upper,
        lower_unclamped=lower_raw,
        upper_unclamped=upper_raw,
        critical_condition=condition,
    )


def _too_coarse(sampled: SampledGraph, epsilon: float, density_factor: float) -> bool:
    if not density_factor > 0:   # NaN too
        raise ValueError("density_factor must be positive")
    return sampled.max_gap > epsilon / density_factor * (1.0 + 1e-12)


def _column_table(sampled: SampledGraph, epsilon: float):
    # (first column, filled flags, sample-only column max and min, crossing
    # values, rising flags), folded when the end columns halve to these
    tables = _COLUMN_TABLES.setdefault(sampled, {})
    if epsilon in tables:
        return tables[epsilon]
    xs, ys = sampled.xs, sampled.f1s
    j_lo, j_hi = math.floor(xs[0] / epsilon), math.floor(xs[-1] / epsilon)
    fine = tables.get(epsilon / 2) if epsilon / 2 * 2 == epsilon else None
    if fine is not None and (fine[0] // 2, (fine[0] + fine[1].size - 1) // 2) == (j_lo, j_hi):
        # pad to even absolute columns; crossing i lies on boundary j + 1 + i
        j, filled, top, bot, cross_y, rising = fine
        pad = (j % 2, (j % 2 + filled.size) % 2)
        filled, top, bot = (np.concatenate((np.full(pad[0], fill), v, np.full(pad[1], fill)))
                            for v, fill in ((filled, False), (top, -np.inf), (bot, np.inf)))
        keep = slice((j + 1) % 2, None, 2)
        table = (j_lo, filled[0::2] | filled[1::2], np.maximum(top[0::2], top[1::2]),
                 np.minimum(bot[0::2], bot[1::2]), cross_y[keep], rising[keep])
    else:
        # column c holds xs[s[c-1]:s[c]] (s[-1] = 0, s[C] = n), the first one
        # possibly none; crossing c is reached along [xs[k-1], xs[k]]
        crossings = epsilon * np.arange(j_lo + 1, j_hi + 1, dtype=float)
        s = np.searchsorted(xs, crossings, side="left")
        starts = np.concatenate(([0], s))
        filled = starts < np.append(s, xs.size)
        top, bot = np.full(filled.size, -np.inf), np.full(filled.size, np.inf)
        top[filled] = np.maximum.reduceat(ys, starts[filled])
        bot[filled] = np.minimum.reduceat(ys, starts[filled])
        if not np.isfinite([top.max(), bot.min()]).all():
            raise ValueError("the graph's values are not all finite")
        k = np.clip(s, 1, xs.size - 1)
        with np.errstate(over="ignore"):   # as np.interp, which does not warn on a slope that overflows
            cross_y = _Interp(xs, crossings, s)._gather(ys)
        table = (j_lo, filled, top, bot, cross_y, ys[k] > ys[k - 1])
    tables[epsilon] = table
    return table


def box_count(
    sampled: SampledGraph,
    epsilon: float,
    density_factor: float = DEFAULT_DENSITY_FACTOR,
) -> int:
    """Number of epsilon-cells touched by the polyline through the ``(xs, f1s)`` samples.

    Cells are half-open squares [j*eps, (j+1)*eps) x [i*eps, (i+1)*eps), so
    every curve point lands in exactly one cell and the count is
    deterministic.  Within a column the polyline is connected, so the
    column is charged every row between its lowest and highest cell.  The
    value ``v`` at each column boundary ``x = j*eps`` is interpolated and
    charged twice: to column ``j`` as a curve point, and to column ``j-1``
    as the open limit of the segment that ends there from the left.  That
    limit lies in row ``floor(v/eps)`` when the segment approaches ``v``
    from above or flat, and in row ``ceil(v/eps) - 1`` when it approaches
    from below, so a ``v`` on a row boundary is not charged to a row the
    left column never enters.  Column boundaries are the floating-point
    products ``j*eps`` themselves, so rounding in ``x/eps`` cannot move a
    boundary value out of its column.  Each column's extent is the min and
    max of its run of samples, folded with its boundary values.  The runs
    come from the graph's table at ``eps``, held here from first use while
    the graph lives: one ``searchsorted`` split of the samples, or the
    held table at an exact ``eps/2`` with columns 2c and 2c+1 merged, the
    same bits since ``(2j)*(eps/2)`` is the float ``j*eps``.  Refuses
    (rather than undercounts) when the sample spacing, the graph's
    :attr:`~SampledGraph.max_gap`, exceeds eps / density_factor.  Raises
    ``ValueError`` unless ``epsilon`` and ``density_factor`` are positive,
    and for abscissas out of order or not finite, or values not finite.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if _too_coarse(sampled, epsilon, density_factor):
        raise SamplingTooCoarseError(
            f"sample spacing {sampled.max_gap:.3g} exceeds epsilon/{density_factor:g} = "
            f"{epsilon / density_factor:.3g}; refine the sampling")
    _, filled, top, bot, cross_y, rising = _column_table(sampled, epsilon)
    row_lo = np.floor(np.minimum(np.concatenate(([np.inf], cross_y)), bot) / epsilon)
    row_hi = np.floor(np.maximum(np.concatenate(([-np.inf], cross_y)), top) / epsilon)
    # crossing c closes column c
    limit_row = np.where(rising, np.ceil(cross_y / epsilon) - 1.0, np.floor(cross_y / epsilon))
    row_lo[:-1] = np.minimum(row_lo[:-1], limit_row)
    row_hi[:-1] = np.maximum(row_hi[:-1], limit_row)
    # the first column is empty only when rounding puts xs[0] at or past the
    # first crossing; it is then not counted, so crossing 0 closes no column
    first = 0 if filled[0] else 1
    return int(np.sum(row_hi[first:] - row_lo[first:] + 1.0))


@dataclass(frozen=True)
class EmpiricalDimension:
    """Box-count regression outcome over ascending dyadic exponents j (eps = 2**-j)."""

    estimate: float
    r_squared: float
    exponents: tuple[int, ...]
    counts: tuple[int, ...]


def estimate_dimension(
    sampled: SampledGraph,
    eps_exponents: Iterable[int],
    density_factor: float = DEFAULT_DENSITY_FACTOR,
) -> EmpiricalDimension:
    """Least-squares slope of log(count) against log(1/eps).

    ``eps_exponents`` are the dyadic exponents j, eps = 2**-j; at least
    four are required, each narrower than the graph's x-extent (a wider
    cell covers a whole column of the graph, so its count says nothing of
    the dimension).  :func:`box_count`'s density precondition applies to
    the smallest epsilon, and its positive ``density_factor`` to all.
    """
    exponents = sorted(set(int(j) for j in eps_exponents))
    if len(exponents) < 4:
        raise InsufficientScalesError(
            f"need at least 4 epsilon values, got {len(exponents)}")
    width = float(sampled.xs[-1] - sampled.xs[0])
    if 2.0 ** (-exponents[0]) >= width:
        raise InsufficientScalesError(
            f"box scale 2^{-exponents[0]} = {2.0 ** (-exponents[0]):.6g} is not narrower than "
            f"the graph's width {width:.6g}")
    # the coarsest scale the sampling does not resolve goes first, for box_count
    # to refuse; then the finest, so each scale folds the table of the one below
    order = [j for j in exponents if _too_coarse(sampled, 2.0 ** (-j), density_factor)][:1] + exponents[::-1]
    counts = [box_count(sampled, 2.0 ** (-j), density_factor) for j in order][::-1]
    log_inv_eps = np.array(exponents, dtype=float) * math.log(2.0)
    slope, r2 = loglog_fit(log_inv_eps, np.log(np.array(counts, dtype=float)))
    return EmpiricalDimension(estimate=slope, r_squared=r2, exponents=tuple(exponents), counts=tuple(counts))


# (theta regimes, admissible delta tags, parameter-sum channels); a case
# holds when the report's tag is listed with delta = 1 and one listed
# channel sum is <= 1.
_DIMENSION_ONE_CASES = (
    (("LT1", "EQ1"), ("delta1", "delta3"), ("alpha", "gamma")),
    (("LT1", "EQ1"), ("delta4",), ("alpha",)),
    (("EQ1",), ("delta2",), ("alpha",)),
    (("GT1",), ("delta5", "delta8"), ("alpha",)),
    (("GT1",), ("delta4",), ("gamma",)),
)


def dimension_one_predicate(model: ChfifModel, report: SmoothnessReport) -> tuple[bool, str | None]:
    """Whether the graph provably has dimension exactly 1, and which hypothesis failed.

    Only stated for equidistant nodes; each case requires the classifier's
    exponent tag to equal 1 and the relevant parameter sum to stay at or
    below 1.  The note names a failed hypothesis, or is None.
    """
    if not is_equidistant(model):
        return False, "equidistant hypothesis fails"
    if report.degeneracy is not None:
        return False, "classification exponent is degenerate"
    delta_is_one = abs(report.delta - 1.0) <= CRITICAL_RTOL
    for regimes, tags, channels in _DIMENSION_ONE_CASES:
        if report.theta_regime not in regimes:
            continue
        if report.delta_tag not in tags or not delta_is_one:
            continue
        if any(_abs_sum(model, ch) <= 1.0 + CRITICAL_RTOL for ch in channels):
            return True, None
    return False, None


def dimension_report(
    model: ChfifModel,
    report: SmoothnessReport,
    sampled: SampledGraph,
    eps_exponents: Iterable[int],
) -> list[tuple[str, object]]:
    """The report's ``(key, value)`` lines; which ratios are critical is read from ``report``."""
    bounds = theoretical_bounds(model, report)
    empirical = estimate_dimension(sampled, eps_exponents)
    one_holds, one_note = dimension_one_predicate(model, report)
    pairs = [
        ("critical_condition", bounds.critical_condition if bounds else "none"),
        ("omega_critical", report.omega_state == "EQ1"),
        ("gamma_critical", report.gamma_state == "EQ1"),
        ("theta_critical", report.theta_regime == "EQ1"),
    ]
    if bounds is not None:
        pairs += [
            ("lower_bound", bounds.lower),
            ("upper_bound", bounds.upper),
            ("lower_bound_unclamped", bounds.lower_unclamped),
            ("upper_bound_unclamped", bounds.upper_unclamped),
            ("bounds_delta", report.delta),
            ("bounds_delta_tag", report.delta_tag),
            ("bounds_equidistant", is_equidistant(model)),
        ]
    pairs += [
        ("empirical_estimate", empirical.estimate),
        ("eps_min", 2.0 ** (-empirical.exponents[-1])),
        ("eps_max", 2.0 ** (-empirical.exponents[0])),
        ("eps_exponents", empirical.exponents),
        ("box_counts", empirical.counts),
        ("r_squared", empirical.r_squared),
        ("dimension_one_flag", one_holds),
    ]
    if one_note:
        pairs.append(("dimension_one_note", one_note))
    return pairs
