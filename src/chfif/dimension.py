"""Fractal-dimension bounds for critical configurations and box counting.

Theoretical bounds exist whenever one of the ratios Omega, Gamma, Theta is
critical (equal to 1 within tolerance).  The empirical side counts
origin-anchored square grid cells touched by the polyline through the
samples and regresses log-count against log-scale over a dyadic range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .attractor import SampledGraph
from .exceptions import InsufficientScalesError, SamplingTooCoarseError
from .geometry import CRITICAL_RTOL, ChfifModel, is_equidistant
from .smoothness import SmoothnessReport, regime_state

# Sample spacing must be at most epsilon / DENSITY_FACTOR, or counts at the
# finest scales are biased low.
DEFAULT_DENSITY_FACTOR = 4.0

CriticalCondition = Literal["omega", "gamma", "theta", "none"]


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
    sum_channel: Literal["alpha", "gamma"]
    delta: float
    delta_tag: str
    equidistant: bool


def _critical_conditions(model: ChfifModel, rtol: float) -> tuple[bool, bool, bool]:
    return (
        regime_state(model.omega, rtol) == "EQ1",
        regime_state(model.gamma_ratio, rtol) == "EQ1",
        regime_state(model.theta, rtol) == "EQ1",
    )


def theoretical_bounds(
    model: ChfifModel,
    report: SmoothnessReport,
    rtol: float = CRITICAL_RTOL,
) -> TheoreticalBounds | None:
    """Dimension bounds for the visible component's graph, if critical.

    With I_max the largest interval length, N the interval count and S the
    relevant parameter sum (|alpha| when Omega or Theta is critical,
    |gamma| when only Gamma is):

        lower = 1 - log(S) / log(I_max)
        upper = 1 - delta - log(N) / log(I_max)

    For equidistant nodes these reduce to 1 + log(S)/log(N) and 2 - delta.
    Returns None when no critical condition holds, or when the classifier's
    exponent is degenerate.
    """
    omega_crit, gamma_crit, theta_crit = _critical_conditions(model, rtol)
    if report.degenerate:
        return None
    if omega_crit:
        condition: CriticalCondition = "omega"
        channel: Literal["alpha", "gamma"] = "alpha"
        s = float(np.sum(np.abs(model.alpha)))
    elif gamma_crit:
        condition = "gamma"
        channel = "gamma"
        s = float(np.sum(np.abs(model.gamma)))
    elif theta_crit:
        condition = "theta"
        channel = "alpha"
        s = float(np.sum(np.abs(model.alpha)))
    else:
        return None

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
        sum_channel=channel,
        delta=report.delta,
        delta_tag=report.delta_tag,
        equidistant=is_equidistant(model),
    )


def _component(sampled: SampledGraph, component: str) -> np.ndarray:
    if component == "f1":
        return np.asarray(sampled.f1s, dtype=float)
    if component == "f2":
        return np.asarray(sampled.f2s, dtype=float)
    raise ValueError(f"unknown component {component!r}")


def box_count(
    sampled: SampledGraph,
    epsilon: float,
    density_factor: float = DEFAULT_DENSITY_FACTOR,
    component: str = "f1",
) -> int:
    """Number of epsilon-cells touched by the polyline through the samples.

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
    boundary value out of its column.  The sorted samples are split into
    columns by one ``searchsorted`` of the boundaries, and each column's
    extent is the min and max of its run of samples, folded with its
    boundary values.  Refuses (rather than undercounts) when the sample
    spacing exceeds epsilon / density_factor.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    xs = np.asarray(sampled.xs, dtype=float)
    ys = _component(sampled, component)
    max_gap = float(np.max(np.diff(xs)))
    if max_gap > epsilon / density_factor * (1.0 + 1e-12):
        raise SamplingTooCoarseError(
            f"sample spacing {max_gap:.3g} exceeds epsilon/{density_factor:g} = "
            f"{epsilon / density_factor:.3g}; refine the sampling")

    j_lo = math.floor(xs[0] / epsilon)
    j_hi = math.floor(xs[-1] / epsilon)
    crossings = epsilon * np.arange(j_lo + 1, j_hi + 1, dtype=float)
    cross_y = np.interp(crossings, xs, ys)
    # column c holds the samples xs[s[c-1]:s[c]] (s[-1] = 0, s[C] = n) and,
    # for c > 0, crossing c - 1; the first column's run can be empty
    s = np.searchsorted(xs, crossings, side="left")
    starts = np.concatenate(([0], s))
    filled = starts < np.append(s, xs.size)
    top = np.concatenate(([-np.inf], cross_y))
    bot = np.concatenate(([np.inf], cross_y))
    top[filled] = np.maximum(top[filled], np.maximum.reduceat(ys, starts[filled]))
    bot[filled] = np.minimum(bot[filled], np.minimum.reduceat(ys, starts[filled]))
    row_lo = np.floor(bot / epsilon)
    row_hi = np.floor(top / epsilon)

    # crossing c closes column c, reached from the left along [xs[k-1], xs[k]]
    k = np.clip(s, 1, xs.size - 1)
    limit_row = np.where(ys[k] > ys[k - 1], np.ceil(cross_y / epsilon) - 1.0,
                         np.floor(cross_y / epsilon))
    row_lo[:-1] = np.minimum(row_lo[:-1], limit_row)
    row_hi[:-1] = np.maximum(row_hi[:-1], limit_row)
    # the first column is empty only when rounding puts xs[0] at or past the
    # first crossing; it is then not counted, so crossing 0 closes no column
    first = 0 if filled[0] else 1
    return int(np.sum(row_hi[first:] - row_lo[first:] + 1.0))


@dataclass(frozen=True)
class EmpiricalDimension:
    """Box-count regression outcome over a dyadic scale range."""

    estimate: float
    r_squared: float
    eps_min: float
    eps_max: float
    exponents: tuple[int, ...]
    counts: tuple[int, ...]


def estimate_dimension(
    sampled: SampledGraph,
    eps_exponents: Iterable[int],
    density_factor: float = DEFAULT_DENSITY_FACTOR,
    component: str = "f1",
) -> EmpiricalDimension:
    """Least-squares slope of log(count) against log(1/eps).

    ``eps_exponents`` are the dyadic exponents j, eps = 2**-j; at least
    four are required.  The density precondition of :func:`box_count`
    applies to the smallest epsilon.
    """
    exponents = sorted(set(int(j) for j in eps_exponents))
    if len(exponents) < 4:
        raise InsufficientScalesError(
            f"need at least 4 epsilon values, got {len(exponents)}")
    counts = []
    for j in exponents:
        counts.append(box_count(sampled, 2.0 ** (-j), density_factor, component))
    log_inv_eps = np.array(exponents, dtype=float) * math.log(2.0)
    log_n = np.log(np.array(counts, dtype=float))
    slope, intercept = np.polyfit(log_inv_eps, log_n, 1)
    fitted = slope * log_inv_eps + intercept
    ss_res = float(np.sum((log_n - fitted) ** 2))
    ss_tot = float(np.sum((log_n - np.mean(log_n)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return EmpiricalDimension(
        estimate=float(slope),
        r_squared=r2,
        eps_min=2.0 ** (-exponents[-1]),
        eps_max=2.0 ** (-exponents[0]),
        exponents=tuple(exponents),
        counts=tuple(counts),
    )


@dataclass(frozen=True)
class DimensionOneResult:
    holds: bool
    note: str | None = None


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


def dimension_one_predicate(
    model: ChfifModel,
    report: SmoothnessReport,
    rtol: float = CRITICAL_RTOL,
) -> DimensionOneResult:
    """Whether the graph provably has dimension exactly 1.

    Only stated for equidistant nodes; each case requires the classifier's
    exponent tag to equal 1 and the relevant parameter sum to stay at or
    below 1.
    """
    if not is_equidistant(model, rtol):
        return DimensionOneResult(False, "equidistant hypothesis fails")
    if report.degenerate:
        return DimensionOneResult(False, "classification exponent is degenerate")
    sums = {
        "alpha": float(np.sum(np.abs(model.alpha))),
        "gamma": float(np.sum(np.abs(model.gamma))),
    }
    delta_is_one = abs(report.delta - 1.0) <= rtol
    for regimes, tags, channels in _DIMENSION_ONE_CASES:
        if report.theta_regime not in regimes:
            continue
        if report.delta_tag not in tags or not delta_is_one:
            continue
        if any(sums[ch] <= 1.0 + rtol for ch in channels):
            return DimensionOneResult(True)
    return DimensionOneResult(False)


@dataclass(frozen=True)
class DimensionReport:
    """Theoretical bounds (when critical) plus the empirical estimate."""

    critical_condition: CriticalCondition
    omega_critical: bool
    gamma_critical: bool
    theta_critical: bool
    bounds: TheoreticalBounds | None
    empirical: EmpiricalDimension
    dimension_one_flag: bool
    dimension_one_note: str | None


def dimension_report(
    model: ChfifModel,
    report: SmoothnessReport,
    sampled: SampledGraph,
    eps_exponents: Iterable[int],
    density_factor: float = DEFAULT_DENSITY_FACTOR,
    rtol: float = CRITICAL_RTOL,
) -> DimensionReport:
    """Assemble the full dimension report for one configuration."""
    omega_crit, gamma_crit, theta_crit = _critical_conditions(model, rtol)
    bounds = theoretical_bounds(model, report, rtol)
    empirical = estimate_dimension(sampled, eps_exponents, density_factor)
    one = dimension_one_predicate(model, report, rtol)
    return DimensionReport(
        critical_condition=bounds.critical_condition if bounds else "none",
        omega_critical=omega_crit,
        gamma_critical=gamma_crit,
        theta_critical=theta_crit,
        bounds=bounds,
        empirical=empirical,
        dimension_one_flag=one.holds,
        dimension_one_note=one.note,
    )
