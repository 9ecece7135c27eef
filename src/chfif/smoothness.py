"""Smoothness-regime classification and the empirical Holder oracle.

The regime is decided by where the three ratios Theta, Omega, Gamma sit
relative to 1 (a shared relative tolerance decides criticality).  Each
branch reports an exponent delta in (0, 1] together with the order of the
modulus of continuity: plain Lipschitz-delta, an extra log factor, or an
extra squared log factor.  Exponents stated in the underlying theory only
as upper bounds (the tau family and two of the deltas) are reported at
their largest admissible value and tagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .attractor import SampledGraph
from .exceptions import InsufficientScalesError
from .geometry import CRITICAL_RTOL, ChfifModel

Regime = Literal["LT1", "EQ1", "GT1"]
ModulusOrder = Literal["LIP_DELTA", "DELTA_LOG", "DELTA_LOG2"]


def regime_state(value: float) -> Regime:
    """Place a ratio relative to 1, treating near-1 as critical."""
    if abs(value - 1.0) <= CRITICAL_RTOL:
        return "EQ1"
    return "LT1" if value < 1.0 else "GT1"


@dataclass(frozen=True)
class SmoothnessReport:
    """The classifier's branch, exponent and the tau bounds it drew on.

    tau1 = log(max|alpha_i|) / log(I_min) and tau2 its gamma analogue are
    the largest admissible values of the log-ratio exponent bounds, infinite
    when the parameter maximum is zero (the bound is then never used).
    ``degeneracy`` names the formula when the exponent is not positive and
    is None exactly when delta > 0.
    """

    theta_regime: Regime
    omega_state: Regime
    gamma_state: Regime
    modulus_order: ModulusOrder
    delta: float
    delta_tag: str
    tau1: float
    tau2: float
    case_label: Literal["a", "b"]
    degeneracy: str | None


def _log_ratio(numer_max: float, i_min: float) -> float:
    if numer_max <= 0.0:
        return math.inf
    return math.log(numer_max) / math.log(i_min)


def _delta_for_states(model: ChfifModel, omega: Regime, gamma: Regime, tau1: float, tau2: float) -> tuple[float, str]:
    # shared by the Theta < 1 and Theta = 1 regimes
    if omega == "GT1" and gamma == "GT1":
        return min(tau1, tau2), "delta2"
    if omega == "GT1":                      # gamma LT1 or EQ1
        return min(tau1, model.mu), "delta3"
    if gamma == "GT1":                      # omega LT1 or EQ1
        return min(model.lam, tau2), "delta4"
    return min(model.lam, model.mu), "delta1"


def _delta_for_states_high(model: ChfifModel, omega: Regime, gamma: Regime, tau1: float, tau2: float) -> tuple[float, str]:
    # Theta > 1 regime; delta6 can degenerate to <= 0 for admissible data
    delta6 = _log_ratio(model.alpha_max * model.gamma_max, model.length_min) - model.mu
    if omega == "GT1" and gamma == "GT1":
        return delta6, "delta6"
    if omega == "GT1":
        return tau1, "delta7"
    if gamma == "GT1":
        return min(model.lam, delta6), "delta8"
    return min(model.lam, tau1), "delta5"


def classify(model: ChfifModel) -> SmoothnessReport:
    """Full regime classification of the visible component.

    Exactly one branch of the case table fires.  A nonpositive exponent is
    possible for some admissible parameter sets (the delta6 formula); the
    report's ``degeneracy`` then names the formula instead of silently
    clamping.  The modulus carries one log factor for each critical ratio
    among Theta and (Omega or Gamma).
    """
    theta = regime_state(model.theta)
    omega = regime_state(model.omega)
    gamma = regime_state(model.gamma_ratio)
    tau1 = _log_ratio(model.alpha_max, model.length_min)
    tau2 = _log_ratio(model.gamma_max, model.length_min)

    critical_subcase = omega == "EQ1" or gamma == "EQ1"
    delta_for = _delta_for_states_high if theta == "GT1" else _delta_for_states
    delta, tag = delta_for(model, omega, gamma, tau1, tau2)
    order: ModulusOrder = ("LIP_DELTA", "DELTA_LOG", "DELTA_LOG2")[(theta == "EQ1") + critical_subcase]

    degeneracy = None
    if not delta > 0.0:
        degeneracy = f"{tag} = {delta} is not in (0, 1]; classification exponent is degenerate"
    elif delta > 1.0:
        # tau-style bounds stay below their Lipschitz caps whenever the
        # corresponding ratio exceeds 1, so this only guards rounding.
        delta = 1.0

    return SmoothnessReport(
        theta_regime=theta,
        omega_state=omega,
        gamma_state=gamma,
        modulus_order=order,
        delta=delta,
        delta_tag=tag,
        tau1=tau1,
        tau2=tau2,
        case_label="b" if critical_subcase else "a",
        degeneracy=degeneracy,
    )


# max_oscillation's block length: 16-, 32-, 64- and 128-sample blocks took 67-72, 58-61,
# 69-74 and 90-101 ms over the gallery's 119 Holder scans (178-182 ms unpruned)
_PRUNE_BLOCK = 32


def _starts(xs: np.ndarray, q: np.ndarray, window: float) -> np.ndarray:
    """For each abscissa ``q`` of the sorted ``xs``, the first ``lo`` with ``q - xs[lo] <= window``."""
    # searchsorted compares xs against the rounded q - window; correct each
    # start against q - xs[lo] <= window itself, a run of equal abscissas at a time
    lo = np.searchsorted(xs, q - window, side="left")
    while (late := np.flatnonzero(q - xs[lo] > window)).size:
        lo[late] = np.searchsorted(xs, xs[lo[late]], side="right")
    while (early := np.flatnonzero((lo > 0) & (q - xs[lo - 1] <= window))).size:
        lo[early] = np.searchsorted(xs, xs[lo[early] - 1], side="left")
    return lo


def _spreads(mx0: np.ndarray, mn0: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``max(mx0[lo[i]:i + 1]) - min(mn0[lo[i]:i + 1])`` for each ``i``, ``lo`` non-decreasing.

    Level k of a sparse table, built in place up to the longest run, holds
    the max (min) of each run of 2**k entries; a run of L is answered at its
    level, from the two level-floor(log2 L) runs at its ends: O(n log L).
    """
    n = len(lo)
    level = np.frexp(np.arange(n) - lo + 1)[1] - 1   # floor(log2(run length))
    mx, mn = mx0.copy(), mn0.copy()
    spread = mx0 - mn0
    for k in range(1, int(level.max(initial=0)) + 1):
        half, m = 1 << (k - 1), n - (1 << k) + 1
        np.maximum(mx[:m], mx[half:half + m], out=mx[:m])
        np.minimum(mn[:m], mn[half:half + m], out=mn[:m])
        at = np.flatnonzero(level == k)
        a, b = lo[at], at - (1 << k) + 1
        spread[at] = np.maximum(mx[a], mx[b]) - np.minimum(mn[a], mn[b])
    return spread


def max_oscillation(xs: np.ndarray, ys: np.ndarray, window: float) -> float:
    """Largest |y - y'| over abscissa pairs at most ``window`` apart.

    ``xs`` must be sorted.  The window ending at sample ``hi`` starts at
    ``lo``, the first sample with ``xs[hi] - xs[lo] <= window``.  Max and
    min only select samples, so the result equals a sliding-window scan's
    bit for bit.  From ``4 * _PRUNE_BLOCK`` samples on it scans only the
    blocks that can hold the widest window, which relies on sorted ``xs``:
    the windows ending in a block lie in the blocks from its first sample's
    start to it, whose spread bounds them, so the widest window lies in the
    blocks reached back to from blocks bounded by at least ``lb``, the
    widest window ending in the block of largest bound (README, performance).
    """
    if not window >= 0.0:
        raise ValueError(f"window must be >= 0, got {window}")
    xs, ys, b = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), _PRUNE_BLOCK
    with np.errstate(invalid="ignore"):   # inf - inf spreads are nan, skipped below
        if len(xs) >= 4 * b:
            first = np.arange(0, len(xs), b)
            lo = _starts(xs, xs[first], window)
            bound = _spreads(np.maximum.reduceat(ys, first), np.minimum.reduceat(ys, first), lo // b)
            c = int(np.argmax(np.fmax(bound, -1.0)))   # never a nan bound, unless all are
            x, y = xs[lo[c]:first[c] + b], ys[lo[c]:first[c] + b]
            lb = np.fmax.reduce(_spreads(y, y, _starts(x, x, window))[first[c] - lo[c]:])
            # block j is kept when a block at or after it keeps the blocks back to j
            reach = np.minimum.accumulate(np.where(bound < lb, len(first), lo // b)[::-1])[::-1]
            keep = np.repeat(reach <= np.arange(len(first)), b)[:len(xs)]
            xs, ys = xs[keep], ys[keep]
        # fmax skips the nan of inf - inf, as the scan's `spread > best` did.  On numpy
        # 2.4 no spread is -0.0 (both tables come from one array, and np.maximum and
        # np.minimum break 0.0/-0.0 ties alike, so x - x = +0.0); the test below is
        # kept only for a numpy that breaks those ties differently
        best = float(np.fmax.reduce(_spreads(ys, ys, _starts(xs, xs, window)), initial=0.0))
    return best if best > 0.0 else 0.0


def loglog_fit(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float]:
    """Least-squares line through (log_x, log_y): its slope and r squared."""
    slope, intercept = np.polyfit(log_x, log_y, 1)
    res = log_y - (slope * log_x + intercept)
    ss_tot = float(np.sum((log_y - np.mean(log_y)) ** 2))
    r2 = 1.0 - float(np.sum(res**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


@dataclass(frozen=True)
class HolderEstimate:
    """Log-log regression of oscillation against dyadic scale."""

    estimate: float
    r_squared: float
    scales: tuple[float, ...]
    oscillations: tuple[float, ...]


def empirical_holder(sampled: SampledGraph, scale_min_exp: int, scale_max_exp: int) -> HolderEstimate:
    """Estimate the Holder exponent of the sampled visible component.

    For each dyadic scale t = 2**-j, j in [scale_min_exp, scale_max_exp],
    the maximum oscillation over windows of width t is computed; the
    least-squares slope of log(osc) against log(t) is the estimate.  Scales
    with no measurable oscillation are dropped; fewer than three usable
    scales is an error, and abscissas out of order or not finite, which the
    window scan cannot read, raise ``ValueError`` (``sampled.max_gap``).
    """
    if scale_max_exp < scale_min_exp:
        raise ValueError("scale_max_exp must be >= scale_min_exp")
    sampled.max_gap   # raises for abscissas out of order or not finite
    ts: list[float] = []
    oscs: list[float] = []
    for j in range(scale_min_exp, scale_max_exp + 1):
        t = 2.0 ** (-j)
        osc = max_oscillation(sampled.xs, sampled.f1s, t)
        if osc > 0.0:
            ts.append(t)
            oscs.append(osc)
    if len(ts) < 3:
        raise InsufficientScalesError(
            f"only {len(ts)} scales with measurable oscillation, need at least 3")

    slope, r2 = loglog_fit(np.log(ts), np.log(oscs))
    return HolderEstimate(estimate=slope, r_squared=r2, scales=tuple(ts), oscillations=tuple(oscs))
