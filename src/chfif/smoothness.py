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
from dataclasses import dataclass, replace
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
    when the parameter maximum is zero (the bound is then never used);
    tau3 = min(tau1, tau2) and tau4 = tau1 follow from them.
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

    @property
    def tau3(self) -> float:
        return min(self.tau1, self.tau2)

    @property
    def tau4(self) -> float:
        return self.tau1


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


_SPECIAL_CASE_TAGS = {
    # (theta regime, gamma subcase) -> preferred exponent label
    ("LT1", "LT1"): "delta1",
    ("LT1", "EQ1"): "delta1",
    ("LT1", "GT1"): "tau2",
    ("EQ1", "LT1"): "delta1",
    ("EQ1", "EQ1"): "delta1",
    ("EQ1", "GT1"): "delta4",
    ("GT1", "LT1"): "tau1",
    ("GT1", "EQ1"): "tau1",
    ("GT1", "GT1"): "delta6",
}


def remark_special_case(model: ChfifModel) -> SmoothnessReport:
    """Refined three-subcase classification available when lam = mu.

    With equal Lipschitz exponents the Omega and Theta ratio lists
    coincide, collapsing the nine-way table to three subcases per Theta
    regime keyed only on Gamma.  The reported exponent value equals the
    general classifier's; only the preferred label changes.
    """
    if model.lam != model.mu:
        raise ValueError(f"requires lam == mu, got lam={model.lam}, mu={model.mu}")
    base = classify(model)
    return replace(base, delta_tag=_SPECIAL_CASE_TAGS[(base.theta_regime, base.gamma_state)])


def max_oscillation(xs: np.ndarray, ys: np.ndarray, window: float) -> float:
    """Largest |y - y'| over abscissa pairs at most ``window`` apart.

    ``xs`` must be sorted.  The window ending at sample ``hi`` starts at
    ``lo``, the first sample with ``xs[hi] - xs[lo] <= window``.  A sparse
    table gives every window's max and min at once: level k holds the max
    (min) of each run of 2**k samples, and a window of L samples is covered
    by the two level-floor(log2 L) runs at its ends.  Levels are built in
    place, one after another, only up to the widest window, and each
    window is answered when its level is built.  Max and min only select
    samples, so the result equals a sliding-window scan's bit for bit.
    O(n log w) for windows of at most w samples.
    """
    if not window >= 0.0:
        raise ValueError(f"window must be >= 0, got {window}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    if n < 2:
        return 0.0
    # searchsorted compares xs against the rounded xs - window; correct each
    # start against xs[hi] - xs[lo] <= window itself, a run of equal
    # abscissas at a time
    lo = np.searchsorted(xs, xs - window, side="left")
    while (late := np.flatnonzero(xs - xs[lo] > window)).size:
        lo[late] = np.searchsorted(xs, xs[lo[late]], side="right")
    while (early := np.flatnonzero((lo > 0) & (xs - xs[lo - 1] <= window))).size:
        lo[early] = np.searchsorted(xs, xs[lo[early] - 1], side="left")

    level = np.frexp(np.arange(n) - lo + 1)[1] - 1   # floor(log2(window length))
    mx = ys.copy()
    mn = ys.copy()
    spread = np.zeros(n)   # windows of one sample spread 0
    for k in range(1, int(level.max()) + 1):
        half, m = 1 << (k - 1), n - (1 << k) + 1
        np.maximum(mx[:m], mx[half:half + m], out=mx[:m])
        np.minimum(mn[:m], mn[half:half + m], out=mn[:m])
        at = np.flatnonzero(level == k)
        a, b = lo[at], at - (1 << k) + 1
        spread[at] = np.maximum(mx[a], mx[b]) - np.minimum(mn[a], mn[b])
    # fmax skips the nan of inf - inf, as the scan's `spread > best` did; the
    # test also turns a -0.0 spread (-0.0 over 0.0) into the scan's 0.0
    best = float(np.fmax.reduce(spread))
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
    scales is an error.
    """
    if scale_max_exp < scale_min_exp:
        raise ValueError("scale_max_exp must be >= scale_min_exp")
    xs = np.asarray(sampled.xs, dtype=float)
    ys = np.asarray(sampled.f1s, dtype=float)
    ts: list[float] = []
    oscs: list[float] = []
    for j in range(scale_min_exp, scale_max_exp + 1):
        t = 2.0 ** (-j)
        osc = max_oscillation(xs, ys, t)
        if osc > 0.0:
            ts.append(t)
            oscs.append(osc)
    if len(ts) < 3:
        raise InsufficientScalesError(
            f"only {len(ts)} scales with measurable oscillation, need at least 3")

    slope, r2 = loglog_fit(np.log(ts), np.log(oscs))
    return HolderEstimate(estimate=slope, r_squared=r2, scales=tuple(ts), oscillations=tuple(oscs))
