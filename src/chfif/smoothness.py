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
from collections import deque
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .attractor import SampledGraph
from .exceptions import InsufficientScalesError
from .geometry import CRITICAL_RTOL, ChfifModel

Regime = Literal["LT1", "EQ1", "GT1"]
ModulusOrder = Literal["LIP_DELTA", "DELTA_LOG", "DELTA_LOG2"]


def regime_state(value: float, rtol: float = CRITICAL_RTOL) -> Regime:
    """Place a ratio relative to 1, treating near-1 as critical."""
    if abs(value - 1.0) <= rtol:
        return "EQ1"
    return "LT1" if value < 1.0 else "GT1"


@dataclass(frozen=True)
class TauBounds:
    """Largest admissible values of the log-ratio exponent bounds.

    tau1 = log(max|alpha_i|) / log(I_min), tau2 the gamma analogue,
    tau3 = min(tau1, tau2) and tau4 = tau1.  Infinite when the relevant
    parameter maximum is zero (the bound is then never used).
    """

    tau1: float
    tau2: float
    tau3: float
    tau4: float


@dataclass(frozen=True)
class SmoothnessReport:
    theta_regime: Regime
    omega_state: Regime
    gamma_state: Regime
    modulus_order: ModulusOrder
    delta: float
    delta_tag: str
    tau_bounds: TauBounds
    case_label: Literal["a", "b"]
    degenerate: bool = False
    degeneracy: str | None = None
    special_case: str | None = None   # set by the equal-exponent refinement


def _log_ratio(numer_max: float, i_min: float) -> float:
    if numer_max <= 0.0:
        return math.inf
    return math.log(numer_max) / math.log(i_min)


def compute_tau_bounds(model: ChfifModel) -> TauBounds:
    tau1 = _log_ratio(model.alpha_max, model.length_min)
    tau2 = _log_ratio(model.gamma_max, model.length_min)
    return TauBounds(tau1=tau1, tau2=tau2, tau3=min(tau1, tau2), tau4=tau1)


def _delta_for_states(model: ChfifModel, omega: Regime, gamma: Regime, taus: TauBounds) -> tuple[float, str]:
    # shared by the Theta < 1 and Theta = 1 regimes
    if omega == "GT1" and gamma == "GT1":
        return taus.tau3, "delta2"
    if omega == "GT1":                      # gamma LT1 or EQ1
        return min(taus.tau1, model.mu), "delta3"
    if gamma == "GT1":                      # omega LT1 or EQ1
        return min(model.lam, taus.tau2), "delta4"
    return min(model.lam, model.mu), "delta1"


def _delta_for_states_high(model: ChfifModel, omega: Regime, gamma: Regime, taus: TauBounds) -> tuple[float, str]:
    # Theta > 1 regime; delta6 can degenerate to <= 0 for admissible data
    delta6 = _log_ratio(model.alpha_max * model.gamma_max, model.length_min) - model.mu
    if omega == "GT1" and gamma == "GT1":
        return delta6, "delta6"
    if omega == "GT1":
        return taus.tau1, "delta7"
    if gamma == "GT1":
        return min(model.lam, delta6), "delta8"
    return min(model.lam, taus.tau1), "delta5"


def classify(model: ChfifModel, rtol: float = CRITICAL_RTOL) -> SmoothnessReport:
    """Full regime classification of the visible component.

    Exactly one branch of the case table fires.  A nonpositive exponent is
    possible for some admissible parameter sets (the delta6 formula); the
    report then carries ``degenerate=True`` and names the formula instead
    of silently clamping.
    """
    theta = regime_state(model.theta, rtol)
    omega = regime_state(model.omega, rtol)
    gamma = regime_state(model.gamma_ratio, rtol)
    taus = compute_tau_bounds(model)

    critical_subcase = omega == "EQ1" or gamma == "EQ1"
    if theta == "GT1":
        delta, tag = _delta_for_states_high(model, omega, gamma, taus)
        order: ModulusOrder = "DELTA_LOG" if critical_subcase else "LIP_DELTA"
    elif theta == "EQ1":
        delta, tag = _delta_for_states(model, omega, gamma, taus)
        order = "DELTA_LOG2" if critical_subcase else "DELTA_LOG"
    else:
        delta, tag = _delta_for_states(model, omega, gamma, taus)
        order = "DELTA_LOG" if critical_subcase else "LIP_DELTA"

    degenerate = not delta > 0.0
    degeneracy = None
    if degenerate:
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
        tau_bounds=taus,
        case_label="b" if critical_subcase else "a",
        degenerate=degenerate,
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


def remark_special_case(model: ChfifModel, rtol: float = CRITICAL_RTOL) -> SmoothnessReport:
    """Refined three-subcase classification available when lam = mu.

    With equal Lipschitz exponents the Omega and Theta ratio lists
    coincide, collapsing the nine-way table to three subcases per Theta
    regime keyed only on Gamma.  The reported exponent value equals the
    general classifier's; only the preferred label changes.
    """
    if model.lam != model.mu:
        raise ValueError(f"requires lam == mu, got lam={model.lam}, mu={model.mu}")
    base = classify(model, rtol)
    tag = _SPECIAL_CASE_TAGS[(base.theta_regime, base.gamma_state)]
    return replace(
        base,
        delta_tag=tag,
        special_case=f"theta_{base.theta_regime}/gamma_{base.gamma_state}",
    )


def max_oscillation(xs: np.ndarray, ys: np.ndarray, window: float) -> float:
    """Largest |y - y'| over abscissa pairs at most ``window`` apart.

    Sliding-window max/min with monotonic deques over the sorted abscissas;
    linear in the number of samples.
    """
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


@dataclass(frozen=True)
class HolderEstimate:
    """Log-log regression of oscillation against dyadic scale."""

    estimate: float
    r_squared: float
    scales: tuple[float, ...]
    oscillations: tuple[float, ...]
    residuals: tuple[float, ...]


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

    log_t = np.log(ts)
    log_o = np.log(oscs)
    slope, intercept = np.polyfit(log_t, log_o, 1)
    fitted = slope * log_t + intercept
    res = log_o - fitted
    ss_tot = float(np.sum((log_o - np.mean(log_o)) ** 2))
    r2 = 1.0 - float(np.sum(res**2)) / ss_tot if ss_tot > 0 else 1.0
    return HolderEstimate(
        estimate=float(slope),
        r_squared=r2,
        scales=tuple(ts),
        oscillations=tuple(oscs),
        residuals=tuple(float(r) for r in res),
    )
