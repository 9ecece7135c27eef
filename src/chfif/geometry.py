"""Interpolation data, map-coefficient solving, and classification ratios.

The construction starts from interpolation nodes (x_i, y_i) with hidden
ordinates z_i and per-interval parameters (alpha_i, beta_i, gamma_i).  Each
interval carries two scalar map functions

    p_i(x) = c_i x + d_i + h_i x**lam_i      (h_i = 0 for plain affine)
    q_i(x) = e_i x + f_i + k_i x**mu_i

of one shared form (one :class:`MapFunction` each), whose free coefficients
(c_i, d_i) and (e_i, f_i) are solved from the endpoint conditions of the
contracting system, together with the domain maps L_i(x) = a_i x + b_i.  All internal computation lives on the unit domain;
general abscissas are affinely normalised on ingestion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ValidationError

# Relative tolerance used everywhere a ratio is compared against 1.
CRITICAL_RTOL = 1e-9

# Absolute tolerance for endpoint-condition residuals and coefficient equality.
ENDPOINT_ATOL = 1e-12


@dataclass(frozen=True)
class PowerTerm:
    """Fixed power-law summand h * x**exponent with exponent in (0, 1]."""

    coeff: float
    exponent: float


@dataclass(frozen=True)
class IntervalParams:
    """Free parameters of one interval of the contracting system.

    ``alpha`` is a free vertical scaling with |alpha| < 1; ``beta`` couples
    the hidden component into the visible one and is constrained jointly
    with ``gamma`` by |beta| + |gamma| < 1.  Optional power terms put the
    map functions in a Lipschitz class with exponent below 1.
    """

    alpha: float
    beta: float
    gamma: float
    p_power: PowerTerm | None = None
    q_power: PowerTerm | None = None


@dataclass(frozen=True)
class InterpolationProblem:
    """Nodes, hidden ordinates and per-interval parameters.

    ``nodes`` is an ordered sequence of (x_i, y_i) pairs, i = 0..N with
    N >= 2 intervals; ``hidden`` supplies z_i for the same indices and
    ``params`` one entry per interval.
    """

    nodes: tuple[tuple[float, float], ...]
    hidden: tuple[float, ...]
    params: tuple[IntervalParams, ...]


@dataclass(frozen=True)
class Violation:
    """One failed invariant, addressed by field/index."""

    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


def validate(problem: InterpolationProblem) -> tuple[Violation, ...]:
    """Check every invariant of the interpolation data.

    Violations are returned as data, not raised; each one names the index
    and the inequality it breaks.  Data that passes the checks on its own
    is solved, and an interval whose solved model is not finite is a
    violation too, so none are returned exactly when :func:`solve_model`
    succeeds.
    """
    try:
        solve_model(problem)
    except ValidationError as exc:
        return exc.violations
    return ()


def _data_violations(problem: InterpolationProblem) -> list[Violation]:
    bad: list[Violation] = []
    n = len(problem.nodes)
    if n < 3:
        bad.append(Violation("nodes", f"need at least 3 nodes (2 intervals), got {n}"))
    if len(problem.hidden) != n:
        bad.append(Violation(
            "hidden", f"length {len(problem.hidden)} != number of nodes {n}"))
    if len(problem.params) != n - 1:
        bad.append(Violation(
            "params", f"length {len(problem.params)} != number of intervals {n - 1}"))

    for i, (x, y) in enumerate(problem.nodes):
        for name, value in (("x", x), ("y", y)):
            if not math.isfinite(value):
                bad.append(Violation(f"nodes[{i}]", f"{name}_{i} = {value} is not finite"))
    for i, z in enumerate(problem.hidden):
        if not math.isfinite(z):
            bad.append(Violation(f"hidden[{i}]", f"z_{i} = {z} is not finite"))

    xs = [p[0] for p in problem.nodes]
    for i in range(1, n):
        if math.isfinite(xs[i]) and math.isfinite(xs[i - 1]) and not xs[i] > xs[i - 1]:
            bad.append(Violation(
                f"nodes[{i}]", f"abscissas not strictly increasing: x_{i} = {xs[i]} <= x_{i-1} = {xs[i-1]}"))
    if n and math.isfinite(xs[0]) and math.isfinite(xs[-1]) and not math.isfinite(xs[-1] - xs[0]):
        bad.append(Violation("nodes", f"abscissa span x_{n-1} - x_0 overflows"))

    for i, prm in enumerate(problem.params, start=1):
        if not abs(prm.alpha) < 1.0:
            bad.append(Violation(f"params[{i}]", f"|alpha_{i}| = {abs(prm.alpha)} >= 1"))
        s = abs(prm.beta) + abs(prm.gamma)
        if not s < 1.0:
            bad.append(Violation(
                f"params[{i}]", f"|beta_{i}|+|gamma_{i}| = {s} >= 1"))
        for name, term in (("p_power", prm.p_power), ("q_power", prm.q_power)):
            if term is None:
                continue
            if not 0.0 < term.exponent <= 1.0:
                bad.append(Violation(
                    f"params[{i}].{name}", f"exponent {term.exponent} outside (0, 1]"))
            if not math.isfinite(term.coeff):
                bad.append(Violation(
                    f"params[{i}].{name}", f"coeff {term.coeff} is not finite"))
    return bad


def _non_finite_violations(model: ChfifModel) -> list[Violation]:
    """One violation per interval whose solved coefficients or ratios are not finite.

    Finite data near the float limit can still overflow in the solve
    (nodes at y = +-1e308 give an infinite c), or a short interval can
    underflow to length 0 on the unit domain (an infinite omega_i); every
    curve, report and bound computed from such a model is inf or nan.
    """
    named = (("c", model.p.lin), ("d", model.p.const), ("e", model.q.lin), ("f", model.q.const),
             ("omega_i", model.omega_i), ("gamma_i", model.gamma_i), ("theta_i", model.theta_i))
    bad = []
    for j in range(model.n_intervals):
        off = [f"{name} = {values[j]}" for name, values in named if not math.isfinite(values[j])]
        if off:
            bad.append(Violation(f"params[{j + 1}]", "solved model is not finite: " + ", ".join(off)))
    return bad


def _freeze_arrays(obj) -> None:
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@dataclass(frozen=True)
class MapFunction:
    """The map-function template lin*x + const + coeff*x**exponent, per interval.

    Both p_i and q_i have this form, so each is one instance.  Methods take
    a 0-based interval index ``j`` (an int or an index array aligned with
    ``x``) and evaluate on the unit domain.
    """

    lin: np.ndarray
    const: np.ndarray
    coeff: np.ndarray
    exponent: np.ndarray   # 1.0 on intervals without a power term
    _powered: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _freeze_arrays(self)
        # decided once: a per-call np.any costs more than the affine part
        object.__setattr__(self, "_powered", bool(np.any(self.coeff != 0.0)))

    def __call__(self, j, x):
        out = self.lin[j] * np.asarray(x, dtype=float) + self.const[j]
        if self._powered:
            out = out + self.coeff[j] * np.power(np.clip(x, 0.0, None), self.exponent[j])
        return out

    def integral(self, j, lo, hi):
        """Closed-form integral over [lo, hi]."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        out = self.lin[j] * (hi * hi - lo * lo) / 2.0 + self.const[j] * (hi - lo)
        if self._powered:
            e = self.exponent[j] + 1.0
            out = out + self.coeff[j] * (np.power(hi, e) - np.power(lo, e)) / e
        return out

    def sup_bound(self) -> float:
        """Certified (triangle-inequality) bound for max_j sup over [0, 1]."""
        return float(np.max(np.abs(self.lin) + np.abs(self.const) + np.abs(self.coeff)))


@dataclass(frozen=True)
class ChfifModel:
    """A validated problem with all map coefficients and derived ratios.

    Immutable after construction; every operation on it is a pure function,
    so concurrent reads are safe.  Arrays are indexed by interval, 0-based
    internally (interval ``i`` of the construction is index ``i - 1``).
    """

    x0: float                 # left end of the raw domain
    span: float               # raw domain width
    node_x: np.ndarray        # normalised node abscissas, node_x[0] = 0, node_x[-1] = 1
    y: np.ndarray
    z: np.ndarray
    a: np.ndarray             # L_i slope = |I_i| on the unit domain
    b: np.ndarray             # L_i intercept
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    p: MapFunction            # visible-component map functions p_i
    q: MapFunction            # hidden-component map functions q_i
    length_min: float
    length_max: float
    lam: float                # min over intervals of the p Lipschitz exponents
    mu: float                 # min over intervals of the q Lipschitz exponents
    omega_i: np.ndarray       # |alpha_i| / |I_i|**lam
    gamma_i: np.ndarray       # |gamma_i| / |I_i|**mu
    theta_i: np.ndarray       # |alpha_i| / |I_i|**mu
    omega: float
    gamma_ratio: float
    theta: float
    alpha_max: float
    gamma_max: float

    def __post_init__(self) -> None:
        _freeze_arrays(self)

    @property
    def n_intervals(self) -> int:
        return len(self.a)

    # -- coordinates ------------------------------------------------------

    def to_raw(self, x):
        """Map unit-domain abscissas back to the original domain."""
        return self.x0 + self.span * np.asarray(x, dtype=float)

    def value_bounds(self) -> tuple[float, float]:
        """Certified sup-norm bounds (B1, B2) for the two components.

        Derived from the contraction structure: the hidden component obeys
        sup|f2| <= max_i sup|q_i| / (1 - max|gamma_i|), and the visible one
        feels it only through beta.  Loose but guaranteed.
        """
        q_sup = self.q.sup_bound()
        p_sup = self.p.sup_bound()
        beta_max = float(np.max(np.abs(self.beta)))
        b2 = q_sup / (1.0 - self.gamma_max) if self.gamma_max < 1.0 else math.inf
        b1 = (p_sup + beta_max * b2) / (1.0 - self.alpha_max) if self.alpha_max < 1.0 else math.inf
        return b1, b2


def solve_model(problem: InterpolationProblem) -> ChfifModel:
    """Solve all map coefficients from the endpoint conditions.

    Requires ``validate(problem)`` to be empty; raises :class:`ValidationError`
    otherwise.  The endpoint conditions pin L_i(0) = x_{i-1}, L_i(1) = x_i
    and force the two-component map to carry (0, y_0, z_0) and (1, y_N, z_N)
    onto the interval's end nodes, which determines (c_i, d_i) and
    (e_i, f_i) once the optional power coefficients are fixed.
    """
    bad = _data_violations(problem)
    if not bad:
        model = _solve(problem)
        bad = _non_finite_violations(model)
    if bad:
        raise ValidationError(bad)
    return model


# overflow is reported by _non_finite_violations, not as a numpy warning
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve(problem: InterpolationProblem) -> ChfifModel:
    xs_raw, y = (np.array(column, dtype=float) for column in zip(*problem.nodes))
    z = np.array(problem.hidden, dtype=float)

    x0 = float(xs_raw[0])
    span = float(xs_raw[-1] - xs_raw[0])
    node_x = (xs_raw - x0) / span
    node_x[0] = 0.0
    node_x[-1] = 1.0

    a = np.diff(node_x)
    b = node_x[:-1].copy()

    alpha = np.array([p.alpha for p in problem.params], dtype=float)
    beta = np.array([p.beta for p in problem.params], dtype=float)
    gamma = np.array([p.gamma for p in problem.params], dtype=float)

    p_h = np.array([p.p_power.coeff if p.p_power else 0.0 for p in problem.params])
    p_lam = np.array([p.p_power.exponent if p.p_power else 1.0 for p in problem.params])
    q_k = np.array([p.q_power.coeff if p.q_power else 0.0 for p in problem.params])
    q_mu = np.array([p.q_power.exponent if p.q_power else 1.0 for p in problem.params])

    # p_i(0) + alpha_i y_0 + beta_i z_0 = y_{i-1};  p_i(1) + ... = y_i
    p_d = y[:-1] - alpha * y[0] - beta * z[0]
    p_c = (y[1:] - alpha * y[-1] - beta * z[-1]) - p_d - p_h
    q_f = z[:-1] - gamma * z[0]
    q_e = (z[1:] - gamma * z[-1]) - q_f - q_k

    lam = float(np.min(p_lam))
    mu = float(np.min(q_mu))

    omega_i = np.abs(alpha) / a ** lam
    gamma_i = np.abs(gamma) / a ** mu
    theta_i = np.abs(alpha) / a ** mu

    return ChfifModel(
        x0=x0,
        span=span,
        node_x=node_x,
        y=y,
        z=z,
        a=a,
        b=b,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        p=MapFunction(p_c, p_d, p_h, p_lam),
        q=MapFunction(q_e, q_f, q_k, q_mu),
        length_min=float(np.min(a)),
        length_max=float(np.max(a)),
        lam=lam,
        mu=mu,
        omega_i=omega_i,
        gamma_i=gamma_i,
        theta_i=theta_i,
        omega=float(np.max(omega_i)),
        gamma_ratio=float(np.max(gamma_i)),
        theta=float(np.max(theta_i)),
        alpha_max=float(np.max(np.abs(alpha))),
        gamma_max=float(np.max(np.abs(gamma))),
    )


def _templates_equal(model: ChfifModel, j: int) -> bool:
    p, q = model.p, model.q
    return (
        abs(p.lin[j] - q.lin[j]) <= ENDPOINT_ATOL
        and abs(p.const[j] - q.const[j]) <= ENDPOINT_ATOL
        and abs(p.coeff[j] - q.coeff[j]) <= ENDPOINT_ATOL
        and (p.coeff[j] == 0.0 or abs(p.exponent[j] - q.exponent[j]) <= ENDPOINT_ATOL)
    )


def self_affine_discrepancies(model: ChfifModel) -> tuple[str, ...]:
    """List what prevents the two components from coinciding.

    Empty result means z = y, alpha_i + beta_i = gamma_i on every interval
    and the solved map functions agree, so the visible component collapses
    onto the self-affine hidden one.
    """
    issues: list[str] = []
    for i, (yi, zi) in enumerate(zip(model.y, model.z)):
        if abs(yi - zi) > ENDPOINT_ATOL:
            issues.append(f"z_{i} = {zi} != y_{i} = {yi}")
    for j in range(model.n_intervals):
        s = model.alpha[j] + model.beta[j]
        if abs(s - model.gamma[j]) > ENDPOINT_ATOL:
            issues.append(
                f"alpha_{j+1} + beta_{j+1} = {s} != gamma_{j+1} = {model.gamma[j]}")
        if not _templates_equal(model, j):
            issues.append(f"p_{j+1} != q_{j+1} (solved coefficients differ)")
    return tuple(issues)


def is_self_affine_config(model: ChfifModel) -> bool:
    """True iff the configuration collapses the two components."""
    return not self_affine_discrepancies(model)


def is_equidistant(model: ChfifModel) -> bool:
    ref = model.a[0]
    return bool(np.all(np.abs(model.a - ref) <= CRITICAL_RTOL * ref))
