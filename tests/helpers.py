"""Shared fixtures-as-functions for the test suite."""

from __future__ import annotations

import functools

import numpy as np

from chfif import InterpolationProblem, IntervalParams, PowerTerm, sample_exact, solve_model
from chfif.presets import GALLERY_NAMES, gallery_problem

ALL_GALLERY = GALLERY_NAMES
NODES_X = np.array([0.0, 0.35, 0.75, 1.0])
NODES_Y = np.array([2.0, 7.0, 4.0, 9.0])


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


def csv_text(xs, f1, f2, precision: int) -> str:
    """Oracle for ``generate`` output: the header, then every value formatted on its own."""
    rows = ["x,f1,f2"] + [",".join(format(float(v), f".{precision}g") for v in row)
                          for row in zip(xs, f1, f2)]
    return "\n".join(rows) + "\n"
