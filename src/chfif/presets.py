"""Bundled example gallery.

Sixteen parameter sets over one fixed data set, chosen so that every
smoothness regime (each placement of Theta, Omega, Gamma against 1) is
exercised, plus extreme-scaling and sign-flipped variants.  ``fig1`` is the
nominally self-affine set; its third interval breaks the collapse identity
alpha + beta = gamma (0.3 - 0.2 != 0.6), which the classifier reports as a
discrepancy, and ``fig1_corrected`` repairs it (gamma_3 = 0.1).  The data
live only in the YAML files under ``configs/``.
"""

from __future__ import annotations

from .config import GALLERY_NAMES  # re-exported: the gallery's names
from .config import bundled_config_names, load_bundled_config, parse_config
from .geometry import InterpolationProblem

# Expected (theta, omega, gamma) regime per gallery entry with ratios
# computed from the fixed data set; used by tests and documented in the
# README.  Entries 4-16 cover all nine regime combinations.
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


def gallery_problem(name: str) -> InterpolationProblem:
    """Interpolation problem of one bundled gallery entry (fig1..fig16, fig1_corrected)."""
    if name not in bundled_config_names():
        raise KeyError(f"unknown gallery entry {name!r}")
    return parse_config(load_bundled_config(name)).problem
