"""Closed-form reference distributions used for validation.

Only two exist in closed form at unit scale: the chord length density of
the unit square, and the section-area law of the ball (for a fixed
direction the offset is uniform, so the area CDF inverts analytically).
Everything else is validated against brute-force geometric references or
distributional invariances.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfSupport

SQUARE_CHORD_SUPPORT = math.sqrt(2.0)


def square_chord_density(z):
    """Chord length density of the unit square under isotropic sectioning.

    Piecewise: 1/2 on [0, 1] and 1/(z^2 sqrt(z^2 - 1)) - 1/2 on
    (1, sqrt(2)]; the second branch has an integrable singularity as z
    decreases to 1.
    """
    z = np.asarray(z, dtype=float)
    if (z < 0).any() or (z > SQUARE_CHORD_SUPPORT + 1e-12).any():
        raise OutOfSupport("chord length must lie in [0, sqrt(2)]")
    out = np.full(z.shape, 0.5)
    upper = z > 1.0
    if upper.any():
        zu = z[upper]
        out[upper] = 1.0 / (zu * zu * np.sqrt(zu * zu - 1.0)) - 0.5
    return out if out.ndim else float(out)


def ball_section_cdf(a, radius: float = 1.0):
    """CDF of the section area of a ball of the given radius.

    With the offset uniform on (0, r) and area pi (r^2 - s^2), inverting
    gives P(A <= a) = 1 - sqrt(1 - a / (pi r^2)).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    a = np.asarray(a, dtype=float)
    amax = math.pi * radius * radius
    if (a < 0).any() or (a > amax * (1.0 + 1e-12)).any():
        raise OutOfSupport("section area must lie in [0, pi r^2]")
    out = 1.0 - np.sqrt(np.maximum(1.0 - a / amax, 0.0))
    return out if out.ndim else float(out)

