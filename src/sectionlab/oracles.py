"""Closed-form reference distributions used for validation.

Two exist in closed form: the chord length law of the unit square, and
the section law of a ball of radius r.  For a fixed direction the
offset s is uniform on (0, r), so the CDF inverts analytically: the
disk's chord 2 sqrt(r^2 - s^2) has CDF 1 - sqrt(1 - (c / 2r)^2), and the
3D ball's area pi (r^2 - s^2) has CDF 1 - sqrt(1 - a / (pi r^2)).
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


def square_chord_cdf(z):
    """Chord length CDF of the unit square, the antiderivative of
    ``square_chord_density``: z/2 on [0, 1], then 1/2 + sqrt(z^2 - 1)/z
    - (z - 1)/2 up to sqrt(2); 0 below the support and 1 above it."""
    z = np.asarray(z, dtype=float)
    safe = np.clip(z, 1.0, SQUARE_CHORD_SUPPORT)
    upper = 0.5 + np.sqrt(safe * safe - 1.0) / safe - (safe - 1.0) / 2.0
    out = np.clip(np.where(z <= 1.0, z / 2.0, upper), 0.0, 1.0)
    return out if out.ndim else float(out)


def ball_section_cdf(a, radius: float = 1.0, dim: int = 3):
    """CDF of the section volume of a ball of the given radius: the area
    law in 3D, the chord law for ``dim=2`` (see the module docstring)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    a = np.asarray(a, dtype=float)
    amax = 2.0 * radius if dim == 2 else math.pi * radius * radius
    if (a < 0).any() or (a > amax * (1.0 + 1e-12)).any():
        raise OutOfSupport(f"section volume must lie in [0, {amax:.6g}]")
    q = a / amax
    out = 1.0 - np.sqrt(np.maximum(1.0 - (q * q if dim == 2 else q), 0.0))
    return out if out.ndim else float(out)
