"""Reading convex bodies from JSON.

Two polytope encodings are accepted: a vertex list (taken as the points
whose hull is the body; a ``facets`` key is ignored, since the hull is
rebuilt) and a half-space system {normals, offsets} with interior
{x : n_i . x <= c_i}, converted by vertex enumeration.  Balls are
{kind: "ball", center, radius}.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DegenerateInput
from .geometry import ConvexBody, build_polytope


def body_from_dict(data: dict, label: str | None = None) -> ConvexBody:
    name = label or data.get("label", "body")
    if data.get("kind") == "ball":
        center = np.asarray(data["center"], dtype=float)
        radius = float(data["radius"])
        if radius <= 0:
            raise DegenerateInput("ball radius must be positive")
        return ConvexBody(dim=len(center), kind="ball", center=center,
                          radius=radius, label=name)
    if "normals" in data:
        points = vertices_from_halfspaces(data["normals"], data["offsets"])
        return build_polytope(points, label=name)
    if "vertices" in data:
        return build_polytope(np.asarray(data["vertices"], dtype=float),
                              label=name)
    raise DegenerateInput(
        "body JSON needs 'vertices', 'normals'/'offsets', or kind 'ball'"
    )


def vertices_from_halfspaces(normals, offsets) -> np.ndarray:
    """Enumerate the vertices of {x : n_i . x <= c_i}.

    Requires a bounded, full-dimensional system; an interior point is
    found as the Chebyshev center.
    """
    # imported here: only body JSON files need scipy, and it costs about
    # 0.5 s of start-up
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection, QhullError

    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if normals.ndim != 2 or normals.shape[0] != offsets.shape[0]:
        raise DegenerateInput("normals and offsets have mismatched shapes")
    dim = normals.shape[1]
    norms = np.linalg.norm(normals, axis=1)
    if (norms == 0).any():
        raise DegenerateInput("half-space normals must be nonzero")

    # Chebyshev center: maximize r with n.x + ||n|| r <= c
    cost = np.zeros(dim + 1)
    cost[-1] = -1.0
    a_ub = np.column_stack([normals, norms])
    res = linprog(cost, A_ub=a_ub, b_ub=offsets,
                  bounds=[(None, None)] * dim + [(0, None)], method="highs")
    if not res.success or res.x[-1] <= 1e-12:
        raise DegenerateInput("half-space system is empty or not full-dimensional")
    interior = res.x[:dim]

    halfspaces = np.column_stack([normals, -offsets])
    try:
        hs = HalfspaceIntersection(halfspaces, interior)
    except QhullError as exc:
        raise DegenerateInput(f"vertex enumeration failed: {exc}") from exc
    points = hs.intersections
    if not np.isfinite(points).all():
        raise DegenerateInput("half-space system is unbounded")
    return points


def load_body(path, label: str | None = None) -> ConvexBody:
    with open(path) as fh:
        data = json.load(fh)
    return body_from_dict(data, label=label)

