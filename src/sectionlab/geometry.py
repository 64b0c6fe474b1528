"""Convex bodies in R^2 and R^3 and their exact sectioning geometry.

A body is either a polytope (hull vertices plus outward-oriented facets)
or an analytic ball.  This module computes the quantities every other
module consumes: hyperplane section volumes (chord lengths in 2D, cross
section areas in 3D), support intervals and widths, volumes, centroids
and the mean width.

All operations are pure functions of immutable body data and may be
called concurrently without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateInput, InvalidBody

# Point-on-plane classification tolerance, relative to body diameter.
PLANE_TOL = 1e-12


def _check_direction(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] not in (2, 3):
        raise ValueError("direction must be a vector in R^2 or R^3")
    if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
        raise ValueError("direction must have unit length (tolerance 1e-12)")
    return theta


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <x, direction> = offset} with a unit normal."""

    direction: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "direction", _check_direction(self.direction))
        object.__setattr__(self, "offset", float(self.offset))


@dataclass(eq=False)
class ConvexBody:
    """A convex body: polytope (vertices + facets) or analytic ball.

    Polytope facets are stored as tuples of vertex indices, oriented
    counterclockwise about the outward normal (3D) or as consecutive
    boundary edges of the counterclockwise vertex cycle (2D).  Instances
    are treated as immutable; derived arrays are cached lazily.
    """

    dim: int
    kind: str  # "polytope" | "ball"
    vertices: np.ndarray | None = None
    facets: tuple = ()
    center: np.ndarray | None = None
    radius: float | None = None
    label: str = "body"

    # -- derived, cached ------------------------------------------------

    @cached_property
    def _moments(self) -> tuple[float, np.ndarray]:
        """Volume and centroid: analytic for a ball, else the shoelace sum
        (2D) or signed tetrahedra fanned from each facet's first vertex to
        the vertex mean (3D)."""
        if self.kind == "ball":
            r = self.radius
            if self.dim == 2:
                return math.pi * r * r, self.center.copy()
            return 4.0 * math.pi * r**3 / 3.0, self.center.copy()
        v = self.vertices
        if self.dim == 2:
            x, y = v[:, 0], v[:, 1]
            xn, yn = np.roll(x, -1), np.roll(y, -1)
            cross = x * yn - xn * y
            area = cross.sum() / 2.0
            sums = np.array([((x + xn) * cross).sum(),
                             ((y + yn) * cross).sum()])
            return float(abs(area)), sums / (6.0 * area)
        ref = v.mean(axis=0)
        fan = np.array([(f[0], f[k], f[k + 1]) for f in self.facets
                        for k in range(1, len(f) - 1)], dtype=np.intp)
        v0, v1, v2 = (v[fan[:, k]] for k in range(3))
        six = np.einsum("ij,ij->i", v0 - ref, np.cross(v1 - ref, v2 - ref))
        vols = six / 6.0
        cents = (ref + v0 + v1 + v2) / 4.0
        return (float(six.sum() / 6.0),
                (vols[:, None] * cents).sum(axis=0) / vols.sum())

    @property
    def centroid(self) -> np.ndarray:
        return self._moments[1]

    @cached_property
    def diameter_bound(self) -> float:
        """Cheap upper bound used to scale geometric tolerances."""
        if self.kind == "ball":
            return 2.0 * self.radius
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    @cached_property
    def _edge_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique edges (ne, 2) and signed facet-edge incidence (nf, ne).

        Entry (f, e) is +1 when facet f's boundary runs along edge e from
        its first to its second vertex, -1 when it runs the other way and
        0 off the facet.  A 2D facet is itself an edge, so there the
        incidence is the identity.
        """
        if self.dim == 2:
            edges = np.array(self.facets, dtype=np.intp)
            return edges, np.eye(len(edges))
        index: dict[tuple, int] = {}
        entries = []  # (facet, edge, sign)
        for f, facet in enumerate(self.facets):
            for a, b in zip(facet, facet[1:] + facet[:1]):
                e = index.setdefault((min(a, b), max(a, b)), len(index))
                entries.append((f, e, 1.0 if a < b else -1.0))
        rows, cols, signs = zip(*entries)
        incidence = np.zeros((len(self.facets), len(index)))
        incidence[rows, cols] = signs
        return np.array(list(index), dtype=np.intp), incidence

    @cached_property
    def facet_planes(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward facet equations (normals, offsets): n.x <= c inside."""
        if self.kind == "ball":
            raise InvalidBody("a ball has no facet planes")
        v = self.vertices
        if self.dim == 2:
            normals, offsets = [], []
            for i, j in self.facets:
                e = v[j] - v[i]
                n = np.array([e[1], -e[0]])  # outward for CCW boundary
                n /= np.linalg.norm(n)
                normals.append(n)
                offsets.append(n @ v[i])
            return np.array(normals), np.array(offsets)
        normals, offsets = [], []
        for facet in self.facets:
            pts = v[list(facet)]
            n = _newell_normal(pts)
            normals.append(n)
            offsets.append(float(n @ pts.mean(axis=0)))
        return np.array(normals), np.array(offsets)


def _newell_normal(pts: np.ndarray) -> np.ndarray:
    nxt = np.roll(pts, -1, axis=0)
    n = np.array(
        [
            np.sum((pts[:, 1] - nxt[:, 1]) * (pts[:, 2] + nxt[:, 2])),
            np.sum((pts[:, 2] - nxt[:, 2]) * (pts[:, 0] + nxt[:, 0])),
            np.sum((pts[:, 0] - nxt[:, 0]) * (pts[:, 1] + nxt[:, 1])),
        ]
    )
    return n / np.linalg.norm(n)


# ---------------------------------------------------------------------------
# Construction


def build_polytope(points, label: str = "polytope") -> ConvexBody:
    """Convex body from the hull of ``points``.

    Points not on the hull are discarded.  Raises DegenerateInput when the
    points are not full-dimensional (e.g. collinear points in R^2).
    """
    # imported here: scipy.spatial costs about 0.4 s of start-up, and the
    # builtin bodies never need it
    from scipy.spatial import ConvexHull, QhullError

    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise DegenerateInput("points must be an (m, 2) or (m, 3) array")
    dim = points.shape[1]
    if points.shape[0] < dim + 1:
        raise DegenerateInput(f"need at least {dim + 1} points in R^{dim}")
    centered = points - points.mean(axis=0)
    scale = max(np.abs(centered).max(), 1.0)
    if np.linalg.matrix_rank(centered, tol=1e-10 * scale) < dim:
        raise DegenerateInput("points are not full-dimensional")
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise DegenerateInput(f"hull construction failed: {exc}") from exc

    if dim == 2:
        verts = points[hull.vertices]  # counterclockwise
        m = len(verts)
        facets = tuple((i, (i + 1) % m) for i in range(m))
        return ConvexBody(dim=2, kind="polytope", vertices=verts,
                          facets=facets, label=label)

    keep = hull.vertices
    remap = {old: new for new, old in enumerate(keep)}
    verts = points[keep]
    facets = tuple(
        tuple(remap[i] for i in facet)
        for facet in _merge_coplanar_facets(points, hull)
    )
    return ConvexBody(dim=3, kind="polytope", vertices=verts,
                      facets=facets, label=label)


def vertices_from_halfspaces(normals, offsets) -> np.ndarray:
    """Enumerate the vertices of {x : n_i . x <= c_i}.

    Requires a bounded, full-dimensional system; an interior point is
    found as the Chebyshev center.
    """
    # imported here: only body files need scipy, which costs 0.5 s to load
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


def _merge_coplanar_facets(points, hull) -> list[tuple]:
    """Merge qhull's triangles into maximal planar facets, CCW outward."""
    eqs = hull.equations
    nsimp = len(hull.simplices)
    scale = max(np.abs(points).max(), 1.0)
    parent = list(range(nsimp))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(nsimp):
        for j in hull.neighbors[i]:
            if j < 0:
                continue
            same_normal = eqs[i, :3] @ eqs[j, :3] > 1.0 - 1e-10
            same_offset = abs(eqs[i, 3] - eqs[j, 3]) < 1e-9 * scale
            if same_normal and same_offset:
                ri, rj = find(i), find(int(j))
                if ri != rj:
                    parent[rj] = ri

    groups: dict[int, set] = {}
    for i in range(nsimp):
        groups.setdefault(find(i), set()).update(hull.simplices[i])

    facets = []
    for root, idx in groups.items():
        idx = np.fromiter(idx, dtype=np.intp)
        normal = eqs[root, :3]
        pts = points[idx]
        cen = pts.mean(axis=0)
        # in-plane basis for angular ordering about the outward normal
        seed = np.eye(3)[np.argmin(np.abs(normal))]
        e1 = np.cross(normal, seed)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        ang = np.arctan2((pts - cen) @ e2, (pts - cen) @ e1)
        order = idx[np.argsort(ang)]
        ordered = points[order]
        if _newell_normal(ordered) @ normal < 0:
            order = order[::-1]
        facets.append(tuple(int(i) for i in order))
    return facets


_P = (1.0 + math.sqrt(5.0)) / 2.0  # golden ratio
_Q = 1.0 / _P

# The builtin polytopes as (vertices, facets), in the order qhull gives
# for their generating points, so that every derived float matches a body
# built by build_polytope; tests/test_geometry.py checks this.
_TABLES = {
    "square": (
        ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)),
        ((0, 1), (1, 2), (2, 3), (3, 0)),
    ),
    "cube": (
        tuple((x, y, z) for x in (-0.5, 0.5) for y in (-0.5, 0.5)
              for z in (-0.5, 0.5)),
        ((6, 4, 0, 2), (4, 5, 1, 0), (6, 7, 5, 4), (3, 2, 0, 1),
         (7, 6, 2, 3), (5, 7, 3, 1)),
    ),
    "dodecahedron": (
        ((-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (-1, 1, 1),
         (1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1),
         (0, _Q, _P), (_Q, _P, 0), (_P, 0, _Q),
         (0, -_Q, _P), (-_Q, _P, 0), (_P, 0, -_Q),
         (0, _Q, -_P), (_Q, -_P, 0), (-_P, 0, _Q),
         (0, -_Q, -_P), (-_Q, -_P, 0), (-_P, 0, -_Q)),
        ((2, 14, 17, 0, 19), (9, 6, 14, 2, 12), (16, 3, 12, 2, 19),
         (8, 3, 16, 1, 11), (15, 5, 11, 1, 18), (1, 16, 19, 0, 18),
         (10, 5, 15, 4, 13), (14, 6, 13, 4, 17), (17, 4, 15, 18, 0),
         (7, 10, 13, 6, 9), (7, 8, 11, 5, 10), (7, 9, 12, 3, 8)),
    ),
}


def builtin_body(name: str, normalize_volume: bool = False,
                 dim: int = 3) -> ConvexBody:
    """Canonical centered body by name.

    Names: ``square``, ``cube``, ``dodecahedron``, ``ball`` (``dim`` 2 or
    3) and ``polygon<k>`` for the regular k-gon.  With ``normalize_volume``
    the body is scaled so its volume is 1 (the square and cube already
    are; the ball becomes a ball of unit volume).
    """
    name = name.lower()
    if name in _TABLES:
        vertices, facets = _TABLES[name]
        vertices = np.array(vertices, dtype=float)
        body = ConvexBody(dim=vertices.shape[1], kind="polytope",
                          vertices=vertices, facets=facets, label=name)
    elif name == "ball":
        if dim not in (2, 3):
            raise ValueError("ball dimension must be 2 or 3")
        body = ConvexBody(dim=dim, kind="ball", center=np.zeros(dim),
                          radius=1.0, label="ball")
    elif name.startswith("polygon"):
        k = int(name[len("polygon"):])
        if k < 3:
            raise ValueError("regular polygon needs at least 3 vertices")
        ang = 2.0 * np.pi * np.arange(k) / k
        # qhull's start vertex has no closed form (index 4 for k = 7, 8
        # for k = 12), so the k-gon is still built through the hull
        body = build_polytope(
            np.column_stack([np.cos(ang), np.sin(ang)]), label=name
        )
    else:
        raise ValueError(f"unknown builtin body {name!r}")

    if normalize_volume:
        body = scale_body(body, volume(body) ** (-1.0 / body.dim))
    return body


def translate_body(body: ConvexBody, shift) -> ConvexBody:
    shift = np.asarray(shift, dtype=float)
    if body.kind == "ball":
        return replace(body, center=body.center + shift)
    return replace(body, vertices=body.vertices + shift)


def rotate_body(body: ConvexBody, matrix) -> ConvexBody:
    matrix = np.asarray(matrix, dtype=float)
    if np.linalg.det(matrix) < 0:
        raise ValueError("rotation matrix must have determinant +1")
    if body.kind == "ball":
        return replace(body, center=matrix @ body.center)
    return replace(body, vertices=body.vertices @ matrix.T)


def scale_body(body: ConvexBody, factor: float) -> ConvexBody:
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    if body.kind == "ball":
        return replace(body, center=body.center * factor,
                       radius=body.radius * factor)
    return replace(body, vertices=body.vertices * factor)


def random_rotation(dim: int, generator) -> np.ndarray:
    """Haar-random rotation matrix (determinant +1)."""
    a = generator.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def validate_body(body: ConvexBody) -> None:
    """Raise InvalidBody when the stored data violates its invariants.

    A polytope passes when its facets close up (in 3D each edge borders
    two facets, traversed in opposite directions; in 2D each vertex starts
    one edge and ends one), each facet is planar with an outward normal,
    and every vertex lies inside every facet plane and on at least ``dim``
    of them.  The last check rejects points that are not extreme.
    """
    if body.dim not in (2, 3):
        raise InvalidBody("dimension must be 2 or 3")
    if body.kind == "ball":
        # a NaN radius would reject every proposal, so sampling never ends
        if body.radius is None or not 0 < body.radius < np.inf:
            raise InvalidBody("ball radius must be finite and positive")
        if body.center is None or body.center.shape != (body.dim,):
            raise InvalidBody("ball center has wrong shape")
        if not np.isfinite(body.center).all():
            raise InvalidBody("ball center must be finite")
        return
    if body.kind != "polytope":
        raise InvalidBody(f"unknown body kind {body.kind!r}")
    v = body.vertices
    if v is None or v.ndim != 2 or v.shape[1] != body.dim:
        raise InvalidBody("vertex array has wrong shape")
    if len(v) <= body.dim or not np.isfinite(v).all():
        raise InvalidBody("vertices are degenerate")
    if not body.facets:
        raise InvalidBody("polytope has no facets")
    sizes = np.array([len(facet) for facet in body.facets])
    corners = np.concatenate(body.facets)
    if ((sizes < body.dim).any() or (body.dim == 2 and (sizes > 2).any())
            or corners.min() < 0 or corners.max() >= len(v)):
        raise InvalidBody("a facet has too few vertices or a bad index")
    edges, incidence = body._edge_incidence
    if body.dim == 2:
        closed = (np.bincount(edges[:, 0], minlength=len(v)) == 1).all() and (
            np.bincount(edges[:, 1], minlength=len(v)) == 1).all()
    else:
        closed = ((np.abs(incidence).sum(axis=0) == 2).all()
                  and (incidence.sum(axis=0) == 0).all())
    if not closed:
        raise InvalidBody("facets do not form a closed oriented boundary")
    with np.errstate(invalid="ignore", divide="ignore"):
        normals, offsets = body.facet_planes
        cen = body.centroid
    tol = max(1e-9, 1e3 * PLANE_TOL * max(body.diameter_bound, 1.0))
    heights = v @ normals.T - offsets  # (vertex, facet), <= 0 inside
    if not (heights <= tol).all():  # also catches NaN from a flat facet
        raise InvalidBody("a vertex lies outside a facet plane")
    for f, facet in enumerate(body.facets):
        if np.abs(heights[list(facet), f]).max() > tol:
            raise InvalidBody("facet is not planar")
    if ((np.abs(heights) <= tol).sum(axis=1) < body.dim).any():
        raise InvalidBody("vertex set contains non-extreme points")
    if not (offsets - normals @ cen > 0).all():
        raise InvalidBody("facet normal is not outward")


# ---------------------------------------------------------------------------
# Measurements


def volume(body: ConvexBody) -> float:
    """Lebesgue volume: shoelace (2D), signed tetrahedra (3D), analytic ball."""
    return body._moments[0]


def support_interval(body: ConvexBody, theta) -> tuple[float, float]:
    """Offset range (a, b) with b - a the width of the body along theta."""
    theta = _check_direction(theta)
    if body.kind == "ball":
        c = float(body.center @ theta)
        return c - body.radius, c + body.radius
    d = body.vertices @ theta
    return float(d.min()), float(d.max())


def section_volume(body: ConvexBody, plane: Hyperplane) -> float:
    """(n-1)-volume of the body's intersection with a hyperplane.

    Chord length in 2D, polygon area in 3D, 0 when the plane misses the
    body or only touches a vertex or edge; a plane containing a facet
    yields the facet's volume when its direction is the facet's outward
    normal, and 0 when it points into the body.
    """
    theta = np.asarray(plane.direction, dtype=float)[None, :]
    return float(section_volumes(body, theta, np.array([plane.offset]))[0])


def section_volumes(body: ConvexBody, thetas, offsets) -> np.ndarray:
    """Vectorized section volumes for a batch of hyperplanes.

    ``thetas`` is (m, dim) with unit rows, ``offsets`` is (m,).
    Evaluation is chunked internally so memory stays bounded for large
    batches, and each value has the same bits wherever the chunk or batch
    boundaries fall.
    """
    thetas = np.asarray(thetas, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != body.dim:
        raise ValueError(
            f"direction batch must have shape (m, {body.dim})"
        )
    m = thetas.shape[0]
    if body.kind == "ball":
        delta = thetas @ body.center - offsets
        gap = np.maximum(body.radius**2 - delta**2, 0.0)
        return np.pi * gap if body.dim == 3 else 2.0 * np.sqrt(gap)

    nv, (nf, ne) = len(body.vertices), body._edge_incidence[1].shape
    # float64 temporaries per section; a chunk's stay below 4 MB per
    # calling thread, and the sampler calls from up to one thread per core.
    # In a 2-40 MB sweep, from 8 MB up they were faulted in afresh per
    # chunk.  No value's bits depend on where a chunk ends, which lets the
    # sampler split a batch between threads anywhere.
    floats = 2 * nv + 14 * ne + 12 * nf
    chunk = max(1024, min(1 << 16, int(4e6 / (8.0 * floats))))
    out = np.empty(m)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        # vertex heights elementwise: unlike a matrix product, this rounds
        # each entry the same way wherever the boundaries fall
        h = body.vertices[:, 0, None] * thetas[lo:hi, 0]
        for k in range(1, body.dim):
            h += body.vertices[:, k, None] * thetas[lo:hi, k]
        out[lo:hi] = _edge_sections(body, thetas[lo:hi], h - offsets[lo:hi])
    return out


def _edge_sections(body, thetas, d) -> np.ndarray:
    """Section volumes from the planes' crossings of the body's edges.

    ``d`` holds the signed vertex heights above each plane (nv, m); a
    vertex on the plane counts as above.  An edge whose ends lie on
    opposite sides is crossed at ``q_e`` with sign ``c_e`` = +1 going down
    from its first to its second vertex and -1 going up.  In 2D the chord
    is sum_e c_e (u . q_e) along the line direction u.  In 3D each crossed
    facet meets the plane in one segment from its down-crossing q_d to its
    up-crossing q_u (in boundary order), and the area is the shoelace sum
    theta . (q_d x q_u) / 2 over facets.  With A = |F| q = q_d + q_u and
    B = F (c q) = q_d - q_u over the signed facet-edge incidence F, that
    is -theta . (A x B) / 4, with no global ordering of section vertices.
    """
    v = body.vertices
    edges, incidence = body._edge_incidence
    ia, ib = edges[:, 0], edges[:, 1]
    pos = d >= 0.0
    cross = np.subtract(pos[ia], pos[ib], dtype=float)  # c_e in {-1, 0, 1}
    crossed = np.abs(cross)
    da = d[ia]
    # t = da / (da - db) on crossed edges, where da - db != 0, and 0 off
    # them: a zero denominator, only possible off them, is made 1 first
    t = np.subtract(da, d[ib])
    t += t == 0.0
    np.divide(da, t, out=t)
    t *= crossed
    if body.dim == 2:
        tau = v[:, 1, None] * thetas[:, 0] - v[:, 0, None] * thetas[:, 1]
        ta = tau[ia]
        chord = (cross * (ta + t * (tau[ib] - ta))).sum(axis=0)
        return np.maximum(chord, 0.0)
    va, dv = v[ia], v[ib] - v[ia]
    q = np.empty((3,) + da.shape)  # crossing points, 0 off crossed edges
    for k in range(3):
        np.multiply(crossed, va[:, k, None], out=q[k])
        q[k] += t * dv[:, k, None]
    a = np.abs(incidence) @ q
    b = incidence @ (cross * q)
    det = (thetas[:, 0] * (a[1] * b[2] - a[2] * b[1])
           + thetas[:, 1] * (a[2] * b[0] - a[0] * b[2])
           + thetas[:, 2] * (a[0] * b[1] - a[1] * b[0]))  # (nf, m)
    # add facets in a fixed order: sum(axis=0) turns pairwise when m == 1
    total = det[0].copy()
    for row in det[1:]:
        total += row
    return np.maximum(-0.25 * total, 0.0)


def section_volume_by_clipping(body: ConvexBody, plane: Hyperplane) -> float:
    """Brute-force reference: clip the plane against all facet half-spaces.

    Independent of the edge-crossing path used by ``section_volume``; kept
    for validation.  Polytopes only.
    """
    if body.kind != "polytope":
        raise InvalidBody("clipping reference is defined for polytopes")
    theta = plane.direction
    s = plane.offset
    normals, offsets = body.facet_planes
    # Seed square: centred on the projection of the vertex mean onto the
    # plane, half-width the diameter bound, so it holds the whole section.
    # A larger one would leak its own cancellation error into sections
    # that are tiny or empty.
    mean = body.vertices.mean(axis=0)
    bound = body.diameter_bound

    if body.dim == 2:
        # line x = s*theta + t*u clipped against edge half-planes
        u = np.array([-theta[1], theta[0]])
        p0 = s * theta
        mid = mean @ u
        tlo, thi = mid - bound, mid + bound
        for n, c in zip(normals, offsets):
            an = n @ u
            rhs = c - n @ p0
            if abs(an) < 1e-15:
                if rhs < 0:
                    return 0.0
                continue
            t = rhs / an
            if an > 0:
                thi = min(thi, t)
            else:
                tlo = max(tlo, t)
        return max(thi - tlo, 0.0)

    seed = np.eye(3)[np.argmin(np.abs(theta))]
    e1 = np.cross(theta, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(theta, e1)
    p0 = s * theta
    mid = np.array([mean @ e1, mean @ e2])
    poly = [mid + bound * np.array(corner)
            for corner in ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))]
    for n, c in zip(normals, offsets):
        a, b = n @ e1, n @ e2
        rhs = c - n @ p0
        if abs(a) < 1e-15 and abs(b) < 1e-15:
            if rhs < 0:
                return 0.0
            continue
        poly = _clip_half_plane(poly, a, b, rhs)
        if len(poly) < 3:
            return 0.0
    x = np.array([p[0] for p in poly])
    y = np.array([p[1] for p in poly])
    return float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) / 2.0)


def _clip_half_plane(poly, a, b, rhs):
    """Sutherland-Hodgman clip of a polygon by a*u + b*v <= rhs."""
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        fp = a * p[0] + b * p[1] - rhs
        fq = a * q[0] + b * q[1] - rhs
        if fp <= 0:
            out.append(p)
            if fq > 0:
                out.append(p + (q - p) * (fp / (fp - fq)))
        elif fq <= 0:
            out.append(p + (q - p) * (fp / (fp - fq)))
    return out


def mean_width(body: ConvexBody) -> float:
    """Average width over directions, in closed form.

    2r for a ball; the perimeter over pi for a polygon (Cauchy's formula);
    sum_e l_e psi_e / (4 pi) over the edges of a 3D polytope, where psi_e
    is the angle between the outward normals of the two facets at edge e.
    """
    if body.kind == "ball":
        return 2.0 * body.radius
    edges, incidence = body._edge_incidence
    v = body.vertices
    lengths = np.linalg.norm(v[edges[:, 1]] - v[edges[:, 0]], axis=1)
    if body.dim == 2:
        return float(lengths.sum() / math.pi)
    normals = body.facet_planes[0]
    # the two facets of each edge: the nonzero rows of its incidence column
    pair = np.nonzero(incidence.T)[1].reshape(-1, 2)
    n1, n2 = normals[pair[:, 0]], normals[pair[:, 1]]
    # arctan2 keeps small angles accurate, where arccos of the dot does not
    psi = np.arctan2(np.linalg.norm(np.cross(n1, n2), axis=1),
                     np.einsum("ij,ij->i", n1, n2))
    return float(lengths @ psi / (4.0 * math.pi))
