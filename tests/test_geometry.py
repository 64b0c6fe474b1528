import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from sectionlab.errors import DegenerateInput, InvalidBody
from sectionlab.geometry import (
    Hyperplane,
    build_polytope,
    builtin_body,
    mean_width,
    random_rotation,
    rotate_body,
    scale_body,
    section_volume,
    section_volume_by_clipping,
    section_volumes,
    support_interval,
    translate_body,
    validate_body,
    volume,
)
from sectionlab.rng import RngStream
from conftest import random_directions

DODECA_EDGE1_VOLUME = (15.0 + 7.0 * math.sqrt(5.0)) / 4.0


def _dodecahedron_points():
    """The points whose hull was the builtin dodecahedron."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    for a, b in ((1 / phi, phi), (-1 / phi, phi), (1 / phi, -phi),
                 (-1 / phi, -phi)):
        pts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    return np.array(pts, dtype=float)


class TestBuildPolytope:
    def test_square_corners(self):
        body = build_polytope([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert len(body.vertices) == 4
        assert volume(body) == pytest.approx(1.0, abs=1e-15)

    def test_interior_point_discarded(self):
        corners = 0.5 * np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
        pts = np.vstack([corners, [[0.0, 0.0, 0.0]]])
        body = build_polytope(pts)
        assert len(body.vertices) == 8

    def test_collinear_points_raise(self):
        with pytest.raises(DegenerateInput):
            build_polytope([[0, 0], [1, 1], [2, 2], [3, 3]])

    def test_too_few_points_raise(self):
        with pytest.raises(DegenerateInput):
            build_polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_coplanar_3d_points_raise(self):
        with pytest.raises(DegenerateInput):
            build_polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])


class TestBuiltins:
    def test_cube_is_unit(self, cube):
        assert volume(cube) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(cube.vertices).max() == pytest.approx(0.5)
        assert len(cube.facets) == 6
        assert all(len(f) == 4 for f in cube.facets)

    def test_dodecahedron_edge_one_volume(self):
        # canonical coordinates have edge length 2/phi; rescale to edge 1
        body = builtin_body("dodecahedron")
        phi = (1 + math.sqrt(5.0)) / 2.0
        vol_edge1 = volume(scale_body(body, phi / 2.0))
        assert vol_edge1 == pytest.approx(DODECA_EDGE1_VOLUME, rel=1e-12)

    def test_dodecahedron_normalized(self, dodecahedron):
        assert volume(dodecahedron) == pytest.approx(1.0, abs=1e-9)
        assert len(dodecahedron.facets) == 12
        assert all(len(f) == 5 for f in dodecahedron.facets)

    def test_ball_default(self, ball3):
        assert ball3.radius == 1.0
        assert volume(ball3) == pytest.approx(4 * math.pi / 3)

    def test_ball_2d(self):
        disk = builtin_body("ball", dim=2)
        assert volume(disk) == pytest.approx(math.pi)

    def test_regular_polygon_normalized(self):
        body = builtin_body("polygon7", normalize_volume=True)
        assert volume(body) == pytest.approx(1.0, abs=1e-12)
        assert len(body.vertices) == 7

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_body("icosahedron")

    def test_builtins_validate(self, square, cube, dodecahedron, ball3,
                               random_hull20):
        for body in (square, cube, dodecahedron, ball3, random_hull20,
                     builtin_body("polygon7")):
            validate_body(body)

    @pytest.mark.parametrize("name,points", [
        ("square", 0.5 * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]],
                                  dtype=float)),
        ("cube", 0.5 * np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1)
                                 for z in (-1, 1)], dtype=float)),
        ("dodecahedron", _dodecahedron_points()),
    ])
    def test_literal_tables_match_hull(self, name, points):
        """The literal builtin tables are the hull of their generating
        points, in qhull's vertex and facet order, bit for bit."""
        hull = build_polytope(points, label=name)
        body = builtin_body(name)
        assert body.vertices.tobytes() == hull.vertices.tobytes()
        assert body.facets == hull.facets
        assert body.label == hull.label


class TestVolume:
    def test_volume_matches_qhull(self, dodecahedron, random_hull20):
        for body in (dodecahedron, random_hull20):
            hull = ConvexHull(body.vertices)
            assert volume(body) == pytest.approx(hull.volume, rel=1e-12)

    def test_volume_2d_matches_qhull(self, square):
        hull = ConvexHull(square.vertices)
        assert volume(square) == pytest.approx(hull.volume, rel=1e-12)

    def test_centroid_matches_delaunay(self, random_hull20):
        """Volume and centroid of asymmetric bodies against the
        volume-weighted centroids of a Delaunay triangulation."""
        from scipy.spatial import Delaunay

        gen = RngStream(31, 4).generator()
        ang = np.sort(gen.uniform(0.0, 2.0 * np.pi, 10))
        polygon = build_polytope(
            np.column_stack([np.cos(ang), np.sin(ang)]) + [0.3, -0.2])
        assert len(polygon.vertices) == 10
        for body in (random_hull20, polygon):
            simplices = body.vertices[Delaunay(body.vertices).simplices]
            edges = simplices[:, 1:] - simplices[:, :1]
            sizes = np.abs(np.linalg.det(edges)) / math.factorial(body.dim)
            centroid = sizes @ simplices.mean(axis=1) / sizes.sum()
            assert volume(body) == pytest.approx(sizes.sum(), rel=1e-12)
            assert (np.linalg.norm(body.centroid - centroid)
                    <= 1e-12 * np.linalg.norm(centroid))


class TestSupportInterval:
    def test_square_axis(self, square):
        assert support_interval(square, np.array([1.0, 0.0])) == (-0.5, 0.5)

    def test_square_diagonal(self, square):
        theta = np.array([1.0, 1.0]) / math.sqrt(2.0)
        a, b = support_interval(square, theta)
        assert b - a == pytest.approx(math.sqrt(2.0))

    def test_ball_any_direction(self, ball3):
        sup = support_interval(ball3, np.array([0.0, 0.0, 1.0]))
        assert sup == (-1.0, 1.0)

    def test_width_symmetry(self, cube, dodecahedron):
        for body in (cube, dodecahedron):
            for theta in random_directions(3, 50, seed=5):
                a1, b1 = support_interval(body, theta)
                a2, b2 = support_interval(body, -theta)
                assert b1 - a1 == b2 - a2  # exact: same dot products, min/max swap


class TestSectionVolume:
    def test_square_mid_chord(self, square):
        plane = Hyperplane(np.array([0.0, 1.0]), 0.0)
        assert section_volume(square, plane) == pytest.approx(1.0, abs=1e-14)

    def test_cube_mid_plane(self, cube):
        plane = Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0)
        assert section_volume(cube, plane) == pytest.approx(1.0, abs=1e-14)

    def test_cube_diagonal_hexagon(self, cube):
        theta = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        plane = Hyperplane(theta, 0.0)
        expected = 3.0 * math.sqrt(3.0) / 4.0
        assert section_volume(cube, plane) == pytest.approx(expected, rel=1e-12)
        assert section_volume_by_clipping(cube, plane) == pytest.approx(
            expected, rel=1e-9
        )

    def test_ball_sections(self, ball3):
        plane = Hyperplane(np.array([0.0, 0.0, 1.0]), 0.5)
        assert section_volume(ball3, plane) == pytest.approx(0.75 * math.pi)
        missing = Hyperplane(np.array([0.0, 0.0, 1.0]), 2.0)
        assert section_volume(ball3, missing) == 0.0

    def test_miss_returns_zero(self, cube):
        plane = Hyperplane(np.array([0.0, 0.0, 1.0]), 3.0)
        assert section_volume(cube, plane) == 0.0

    def test_plane_containing_facet_gives_facet_volume(self, cube, square):
        plane = Hyperplane(np.array([0.0, 0.0, 1.0]), 0.5)
        assert section_volume(cube, plane) == pytest.approx(1.0, abs=1e-9)
        edge = Hyperplane(np.array([0.0, 1.0]), 0.5)
        assert section_volume(square, edge) == pytest.approx(1.0, abs=1e-9)
        # with the normal pointing into the body the kernel gives 0, while
        # the clipping reference still gives the facet's volume
        inward = Hyperplane(np.array([0.0, 0.0, 1.0]), -0.5)
        assert section_volume(cube, inward) == 0.0
        assert section_volume_by_clipping(cube, inward) == 1.0
        inward_edge = Hyperplane(np.array([0.0, 1.0]), -0.5)
        assert section_volume(square, inward_edge) == 0.0
        assert section_volume_by_clipping(square, inward_edge) == 1.0

    def test_vertex_touch_gives_zero(self, cube):
        theta = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        plane = Hyperplane(theta, math.sqrt(3.0) / 2.0)
        assert section_volume(cube, plane) == pytest.approx(0.0, abs=1e-18)

    def test_matches_clipping_oracle(self, square, cube, dodecahedron,
                                     random_hull20):
        gen = np.random.default_rng(77)
        random_polygon = build_polytope(gen.standard_normal((10, 2)),
                                        label="poly10")
        for body in (square, cube, dodecahedron, random_hull20,
                     random_polygon):
            dirs = random_directions(body.dim, 300, seed=17)
            radius = np.linalg.norm(
                body.vertices - body.centroid, axis=1
            ).max()
            offsets = np.random.default_rng(18).uniform(0, radius, 300)
            centered = translate_body(body, -body.centroid)
            _assert_matches_oracle(centered, dirs, offsets, offsets)
        for body in (cube, dodecahedron, random_hull20):
            centered = translate_body(body, -body.centroid)
            _assert_matches_oracle(centered, *_degenerate_planes(centered))
            planes = _touching_planes(centered,
                                      along_edges=body is not random_hull20)
            _assert_matches_oracle(centered, *planes)


def _assert_matches_oracle(body, dirs, offsets, oracle_offsets):
    fast = section_volumes(body, dirs, offsets)
    slow = np.array([
        section_volume_by_clipping(body, Hyperplane(theta, s))
        for theta, s in zip(dirs, oracle_offsets)
    ])
    denom = np.maximum(np.maximum(fast, slow), 1e-300)
    excess = np.maximum(np.abs(fast - slow) - 1e-15, 0.0)
    assert (excess / denom).max() < 1e-9


def _degenerate_planes(body):
    """Planes through each vertex, containing each edge and containing
    each facet of a centered 3D polytope: (directions, offsets, oracle
    offsets).

    Offsets come from vertex heights rounded as section_volumes rounds
    them, so the incident vertices lie on the plane as the kernel sees
    it.  Vertex and edge planes also pass through an interior point;
    planes that only touch the body come from _touching_planes.  A facet
    plane is ill-posed in floating point: the area jumps from the facet's
    to 0 across it, and rounding picks the side.  The oracle therefore
    takes it from 1e-13 inside, which changes the area by far less than
    the bound.
    """
    v = body.vertices
    gen = np.random.default_rng(19)

    def heights(theta):
        return v[:, 0] * theta[0] + v[:, 1] * theta[1] + v[:, 2] * theta[2]

    def plane(normal, vertex):
        theta = normal / np.linalg.norm(normal)
        s = heights(theta)[vertex]
        return theta, s, s

    planes = []
    for i in range(len(v)):
        for _ in range(2):
            inner = gen.uniform(-0.1, 0.1, 3)
            planes.append(plane(np.cross(v[i] - inner,
                                         gen.standard_normal(3)), i))
    edges = {tuple(sorted(pair)) for facet in body.facets
             for pair in zip(facet, facet[1:] + facet[:1])}
    for a, b in sorted(edges):
        for _ in range(2):
            inner = gen.uniform(-0.1, 0.1, 3)
            planes.append(plane(np.cross(v[b] - v[a], inner - v[a]), a))
    normals, _ = body.facet_planes
    for facet, n in zip(body.facets, normals):
        s = heights(n)[list(facet)].min()
        planes.append((n, s, s - 1e-13))
    dirs, offsets, oracle_offsets = zip(*planes)
    return np.array(dirs), np.array(offsets), np.array(oracle_offsets)


def _touching_planes(body, along_edges=True):
    """Supporting planes that touch a centered 3D polytope only at a
    vertex and, with ``along_edges``, only along an edge: (directions,
    offsets, oracle offsets).

    A normal is a random positive combination of the outward normals of
    the facets at that vertex or edge, and the offset is the largest
    vertex height as section_volumes rounds it, so the exact area is 0.
    random_hull20 is left out of the edge planes: its shallow edges
    (dihedral angles down to 0.05 rad) turn the rounding of the facet
    offsets into oracle slivers of up to 1.5e-14, above the 1e-15 floor.
    """
    v = body.vertices
    normals, _ = body.facet_planes
    gen = np.random.default_rng(20)
    touched = [{i} for i in range(len(v))]
    if along_edges:
        touched += [set(pair) for pair in sorted(
            {tuple(sorted(pair)) for facet in body.facets
             for pair in zip(facet, facet[1:] + facet[:1])})]
    planes = []
    for corners in touched:
        around = [f for f, facet in enumerate(body.facets)
                  if corners <= set(facet)]
        for _ in range(3):
            n = gen.uniform(0.1, 1.0, len(around)) @ normals[around]
            theta = n / np.linalg.norm(n)
            s = (v[:, 0] * theta[0] + v[:, 1] * theta[1]
                 + v[:, 2] * theta[2]).max()
            planes.append((theta, s, s))
    dirs, offsets, oracle_offsets = zip(*planes)
    return np.array(dirs), np.array(offsets), np.array(oracle_offsets)


class TestSectionProperties:
    def test_chunk_boundaries_do_not_change_values(self, square, cube,
                                                   dodecahedron,
                                                   random_hull20):
        # 50000 planes span several internal chunks of every body
        gen = np.random.default_rng(29)
        for body in (square, cube, dodecahedron, random_hull20):
            dirs = random_directions(body.dim, 50_000, seed=30)
            offsets = gen.uniform(-0.8, 0.8, 50_000)
            whole = section_volumes(body, dirs, offsets)
            cuts = np.unique(np.concatenate(
                [[0, 1, 6, 4103, 50_000], gen.integers(0, 50_000, 5)]))
            pieces = [section_volumes(body, dirs[lo:hi], offsets[lo:hi])
                      for lo, hi in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(np.concatenate(pieces), whole)
            assert (whole > 0).mean() > 0.5

    def test_oracle_agreement_is_scale_free(self, dodecahedron):
        gen = np.random.default_rng(23)
        for factor in (1e-6, 1.0, 1e6):
            body = scale_body(dodecahedron, factor)
            dirs = random_directions(3, 200, seed=24)
            offsets = gen.uniform(0, 1.5 * factor, 200)
            fast = section_volumes(body, dirs, offsets)
            slow = np.array([
                section_volume_by_clipping(body, Hyperplane(dirs[i], offsets[i]))
                for i in range(200)
            ])
            denom = np.maximum(np.maximum(fast, slow), 1e-300)
            excess = np.maximum(np.abs(fast - slow) - 1e-15 * factor**2, 0.0)
            assert (excess / denom).max() < 1e-9

    def test_brunn_concavity(self, square, cube, dodecahedron):
        for body, seed in ((square, 3), (cube, 4), (dodecahedron, 5)):
            theta = random_directions(body.dim, 1, seed)[0]
            grid = np.linspace(*support_interval(body, theta), 1000)
            vols = section_volumes(
                body, np.broadcast_to(theta, (1000, body.dim)), grid
            )
            f = vols ** (1.0 / (body.dim - 1))
            midpoint_gap = f[1:-1] - (f[:-2] + f[2:]) / 2.0
            assert midpoint_gap.min() > -1e-9

    def test_rigid_motion_equivariance(self, cube, dodecahedron):
        gen = np.random.default_rng(11)
        for body in (cube, dodecahedron):
            for _ in range(20):
                rot = random_rotation(3, gen)
                shift = gen.uniform(-1, 1, 3)
                theta = random_directions(3, 1, gen.integers(1 << 30))[0]
                s = gen.uniform(-0.5, 0.5)
                moved = translate_body(rotate_body(body, rot), shift)
                lhs = section_volume(moved, Hyperplane(theta, s))
                rhs = section_volume(
                    body, Hyperplane(rot.T @ theta, s - shift @ theta)
                )
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_scaling_relation(self, square, cube):
        gen = np.random.default_rng(12)
        for body in (square, cube):
            n = body.dim
            for _ in range(20):
                lam = gen.uniform(0.3, 3.0)
                theta = random_directions(n, 1, gen.integers(1 << 30))[0]
                s = gen.uniform(-0.4, 0.4)
                lhs = section_volume(scale_body(body, lam),
                                     Hyperplane(theta, lam * s))
                rhs = lam ** (n - 1) * section_volume(body, Hyperplane(theta, s))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestMeanWidth:
    def test_ball_constant_width(self, ball3):
        assert mean_width(ball3) == pytest.approx(2.0, rel=1e-12)
        scaled = scale_body(ball3, 1.7)
        assert mean_width(scaled) == pytest.approx(3.4, rel=1e-12)

    def test_square_perimeter_over_pi(self, square):
        # dense angular oracle of width(phi) = |cos phi| + |sin phi|
        phi = np.linspace(0, np.pi, 1_000_001)
        oracle = np.trapezoid(np.abs(np.cos(phi)) + np.abs(np.sin(phi)), phi) / np.pi
        value = mean_width(square)
        assert oracle == pytest.approx(4.0 / math.pi, rel=1e-9)
        assert value == pytest.approx(4.0 / math.pi, rel=1e-3)

    def test_cube_three_halves(self, cube):
        assert mean_width(cube) == pytest.approx(1.5, rel=1e-3)

    def test_closed_forms(self, cube, square):
        assert mean_width(cube) == pytest.approx(1.5, rel=1e-14)
        disc = scale_body(builtin_body("ball", dim=2), 0.7)
        assert mean_width(disc) == pytest.approx(1.4, rel=1e-14)
        assert mean_width(square) == pytest.approx(4.0 / math.pi, rel=1e-14)
        # 30 edges of length 2/phi, exterior dihedral angle arctan 2
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        exact = 15.0 * (2.0 / phi) * math.atan(2.0) / (2.0 * math.pi)
        dodeca = builtin_body("dodecahedron")
        assert mean_width(dodeca) == pytest.approx(exact, rel=1e-14)

    def test_random_bodies_match_dense_average(self, random_hull20):
        """Mean width against a dense average of the width over
        quasi-uniform directions: a Fibonacci lattice on the sphere, the
        midpoint rule in angle on the circle."""
        gen = np.random.default_rng(31)
        polygon = build_polytope(gen.standard_normal((10, 2)), label="poly10")
        m = 200_000
        i = np.arange(m) + 0.5
        z = 1.0 - 2.0 * i / m
        lon = math.pi * (1.0 + math.sqrt(5.0)) * i
        r = np.sqrt(1.0 - z * z)
        sphere = np.column_stack([r * np.cos(lon), r * np.sin(lon), z])
        angle = i * math.pi / m
        circle = np.column_stack([np.cos(angle), np.sin(angle)])
        for body, dirs in ((random_hull20, sphere), (polygon, circle)):
            oracle = np.ptp(body.vertices @ dirs.T, axis=0).mean()
            assert mean_width(body) == pytest.approx(oracle, rel=1e-5)
            turned = rotate_body(body, random_rotation(body.dim, gen))
            assert mean_width(turned) == pytest.approx(mean_width(body),
                                                       rel=1e-12)


class TestValidateBody:
    def test_rejects_non_extreme_vertex(self, cube):
        from sectionlab.geometry import ConvexBody

        bad = ConvexBody(
            dim=3, kind="polytope",
            vertices=np.vstack([cube.vertices, [[0.0, 0.0, 0.0]]]),
            facets=cube.facets, label="bad",
        )
        with pytest.raises(InvalidBody):
            validate_body(bad)

    def test_rejects_vertex_outside_facet_plane(self, cube):
        from sectionlab.geometry import ConvexBody

        bad = ConvexBody(
            dim=3, kind="polytope",
            vertices=np.vstack([cube.vertices, [[0.0, 0.0, 2.0]]]),
            facets=cube.facets, label="bad",
        )
        with pytest.raises(InvalidBody, match="outside a facet plane"):
            validate_body(bad)

    def test_rejects_edge_midpoint_vertex(self, cube):
        """A vertex in the middle of an edge, threaded into both facets
        along that edge: the surface stays closed and planar, but the
        point lies on two facet planes only."""
        from sectionlab.geometry import ConvexBody

        a, b = 0, 2  # an edge of the cube's first facet
        mid = len(cube.vertices)
        facets = []
        for facet in cube.facets:
            ring = list(facet)
            for i in range(len(ring)):
                if {ring[i], ring[(i + 1) % len(ring)]} == {a, b}:
                    ring.insert(i + 1, mid)
                    break
            facets.append(tuple(ring))
        assert sum(mid in f for f in facets) == 2
        vertices = np.vstack([cube.vertices,
                              (cube.vertices[a] + cube.vertices[b]) / 2.0])
        bad = ConvexBody(dim=3, kind="polytope", vertices=vertices,
                         facets=tuple(facets), label="bad")
        with pytest.raises(InvalidBody, match="non-extreme"):
            validate_body(bad)

    def test_rejects_open_surface(self, square, cube):
        from sectionlab.geometry import ConvexBody

        for body in (square, cube):
            bad = ConvexBody(dim=body.dim, kind="polytope",
                             vertices=body.vertices, facets=body.facets[1:],
                             label="bad")
            with pytest.raises(InvalidBody, match="closed"):
                validate_body(bad)

    def test_rejects_reversed_facet(self, square, dodecahedron):
        from sectionlab.geometry import ConvexBody

        for body in (square, dodecahedron):
            facets = (body.facets[0][::-1],) + body.facets[1:]
            bad = ConvexBody(dim=body.dim, kind="polytope",
                             vertices=body.vertices, facets=facets,
                             label="bad")
            with pytest.raises(InvalidBody):
                validate_body(bad)

    def test_rejects_bad_ball(self):
        from sectionlab.geometry import ConvexBody

        bad = ConvexBody(dim=3, kind="ball", center=np.zeros(3),
                         radius=-1.0, label="bad")
        with pytest.raises(InvalidBody):
            validate_body(bad)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_ball_radius_not_finite_and_positive(self, dim, radius):
        # a NaN radius used to pass, and then sampling rejected every
        # proposal forever
        from sectionlab.geometry import ConvexBody
        from sectionlab.sampling import sample_iur_sections

        bad = ConvexBody(dim=dim, kind="ball", center=np.zeros(dim),
                         radius=radius, label="bad")
        with pytest.raises(InvalidBody, match="finite and positive"):
            validate_body(bad)
        with pytest.raises(InvalidBody, match="finite and positive"):
            sample_iur_sections(bad, 10, RngStream(0))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bad_coordinate", [np.nan, np.inf, -np.inf])
    def test_rejects_ball_center_not_finite(self, dim, bad_coordinate):
        from sectionlab.geometry import ConvexBody
        from sectionlab.sampling import sample_iur_sections

        center = np.zeros(dim)
        center[-1] = bad_coordinate
        bad = ConvexBody(dim=dim, kind="ball", center=center, radius=1.0,
                         label="bad")
        with pytest.raises(InvalidBody, match="center must be finite"):
            validate_body(bad)
        with pytest.raises(InvalidBody, match="center must be finite"):
            sample_iur_sections(bad, 10, RngStream(0))

    def test_hyperplane_requires_unit_direction(self):
        with pytest.raises(ValueError):
            Hyperplane(np.array([1.0, 1.0]), 0.0)

    def test_clipping_reference_rejects_ball(self, ball3):
        with pytest.raises(InvalidBody):
            section_volume_by_clipping(
                ball3, Hyperplane(np.array([0.0, 0.0, 1.0]), 0.0)
            )

    def test_section_batch_shape_mismatch(self, cube):
        with pytest.raises(ValueError):
            section_volumes(cube, np.array([[1.0, 0.0]]), np.array([0.0]))

    def test_invalid_body_propagates_to_sampler(self, cube):
        from sectionlab.geometry import ConvexBody
        from sectionlab.sampling import sample_iur_sections

        bad = ConvexBody(
            dim=3, kind="polytope",
            vertices=np.vstack([cube.vertices, [[0.0, 0.0, 0.0]]]),
            facets=cube.facets, label="bad",
        )
        with pytest.raises(InvalidBody):
            sample_iur_sections(bad, 10, RngStream(0))


def _masked_edge_sections(body, thetas, d):
    """The edge-crossing kernel with its crossing parameters from a masked
    divide, kept as the reference for the unmasked one in geometry."""
    v = body.vertices
    edges, incidence = body._edge_incidence
    ia, ib = edges[:, 0], edges[:, 1]
    pos = d >= 0.0
    cross = np.subtract(pos[ia], pos[ib], dtype=float)
    da, db = d[ia], d[ib]
    t = np.divide(da, da - db, out=np.zeros_like(da), where=cross != 0.0)
    if body.dim == 2:
        tau = v[:, 1, None] * thetas[:, 0] - v[:, 0, None] * thetas[:, 1]
        ta = tau[ia]
        chord = (cross * (ta + t * (tau[ib] - ta))).sum(axis=0)
        return np.maximum(chord, 0.0)
    crossed = np.abs(cross)
    va, dv = v[ia], v[ib] - v[ia]
    q = np.empty((3,) + da.shape)
    for k in range(3):
        np.multiply(crossed, va[:, k, None], out=q[k])
        q[k] += t * dv[:, k, None]
    a = np.abs(incidence) @ q
    b = incidence @ (cross * q)
    det = (thetas[:, 0] * (a[1] * b[2] - a[2] * b[1])
           + thetas[:, 1] * (a[2] * b[0] - a[0] * b[2])
           + thetas[:, 2] * (a[0] * b[1] - a[1] * b[0]))
    total = det[0].copy()
    for row in det[1:]:
        total += row
    return np.maximum(-0.25 * total, 0.0)


def _kernel_test_planes(body):
    """Random planes, axis-aligned planes through every vertex height and
    between them, and planes through a vertex in random directions, with
    heights rounded as section_volumes rounds them."""
    dim, v = body.dim, body.vertices
    gen = np.random.default_rng(31)
    dirs = [random_directions(dim, 4000, seed=32)]
    offsets = [gen.uniform(-0.9, 0.9, 4000)]
    for k in range(dim):
        for sign in (1.0, -1.0):
            theta = np.zeros(dim)
            theta[k] = sign
            levels = np.unique(v[:, k] * sign)
            levels = np.concatenate([levels, (levels[1:] + levels[:-1]) / 2,
                                     [0.0, -0.0]])
            dirs.append(np.broadcast_to(theta, (levels.size, dim)))
            offsets.append(levels)
    thetas = random_directions(dim, 300, seed=33)
    heights = v[:, 0, None] * thetas[:, 0]
    for k in range(1, dim):
        heights += v[:, k, None] * thetas[:, k]
    dirs.append(np.repeat(thetas, len(v), axis=0))
    offsets.append(heights.T.ravel())
    if dim == 3:
        for extra in (_degenerate_planes(body), _touching_planes(body)):
            dirs.append(extra[0])
            offsets.append(extra[1])
    return np.concatenate(dirs), np.concatenate(offsets)


def test_unmasked_kernel_matches_masked_divide_bit_for_bit(
        square, cube, dodecahedron, random_hull20, monkeypatch):
    from sectionlab import geometry

    for body in (square, builtin_body("polygon7"), cube, dodecahedron,
                 random_hull20):
        dirs, offsets = _kernel_test_planes(body)
        fast = section_volumes(body, dirs, offsets)
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_edge_sections", _masked_edge_sections)
            reference = section_volumes(body, dirs, offsets)
        # equal bits, signed zeros included
        assert np.array_equal(fast.view(np.int64), reference.view(np.int64))
        assert (fast == 0.0).any() and (fast > 0.0).any()
