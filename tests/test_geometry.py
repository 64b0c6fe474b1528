import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from sectionlab.errors import DegenerateInput, InvalidBody
from sectionlab.geometry import (
    Hyperplane,
    build_polytope,
    builtin_body,
    inner_section_function,
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
from conftest import random_directions

DODECA_EDGE1_VOLUME = (15.0 + 7.0 * math.sqrt(5.0)) / 4.0


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

    def test_builtins_validate(self, square, cube, dodecahedron, ball3):
        for body in (square, cube, dodecahedron, ball3):
            validate_body(body)


class TestVolume:
    def test_volume_matches_qhull(self, dodecahedron, random_hull20):
        for body in (dodecahedron, random_hull20):
            hull = ConvexHull(body.vertices)
            assert volume(body) == pytest.approx(hull.volume, rel=1e-12)

    def test_volume_2d_matches_qhull(self, square):
        hull = ConvexHull(square.vertices)
        assert volume(square) == pytest.approx(hull.volume, rel=1e-12)


class TestSupportInterval:
    def test_square_axis(self, square):
        sup = support_interval(square, np.array([1.0, 0.0]))
        assert (sup.a, sup.b) == (-0.5, 0.5)
        assert sup.width == 1.0

    def test_square_diagonal(self, square):
        theta = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert support_interval(square, theta).width == pytest.approx(
            math.sqrt(2.0)
        )

    def test_ball_any_direction(self, ball3):
        sup = support_interval(ball3, np.array([0.0, 0.0, 1.0]))
        assert (sup.a, sup.b) == (-1.0, 1.0)

    def test_width_symmetry(self, cube, dodecahedron):
        for body in (cube, dodecahedron):
            for theta in random_directions(3, 50, seed=5):
                w1 = support_interval(body, theta).width
                w2 = support_interval(body, -theta).width
                assert w1 == w2  # exact: same dot products, min/max swap


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
    it.  Vertex and edge planes also pass through an interior point:
    where a plane only touches the body the exact area is 0, and the
    oracle's own rounding there (up to 1e-14 on a body of diameter 2)
    exceeds the 1e-15 floor.  A facet plane is ill-posed in floating
    point: the area jumps from the facet's to 0 across it, and rounding
    picks the side.  The oracle therefore takes it from 1e-13 inside,
    which changes the area by far less than the bound.
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
            sup = support_interval(body, theta)
            grid = np.linspace(sup.a, sup.b, 1000)
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


class TestInnerSectionFunction:
    def test_ball_great_circle(self, ball3):
        m, s_star = inner_section_function(ball3, np.array([0.0, 0.0, 1.0]))
        assert m == pytest.approx(math.pi)
        assert s_star == pytest.approx(0.0, abs=1e-9)

    def test_cube_axis_flat_maximum(self, cube):
        m, s_star = inner_section_function(cube, np.array([0.0, 0.0, 1.0]))
        assert m == pytest.approx(1.0, rel=1e-10)
        assert abs(s_star) <= 0.5

    def test_cube_diagonal_vs_grid_scan(self, cube):
        theta = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        m, s_star = inner_section_function(cube, theta)
        sup = support_interval(cube, theta)
        grid = np.linspace(sup.a, sup.b, 20001)
        scan = section_volumes(
            cube, np.broadcast_to(theta, (grid.size, 3)), grid
        )
        assert m == pytest.approx(scan.max(), rel=1e-7)
        assert m == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, rel=1e-9)
        assert s_star == pytest.approx(0.0, abs=1e-6)


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

    def test_node_floor(self, cube):
        with pytest.raises(ValueError):
            mean_width(cube, quadrature_nodes=32)


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

    def test_rejects_bad_ball(self):
        from sectionlab.geometry import ConvexBody

        bad = ConvexBody(dim=3, kind="ball", center=np.zeros(3),
                         radius=-1.0, label="bad")
        with pytest.raises(InvalidBody):
            validate_body(bad)

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
        from sectionlab.rng import RngStream
        from sectionlab.sampling import sample_iur_sections

        bad = ConvexBody(
            dim=3, kind="polytope",
            vertices=np.vstack([cube.vertices, [[0.0, 0.0, 0.0]]]),
            facets=cube.facets, label="bad",
        )
        with pytest.raises(InvalidBody):
            sample_iur_sections(bad, 10, RngStream(0))
