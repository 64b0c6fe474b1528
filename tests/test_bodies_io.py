import json

import numpy as np
import pytest

from sectionlab.bodies_io import (
    body_from_dict,
    load_body,
    vertices_from_halfspaces,
)
from sectionlab.errors import DegenerateInput
from sectionlab.geometry import build_polytope, volume

SQUARE = {"kind": "polytope", "dim": 2, "label": "square",
          "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}


def write_body(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh)


class TestVertexJson:
    def test_polytope_roundtrip(self, dodecahedron, tmp_path):
        path = tmp_path / "dodeca.json"
        write_body({"kind": "polytope", "dim": 3,
                    "vertices": dodecahedron.vertices.tolist()}, path)
        back = load_body(path)
        assert back.dim == 3
        assert volume(back) == pytest.approx(1.0, abs=1e-9)
        assert len(back.vertices) == 20

    def test_square_roundtrip(self, tmp_path):
        path = tmp_path / "square.json"
        write_body(SQUARE, path)
        back = load_body(path)
        assert volume(back) == pytest.approx(1.0)

    def test_label_handling(self, tmp_path):
        path = tmp_path / "myshape.json"
        write_body(SQUARE, path)
        assert load_body(path).label == "square"  # stored label wins
        assert load_body(path, label="renamed").label == "renamed"

    def test_ball_roundtrip(self, tmp_path):
        path = tmp_path / "ball.json"
        write_body({"kind": "ball", "dim": 3, "center": [0.0, 0.0, 0.0],
                    "radius": 1.0}, path)
        back = load_body(path)
        assert back.kind == "ball"
        assert back.radius == 1.0

    def test_raw_points_dict(self):
        body = body_from_dict({"vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]})
        assert volume(body) == pytest.approx(2.0)

    def test_missing_keys(self):
        with pytest.raises(DegenerateInput):
            body_from_dict({"kind": "polytope"})


class TestHalfspaces:
    def test_unit_cube_from_halfspaces(self):
        normals = np.vstack([np.eye(3), -np.eye(3)])
        offsets = np.full(6, 0.5)
        points = vertices_from_halfspaces(normals, offsets)
        body = build_polytope(points)
        assert volume(body) == pytest.approx(1.0, rel=1e-12)
        assert len(body.vertices) == 8

    def test_halfspace_json(self, tmp_path):
        data = {
            "dim": 2,
            "normals": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]],
            "offsets": [1, 0, 1, 0, 1.5],
        }
        path = tmp_path / "box.json"
        path.write_text(json.dumps(data))
        body = load_body(path)
        assert body.kind == "polytope"
        assert volume(body) == pytest.approx(1.0 - 0.125)  # corner cut

    def test_unbounded_system(self):
        with pytest.raises(DegenerateInput):
            vertices_from_halfspaces(np.eye(3), np.ones(3))

    def test_empty_system(self):
        normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
        offsets = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
        with pytest.raises(DegenerateInput):
            vertices_from_halfspaces(normals, offsets)

    def test_dodecahedron_facet_planes_roundtrip(self, dodecahedron):
        # V-rep -> facet equations -> vertex enumeration -> same body
        normals, offsets = dodecahedron.facet_planes
        points = vertices_from_halfspaces(normals, offsets)
        back = build_polytope(points)
        assert len(back.vertices) == 20
        assert volume(back) == pytest.approx(volume(dodecahedron), rel=1e-12)


class TestDictForms:
    def test_ball_dict(self):
        back = body_from_dict({"kind": "ball", "center": [0.0, 0.0, 0.0],
                               "radius": 1.0})
        assert back.kind == "ball"
        assert back.radius == 1.0

    def test_facets_key_is_ignored(self, cube):
        # the hull is rebuilt from the vertices, whatever facets are given
        back = body_from_dict({"vertices": cube.vertices.tolist(),
                               "facets": [[0, 1, 2]]})
        assert len(back.facets) == 6
        assert volume(back) == pytest.approx(1.0)

    def test_negative_radius(self):
        with pytest.raises(DegenerateInput):
            body_from_dict({"kind": "ball", "center": [0, 0, 0], "radius": -2})
