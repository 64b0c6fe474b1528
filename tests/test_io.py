import json

import numpy as np

from sectionlab.density import StepCDF, estimate_root_density
from sectionlab.io import (
    load_observations,
    load_step_cdf_csv,
    read_csv,
    save_density_csv,
    save_step_cdf_csv,
    write_json,
)
from sectionlab.rng import RngStream
from sectionlab.sampling import sample_iur_sections


class TestDensityCsv:
    def test_roundtrip_through_shared_reader(self, cube, tmp_path):
        sample = sample_iur_sections(cube, 3000, RngStream(4))
        estimate = estimate_root_density(sample, grid_points=64)
        config = {"command": "density", "seed": 4}
        path = tmp_path / "g.csv"
        save_density_csv(estimate, path, config=config, body_label="cube")
        header, rows = read_csv(path, 2, "grid,value")
        assert np.array_equal(rows[:, 0], estimate.grid)
        assert np.array_equal(rows[:, 1], estimate.values)
        assert header["transform"] == "root_scale"
        assert float(header["bandwidth"]) == estimate.bandwidth
        assert header["bandwidth_method"] == estimate.bandwidth_method
        assert int(header["sample_size"]) == 3000
        assert header["body_label"] == "cube"
        assert json.loads(header["config"]) == config

    def test_empty_label_and_config_are_omitted(self, square, tmp_path):
        sample = sample_iur_sections(square, 500, RngStream(4))
        estimate = estimate_root_density(sample, grid_points=16)
        path = tmp_path / "g.csv"
        save_density_csv(estimate, path)
        header, _ = read_csv(path, 2, "grid,value")
        assert set(header) == {"transform", "bandwidth", "bandwidth_method",
                               "sample_size"}


class TestStepCdfCsv:
    def test_roundtrip(self, tmp_path):
        cdf = StepCDF(np.array([0.1, 0.25, 1.0 / 3.0]),
                      np.array([0.2, 0.7, 1.0]))
        path = tmp_path / "G.csv"
        save_step_cdf_csv(cdf, path, config={"command": "ecdf"})
        back = load_step_cdf_csv(path)
        assert np.array_equal(back.locations, cdf.locations)
        assert np.array_equal(back.cumulative, cdf.cumulative)


class TestReadCsv:
    def test_observations_skip_comments_and_blanks(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("# areas\n0.5\n\n 1.25 \n")
        assert np.array_equal(load_observations(path), [0.5, 1.25])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("")
        assert load_observations(path).shape == (0,)


def test_write_json_sorts_keys(tmp_path):
    path = tmp_path / "x.json"
    write_json({"b": 1, "a": [2.5]}, path)
    assert path.read_text() == '{"a": [2.5], "b": 1}\n'
