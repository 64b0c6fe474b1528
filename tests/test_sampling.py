import math

import numpy as np
import pytest

from sectionlab.errors import EmptySample
from sectionlab.io import (
    load_sample_csv,
    load_sample_json,
    save_sample_csv,
    save_sample_json,
)
from sectionlab.rng import RngStream
from sectionlab.sampling import (
    SectionSample,
    acceptance_estimate,
    enclosing_radius,
    sample_directions,
    sample_iur_sections,
)
from sectionlab.validation import ks_vs_cdf


class TestDirections:
    def test_unit_norm(self):
        for dim in (2, 3):
            dirs = sample_directions(dim, 1000, RngStream(0))
            assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_isotropy_moments_3d(self):
        dirs = sample_directions(3, 1_000_000, RngStream(1))
        means = dirs.mean(axis=0)
        assert (np.abs(means) < 0.004).all()  # SE ~ 0.00058
        z2 = (dirs[:, 2] ** 2).mean()
        assert 0.330 < z2 < 0.337  # E[u3^2] = 1/3

    def test_isotropy_moments_2d(self):
        dirs = sample_directions(2, 1_000_000, RngStream(2))
        assert (np.abs(dirs.mean(axis=0)) < 0.004).all()

    def test_determinism(self):
        a = sample_directions(2, 100, RngStream(7))
        b = sample_directions(2, 100, RngStream(7))
        assert np.array_equal(a, b)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            sample_directions(4, 10, RngStream(0))


class TestIurSampling:
    def test_ball_accepts_everything(self, ball3):
        sample = sample_iur_sections(ball3, 50_000, RngStream(1))
        assert acceptance_estimate(sample) == 1.0
        assert (sample.values > 0).all()
        assert sample.values.max() <= math.pi

    def test_cube_acceptance_rate(self, cube):
        sample = sample_iur_sections(cube, 200_000, RngStream(11))
        rate = acceptance_estimate(sample)
        expected = 1.5 / math.sqrt(3.0)  # mean width over sphere diameter
        assert rate == pytest.approx(expected, abs=0.005)

    def test_enclosing_radius(self, cube, ball3):
        assert enclosing_radius(cube) == pytest.approx(math.sqrt(3.0) / 2.0)
        assert enclosing_radius(ball3) == 1.0

    def test_square_diameter_bound(self, square):
        sample = sample_iur_sections(square, 1_000_000, RngStream(3))
        assert sample.values.max() <= math.sqrt(2.0)
        assert sample.values.max() > 1.41

    def test_bit_identical_reruns(self, cube):
        one = sample_iur_sections(cube, 2000, RngStream(42))
        two = sample_iur_sections(cube, 2000, RngStream(42))
        assert np.array_equal(one.values, two.values)
        assert one.n_proposed == two.n_proposed

    def test_batch_size_does_not_change_draws(self, cube, dodecahedron,
                                              monkeypatch):
        # the dodecahedron and the 7-gon have vertex coordinates that are
        # not binary fractions, where a matrix product's rounding would
        # depend on a plane's position in its batch
        import sectionlab.sampling as sampling
        from sectionlab.geometry import builtin_body

        bodies = (cube, dodecahedron, builtin_body("polygon7"))
        first = [sample_iur_sections(b, 20000, RngStream(42)) for b in bodies]
        monkeypatch.setattr(sampling, "_BATCH", 311)
        for body, one in zip(bodies, first):
            two = sample_iur_sections(body, 20000, RngStream(42))
            assert np.array_equal(one.values, two.values), body.label
            assert one.n_proposed == two.n_proposed

    def test_worker_merge_reproducible(self, cube):
        one = sample_iur_sections(cube, 2000, RngStream(42), workers=4)
        two = sample_iur_sections(cube, 2000, RngStream(42), workers=4)
        assert np.array_equal(one.values, two.values)
        solo = sample_iur_sections(cube, 2000, RngStream(42))
        assert not np.array_equal(one.values, solo.values)

    @pytest.mark.parametrize("workers", [2, 3, 64])
    def test_pooled_shards_match_serial_loop(self, dodecahedron, monkeypatch,
                                             workers):
        import concurrent.futures
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = sample_iur_sections(dodecahedron, 3000, RngStream(8),
                                     workers=workers)
        pools = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def recording_pool(max_workers, **kwargs):
            pools.append(max_workers)
            return real_pool(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = sample_iur_sections(dodecahedron, 3000, RngStream(8),
                                     workers=workers)
        assert pools == [2]  # one process per usable core, not per worker
        assert np.array_equal(pooled.values, serial.values)
        assert pooled.n_proposed == serial.n_proposed

    def test_recentering_matches_centered_body(self, cube):
        # recentering at the centroid makes position irrelevant (up to
        # float residue of the centroid computation)
        from sectionlab.geometry import translate_body

        moved = translate_body(cube, np.array([5.0, -3.0, 2.0]))
        a = sample_iur_sections(cube, 1000, RngStream(9))
        b = sample_iur_sections(moved, 1000, RngStream(9))
        assert a.n_proposed == b.n_proposed
        assert np.allclose(a.values, b.values, rtol=1e-9, atol=1e-12)

    def test_size_validation(self, cube):
        with pytest.raises(ValueError):
            sample_iur_sections(cube, 0, RngStream(0))


class TestSectionLaws:
    def test_square_chords_match_analytic_cdf(self, square):
        """End-to-end distributional check against the closed-form chord
        law (antiderivative of the density oracle, verified by quadrature
        in the oracle tests): G(z) = z/2 below 1, then
        1/2 + sqrt(z^2-1)/z - (z-1)/2.
        """

        def chord_cdf(z):
            z = np.asarray(z, dtype=float)
            safe = np.where(z > 1.0, z, 2.0)
            upper = 0.5 + np.sqrt(safe * safe - 1.0) / safe - (safe - 1.0) / 2.0
            return np.clip(np.where(z <= 1.0, z / 2.0, upper), 0.0, 1.0)

        sample = sample_iur_sections(square, 1_000_000, RngStream(1))
        assert ks_vs_cdf(sample.values, chord_cdf) < 0.003

    def test_full_sphere_matches_hemisphere_parameterization(self, cube):
        """Directions on the full sphere with offsets in (0, R) define the
        same section law as hemispheric directions with signed offsets."""
        from sectionlab.geometry import section_volumes
        from sectionlab.sampling import enclosing_radius
        from sectionlab.validation import ks_two_sample

        radius = enclosing_radius(cube)
        gen = RngStream(6, 77).generator()
        parts, have = [], 0
        while have < 200_000:
            u = gen.random((1 << 15, 3))
            phi = 2.0 * np.pi * u[:, 0]
            z = np.abs(2.0 * u[:, 1] - 1.0)  # upper hemisphere
            rxy = np.sqrt(1.0 - z * z)
            thetas = np.column_stack([rxy * np.cos(phi), rxy * np.sin(phi), z])
            offsets = radius * (2.0 * u[:, 2] - 1.0)  # signed
            d = cube.vertices @ thetas.T
            hit = (offsets >= d.min(axis=0)) & (offsets <= d.max(axis=0))
            parts.append(section_volumes(cube, thetas[hit], offsets[hit]))
            have += parts[-1].size
        hemi = np.concatenate(parts)[:200_000]
        full = sample_iur_sections(cube, 200_000, RngStream(5)).values
        assert ks_two_sample(full, hemi) < 0.006


class TestAcceptanceEstimate:
    def test_empty_raises(self):
        empty = SectionSample(values=np.array([]), n_proposed=0,
                              n_accepted=0, seed=0, body_label="x", dim=2)
        with pytest.raises(EmptySample):
            acceptance_estimate(empty)

    def test_invalid_bookkeeping(self):
        with pytest.raises(ValueError):
            SectionSample(values=np.array([1.0]), n_proposed=0, n_accepted=1,
                          seed=0, body_label="x", dim=2)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SectionSample(values=np.array([np.nan, 1.0]), n_proposed=2,
                          n_accepted=2, seed=0, body_label="x", dim=2)


class TestSampleFiles:
    def test_csv_roundtrip(self, square, tmp_path):
        sample = sample_iur_sections(square, 200, RngStream(5))
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path, config={"command": "sample"})
        back = load_sample_csv(path)
        assert np.array_equal(back.values, sample.values)
        assert back.n_proposed == sample.n_proposed
        assert back.seed == sample.seed
        assert back.dim == 2

    def test_csv_with_nan_is_rejected(self, square, tmp_path):
        # a ValueError is an input error: exit 3 at the CLI
        sample = sample_iur_sections(square, 20, RngStream(5))
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        lines = path.read_text().splitlines()
        lines[-1] = "nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_sample_csv(path)

    def test_json_roundtrip(self, cube, tmp_path):
        sample = sample_iur_sections(cube, 100, RngStream(5))
        path = tmp_path / "sample.json"
        save_sample_json(sample, path)
        back = load_sample_json(path)
        assert np.array_equal(back.values, sample.values)
        assert back.body_label == "cube"


class TestDistributionInvariances:
    """The section law is invariant to where and how the body sits."""

    def test_translation_rotation_scaling(self, cube):
        from sectionlab.validation import check_invariance

        for kind in ("translation", "rotation", "scaling"):
            result = check_invariance(kind, cube, n=20_000, trials=4, seed=3)
            assert result.passed, result.line()

    def test_inclusion_bound_small(self):
        from sectionlab.validation import check_inclusion_bound

        result = check_inclusion_bound(n=100_000, seed=3, slack=0.02)
        assert result.passed, result.line()
