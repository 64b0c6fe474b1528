import math

import numpy as np
import pytest
import scipy.optimize

from sectionlab.density import (
    DensityEstimate,
    StepCDF,
    classical_kde,
    default_grid,
    empirical_cdf,
    estimate_root_density,
    reflection_kde,
    root_transform,
    sheather_jones_bandwidth,
    untransform_density,
)
from sectionlab.errors import (
    EmptySample,
    NonPositiveBandwidth,
    ZeroGridPoint,
    ZeroVariance,
)
from sectionlab.geometry import builtin_body
from sectionlab.oracles import square_chord_density
from sectionlab.rng import RngStream
from sectionlab.sampling import SectionSample, sample_iur_sections

SQRT2PI = math.sqrt(2.0 * math.pi)


def make_sample(values, dim):
    values = np.asarray(values, dtype=float)
    return SectionSample(values=values, n_proposed=len(values),
                         n_accepted=len(values), seed=0, body_label="t",
                         dim=dim)


def sj_direct_reference(x):
    """Direct-sum solve-the-equation plug-in; independent of the binned path."""
    y = np.concatenate([x, -x])
    n = len(y)
    sd = y.std()
    q75, q25 = np.percentile(y, [75, 25])
    scale = min(sd, (q75 - q25) / 1.349)
    diffs = np.abs(y[:, None] - y[None, :]).ravel()

    def phi4(h):
        u = (diffs / h) ** 2
        keep = u < 1000.0
        u = u[keep]
        total = np.sum(np.exp(-0.5 * u) * (u * u - 6 * u + 3))
        return total / (n * (n - 1.0) * h**5 * SQRT2PI)

    def phi6(h):
        u = (diffs / h) ** 2
        keep = u < 1000.0
        u = u[keep]
        total = np.sum(np.exp(-0.5 * u) * (u**3 - 15 * u**2 + 45 * u - 15))
        return total / (n * (n - 1.0) * h**7 * SQRT2PI)

    a = 0.920 * scale * n ** (-1.0 / 7.0)
    b = 0.912 * scale * n ** (-1.0 / 9.0)
    sda, td = phi4(a), -phi6(b)
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)
    alpha_c = 1.357 * (sda / td) ** (1.0 / 7.0)

    def gap(h):
        return (c1 / phi4(alpha_c * h ** (5.0 / 7.0))) ** 0.2 - h

    h_silver = 0.9 * min(sd, (q75 - q25) / 1.34) * n ** (-0.2)
    return scipy.optimize.brentq(gap, h_silver / 100, h_silver * 100,
                                 xtol=1e-12)


class TestRootTransform:
    def test_identity_in_2d(self):
        x = root_transform(make_sample([0.5, 1.2], dim=2))
        assert np.array_equal(x, [0.5, 1.2])

    def test_sqrt_in_3d(self):
        x = root_transform(make_sample([0.25, 1.0], dim=3))
        assert np.array_equal(x, [0.5, 1.0])

    def test_zero(self):
        assert np.array_equal(root_transform(make_sample([0.0], dim=3)), [0.0])

    def test_copy_not_view(self):
        sample = make_sample([1.0, 2.0], dim=2)
        x = root_transform(sample)
        x[0] = -1.0
        assert sample.values[0] == 1.0


class TestReflectionKde:
    def test_point_at_zero(self):
        est = reflection_kde(np.array([0.0]), 0.1, np.array([0.0]))
        assert est.values[0] == pytest.approx(2.0 / (0.1 * SQRT2PI), rel=1e-14)

    def test_point_at_one(self):
        est = reflection_kde(np.array([1.0]), 0.1, np.array([1.0]))
        # mirror term k(20) is negligible
        assert est.values[0] == pytest.approx(1.0 / (0.1 * SQRT2PI), rel=1e-12)
        assert est.values[0] == pytest.approx(3.98942, abs=1e-5)

    def test_matches_naive_double_sum(self):
        gen = np.random.default_rng(0)
        x = gen.exponential(1.0, 500)
        grid = np.linspace(0.0, 8.0, 101)
        est = reflection_kde(x, 0.25, grid)
        naive = np.array([
            (np.exp(-0.5 * ((z - x) / 0.25) ** 2).sum()
             + np.exp(-0.5 * ((z + x) / 0.25) ** 2).sum())
            / (x.size * 0.25 * SQRT2PI)
            for z in grid
        ])
        assert np.abs(est.values - naive).max() < 1e-13

    def test_reflection_identity(self):
        gen = np.random.default_rng(1)
        x = np.abs(gen.standard_normal(50_000))
        grid = np.linspace(0.0, 4.0, 257)
        h = 0.05
        est = reflection_kde(x, h, grid)
        doubled = 2.0 * classical_kde(np.concatenate([x, -x]), h, grid)
        assert np.abs(est.values - doubled).max() < 1e-12

    def test_normalization(self):
        gen = np.random.default_rng(2)
        x = gen.gamma(3.0, 1.0, 20_000)
        h = 0.1
        grid = np.linspace(0.0, x.max() + 6 * h, 2048)
        est = reflection_kde(x, h, grid)
        assert est.integral() == pytest.approx(1.0, abs=1e-3)

    def test_boundary_derivative_zero(self):
        gen = np.random.default_rng(3)
        x = np.abs(gen.standard_normal(5000))
        h = 0.2
        delta = 1e-5
        est = reflection_kde(x, h, np.array([0.0, delta, 2 * delta]))
        # one-sided second-order derivative estimate at 0
        slope = (4.0 * est.values[1] - 3.0 * est.values[0]
                 - est.values[2]) / (2.0 * delta)
        assert abs(slope) < 1e-9

    def test_errors(self):
        with pytest.raises(EmptySample):
            reflection_kde(np.array([]), 0.1, np.array([0.0]))
        with pytest.raises(NonPositiveBandwidth):
            reflection_kde(np.array([1.0]), 0.0, np.array([0.0]))
        with pytest.raises(ValueError):
            reflection_kde(np.array([-1.0]), 0.1, np.array([0.0]))
        with pytest.raises(ValueError):
            reflection_kde(np.array([1.0]), 0.1, np.array([-0.5]))


class TestBandwidths:
    def test_sj_matches_direct_reference(self):
        gen = np.random.default_rng(42)
        x = np.abs(gen.standard_normal(1024))
        h_direct = sj_direct_reference(x)
        h_binned, _ = sheather_jones_bandwidth(x)
        assert h_binned == pytest.approx(h_direct, rel=0.02)

    def test_sj_on_half_normal_1e5(self):
        # mirrored sample is exactly standard normal of size 2e5, whose
        # optimal Gaussian-kernel bandwidth is (4/3)^(1/5) (2e5)^(-1/5)
        gen = np.random.default_rng(7)
        x = np.abs(gen.standard_normal(100_000))
        h, _ = sheather_jones_bandwidth(x)
        amise = (4.0 / 3.0) ** 0.2 * (2e5) ** (-0.2)
        assert h == pytest.approx(amise, rel=0.1)
        assert 0.075 < h < 0.11

    def test_scale_equivariance(self):
        gen = np.random.default_rng(8)
        x = gen.exponential(1.0, 4096)
        h1, _ = sheather_jones_bandwidth(x)
        h2, _ = sheather_jones_bandwidth(2.0 * x)
        assert h2 == pytest.approx(2.0 * h1, rel=1e-6)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            sheather_jones_bandwidth(np.full(100, 1.5))

    def test_zero_variance_despite_rounding(self):
        # the mean of 1000 copies of 0.1 rounds, so their std is 1.4e-17
        with pytest.raises(ZeroVariance):
            sheather_jones_bandwidth(np.full(1000, 0.1))

    def test_minimum_length(self):
        with pytest.raises(EmptySample):
            sheather_jones_bandwidth(np.arange(10.0))

    def test_silverman_fallback_flag(self, monkeypatch):
        import sectionlab.density as de

        monkeypatch.setattr(de, "_binned_functional", lambda *a: 1.0)
        gen = np.random.default_rng(9)
        x = np.abs(gen.standard_normal(1000))
        h, method = de.sheather_jones_bandwidth(x)
        assert method == "silverman_fallback"
        y = np.concatenate([x, -x])
        iqr = np.subtract(*np.percentile(y, [75, 25]))
        silverman = 0.9 * min(y.std(), iqr / 1.34) * y.size ** (-0.2)
        assert h == pytest.approx(silverman)

    def test_sj_method_flag(self):
        gen = np.random.default_rng(10)
        x = np.abs(gen.standard_normal(1000))
        _, method = sheather_jones_bandwidth(x)
        assert method == "sheather_jones"


class TestUntransform:
    def _root_estimate(self, grid, values):
        return DensityEstimate(grid=np.asarray(grid, dtype=float),
                               values=np.asarray(values, dtype=float),
                               bandwidth=0.1, transform="root_scale",
                               sample_size=100)

    def test_dim2_identity(self):
        est = self._root_estimate([0.0, 0.5, 1.0], [0.2, 0.6, 0.2])
        out = untransform_density(est, dim=2)
        assert np.array_equal(out.grid, est.grid)
        assert np.allclose(out.values, est.values)
        assert out.transform == "volume_scale"

    def test_dim3_pointwise_factor(self):
        est = self._root_estimate([0.5, 1.0], [0.3, 0.8])
        out = untransform_density(est, dim=3, grid=np.array([1.0]))
        assert out.values[0] == pytest.approx(0.4)  # 0.8 / (2 sqrt(1))

    def test_dim3_quarter(self):
        c = 0.77
        est = self._root_estimate([0.25, 0.5, 0.75], [0.1, c, 0.9])
        out = untransform_density(est, dim=3, grid=np.array([0.25]))
        # g(0.25) = g_root(0.5) / (2 * 0.5) = c
        assert out.values[0] == pytest.approx(c)

    def test_dim3_rejects_zero(self):
        est = self._root_estimate([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ZeroGridPoint):
            untransform_density(est, dim=3, grid=np.array([0.0, 1.0]))

    def test_dim3_default_grid_squares(self):
        est = self._root_estimate([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        out = untransform_density(est, dim=3)
        assert np.allclose(out.grid, [0.25, 1.0])

    def test_rejects_volume_scale_input(self):
        est = DensityEstimate(grid=np.array([0.5, 1.0]),
                              values=np.array([1.0, 1.0]), bandwidth=0.1,
                              transform="volume_scale", sample_size=10)
        with pytest.raises(ValueError):
            untransform_density(est, dim=3)


class TestEmpiricalCdf:
    def test_basic_values(self):
        cdf = empirical_cdf(np.array([1.0, 2.0, 3.0]))
        assert cdf.evaluate(2.0) == pytest.approx(2.0 / 3.0)
        assert cdf.evaluate(3.0) == 1.0
        assert cdf.evaluate(0.5) == 0.0

    def test_ties_merged(self):
        cdf = empirical_cdf(np.array([1.0, 1.0, 2.0, 2.0, 2.0]))
        assert np.array_equal(cdf.locations, [1.0, 2.0])
        assert np.allclose(cdf.cumulative, [0.4, 1.0])

    def test_empty(self):
        with pytest.raises(EmptySample):
            empirical_cdf(np.array([]))

    def test_right_continuity(self):
        cdf = empirical_cdf(np.array([1.0, 2.0]))
        assert cdf.evaluate(1.0) == 0.5
        assert cdf.evaluate(np.nextafter(1.0, 0.0)) == 0.0


class TestStepCdf:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            StepCDF(np.array([1.0, 1.0]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            StepCDF(np.array([1.0, 2.0]), np.array([0.7, 0.6]))
        with pytest.raises(ValueError):
            StepCDF(np.array([1.0, 2.0]), np.array([0.5, 0.9]))

    def test_from_atoms_normalizes(self):
        cdf = StepCDF.from_atoms([2.0, 1.0], [3.0, 1.0])
        assert np.array_equal(cdf.locations, [1.0, 2.0])
        assert np.allclose(cdf.weights, [0.25, 0.75])
        assert cdf.cumulative[-1] == 1.0

    def test_sampling(self):
        cdf = StepCDF.from_atoms([1.0, 2.0], [0.5, 0.5])
        draws = cdf.sample(10_000, np.random.default_rng(0))
        assert set(np.unique(draws)) == {1.0, 2.0}
        assert abs((draws == 1.0).mean() - 0.5) < 0.02


class TestPipeline:
    def test_estimate_root_density_metadata(self, square):
        sample = sample_iur_sections(square, 5000, RngStream(21))
        est = estimate_root_density(sample, grid_points=128)
        assert est.transform == "root_scale"
        assert est.sample_size == 5000
        assert est.bandwidth_method == "sheather_jones"
        assert est.grid.size == 128
        assert est.grid[0] == 0.0
        assert est.integral() == pytest.approx(1.0, abs=0.01)

    def test_fixed_bandwidth_flag(self, square):
        sample = sample_iur_sections(square, 1000, RngStream(22))
        est = estimate_root_density(sample, bandwidth=0.05)
        assert est.bandwidth == 0.05
        assert est.bandwidth_method == "fixed"

    def test_default_grid_covers_boundary(self):
        grid = default_grid(np.array([1.0, 2.0]), h=0.1, grid_points=64)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.4)
        with pytest.raises(ValueError):
            default_grid(np.array([1.0]), 0.1, grid_points=8)

    def test_consistency_doubling_n(self):
        """Doubling the sample shrinks the integrated squared error."""
        square = builtin_body("square")
        grid = np.linspace(0.02, 1.40, 512)
        truth = square_chord_density(grid)
        improvements = 0
        for seed in range(10):
            ise = []
            for k, n in enumerate((20_000, 40_000)):
                sample = sample_iur_sections(square, n, RngStream(900 + seed, k))
                est = estimate_root_density(sample, grid=grid)
                ise.append(np.trapezoid((est.values - truth) ** 2, grid))
            improvements += ise[1] < ise[0]
        assert improvements >= 9

    def test_density_estimate_validation(self):
        with pytest.raises(ValueError):
            DensityEstimate(grid=np.array([0.0, 1.0]), values=np.array([1.0]),
                            bandwidth=0.1, transform="root_scale",
                            sample_size=1)
        with pytest.raises(ValueError):
            DensityEstimate(grid=np.array([1.0, 0.5]),
                            values=np.array([1.0, 1.0]), bandwidth=0.1,
                            transform="root_scale", sample_size=1)

    def test_nan_density_value_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DensityEstimate(grid=np.array([0.0, 1.0]),
                            values=np.array([np.nan, 1.0]), bandwidth=0.1,
                            transform="root_scale", sample_size=1)
