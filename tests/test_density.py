import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.optimize

from sectionlab import density
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


def mirrored_pair_distance_counts(y, nbins):
    """Pair counts binned on the built mirror ``y``: the plug-in's
    original, reference implementation."""
    lo, hi = y.min(), y.max()
    delta = (hi - lo) / nbins
    idx = np.minimum(((y - lo) / delta).astype(np.intp), nbins - 1)
    w = np.bincount(idx, minlength=nbins).astype(float)
    ac = np.correlate(w, w, mode="full")[nbins - 1:]
    cnt = ac.copy()
    cnt[0] = (ac[0] - y.size) / 2.0
    return cnt, delta


def mirrored_sj_reference(x, nbins=1000):
    """The binned plug-in run on the built mirror {x_i} U {-x_i}, with the
    mirror's own std, percentiles and pair counts: what
    ``sheather_jones_bandwidth`` computes from x alone."""
    y = np.concatenate([x, -x])
    n = y.size
    sd = y.std()
    q75, q25 = np.percentile(y, [75, 25])
    iqr = q75 - q25
    scale = min(sd, iqr / 1.349)
    h_silver = 0.9 * min(sd, iqr / 1.34) * n ** (-0.2)
    cnt, delta = mirrored_pair_distance_counts(y, nbins)
    functional = density._binned_functional  # looked up at call time
    a = 0.920 * scale * n ** (-1.0 / 7.0)
    b = 0.912 * scale * n ** (-1.0 / 9.0)
    sda = functional(cnt, delta, n, a, density._hermite4, 5)
    tdb = -functional(cnt, delta, n, b, density._hermite6, 7)
    if not (sda > 0 and tdb > 0):
        return h_silver, "silverman_fallback"
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)
    alpha_const = 1.357 * (sda / tdb) ** (1.0 / 7.0)

    def fixed_point_gap(h):
        s = functional(cnt, delta, n, alpha_const * h ** (5.0 / 7.0),
                       density._hermite4, 5)
        return np.nan if s <= 0 else (c1 / s) ** 0.2 - h

    lo, hi = h_silver / 100.0, h_silver * 100.0
    flo, fhi = fixed_point_gap(lo), fixed_point_gap(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)) or flo * fhi > 0:
        return h_silver, "silverman_fallback"
    while (hi - lo) > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        fmid = fixed_point_gap(mid)
        if not np.isfinite(fmid):
            return h_silver, "silverman_fallback"
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi), "sheather_jones"


def sj_samples(size):
    """The samples the mirror-free plug-in is checked on, by name."""
    gen = np.random.default_rng(size)
    square = sample_iur_sections(builtin_body("square"), size, RngStream(50))
    return {
        "uniform": gen.uniform(0.0, 1.0, size),
        "gamma": gen.gamma(2.0, 1.0, size),
        "square_root": root_transform(square),
        "tied_integers": gen.integers(0, 6, size).astype(float),
    }


class TestRootTransform:
    def test_identity_in_2d(self):
        x = root_transform(make_sample([0.5, 1.2], dim=2))
        assert np.array_equal(x, [0.5, 1.2])

    def test_sqrt_in_3d(self):
        x = root_transform(make_sample([0.25, 1.0], dim=3))
        assert np.array_equal(x, [0.5, 1.0])

    def test_zero(self):
        assert np.array_equal(root_transform(make_sample([0.0], dim=3)), [0.0])


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


def exact_reflection_kde(x, h, grid):
    """Reflection KDE summed over every sample point, never binned."""
    xs = np.sort(x)
    ones = np.ones(xs.size)
    sums = (density._window_sums(xs, ones, grid, h)
            + density._window_sums(xs, ones, -grid, h))
    return sums / (x.size * h * SQRT2PI)


class TestBinnedKde:
    @pytest.mark.parametrize("source", ["square", "gamma", "atom"])
    def test_error_against_exact_sum_is_bounded(self, source):
        if source == "atom":
            # one point repeated, 0.3 of a lattice step past a node: the
            # worst case of the per-point bound, which smooth samples
            # average away
            h = 0.05
            x = np.full(1000, 200.3 * h / density._BINS_PER_H)
            grid = np.linspace(0.0, 0.5, 501)
        else:
            if source == "square":
                x = root_transform(sample_iur_sections(
                    builtin_body("square"), 1_000_000, RngStream(40)))
            else:
                x = np.random.default_rng(41).gamma(3.0, 1.0, 200_000)
            h, _ = sheather_jones_bandwidth(x)
            grid = default_grid(x, h, grid_points=512)
        exact = exact_reflection_kde(x, h, grid)
        diff = np.abs(reflection_kde(x, h, grid).values - exact).max()
        delta = h / density._BINS_PER_H
        # the sample is binned, not summed point by point
        assert 2 * math.floor(x.max() / delta) + 3 < 2 * x.size
        assert diff <= (delta / h) ** 2 * exact.max()
        # a priori: phi(0) / (8 * 32^2 * h) per kernel, two kernels a point
        assert diff <= 2.0 / (SQRT2PI * 8 * density._BINS_PER_H ** 2 * h)

    def test_identity_when_only_the_mirror_outgrows_the_lattice(self):
        gen = np.random.default_rng(42)
        x = gen.uniform(0.0, 1.0, 1500)
        x[0] = 1.0
        h = 0.032
        lattice = 2 * (int(1.0 / (h / density._BINS_PER_H)) + 1) + 1
        # the sample alone would be summed exactly, its mirror is binned
        assert x.size < lattice <= 2 * x.size
        grid = np.linspace(0.0, 1.2, 301)
        est = reflection_kde(x, h, grid)
        doubled = 2.0 * classical_kde(np.concatenate([x, -x]), h, grid)
        assert np.abs(est.values - doubled).max() < 1e-12

    def test_nodes_of_the_mirror_are_the_mirrored_nodes(self):
        x = np.random.default_rng(43).gamma(2.0, 1.0, 100_000)
        delta = 0.05 / density._BINS_PER_H
        top = int(x.max() / delta) + 1
        weights = density._lattice_weights(x, delta, top, mirror=False)
        assert np.count_nonzero(weights) < x.size
        assert weights.sum() == pytest.approx(x.size, rel=1e-12)
        mirror = density._lattice_weights(-x, delta, top, mirror=False)
        assert np.array_equal(mirror, weights[::-1])
        # folded weights are those of the mirrored sample, node 0 twice
        folded = density._lattice_weights(x, delta, top, mirror=True)
        assert np.array_equal(folded, weights + mirror)
        both = density._lattice_weights(np.concatenate([x, -x]), delta, top,
                                         mirror=False)
        assert np.array_equal(folded, both)

    def test_rejects_non_finite_data(self):
        with pytest.raises(ValueError):
            reflection_kde(np.array([1.0, np.inf]), 0.1, np.array([0.0]))
        with pytest.raises(ValueError):
            classical_kde(np.array([1.0, np.nan]), 0.1, np.array([0.0]))


def _lattice(x, h, grid):
    """The lattice spacing and stride the KDEs use on ``grid``, after
    checking that they take the lattice path and bin the sample."""
    step = density._lattice_step(grid, h)
    assert step == grid[1]
    stride = math.ceil(density._BINS_PER_H * step / h)
    delta = step / stride
    assert delta <= h / density._BINS_PER_H
    assert 2 * (int(x.max() / delta) + 1) + 1 < 2 * x.size
    return delta, stride


class TestLatticeKde:
    H = 2.0 ** -4  # so that a spacing of h / 32 is exact

    @pytest.mark.parametrize("spacing,stride", [
        (H / 32, 1),  # every lattice node is a grid point
        (0.9 * H, 29),
        (40 * H, 1280),  # no node is within reach of two grid points
        (50 * H, 1600),
    ])
    def test_within_the_bound_of_the_exact_sum(self, spacing, stride):
        x = np.random.default_rng(44).gamma(3.0, 1.0, 20_000)
        h = self.H
        count = min(2000, int((x.max() + 4 * h) / spacing) + 2)
        grid = spacing * np.arange(count)
        assert _lattice(x, h, grid)[1] == stride
        values = reflection_kde(x, h, grid).values
        exact = exact_reflection_kde(x, h, grid)
        # phi(0) / (8 * 32^2 * h) per kernel, two kernels a point
        bound = 2.0 / (SQRT2PI * 8 * density._BINS_PER_H ** 2 * h)
        assert np.abs(values - exact).max() <= bound
        assert exact.max() > 100 * bound

    @pytest.mark.parametrize("spacing,point,offset", [
        (H / 32, 3, 0.5), (0.9 * H, 3, 0.5), (40 * H, 3, 0.5),
        (50 * H, 4, -2.5),  # just below the last grid point in reach
    ])
    def test_an_atom_between_nodes_comes_near_the_bound(self, spacing, point,
                                                         offset):
        # one value repeated, half a node from a node and near a grid
        # point: the worst case of the per-kernel bound, which smooth
        # samples average away
        h = self.H
        stride = math.ceil(density._BINS_PER_H * spacing / h)
        delta = spacing / stride
        x = np.full(10_000, (point * stride + offset) * delta)
        grid = spacing * np.arange(8)
        assert _lattice(x, h, grid) == (delta, stride)
        diff = np.abs(reflection_kde(x, h, grid).values
                      - exact_reflection_kde(x, h, grid)).max()
        per_kernel = 1.0 / (SQRT2PI * 8 * density._BINS_PER_H ** 2 * h)
        assert 0.9 * per_kernel <= diff <= 2.0 * per_kernel

    def test_zero_beyond_every_node_and_never_negative(self):
        gen = np.random.default_rng(45)
        # two clusters, 0.6 apart, with h = 0.005 (40 h = 0.2)
        x = np.concatenate([gen.uniform(0.0, 0.2, 30_000),
                            gen.uniform(0.8, 1.0, 30_000)])
        h = 0.005
        grid = np.linspace(0.0, 1.5, 301)
        delta, _ = _lattice(x, h, grid)
        values = reflection_kde(x, h, grid).values
        lone = np.abs(grid[:, None] - x).min(axis=1) > 40 * h + delta
        assert lone.sum() > 50 and (grid[lone] < 0.8).any()
        assert (values[lone] == 0.0).all()
        assert (values[~lone] >= 0.0).all()
        assert (exact_reflection_kde(x, h, grid)[lone] == 0.0).all()
        # positive wherever a node is within 37 h, short of the 38.6 h
        # where a kernel term underflows
        assert (values[np.abs(grid[:, None] - x).min(axis=1) <= 37 * h]
                > 0.0).all()
        classical = classical_kde(np.concatenate([x, -x]), h, grid)
        assert (classical[lone] == 0.0).all() and (classical >= 0.0).all()

    @pytest.mark.parametrize("spacing", [H / 32, 0.3 * H, 3.0 * H])
    def test_twice_the_classical_kde_of_the_mirror(self, spacing):
        x = np.abs(np.random.default_rng(46).standard_normal(40_000))
        h = self.H
        grid = spacing * np.arange(int(5.0 / spacing))
        _lattice(x, h, grid)
        est = reflection_kde(x, h, grid)
        doubled = 2.0 * classical_kde(np.concatenate([x, -x]), h, grid)
        assert np.abs(est.values - doubled).max() < 1e-12

    def test_other_grids_keep_the_h_over_32_lattice(self):
        x = np.random.default_rng(47).gamma(3.0, 1.0, 20_000)
        h = self.H
        for grid in (np.linspace(0.05, 10.0, 300),  # not from 0
                     np.linspace(0.0, 10.0, 2000) ** 1.5,  # not equispaced
                     (h / 40) * np.arange(400)):  # finer than h / 32
            assert density._lattice_step(grid, h) is None
            exact = exact_reflection_kde(x, h, grid)
            diff = np.abs(reflection_kde(x, h, grid).values - exact).max()
            assert diff <= 2.0 / (SQRT2PI * 8 * density._BINS_PER_H ** 2 * h)


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
        assert (h, method) == mirrored_sj_reference(x)

    def test_sj_method_flag(self):
        gen = np.random.default_rng(10)
        x = np.abs(gen.standard_normal(1000))
        _, method = sheather_jones_bandwidth(x)
        assert method == "sheather_jones"

    def test_quartiles_of_the_mirror_from_the_sample(self):
        for size in [*range(16, 401), 100_003]:
            gen = np.random.default_rng(size)
            for x in (gen.gamma(2.0, 1.0, size),
                      gen.integers(0, 4, size).astype(float)):
                mirror = np.concatenate([x, -x])
                expected = tuple(np.percentile(mirror, [75, 25]))
                got = density._mirror_quartiles(x, np.empty_like(x))
                assert got == expected, size

    @pytest.mark.parametrize("size", [17, 72, 1001, (1 << 16) + 8])
    def test_pair_counts_of_the_mirror_from_the_sample(self, size):
        # chunked binning of x and -x counts what binning the mirror
        # counts, chunk boundary included, for every size
        for x in sj_samples(size).values():
            cnt, delta = density._pair_distance_counts(x, 1000)
            ref_cnt, ref_delta = mirrored_pair_distance_counts(
                np.concatenate([x, -x]), 1000)
            assert delta == ref_delta
            assert np.array_equal(cnt, ref_cnt)

    @pytest.mark.parametrize("size", [72, 1000, 4096, (1 << 16) + 8])
    def test_bit_identical_to_the_mirror_when_size_is_a_multiple_of_8(
            self, size):
        # numpy's pairwise sum splits the 2N mirror at N when N % 8 == 0
        # and 2N > 128, so its mean is exactly 0 and its std that of x
        for name, x in sj_samples(size).items():
            assert sheather_jones_bandwidth(x) == mirrored_sj_reference(x), \
                name

    @pytest.mark.parametrize("size", [16, 41, 999, 4099, 100_003])
    def test_within_the_bisection_tolerance_of_the_mirror(self, size):
        # elsewhere the mirror's std may differ from sqrt(mean(x^2)) in
        # its last bit
        for name, x in sj_samples(size).items():
            h, method = sheather_jones_bandwidth(x)
            ref_h, ref_method = mirrored_sj_reference(x)
            assert method == ref_method, name
            assert abs(h - ref_h) <= 1e-8 * ref_h, name

    def test_memory_is_one_scratch_copy_of_the_sample(self):
        x = np.random.default_rng(12).gamma(2.0, 1.0, 1_000_000)
        sheather_jones_bandwidth(x[:1000])  # first-call allocations
        tracemalloc.start()
        try:
            sheather_jones_bandwidth(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * x.nbytes


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
        out = untransform_density(est, dim=3)
        assert out.grid[1] == 1.0
        assert out.values[1] == pytest.approx(0.4)  # 0.8 / (2 sqrt(1))

    def test_dim3_quarter(self):
        c = 0.77
        est = self._root_estimate([0.25, 0.5, 0.75], [0.1, c, 0.9])
        out = untransform_density(est, dim=3)
        assert out.grid[1] == 0.25
        # g(0.25) = g_root(0.5) / (2 * 0.5) = c
        assert out.values[1] == pytest.approx(c)

    def test_dim3_rejects_zero(self):
        # g is singular at z = 0, so that point is left out of the grid
        est = self._root_estimate([0.0, 1.0], [0.5, 0.5])
        out = untransform_density(est, dim=3)
        assert np.array_equal(out.grid, [1.0])
        assert np.array_equal(out.values, [0.25])

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

    def test_2d_sample_is_read_in_place(self, square, monkeypatch):
        sample = sample_iur_sections(square, 2000, RngStream(24))
        sample.values.flags.writeable = False
        seen = []
        real_sj = density.sheather_jones_bandwidth

        def spy(x, nbins=1000):
            seen.append(x)
            return real_sj(x, nbins)

        monkeypatch.setattr(density, "sheather_jones_bandwidth", spy)
        estimate_root_density(sample)
        assert seen[0] is sample.values  # no copy of the sample

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "CPython 3.10 keeps call arguments on the caller's stack until the "
        "call returns, so the caller's temporary outlives the roots"))
    @pytest.mark.parametrize("caller", ["estimate", "reference", "cli"])
    def test_3d_volumes_freed_once_roots_exist(self, cube, monkeypatch,
                                               tmp_path, caller):
        from sectionlab import cli, stereology

        volumes, alive = [], []

        def recording_sample(*args, **kwargs):
            sample = sample_iur_sections(*args, **kwargs)
            volumes.append(weakref.ref(sample.values))
            return sample

        real_sj = density.sheather_jones_bandwidth

        def spy(x, nbins=1000):
            alive.append(volumes[0]() is not None)
            return real_sj(x, nbins)

        monkeypatch.setattr(density, "sheather_jones_bandwidth", spy)
        monkeypatch.setattr(stereology, "sample_iur_sections",
                            recording_sample)
        monkeypatch.setattr(cli, "sample_iur_sections", recording_sample)
        if caller == "estimate":
            estimate_root_density(recording_sample(cube, 2000, RngStream(25)))
        elif caller == "reference":
            stereology.ReferenceDensity.from_body(cube, size=2000,
                                                  rng=RngStream(25))
        else:
            cli.main.main(["density", "--shape", "cube", "--n", "2000", "-o",
                           str(tmp_path / "cube.csv")], standalone_mode=False)
        assert alive == [False]

    def test_default_grid_covers_boundary(self):
        grid = default_grid(np.array([1.0, 2.0]), h=0.1, grid_points=64)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.4)
        with pytest.raises(ValueError):
            default_grid(np.array([1.0]), 0.1, grid_points=8)

    def test_default_grid_spacing_follows_the_bandwidth(self):
        h = 0.0123
        grid = default_grid(np.array([1.0, 2.0]), h=h)
        assert grid[-1] == pytest.approx(2.0 + 4 * h)
        assert grid.size == math.ceil((2.0 + 4 * h) / (h / 2)) + 1 == 335
        assert np.diff(grid).max() <= h / 2
        assert default_grid(np.array([0.0]), h=1.0).size == 16
        assert default_grid(np.array([1.0]), h=1e-9).size == 1 << 16

    def test_default_grid_integrates_square_density_to_one(self, square):
        sample = sample_iur_sections(square, 1_000_000, RngStream(23))
        assert estimate_root_density(sample).integral() == pytest.approx(
            1.0, abs=1e-6)

    def test_square_root_density_away_from_the_singularity(self, square):
        # the true density diverges as z decreases to 1, where no
        # fixed-bandwidth estimate can follow it pointwise
        sample = sample_iur_sections(square, 1_000_000, RngStream(1))
        z = np.linspace(0.05, 1.35, 512)
        z = z[np.abs(z - 1.0) > 0.15]
        err = estimate_root_density(sample).evaluate(z) - square_chord_density(z)
        assert np.abs(err).max() <= 0.08

    def test_consistency_doubling_n(self):
        """Doubling the sample shrinks the integrated squared error."""
        square = builtin_body("square")
        grid = np.linspace(0.02, 1.40, 512)
        truth = square_chord_density(grid)
        improvements = 0
        for seed in range(10):
            ise = []
            for k, n in enumerate((20_000, 40_000)):
                x = sample_iur_sections(square, n, RngStream(900 + seed, k)).values
                est = reflection_kde(x, sheather_jones_bandwidth(x)[0], grid)
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
