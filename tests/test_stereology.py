import math

import numpy as np
import pytest

from sectionlab.density import DensityEstimate, StepCDF, root_transform
from sectionlab.errors import AllZeroLikelihood, ZeroLocation
from sectionlab.rng import RngStream
from sectionlab.sampling import sample_iur_sections
from sectionlab.stereology import (
    Exponential,
    Gamma,
    PointMass,
    ReferenceDensity,
    _mixture_kernel,
    _passive_solution,
    length_biased,
    log_likelihood,
    nnls,
    npmle_em,
    sample_profile_sizes,
    unbias,
)
from sectionlab.validation import ks_two_sample


def triangular_reference():
    """g(z) = 2z on (0, 1]: linear, so interpolation is exact."""
    grid = np.linspace(0.0, 1.0, 513)
    est = DensityEstimate(grid=grid, values=2.0 * grid, bandwidth=0.01,
                          transform="root_scale", sample_size=1000)
    return ReferenceDensity(est)


def em_loglik(s_obs, reference, tol=1e-8, max_iter=20_000):
    """Mean log-likelihood reached by plain EM on the unique observations,
    stopped when its gain drops below ``tol``: the solver this package
    used before support reduction."""
    s_obs = np.sort(s_obs)
    kernel = _mixture_kernel(s_obs, np.unique(s_obs), reference)
    w = np.full(kernel.shape[1], 1.0 / kernel.shape[1])
    ll = -np.inf
    for _ in range(max_iter):
        mix = kernel @ w
        ll_new = float(np.mean(np.log(mix)))
        if ll_new - ll < tol:
            return ll_new
        ll = ll_new
        w *= kernel.T @ (1.0 / mix) / s_obs.size
        w /= w.sum()
    return float(np.mean(np.log(kernel @ w)))


def certificate(result, s_obs, reference):
    """max_j D_j - 1 over every candidate atom at the fitted weights."""
    s_obs = np.sort(s_obs)
    fitted = _mixture_kernel(s_obs, result.step_cdf.locations, reference)
    mix = fitted @ result.step_cdf.weights
    kernel = _mixture_kernel(s_obs, np.unique(s_obs), reference)
    return float((kernel.T @ (1.0 / mix)).max() / s_obs.size) - 1.0


@pytest.fixture(scope="module")
def ball_reference():
    from sectionlab.geometry import builtin_body

    ball = builtin_body("ball")
    return ReferenceDensity.from_body(ball, size=150_000, rng=RngStream(500))


class TestLengthBiasing:
    def test_exponential_becomes_gamma(self):
        biased = length_biased(Exponential(1.0))
        assert biased == Gamma(2.0, 1.0)

    def test_gamma_shape_increment(self):
        assert length_biased(Gamma(3.0, 2.0)) == Gamma(4.0, 2.0)

    def test_point_mass_fixed(self):
        pm = PointMass(1.0)
        assert length_biased(pm) is pm

    def test_step_reweighting(self):
        step = StepCDF.from_atoms([1.0, 2.0], [0.5, 0.5])
        biased = length_biased(step)
        assert np.allclose(biased.weights, [1.0 / 3.0, 2.0 / 3.0])

    def test_unbias_examples(self):
        assert unbias(PointMass(2.0)) == PointMass(2.0)
        hb = StepCDF.from_atoms([1.0, 2.0], [1.0 / 3.0, 2.0 / 3.0])
        assert np.allclose(unbias(hb).weights, [0.5, 0.5])

    def test_unbias_roundtrip_random_steps(self):
        gen = np.random.default_rng(3)
        for _ in range(25):
            k = gen.integers(2, 12)
            locations = np.sort(gen.uniform(0.1, 5.0, k))
            locations += np.arange(k) * 1e-6  # ensure strictly increasing
            weights = gen.dirichlet(np.ones(k))
            original = StepCDF.from_atoms(locations, weights)
            back = unbias(length_biased(original))
            assert np.allclose(back.cumulative, original.cumulative,
                               atol=1e-12)

    def test_unbias_rejects_zero_location(self):
        cdf = StepCDF(np.array([0.0, 1.0]), np.array([0.4, 1.0]))
        with pytest.raises(ZeroLocation):
            unbias(cdf)

    def test_biased_mean_is_second_moment_ratio(self):
        step = StepCDF.from_atoms([1.0, 3.0], [0.5, 0.5])
        biased = length_biased(step)
        # E[X^2]/E[X] = (0.5 + 4.5) / 2
        assert biased.mean() == pytest.approx(2.5)


class TestSizeDistributions:
    def test_gamma_cdf_matches_exponential(self):
        x = np.linspace(0.0, 5.0, 50)
        assert np.allclose(Gamma(1.0, 2.0).cdf(x), Exponential(2.0).cdf(x))

    def test_sampling_means(self):
        gen = np.random.default_rng(0)
        draws = Gamma(2.0, 1.0).sample(200_000, gen)
        assert draws.mean() == pytest.approx(2.0, abs=0.02)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            PointMass(-1.0)
        with pytest.raises(ZeroLocation):
            length_biased(StepCDF(np.array([0.0, 1.0]),
                                  np.array([0.5, 1.0])))


class TestProfileSampling:
    def test_point_mass_gives_reference_law(self, ball3, ball_reference):
        s = sample_profile_sizes(ball3, PointMass(1.0), 100_000, RngStream(7))
        reference = root_transform(
            sample_iur_sections(ball3, 400_000, RngStream(8))
        )
        assert ks_two_sample(s, reference) < 0.01

    def test_point_mass_two_scales(self, ball3):
        s1 = sample_profile_sizes(ball3, PointMass(1.0), 50_000, RngStream(9))
        s2 = sample_profile_sizes(ball3, PointMass(2.0), 50_000, RngStream(10))
        assert ks_two_sample(2.0 * s1, s2) < 0.012

    def test_deterministic(self, ball3):
        a = sample_profile_sizes(ball3, Exponential(1.0), 500, RngStream(11))
        b = sample_profile_sizes(ball3, Exponential(1.0), 500, RngStream(11))
        assert np.array_equal(a, b)

    def test_point_mass_scaling_across_seeds(self, ball3):
        # profile sizes under a point mass at lam are lam times a fresh
        # root section sample, in distribution
        lam = 1.7
        passes = 0
        for seed in range(20):
            s = sample_profile_sizes(ball3, PointMass(lam), 100_000,
                                     RngStream(40 + seed))
            roots = root_transform(
                sample_iur_sections(ball3, 100_000, RngStream(440 + seed))
            )
            passes += ks_two_sample(s, lam * roots) < 0.0122
        assert passes >= 18


class TestLogLikelihood:
    def test_mixture_kernel_bits(self, ball_reference):
        # g(0) > 0 on the ball reference, so an underflowing ratio must
        # still give 0, as for every ratio that is not positive
        grid = ball_reference.estimate.grid
        assert grid[0] == 0.0 and ball_reference.estimate.values[0] > 0.0
        s_obs = np.array([1e-300, 0.05, 0.4, 0.77, 1.3])
        atoms = np.array([1e300, 0.3, 0.9, 1.0, 2.5])
        kernel = _mixture_kernel(s_obs, atoms, ball_reference)
        ratios = s_obs[:, None] / atoms
        assert ratios[0, 0] == 0.0  # underflow
        expected = ball_reference.evaluate(ratios) / atoms
        assert np.array_equal(kernel, expected)
        assert kernel[0, 0] == 0.0
        # the same rule in np.where form
        rule = np.where(ratios > 0, ball_reference.estimate.evaluate(ratios),
                        0.0) / atoms
        assert np.array_equal(kernel, rule)
        assert ball_reference.evaluate(np.nan) == 0.0

    def test_mixture_kernel_memory(self, ball_reference):
        import tracemalloc

        s_obs = np.linspace(0.01, 1.5, 600)
        tracemalloc.start()
        try:
            kernel = _mixture_kernel(s_obs, s_obs, ball_reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the ratios and the kernel, plus boolean masks; a build that also
        # keeps np.where's result peaks at 3.1x
        assert peak <= 2.5 * kernel.nbytes

    def test_mixture_kernel_blocks_keep_the_bits(self, ball_reference,
                                                 monkeypatch):
        from sectionlab import stereology

        s_obs = np.linspace(0.01, 1.5, 37)
        atoms = np.geomspace(0.2, 3.0, 11)
        expected = ball_reference.evaluate(s_obs[:, None] / atoms) / atoms
        assert np.array_equal(_mixture_kernel(s_obs, atoms, ball_reference),
                              expected)
        for block in (1, 30, 33):  # one row; 2 and 3 rows, a short last
            monkeypatch.setattr(stereology, "_KERNEL_BLOCK", block)
            kernel = _mixture_kernel(s_obs, atoms, ball_reference)
            assert np.array_equal(kernel, expected)

    def test_mixture_kernel_holds_one_block_beside_the_kernel(
            self, ball_reference):
        import tracemalloc

        from sectionlab.stereology import _KERNEL_BLOCK

        s_obs = np.linspace(0.01, 1.5, 1200)  # 11.5 MB, 23 blocks
        tracemalloc.start()
        try:
            kernel = _mixture_kernel(s_obs, s_obs, ball_reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's values (8 bytes an entry) and two boolean masks; a
        # build of the whole ratio array before the kernel peaks at 2.1x
        assert peak <= kernel.nbytes + 12 * _KERNEL_BLOCK
        assert peak <= 1.1 * kernel.nbytes

    def test_single_atom_reduces_to_plain_density(self):
        ref = triangular_reference()
        s_obs = np.array([0.3, 0.5, 0.9])
        hb = StepCDF.from_atoms([1.0], [1.0])
        expected = np.mean(np.log(2.0 * s_obs))
        assert log_likelihood(hb, s_obs, ref) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_two_atom_enumeration(self):
        # hand-computed double sum for gS(z) = 2z on (0, 1]
        ref = triangular_reference()
        s_obs = np.array([0.5, 1.0])
        hb = StepCDF.from_atoms([1.0, 2.0], [0.5, 0.5])
        # s=0.5: 0.5*g(0.5)/1 + 0.5*g(0.25)/2 = 0.5 + 0.125 = 0.625
        # s=1.0: 0.5*g(1.0)/1 + 0.5*g(0.5)/2  = 1.0 + 0.25  = 1.25
        expected = 0.5 * (math.log(0.625) + math.log(1.25))
        assert log_likelihood(hb, s_obs, ref) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_common_rescaling_shifts_by_log_c(self):
        ref = triangular_reference()
        s_obs = np.array([0.2, 0.4, 0.7])
        atoms = np.array([0.8, 1.0])
        weights = np.array([0.3, 0.7])
        c = 1.7
        base = log_likelihood(StepCDF.from_atoms(atoms, weights), s_obs, ref)
        moved = log_likelihood(StepCDF.from_atoms(c * atoms, weights),
                               c * s_obs, ref)
        assert moved - base == pytest.approx(-math.log(c), rel=1e-12)

    def test_support_mismatch_raises(self):
        ref = triangular_reference()
        hb = StepCDF.from_atoms([1.0], [1.0])
        with pytest.raises(AllZeroLikelihood):
            log_likelihood(hb, np.array([0.5, 5.0]), ref)


class TestNpmleEm:
    def test_certificate_over_all_candidates(self, ball3, ball_reference):
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 400,
                                     RngStream(12))
        result = npmle_em(s_obs, ball_reference, tol=1e-8)
        assert result.converged
        assert result.gap <= result.tol
        assert certificate(result, s_obs, ball_reference) <= 1e-8
        assert result.support == result.step_cdf.locations.size
        assert (result.support + result.pruned_atoms
                == np.unique(s_obs).size)

    def test_large_sample_converges_with_certificate(self, ball3,
                                                     ball_reference):
        # plain EM stopped at max_iter here without converging
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 4000,
                                     RngStream(17))
        result = npmle_em(s_obs, ball_reference)
        assert result.converged
        assert result.gap <= 1e-8
        assert result.iterations <= 100
        assert np.diff(result.loglik_trace).min() > -1e-12

    def test_loglik_at_least_em(self, ball3, ball_reference):
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 400,
                                     RngStream(12))
        result = npmle_em(s_obs, ball_reference)
        assert result.final_loglik >= em_loglik(s_obs, ball_reference) - 1e-12

    def test_max_iter_reports_gap(self, ball3, ball_reference):
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 300,
                                     RngStream(15))
        result = npmle_em(s_obs, ball_reference, max_iter=2)
        assert not result.converged
        assert result.gap > result.tol
        assert result.gap == pytest.approx(
            certificate(result, s_obs, ball_reference), abs=1e-9)

    def test_all_equal_observations_collapse(self):
        ref = triangular_reference()
        result = npmle_em(np.full(50, 0.7), ref)
        assert result.converged
        assert np.array_equal(result.step_cdf.locations, [0.7])
        assert result.step_cdf.cumulative[-1] == 1.0

    @pytest.mark.filterwarnings("error")
    def test_nan_observation_raises(self):
        with pytest.raises(ZeroLocation):
            npmle_em(np.array([1.0, np.nan, 0.7]), triangular_reference())

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic
    def test_infinite_observation_raises(self):
        with pytest.raises(ZeroLocation):
            npmle_em(np.array([1.0, np.inf, 0.7]), triangular_reference())

    def test_loglik_monotone_and_weights_normalized(self, ball3,
                                                    ball_reference):
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 400,
                                     RngStream(12))
        result = npmle_em(s_obs, ball_reference, max_iter=800)
        gains = np.diff(result.loglik_trace)
        assert gains.min() > -1e-12
        w = result.step_cdf.weights
        assert (w >= 0).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dominates_random_weightings(self, ball3, ball_reference):
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 300,
                                     RngStream(13))
        result = npmle_em(s_obs, ball_reference)
        fitted = result.final_loglik
        atoms = np.unique(np.sort(s_obs))
        gen = np.random.default_rng(14)
        for _ in range(10):
            w = gen.dirichlet(np.ones(atoms.size))
            candidate = log_likelihood(StepCDF.from_atoms(atoms, w),
                                       np.sort(s_obs), ball_reference)
            assert fitted >= candidate - 1e-7

    def test_first_order_optimality(self, ball3, ball_reference):
        """KKT conditions of the simplex-constrained MLE at the fit:
        no atom offers an ascent direction, and heavy atoms are stationary.
        """
        from sectionlab.stereology import _mixture_kernel

        s_obs = np.sort(sample_profile_sizes(ball3, Exponential(1.0), 400,
                                             RngStream(12)))
        result = npmle_em(s_obs, ball_reference, tol=1e-8, max_iter=20_000)
        atoms = result.step_cdf.locations
        weights = result.step_cdf.weights
        kernel = _mixture_kernel(s_obs, atoms, ball_reference)
        grad = (kernel.T @ (1.0 / (kernel @ weights))) / s_obs.size
        assert grad.max() <= 1.0 + 1e-3
        heavy = weights > 1e-3
        assert np.abs(grad[heavy] - 1.0).max() <= 1e-2

    def test_recovers_point_mass(self, ball3, ball_reference):
        for seed in (21, 22):
            s_obs = sample_profile_sizes(ball3, PointMass(1.0), 1500,
                                         RngStream(seed))
            result = npmle_em(s_obs, ball_reference)
            cdf = result.step_cdf
            mass = cdf.weights[(cdf.locations >= 0.9)
                               & (cdf.locations <= 1.1)].sum()
            assert mass >= 0.9

    def test_not_converged_flag(self, ball3, ball_reference):
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 300,
                                     RngStream(15))
        result = npmle_em(s_obs, ball_reference, tol=0.0, max_iter=5)
        assert not result.converged
        assert result.iterations == 5

    @pytest.mark.parametrize("options", [{"max_iter": -1}, {"tol": -1.0},
                                         {"tol": float("nan")}])
    def test_rejects_unreachable_stopping_rules(self, ball3, ball_reference,
                                                options):
        # the loop stops only on iterations == max_iter, and a gap below 0
        # is never reached: the weighted mean of D over the support is 1
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 50,
                                     RngStream(15))
        with pytest.raises(ValueError, match="max_iter|tol"):
            npmle_em(s_obs, ball_reference, **options)

    def test_rejects_nonpositive_observations(self, ball_reference):
        with pytest.raises(ZeroLocation):
            npmle_em(np.array([0.0, 1.0]), ball_reference)

    def test_report_fields(self, ball3, ball_reference):
        s_obs = sample_profile_sizes(ball3, PointMass(1.0), 200, RngStream(16))
        result = npmle_em(s_obs, ball_reference, max_iter=400)
        report = result.report()
        assert set(report) == {"iterations", "final_loglik", "converged",
                               "tol", "pruned_atoms", "gap", "support"}


def assert_nnls_optimal(a, b, x):
    """KKT conditions of min |a x - b| over x >= 0, and the objective of
    scipy's Lawson-Hanson solver to 1e-10 relative."""
    from scipy.optimize import nnls as scipy_nnls

    dual = a.T @ (b - a @ x)  # minus the gradient of |a x - b|^2 / 2
    tol = 1e-9 * np.linalg.norm(a, 2) * np.linalg.norm(b)
    assert (x >= 0).all()
    assert (dual[x == 0] <= tol).all()
    assert (np.abs(dual[x > 0]) <= tol).all()
    ours = np.linalg.norm(a @ x - b) ** 2
    theirs = np.linalg.norm(a @ scipy_nnls(a, b)[0] - b) ** 2
    assert abs(ours - theirs) <= 1e-10 * theirs


class TestNnls:
    @pytest.mark.parametrize("seed", range(6))
    def test_ill_conditioned_random_problems(self, seed):
        gen = np.random.default_rng(seed)
        m, k = 60, 30
        u, _ = np.linalg.qr(gen.standard_normal((m, k)))
        v, _ = np.linalg.qr(gen.standard_normal((k, k)))
        a = (u * np.logspace(0, -6, k)) @ v.T  # condition number 1e6
        b = gen.standard_normal(m)
        x = nnls(a, b)
        assert 0 < np.count_nonzero(x) < k  # some bounds are active
        assert_nnls_optimal(a, b, x)
        # a warm start on any set reaches the same optimum
        assert_nnls_optimal(a, b, nnls(a, b, start=gen.random(k) < 0.5))
        # so does the start on every column, which npmle_em uses; the Gram
        # matrix of [a | b] has condition number about 1e12 here
        assert_nnls_optimal(a, b, nnls(a, b, start=np.ones(k, dtype=bool)))

    def test_model_matrices_of_a_fit(self, ball3, ball_reference,
                                     monkeypatch):
        from sectionlab import stereology

        problems = []

        def recording(a, b, start=None):
            problems.append((a.copy(), b.copy(), start.copy()))
            return nnls(a, b, start=start)

        monkeypatch.setattr(stereology, "nnls", recording)
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 1000,
                                     RngStream(13))
        assert npmle_em(s_obs, ball_reference).converged
        assert len(problems) >= 3
        for a, b, start in problems:
            assert_nnls_optimal(a, b, nnls(a, b, start=start))

    def test_singular_warm_start_falls_back_to_cold(self):
        gen = np.random.default_rng(7)
        a = gen.standard_normal((20, 6))
        a[:, 3] = a[:, 1]  # two equal columns
        b = gen.standard_normal(20)
        start = np.zeros(6, dtype=bool)
        start[[1, 3]] = True
        ab = np.column_stack([a, b])
        # the Gram matrix is singular, so nnls factors by its QR fallback
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(ab.T @ ab)
        factor = np.linalg.qr(ab, mode="r")
        assert _passive_solution(factor[:, :6], factor[:, 6], start) is None
        x = nnls(a, b, start=start)
        assert_nnls_optimal(a, b, x)
        assert np.array_equal(x, nnls(a, b))

    def test_qr_fallback_gives_the_same_fit(self, ball3, ball_reference,
                                            monkeypatch):
        """The QR factor that nnls falls back to when the Gram matrix is
        not numerically positive definite yields the same fit."""
        s_obs = sample_profile_sizes(ball3, Exponential(1.0), 1000,
                                     RngStream(13))
        default = npmle_em(s_obs, ball_reference)

        def no_cholesky(gram):
            raise np.linalg.LinAlgError("forced QR fallback")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        fallback = npmle_em(s_obs, ball_reference)
        assert default.converged and fallback.converged
        assert fallback.support == default.support
        assert fallback.iterations == default.iterations
        assert abs(fallback.final_loglik - default.final_loglik) <= 1e-12


class TestReferenceDensity:
    def test_rejects_unnormalized(self):
        grid = np.linspace(0.0, 1.0, 64)
        bogus = DensityEstimate(grid=grid, values=np.full(64, 3.0),
                                bandwidth=0.1, transform="root_scale",
                                sample_size=10)
        with pytest.raises(ValueError):
            ReferenceDensity(bogus)

    def test_support_truncation(self):
        ref = triangular_reference()
        assert ref.evaluate(np.array([-0.1, 0.0, 1.5])).tolist() == [0, 0, 0]
        assert ref.evaluate(np.array([0.5]))[0] == pytest.approx(1.0)
