"""End-to-end acceptance criteria at full sample sizes.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live) and asserts the criterion at its stated tolerance.  Criteria 1 and
5 are known structural failures of the stated tolerances, kept faithful
instead of loosened; see the assertion messages for the measured values
and README for the analysis.
"""

import math
import time

import numpy as np
import pytest

from sectionlab.density import (classical_kde, estimate_root_density,
                                reflection_kde, root_transform)
from sectionlab.geometry import builtin_body, build_polytope, mean_width
from sectionlab.oracles import (ball_section_cdf, square_chord_cdf,
                                square_chord_density)
from sectionlab.rng import RngStream
from sectionlab.sampling import (
    acceptance_estimate,
    enclosing_radius,
    sample_iur_sections,
)
from sectionlab.density import StepCDF
from sectionlab.stereology import (
    Exponential,
    Gamma,
    log_likelihood,
    npmle_em,
    ReferenceDensity,
    sample_profile_sizes,
)
from sectionlab.validation import (
    check_inclusion_bound,
    check_invariances,
    check_section_oracle,
    ks_vs_cdf,
)

pytestmark = pytest.mark.acceptance


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} {status} - {name}: {detail}"
    print(f"\n{line}", flush=True)
    return line


def test_criterion_1_square_chord_density():
    """sup over [0.05, 1.35] of |estimated - true| <= 0.02 at N = 1e6.

    The true chord density diverges like 1/sqrt(2(z-1)) as z decreases to
    1, so a bounded kernel estimate cannot match it pointwise near 1 and
    this tolerance cannot be met on any grid containing that region; the
    criterion is asserted as stated and fails honestly.
    """
    started = time.perf_counter()
    square = builtin_body("square")
    sample = sample_iur_sections(square, 1_000_000, RngStream(1))
    estimate = estimate_root_density(sample)
    grid = np.linspace(0.05, 1.35, 512)
    errors = np.abs(estimate.evaluate(grid) - square_chord_density(grid))
    sup = float(errors.max())
    at = float(grid[errors.argmax()])
    away = np.abs(grid - 1.0) > 0.15
    sup_away = float(errors[away].max())
    elapsed = time.perf_counter() - started
    detail = (f"sup={sup:.4f} at z={at:.4f} (tolerance 0.02, "
              f"sup away from the z=1 singularity {sup_away:.4f}, "
              f"bandwidth {estimate.bandwidth:.2e}, {elapsed:.0f}s)")
    line = report(1, "unit square chord density", sup <= 0.02, detail)
    assert sup <= 0.02, line


def test_criterion_2_ball_section_law():
    """KS distance of 1e6 ball section areas to the analytic CDF <= 0.005."""
    started = time.perf_counter()
    ball = builtin_body("ball")
    sample = sample_iur_sections(ball, 1_000_000, RngStream(2))
    stat = ks_vs_cdf(sample.values, ball_section_cdf)
    elapsed = time.perf_counter() - started
    line = report(2, "ball section law", stat <= 0.005,
                  f"KS={stat:.5f} (tolerance 0.005, {elapsed:.0f}s)")
    assert stat <= 0.005, line


def test_criterion_3_cube_acceptance_rate():
    """Cube in its sqrt(3)/2 circumscribed ball accepts at 0.8660 +- 0.002."""
    started = time.perf_counter()
    cube = builtin_body("cube")
    radius = enclosing_radius(cube)
    assert radius == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    sample = sample_iur_sections(cube, 1_000_000, RngStream(3))
    rate = acceptance_estimate(sample)
    expected = mean_width(cube) / (2.0 * radius)
    assert expected == pytest.approx(1.5 / math.sqrt(3.0), rel=1e-3)
    gap = abs(rate - expected)
    elapsed = time.perf_counter() - started
    line = report(3, "cube acceptance rate", gap <= 0.002,
                  f"rate={rate:.5f} expected={expected:.5f} "
                  f"gap={gap:.5f} (tolerance 0.002, {elapsed:.0f}s)")
    assert gap <= 0.002, line


def test_criterion_4_invariance_suite():
    """Translation/rotation/scaling KS suites and the inclusion bound."""
    started = time.perf_counter()
    cube = builtin_body("cube")
    results = [
        *check_invariances(cube, n=100_000, trials=20, seed=0),
        check_inclusion_bound(n=1_000_000, seed=0, slack=0.01),
    ]
    elapsed = time.perf_counter() - started
    detail = "; ".join(r.line() for r in results) + f" ({elapsed:.0f}s)"
    passed = all(r.passed for r in results)
    line = report(4, "section law invariances", passed, detail)
    assert passed, line


def test_criterion_5_cube_monotonicity():
    """Root-scale cube density at N = 1e7 nondecreasing on (0.05, 0.95).

    The cube's root-area density jumps at z = 1 (the sharp peak of its
    section-area law), the plug-in bandwidth adapts to that jump with
    h ~ 1e-3, and the resulting Monte Carlo wiggle on the plateau exceeds
    the stated 0.005 tolerance at every feasible sample size; asserted as
    stated, fails honestly.
    """
    started = time.perf_counter()
    cube = builtin_body("cube")
    sample = sample_iur_sections(cube, 10_000_000, RngStream(1))
    estimate = estimate_root_density(sample)
    zone = (estimate.grid > 0.05) & (estimate.grid < 0.95)
    values = estimate.values[zone]
    violation = float((np.maximum.accumulate(values) - values).max())
    elapsed = time.perf_counter() - started
    detail = (f"max decrease={violation:.4f} (tolerance 0.005, "
              f"bandwidth {estimate.bandwidth:.2e}, {elapsed:.0f}s)")
    line = report(5, "cube root-density monotonicity", violation <= 0.005,
                  detail)
    assert elapsed < 600.0
    assert violation <= 0.005, line


def test_criterion_6_geometric_oracle_equivalence():
    """Sectioning matches half-space clipping on 1e4 planes per shape."""
    started = time.perf_counter()
    gen = RngStream(2718, 9).generator()
    points = gen.standard_normal((20, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    shapes = [
        builtin_body("square"),
        builtin_body("cube"),
        builtin_body("dodecahedron", normalize_volume=True),
        build_polytope(points, label="hull20"),
    ]
    results = [check_section_oracle(body, n_planes=10_000, seed=1)
               for body in shapes]
    elapsed = time.perf_counter() - started
    detail = "; ".join(
        f"{body.label}: {r.statistic:.3g}" for body, r in zip(shapes, results)
    ) + f" (tolerance 1e-9 relative, {elapsed:.0f}s)"
    passed = all(r.passed for r in results)
    line = report(6, "geometric oracle equivalence", passed, detail)
    assert passed, line


@pytest.fixture(scope="module")
def dodecahedron_reference():
    dodecahedron = builtin_body("dodecahedron", normalize_volume=True)
    reference = ReferenceDensity.from_body(dodecahedron, size=1_000_000,
                                           rng=RngStream(2024))
    return dodecahedron, reference


def test_criterion_7_size_unfolding(dodecahedron_reference):
    """Dodecahedron particles with exponential sizes, N = 1000, 5 seeds.

    EM must converge monotonically at tol 1e-8 and the fitted biased size
    CDF must come within 0.15 of the true biased distribution in at least
    4 of 5 seeds.
    """
    started = time.perf_counter()
    dodecahedron, reference = dodecahedron_reference
    truth = Gamma(2.0, 1.0)  # biased version of the standard exponential
    close, details = 0, []
    for seed in range(5):
        s_obs = sample_profile_sizes(dodecahedron, Exponential(1.0), 1000,
                                     RngStream(seed))
        result = npmle_em(s_obs, reference, tol=1e-8, max_iter=5000)
        assert result.converged, f"seed {seed} did not converge"
        gains = np.diff(result.loglik_trace)
        assert gains.min() > -1e-12, f"seed {seed} loglik not monotone"
        locations = result.step_cdf.locations
        probe = np.concatenate([locations, locations - 1e-12])
        sup = float(np.abs(result.step_cdf.evaluate(probe)
                           - truth.cdf(probe)).max())
        close += sup <= 0.15
        details.append(f"seed {seed}: sup={sup:.3f} "
                       f"iters={result.iterations}")
    elapsed = time.perf_counter() - started
    detail = "; ".join(details) + f" -> {close}/5 within 0.15 ({elapsed:.0f}s)"
    line = report(7, "size distribution unfolding", close >= 4, detail)
    assert elapsed < 900.0
    assert close >= 4, line


def test_invariant_mle_dominance(dodecahedron_reference):
    """The fitted step CDF beats the true biased distribution discretized
    onto the observation support (maximum likelihood on its own class)."""
    dodecahedron, reference = dodecahedron_reference
    truth = Gamma(2.0, 1.0)
    s_obs = np.sort(sample_profile_sizes(dodecahedron, Exponential(1.0),
                                         1000, RngStream(0)))
    result = npmle_em(s_obs, reference, tol=1e-8, max_iter=5000)
    atoms = np.unique(s_obs)
    edges = np.concatenate([[0.0], (atoms[1:] + atoms[:-1]) / 2.0, [np.inf]])
    weights = np.diff(truth.cdf(edges))
    discretized = StepCDF.from_atoms(atoms, weights)
    baseline = log_likelihood(discretized, s_obs, reference)
    assert result.final_loglik >= baseline, (result.final_loglik, baseline)


def test_invariant_point_mass_recovery():
    """Data from a single particle size concentrates the fitted CDF:
    at least 0.9 of the mass lands within 10 percent of the true size,
    for each of 5 seeds."""
    ball = builtin_body("ball")
    reference = ReferenceDensity.from_body(ball, size=500_000,
                                           rng=RngStream(600))
    from sectionlab.stereology import PointMass

    for seed in range(5):
        s_obs = sample_profile_sizes(ball, PointMass(1.0), 2000,
                                     RngStream(700 + seed))
        result = npmle_em(s_obs, reference)
        cdf = result.step_cdf
        near = (cdf.locations >= 0.9) & (cdf.locations <= 1.1)
        assert cdf.weights[near].sum() >= 0.9, f"seed {seed}"


def test_criterion_8_reflection_identity():
    """Reflection KDE = 2 x classical KDE of the mirrored sample, and the
    estimate integrates to 1 within 1e-3."""
    started = time.perf_counter()
    square = builtin_body("square")
    sample = sample_iur_sections(square, 100_000, RngStream(8))
    x = root_transform(sample)
    h = 0.02
    grid = np.linspace(0.0, float(x.max()) + 6.0 * h, 1024)
    estimate = reflection_kde(x, h, grid)
    doubled = 2.0 * classical_kde(np.concatenate([x, -x]), h, grid)
    gap = float(np.abs(estimate.values - doubled).max())
    integral = estimate.integral()
    elapsed = time.perf_counter() - started
    passed = gap <= 1e-12 and abs(integral - 1.0) <= 1e-3
    line = report(8, "reflection identity and normalization", passed,
                  f"pointwise gap={gap:.2e} (tolerance 1e-12), "
                  f"integral={integral:.6f} (tolerance 1e-3) ({elapsed:.0f}s)")
    assert gap <= 1e-12, line
    assert abs(integral - 1.0) <= 1e-3, line


# ---------------------------------------------------------------------------
# The tangent half-angle direction map, in law


KS_1PCT = math.sqrt(-math.log(0.005) / 2.0)  # Kolmogorov's 1 % point, 1.628
LAW_N = 10_000_000
LAW_BODIES = {"square": ("square", 3), "polygon7": ("polygon7", 3),
              "cube": ("cube", 3), "dodecahedron": ("dodecahedron", 3),
              "disk": ("ball", 2), "ball": ("ball", 3)}
CLOSED_FORMS = {"square": square_chord_cdf,
                "disk": lambda a: ball_section_cdf(a, dim=2),
                "ball": ball_section_cdf}


def cos_sin_directions(u):
    """The direction map the sampler used before the half-angle one."""
    phi = 2.0 * np.pi * u[:, 0]
    if u.shape[1] == 2:
        return np.column_stack([np.cos(phi), np.sin(phi)])
    x = 2.0 * u[:, 1] - 1.0
    r = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), x])


def ks_sorted_vs_cdf(xs, cdf, chunk=1 << 20):
    """sup |ECDF - F| of the sorted ``xs``, in chunks of bounded memory."""
    n, stat = xs.size, 0.0
    for lo in range(0, n, chunk):
        f = np.asarray(cdf(xs[lo:lo + chunk]), dtype=float)
        rank = np.arange(lo, lo + f.size)
        stat = max(stat, np.abs((rank + 1) / n - f).max(),
                   np.abs(f - rank / n).max())
    return float(stat)


def ks_two_sorted(a, b, chunk=1 << 20):
    """sup |ECDF_a - ECDF_b| of two sorted samples, in chunks."""
    stat = 0.0
    for x, y in ((a, b), (b, a)):
        for lo in range(0, x.size, chunk):
            at = x[lo:lo + chunk]
            gap = (np.searchsorted(x, at, side="right") / x.size
                   - np.searchsorted(y, at, side="right") / y.size)
            stat = max(stat, np.abs(gap).max())
    return float(stat)


@pytest.mark.parametrize("name", list(LAW_BODIES))
def test_half_angle_directions_keep_the_section_law(name, monkeypatch):
    """1e7 sections drawn with the tangent half-angle directions against
    1e7 drawn with cos and sin of the angle (another seed), by a
    two-sample KS test at the 1 % level; where the law has a closed form,
    the new sample against it too."""
    import sectionlab.sampling as sampling

    started = time.perf_counter()
    shape, dim = LAW_BODIES[name]
    body = builtin_body(shape, dim=dim)
    new = sample_iur_sections(body, LAW_N, RngStream(2601)).values
    new.sort()
    monkeypatch.setattr(sampling, "_directions_from_uniforms",
                        cos_sin_directions)
    old = sample_iur_sections(body, LAW_N, RngStream(2602)).values
    old.sort()
    stat = ks_two_sorted(new, old)
    limit = KS_1PCT * math.sqrt(2.0 / LAW_N)
    detail = f"two-sample KS={stat:.2e} (limit {limit:.2e}"
    passed = stat <= limit
    if name in CLOSED_FORMS:
        one = ks_sorted_vs_cdf(new, CLOSED_FORMS[name])
        one_limit = KS_1PCT / math.sqrt(LAW_N)
        passed = passed and one <= one_limit
        detail += f"; KS to the closed form {one:.2e}, limit {one_limit:.2e}"
    elapsed = time.perf_counter() - started
    line = report("law", f"{name} sections from half-angle directions",
                  passed, f"{detail}, {elapsed:.0f}s)")
    assert passed, line
