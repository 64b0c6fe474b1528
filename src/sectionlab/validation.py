"""Validation checks: oracle comparisons and distributional invariances.

Each check returns a CheckResult with the measured statistic and its
threshold; the CLI prints one line per check and fails when any check
does.  Thresholds at the canonical sample sizes match the package's
acceptance suite; at other sizes they scale with the Monte Carlo error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .density import empirical_cdf
from .geometry import (
    ConvexBody,
    Hyperplane,
    builtin_body,
    mean_width,
    random_rotation,
    rotate_body,
    scale_body,
    section_volume_by_clipping,
    section_volumes,
    support_interval,
    translate_body,
)
from .rng import RngStream
from .sampling import (
    SectionSample,
    acceptance_estimate,
    enclosing_radius,
    sample_directions,
    sample_iur_sections,
)

# two-sample threshold of the invariance suites, pinned at n = 1e5 per
# sample; scaled by the usual 1/sqrt(n) law at other sizes
KS_TWO_SAMPLE_LIMIT = 0.0122
KS_REFERENCE_N = 100_000
INVARIANCE_TRIALS = 20
INVARIANCE_MIN_PASSES = 18


@dataclass
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (f"{status} {self.name}: statistic={self.statistic:.6g} "
                f"threshold={self.threshold:.6g}")
        if self.detail:
            text += f" ({self.detail})"
        return text


def ks_two_sample(x, y) -> float:
    """sup |ECDF_x - ECDF_y|."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    both = np.concatenate([x, y])
    fx = np.searchsorted(x, both, side="right") / x.size
    fy = np.searchsorted(y, both, side="right") / y.size
    return float(np.abs(fx - fy).max())


def ks_vs_cdf(x, cdf) -> float:
    """sup |ECDF_x - F| for a callable CDF F."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    upper = np.abs(np.arange(1, n + 1) / n - f).max()
    lower = np.abs(f - np.arange(0, n) / n).max()
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# Oracle comparisons


def _closed_form_law(body: ConvexBody):
    """The body's section volume CDF where it is known in closed form, else
    None: a ball's by its kind, the unit square's for a 2D body labelled
    ``square``."""
    if body.kind == "ball":
        return functools.partial(oracles.ball_section_cdf,
                                 radius=body.radius, dim=body.dim)
    if body.dim == 2 and body.label == "square":
        return oracles.square_chord_cdf
    return None


def check_section_law(sample: SectionSample, cdf) -> CheckResult:
    """KS distance of the sample's section volumes from a closed-form CDF,
    against the threshold 5 / sqrt(n)."""
    n = sample.values.size
    stat = ks_vs_cdf(sample.values, cdf)
    threshold = 5.0 / math.sqrt(n)
    return CheckResult("section_law", stat <= threshold, stat, threshold,
                       f"n={n}")


def check_acceptance_rate(body: ConvexBody,
                          sample: SectionSample) -> CheckResult:
    """Acceptance frequency against mean width / (2 R)."""
    n = sample.values.size
    rate = acceptance_estimate(sample)
    expected = mean_width(body) / (2.0 * enclosing_radius(body))
    threshold = max(6.5 * math.sqrt(expected**2 * (1 - expected) / n), 1e-9)
    stat = abs(rate - expected)
    return CheckResult("acceptance_rate", stat <= threshold, stat, threshold,
                       f"rate={rate:.5f} expected={expected:.5f}")


def check_section_oracle(body: ConvexBody, n_planes: int = 2000,
                         seed: int = 0) -> CheckResult:
    """Fast sectioning against the half-space clipping reference.

    Agreement is relative to 1e-9 with a 1e-15 absolute floor: grazing
    planes produce sections whose volume sits at the double-precision
    noise scale of the body's own coordinates, where a pure relative
    comparison is ill-posed (both paths still agree to ~1e-17 absolute).
    """
    centered = translate_body(body, -body.centroid)
    radius = enclosing_radius(centered)
    rng = RngStream(seed)
    thetas = sample_directions(body.dim, n_planes, rng.derive(0))
    offsets = radius * rng.derive(1).generator().random(n_planes)
    fast = section_volumes(centered, thetas, offsets)
    slow = np.array([
        section_volume_by_clipping(centered, Hyperplane(thetas[i], offsets[i]))
        for i in range(n_planes)
    ])
    denom = np.maximum(np.maximum(np.abs(fast), np.abs(slow)), 1e-300)
    excess = np.maximum(np.abs(fast - slow) - 1e-15, 0.0)
    stat = float((excess / denom).max())
    return CheckResult("section_oracle_equivalence", stat <= 1e-9, stat, 1e-9,
                       f"planes={n_planes}")


def check_brunn_concavity(body: ConvexBody, seed: int = 0) -> CheckResult:
    """Root-transformed parallel section volumes are midpoint concave on
    1000 equispaced offsets across the support."""
    theta = sample_directions(body.dim, 1, RngStream(seed))[0]
    grid = np.linspace(*support_interval(body, theta), 1000)
    vols = section_volumes(
        body, np.broadcast_to(theta, (grid.size, body.dim)), grid)
    f = vols ** (1.0 / (body.dim - 1))
    gap = f[1:-1] - (f[:-2] + f[2:]) / 2.0
    stat = float(-gap.min())
    return CheckResult("brunn_concavity", stat <= 1e-9, stat, 1e-9,
                       f"direction seed={seed}")


# ---------------------------------------------------------------------------
# Invariance suites (distributional properties of the section law)


def check_invariances(body: ConvexBody, n: int = 100_000,
                      trials: int = INVARIANCE_TRIALS, seed: int = 0,
                      workers: int = 1) -> list[CheckResult]:
    """Two-sample KS of the body's section law against transformed copies.

    Each trial draws one base sample of the body (stream ``(seed + t, 1)``)
    and compares it with a translated, a rotated and a scaled copy, each
    drawn from stream ``(seed + t, 2)``; section volumes of a copy scaled
    by lambda are divided by lambda^(dim-1) first.  The transforms come
    from streams 0, 3 and 4, in the order of the returned results.
    """
    names = ("translation_invariance", "rotation_invariance",
             "scaling_relation")
    limit = KS_TWO_SAMPLE_LIMIT * math.sqrt(KS_REFERENCE_N / n)
    passes, worst = [0, 0, 0], [0.0, 0.0, 0.0]
    for t in range(trials):
        shift, turn, size = (RngStream(seed, stream_id).derive(t).generator()
                             for stream_id in (0, 3, 4))
        lam = size.uniform(0.5, 2.0)
        copies = [
            (translate_body(body, shift.uniform(-2.0, 2.0, body.dim)), 1.0),
            (rotate_body(body, random_rotation(body.dim, turn)), 1.0),
            (scale_body(body, lam), lam ** (body.dim - 1)),
        ]
        base = sample_iur_sections(body, n, RngStream(seed + t, 1),
                                   workers=workers)
        for i, (copy, postscale) in enumerate(copies):
            other = sample_iur_sections(copy, n, RngStream(seed + t, 2),
                                        workers=workers)
            stat = ks_two_sample(base.values, other.values / postscale)
            worst[i] = max(worst[i], stat)
            passes[i] += stat < limit
    need = math.ceil(trials * INVARIANCE_MIN_PASSES / INVARIANCE_TRIALS)
    return [CheckResult(name, p >= need, float(p), float(need),
                        f"worst KS={w:.4g} limit={limit:.4g}")
            for name, p, w in zip(names, passes, worst)]


def check_inclusion_bound(n: int = 1_000_000, seed: int = 0,
                          slack: float = 0.01) -> CheckResult:
    """Ball's section CDF bounded by the inscribed cube's, with width ratio.

    For the cube inside its circumscribed ball,
    CDF_ball(z) <= CDF_cube(z) * ratio + (1 - ratio) + slack at all grid
    points, where ratio is the mean width quotient.
    """
    cube = builtin_body("cube")
    ball = scale_body(builtin_body("ball"), math.sqrt(3.0) / 2.0)
    ratio = mean_width(cube) / mean_width(ball)
    sample_cube = sample_iur_sections(cube, n, RngStream(seed, 5))
    sample_ball = sample_iur_sections(ball, n, RngStream(seed, 6))
    cdf_cube = empirical_cdf(sample_cube.values)
    cdf_ball = empirical_cdf(sample_ball.values)
    grid = np.linspace(0.0, float(sample_ball.values.max()), 512)
    lhs = cdf_ball.evaluate(grid)
    rhs = cdf_cube.evaluate(grid) * ratio + (1.0 - ratio)
    stat = float((lhs - rhs).max())
    return CheckResult("inclusion_bound", stat <= slack, stat, slack,
                       f"n={n} width ratio={ratio:.4f}")


# ---------------------------------------------------------------------------
# Per-shape suites for the CLI


def run_shape_checks(body: ConvexBody, n: int, seed: int,
                     trials: int = 5, workers: int = 1) -> list[CheckResult]:
    """Checks appropriate for one shape at the requested sample size.

    The body's ``n`` sections are drawn from stream ``seed`` once and
    shared by the checks that test its section law; every sample is
    drawn over ``workers`` streams.  The sample's law is checked where
    ``_closed_form_law`` knows it; a ball gets that check only.
    """
    sample = sample_iur_sections(body, n, RngStream(seed), workers=workers)
    law = _closed_form_law(body)
    results = [] if law is None else [check_section_law(sample, law)]
    if body.kind == "ball":
        return results
    results.append(check_acceptance_rate(body, sample))
    results.append(check_section_oracle(body, min(2000, n), seed))
    results.append(check_brunn_concavity(body, seed))
    results += check_invariances(body, min(n, 100_000), trials, seed, workers)
    return results
