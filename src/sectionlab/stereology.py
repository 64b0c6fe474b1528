"""Particle size unfolding from observed planar section profiles.

Model: convex particles, all scaled copies of one reference body, with
sizes drawn from a distribution H.  A section plane samples particles
proportionally to their size, so the size of a sectioned particle follows
the length-biased version of H, and the square root of an observed
profile area is distributed as a scale mixture: size factor (from the
biased distribution) times the root section area of the unit-size
reference.

The likelihood of observed root areas therefore only involves the
reference root-area density, approximated here by the sampled KDE.  The
nonparametric MLE of the biased size distribution over step CDFs with
jumps at the observations is computed by EM, which is monotone in the
log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .density import DensityEstimate, StepCDF, estimate_root_density
from .errors import AllZeroLikelihood, InfiniteMean, ZeroLocation
from .geometry import ConvexBody
from .rng import RngStream
from .sampling import sample_iur_sections
from .density import root_transform

WEIGHT_PRUNE = 1e-12


# ---------------------------------------------------------------------------
# Size distributions


@dataclass(frozen=True)
class Exponential:
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def mean(self) -> float:
        return 1.0 / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, 1.0 - np.exp(-self.rate * x), 0.0)

    def sample(self, size, generator):
        return generator.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class Gamma:
    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")

    def mean(self) -> float:
        return self.shape / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return gammainc(self.shape, self.rate * np.maximum(x, 0.0))

    def sample(self, size, generator):
        return generator.gamma(self.shape, 1.0 / self.rate, size)


@dataclass(frozen=True)
class PointMass:
    location: float

    def __post_init__(self):
        if self.location <= 0:
            raise ValueError("location must be positive")

    def mean(self) -> float:
        return self.location

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return (x >= self.location).astype(float)

    def sample(self, size, generator):
        return np.full(size, self.location)


@dataclass(frozen=True)
class StepDistribution:
    cdf_steps: StepCDF

    def __post_init__(self):
        if (self.cdf_steps.locations <= 0).any():
            raise ZeroLocation("size atoms must be strictly positive")

    def mean(self) -> float:
        return float(self.cdf_steps.locations @ self.cdf_steps.weights)

    def cdf(self, x):
        return self.cdf_steps.evaluate(x)

    def sample(self, size, generator):
        return self.cdf_steps.sample(size, generator)


SizeDistribution = Exponential | Gamma | PointMass | StepDistribution


def length_biased(h: SizeDistribution) -> SizeDistribution:
    """Size-weighted version of ``h``: the law of a sectioned particle's size.

    Exponential(r) becomes Gamma(2, r), Gamma(k, r) becomes Gamma(k+1, r),
    a point mass is unchanged, and step CDFs are reweighted by their atom
    locations.
    """
    mean = h.mean()
    if not np.isfinite(mean) or mean <= 0:
        raise InfiniteMean("length biasing requires a finite positive mean")
    if isinstance(h, Exponential):
        return Gamma(2.0, h.rate)
    if isinstance(h, Gamma):
        return Gamma(h.shape + 1.0, h.rate)
    if isinstance(h, PointMass):
        return h
    if isinstance(h, StepDistribution):
        steps = h.cdf_steps
        biased = steps.weights * steps.locations
        return StepDistribution(StepCDF.from_atoms(steps.locations, biased))
    raise TypeError(f"unsupported size distribution {type(h).__name__}")


def unbias(hb: SizeDistribution) -> SizeDistribution:
    """Exact inverse of ``length_biased`` for atomic distributions."""
    if isinstance(hb, PointMass):
        return hb
    if isinstance(hb, StepDistribution):
        steps = hb.cdf_steps
        if (steps.locations <= 0).any():
            raise ZeroLocation("cannot unbias atoms at nonpositive sizes")
        w = steps.weights / steps.locations
        return StepDistribution(StepCDF.from_atoms(steps.locations, w))
    if isinstance(hb, StepCDF):
        return unbias(StepDistribution(hb)).cdf_steps
    raise TypeError("unbias is defined for step CDFs and point masses")


def sample_profile_sizes(body: ConvexBody, h: SizeDistribution, size: int,
                         rng: RngStream) -> np.ndarray:
    """Draw root profile areas from the particle process.

    Realizes the scale mixture exactly: a biased size times the root
    section area of a fresh isotropic section of the unit-size reference.
    """
    sections = sample_iur_sections(body, size, rng.derive(0))
    roots = root_transform(sections)
    biased = length_biased(h)
    sizes = biased.sample(size, rng.derive(1).generator())
    return sizes * roots


# ---------------------------------------------------------------------------
# Reference density


@dataclass
class ReferenceDensity:
    """Root-scale section density of the unit-size reference particle.

    Evaluated by linear interpolation on the stored grid and truncated to
    0 outside (0, support_max]; the stored density must integrate to
    1 within 1e-3.
    """

    estimate: DensityEstimate
    support_max: float

    def __post_init__(self):
        total = self.estimate.integral()
        if abs(total - 1.0) > 1e-3:
            raise ValueError(
                f"reference density integrates to {total:.6f}, not 1"
            )

    @classmethod
    def from_estimate(cls, estimate: DensityEstimate,
                      support_max: float | None = None) -> "ReferenceDensity":
        if support_max is None:
            support_max = float(estimate.grid[-1])
        return cls(estimate, support_max)

    @classmethod
    def from_body(cls, body: ConvexBody, size: int = 1_000_000,
                  rng: RngStream | None = None, grid_points: int = 512,
                  workers: int = 1) -> "ReferenceDensity":
        if rng is None:
            rng = RngStream(0)
        sample = sample_iur_sections(body, size, rng, workers=workers)
        est = estimate_root_density(sample, grid_points=grid_points)
        return cls.from_estimate(est)

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        vals = self.estimate.evaluate(z)
        return np.where((z > 0) & (z <= self.support_max), vals, 0.0)


# ---------------------------------------------------------------------------
# Likelihood and the nonparametric MLE


def _mixture_kernel(s_obs: np.ndarray, atoms: np.ndarray,
                    reference: ReferenceDensity) -> np.ndarray:
    """k[i, j] = g(s_i / atom_j) / atom_j, the scale-mixture kernel."""
    ratios = s_obs[:, None] / atoms[None, :]
    return reference.evaluate(ratios) / atoms[None, :]


def log_likelihood(hb: StepCDF, s_obs, reference: ReferenceDensity) -> float:
    """Mean log mixture density of the observations under ``hb``."""
    s_obs = np.asarray(s_obs, dtype=float)
    if (hb.locations <= 0).any():
        raise ZeroLocation("mixture atoms must be strictly positive")
    kernel = _mixture_kernel(s_obs, hb.locations, reference)
    mix = kernel @ hb.weights
    if (mix <= 0).any():
        raise AllZeroLikelihood(
            "an observation has zero density under every atom "
            "(support mismatch between data and reference)"
        )
    return float(np.mean(np.log(mix)))


@dataclass
class UnfoldResult:
    """EM output: fitted biased size distribution plus the run report."""

    step_cdf: StepCDF
    iterations: int
    final_loglik: float
    converged: bool
    tol: float
    pruned_atoms: int
    loglik_trace: np.ndarray

    def report(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_loglik": self.final_loglik,
            "converged": self.converged,
            "tol": self.tol,
            "pruned_atoms": self.pruned_atoms,
        }


def npmle_em(s_obs, reference: ReferenceDensity, tol: float = 1e-8,
             max_iter: int = 20000) -> UnfoldResult:
    """Nonparametric MLE of the biased size distribution by EM.

    Support is fixed at the observed values (duplicates merged); only the
    weights are optimized.  Iteration stops when the gain in mean
    log-likelihood drops below ``tol``; otherwise the best iterate is
    returned with ``converged`` False.  Atoms lighter than 1e-12 are
    pruned at the end.
    """
    s_obs = np.sort(np.asarray(s_obs, dtype=float))
    if s_obs.size == 0:
        raise ValueError("no observations")
    if not (s_obs > 0).all():  # also catches NaN
        raise ZeroLocation("observations must be strictly positive")
    atoms = np.unique(s_obs)
    n = s_obs.size
    kernel = _mixture_kernel(s_obs, atoms, reference)
    if (kernel.max(axis=1) <= 0).any():
        raise AllZeroLikelihood(
            "an observation has zero density under every candidate atom"
        )

    w = np.full(atoms.size, 1.0 / atoms.size)
    mix = kernel @ w
    ll = float(np.mean(np.log(mix)))
    trace = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w *= kernel.T @ (1.0 / mix) / n
        w /= w.sum()
        mix = kernel @ w
        ll_new = float(np.mean(np.log(mix)))
        trace.append(ll_new)
        if ll_new - ll < tol:
            ll = ll_new
            converged = True
            break
        ll = ll_new

    keep = w > WEIGHT_PRUNE
    pruned = int(np.count_nonzero(~keep))
    cdf = StepCDF.from_atoms(atoms[keep], w[keep])
    return UnfoldResult(
        step_cdf=cdf,
        iterations=iterations,
        final_loglik=trace[-1],
        converged=converged,
        tol=tol,
        pruned_atoms=pruned,
        loglik_trace=np.array(trace),
    )
