"""Density and distribution estimates from section samples.

The pipeline: take the (n-1)-th root of the section volumes, estimate
their density with a boundary-corrected Gaussian KDE that mirrors every
kernel term across 0 (the reflection method, so no mass is placed below
zero), pick the bandwidth with the Sheather-Jones solve-the-equation
plug-in applied to the mirrored sample of size 2N, and if the volume
scale is wanted, change variables back pointwise.

KDE sums are evaluated exactly: terms outside 40 bandwidths underflow to
0.0 in double precision, so restricting each grid point's sum to a sorted
window reproduces the full sum bit for bit at any sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptySample,
    NonPositiveBandwidth,
    ZeroGridPoint,
    ZeroVariance,
)
from .sampling import SectionSample

_SQRT2PI = math.sqrt(2.0 * math.pi)
_KERNEL_REACH = 40.0  # kernel underflows to exactly 0.0 beyond ~38.6 h

ROOT_SCALE = "root_scale"
VOLUME_SCALE = "volume_scale"


@dataclass
class DensityEstimate:
    """Density values on a grid, with the bandwidth that produced them."""

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float
    transform: str  # ROOT_SCALE | VOLUME_SCALE
    sample_size: int
    bandwidth_method: str = "sheather_jones"

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have equal length")
        if (np.diff(self.grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")
        if not (self.values >= 0).all():  # also catches NaN
            raise ValueError("density values must be nonnegative")

    def evaluate(self, z) -> np.ndarray:
        """Linear interpolation on the grid, 0 outside it."""
        z = np.asarray(z, dtype=float)
        out = np.interp(z, self.grid, self.values, left=0.0, right=0.0)
        return out

    def integral(self) -> float:
        """Trapezoid integral of the stored values over the grid."""
        return float(np.trapezoid(self.values, self.grid))


@dataclass
class StepCDF:
    """Right-continuous piecewise-constant distribution function."""

    locations: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=float)
        self.cumulative = np.asarray(self.cumulative, dtype=float)
        if self.locations.shape != self.cumulative.shape:
            raise ValueError("locations and cumulative must have equal length")
        if self.locations.size == 0:
            raise EmptySample("step CDF needs at least one jump")
        if (np.diff(self.locations) <= 0).any():
            raise ValueError("locations must be strictly increasing")
        if (np.diff(self.cumulative) < 0).any():
            raise ValueError("cumulative must be nondecreasing")
        if self.cumulative[0] < 0 or self.cumulative[-1] > 1 + 1e-9:
            raise ValueError("cumulative values must lie in [0, 1]")
        if abs(self.cumulative[-1] - 1.0) > 1e-9:
            raise ValueError("cumulative must reach 1 at the last jump")

    @classmethod
    def from_atoms(cls, locations, weights) -> "StepCDF":
        locations = np.asarray(locations, dtype=float)
        weights = np.asarray(weights, dtype=float)
        order = np.argsort(locations)
        locations, weights = locations[order], weights[order]
        cum = np.cumsum(weights / weights.sum())
        cum[-1] = 1.0
        return cls(locations, cum)

    @property
    def weights(self) -> np.ndarray:
        return np.diff(self.cumulative, prepend=0.0)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.locations, x, side="right")
        padded = np.concatenate([[0.0], self.cumulative])
        return padded[idx]

    def sample(self, size: int, generator) -> np.ndarray:
        return generator.choice(self.locations, size=size, p=self.weights)


# ---------------------------------------------------------------------------
# Transforms


def root_transform(sample: SectionSample) -> np.ndarray:
    """(n-1)-th root of the section volumes: identity in 2D, sqrt in 3D."""
    if sample.dim == 2:
        return np.asarray(sample.values, dtype=float).copy()
    if sample.dim == 3:
        return np.sqrt(sample.values)
    raise ValueError("sample dimension must be 2 or 3")


def untransform_density(estimate: DensityEstimate, dim: int,
                        grid=None) -> DensityEstimate:
    """Change of variables from the root scale back to the volume scale.

    In 2D the two scales coincide.  In 3D the volume-scale density is
    ``g(z) = g_root(sqrt(z)) / (2 sqrt(z))``, singular at z = 0, so the
    requested grid must exclude 0; by default the squared root-scale grid
    (without its zero point) is used so no interpolation error is added.
    """
    if estimate.transform != ROOT_SCALE:
        raise ValueError("input estimate must be on the root scale")
    if dim == 2:
        grid = estimate.grid if grid is None else np.asarray(grid, dtype=float)
        return replace(estimate, grid=grid.copy(),
                       values=estimate.evaluate(grid), transform=VOLUME_SCALE)
    if dim != 3:
        raise ValueError("dim must be 2 or 3")
    if grid is None:
        grid = estimate.grid[estimate.grid > 0.0] ** 2
    else:
        grid = np.asarray(grid, dtype=float)
        if (grid <= 0.0).any():
            raise ZeroGridPoint(
                "volume-scale grid must exclude 0 in 3D (density ~ 1/sqrt(z))"
            )
    roots = np.sqrt(grid)
    values = estimate.evaluate(roots) / (2.0 * roots)
    return replace(estimate, grid=grid, values=values, transform=VOLUME_SCALE)


# ---------------------------------------------------------------------------
# Kernel density estimation


def _gaussian_window_sum(sorted_x: np.ndarray, z: float, h: float) -> float:
    """Sum of exp(-((z - x)/h)^2 / 2) over all x; exact despite windowing."""
    reach = _KERNEL_REACH * h
    lo = np.searchsorted(sorted_x, z - reach)
    hi = np.searchsorted(sorted_x, z + reach)
    if lo == hi:
        return 0.0
    u = (z - sorted_x[lo:hi]) / h
    return float(np.exp(-0.5 * u * u).sum())


def classical_kde(x, h: float, grid) -> np.ndarray:
    """Plain Gaussian KDE values of ``x`` on ``grid``."""
    x = np.sort(np.asarray(x, dtype=float))
    if x.size == 0:
        raise EmptySample("cannot estimate a density from no data")
    if not h > 0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {h}")
    grid = np.asarray(grid, dtype=float)
    out = np.array([_gaussian_window_sum(x, z, h) for z in grid])
    return out / (x.size * h * _SQRT2PI)


def reflection_kde(x, h: float, grid, bandwidth_method: str = "fixed"
                   ) -> DensityEstimate:
    """Boundary-corrected KDE for data supported on [0, inf).

    Every kernel term is mirrored across 0, so the continuous estimator
    integrates to exactly 1 over [0, inf) and equals twice the classical
    KDE of the mirrored sample of size 2N.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise EmptySample("cannot estimate a density from no data")
    if not h > 0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {h}")
    if (x < 0).any():
        raise ValueError("reflection KDE expects nonnegative data")
    grid = np.asarray(grid, dtype=float)
    if (grid < 0).any():
        raise ValueError("evaluation grid must be nonnegative")
    xs = np.sort(x)
    values = np.empty(grid.shape)
    for i, z in enumerate(grid):
        direct = _gaussian_window_sum(xs, z, h)
        mirrored = _gaussian_window_sum(xs, -z, h)
        values[i] = direct + mirrored
    values /= x.size * h * _SQRT2PI
    return DensityEstimate(
        grid=grid.copy(),
        values=values,
        bandwidth=float(h),
        transform=ROOT_SCALE,
        sample_size=int(x.size),
        bandwidth_method=bandwidth_method,
    )


def default_grid(x, h: float, grid_points: int = 512) -> np.ndarray:
    """Equispaced grid on [0, max(x) + 4h] resolving the boundary."""
    if grid_points < 16:
        raise ValueError("grid needs at least 16 points")
    return np.linspace(0.0, float(np.max(x)) + 4.0 * h, grid_points)


# ---------------------------------------------------------------------------
# Bandwidth selection


def silverman_bandwidth(x) -> float:
    """Silverman's rule of thumb on the given data."""
    x = np.asarray(x, dtype=float)
    sd = x.std()
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0:
        raise ZeroVariance("sample has zero variance")
    return 0.9 * spread * x.size ** (-0.2)


def _pair_distance_counts(y: np.ndarray, nbins: int):
    """Binned counts of unordered pair distances, as used by the plug-in.

    Returns (counts, delta) where counts[k] is the number of unordered
    pairs whose binned distance is k * delta.
    """
    lo, hi = y.min(), y.max()
    delta = (hi - lo) / nbins
    idx = np.minimum(((y - lo) / delta).astype(np.intp), nbins - 1)
    w = np.bincount(idx, minlength=nbins).astype(float)
    ac = np.correlate(w, w, mode="full")[nbins - 1:]
    cnt = ac.copy()
    cnt[0] = (ac[0] - y.size) / 2.0
    return cnt, delta


def _phi4_functional(cnt, delta, n, h):
    k = np.arange(cnt.size)
    u = (k * delta / h) ** 2
    mask = u < 1000.0
    term = np.exp(-0.5 * u[mask]) * (u[mask] ** 2 - 6.0 * u[mask] + 3.0)
    total = 2.0 * float(term @ cnt[mask]) + n * 3.0
    return total / (n * (n - 1.0) * h**5 * _SQRT2PI)


def _phi6_functional(cnt, delta, n, h):
    k = np.arange(cnt.size)
    u = (k * delta / h) ** 2
    mask = u < 1000.0
    term = np.exp(-0.5 * u[mask]) * (
        u[mask] ** 3 - 15.0 * u[mask] ** 2 + 45.0 * u[mask] - 15.0
    )
    total = 2.0 * float(term @ cnt[mask]) + n * (-15.0)
    return total / (n * (n - 1.0) * h**7 * _SQRT2PI)


def sheather_jones_bandwidth(x, nbins: int = 1000,
                             return_method: bool = False):
    """Solve-the-equation plug-in bandwidth on the mirrored 2N sample.

    The input is the nonnegative (root-scale) sample; selection runs on
    {x_i} U {-x_i} so the returned bandwidth is the one to feed directly
    into ``reflection_kde``.  The plug-in equation
    ``h = (R(k) / (n * S(alpha_2(h))))^(1/5)`` is solved by bisection on
    [h_silverman / 100, 100 * h_silverman] to 1e-8 relative tolerance;
    when the equation has no root there, Silverman's rule on the mirrored
    sample is returned and flagged.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 16:
        raise EmptySample("bandwidth selection needs at least 16 points")
    if x.std() <= 0:
        raise ZeroVariance("sample has zero variance")
    y = np.concatenate([x, -x])
    n = y.size
    sd = y.std()
    q75, q25 = np.percentile(y, [75, 25])
    iqr = q75 - q25
    if sd <= 0 or iqr <= 0:
        raise ZeroVariance("sample has zero variance")
    scale = min(sd, iqr / 1.349)
    h_silver = silverman_bandwidth(y)

    cnt, delta = _pair_distance_counts(y, nbins)
    a = 0.920 * scale * n ** (-1.0 / 7.0)
    b = 0.912 * scale * n ** (-1.0 / 9.0)
    sda = _phi4_functional(cnt, delta, n, a)
    tdb = -_phi6_functional(cnt, delta, n, b)
    if not (sda > 0 and tdb > 0):
        return (h_silver, "silverman_fallback") if return_method else h_silver

    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)
    alpha_const = 1.357 * (sda / tdb) ** (1.0 / 7.0)

    def fixed_point_gap(h):
        s = _phi4_functional(cnt, delta, n, alpha_const * h ** (5.0 / 7.0))
        if s <= 0:
            return np.nan
        return (c1 / s) ** 0.2 - h

    lo, hi = h_silver / 100.0, h_silver * 100.0
    flo, fhi = fixed_point_gap(lo), fixed_point_gap(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)) or flo * fhi > 0:
        return (h_silver, "silverman_fallback") if return_method else h_silver
    while (hi - lo) > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        fmid = fixed_point_gap(mid)
        if not np.isfinite(fmid):
            return (h_silver, "silverman_fallback") if return_method else h_silver
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    h = 0.5 * (lo + hi)
    return (h, "sheather_jones") if return_method else h


# ---------------------------------------------------------------------------
# ECDF and the estimation pipeline


def empirical_cdf(x) -> StepCDF:
    """Right-continuous ECDF with tied values merged."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise EmptySample("ECDF needs at least one observation")
    locations, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts) / x.size
    cum[-1] = 1.0
    return StepCDF(locations, cum)


def estimate_root_density(sample: SectionSample, grid_points: int = 512,
                          bandwidth: float | None = None,
                          grid=None) -> DensityEstimate:
    """Root transform, bandwidth selection and reflection KDE in one step."""
    x = root_transform(sample)
    if bandwidth is None:
        h, method = sheather_jones_bandwidth(x, return_method=True)
    else:
        h, method = float(bandwidth), "fixed"
    if grid is None:
        grid = default_grid(x, h, grid_points)
    return reflection_kde(x, h, grid, bandwidth_method=method)


# Kept for the benchmark, which binds these names here (the
# ``unfold-dodeca`` output check and the traced file writers); remove them
# in the next change to the benchmark.  Imported last: ``io`` needs StepCDF.
from .io import load_step_cdf_csv, save_density_csv, save_step_cdf_csv
