"""Density and distribution estimates from section samples.

The pipeline: take the (n-1)-th root of the section volumes, estimate
their density with a boundary-corrected Gaussian KDE that mirrors every
kernel term across 0 (the reflection method, so no mass is placed below
zero), pick the bandwidth with the Sheather-Jones solve-the-equation
plug-in applied to the mirrored sample of size 2N, and if the volume
scale is wanted, change variables back pointwise.  Neither step builds
the mirror: the plug-in takes the mirror's quartiles, standard deviation
and binned pair counts from the sample itself, and the KDE folds each
lattice node's weight onto its mirror node.

Each grid point's kernel sum runs only over a window of 40 bandwidths,
beyond which every term underflows to 0.0.  Small samples are summed
point by point, exactly.  Large ones are first linearly binned on a
lattice of spacing delta <= h/32, which moves each value by at most
phi(0) / (8 * 32^2 * h) per unit of kernel mass (see
``_lattice_weights``).  On a grid equispaced from 0 with spacing
Delta >= h/32, such as the default grid, delta = Delta / ceil(32 Delta
/ h), so every grid point is a lattice node, and the sums are one
lattice correlation: the 80 h / delta + 1 Gaussian taps are computed
once, and the grid's windows are dotted with them in about 80 h / Delta
BLAS products, at least one.  That costs O(N + grid * 80 h / delta)
multiply-adds and no exp per term.  Other grids take delta = h/32 and
sum each point's occupied nodes, at one exp a term.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySample, NonPositiveBandwidth, ZeroVariance
from .sampling import SectionSample

_SQRT2PI = math.sqrt(2.0 * math.pi)
_KERNEL_REACH = 40.0  # kernel underflows to exactly 0.0 beyond ~38.6 h
_BINS_PER_H = 32  # the binned KDE's lattice spacing is h / 32
_BIN_CHUNK = 1 << 16  # points binned per np.bincount call
_MAX_GRID_POINTS = 1 << 16  # cap on the default grid's point count

# sys.getrefcount counts every reference on CPython up to 3.13; 3.14 may
# lend it an argument without one, so there no array counts as handed over
_EXACT_REFCOUNTS = (sys.implementation.name == "cpython"
                    and sys.version_info < (3, 14))

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
        return np.interp(z, self.grid, self.values, left=0.0, right=0.0)

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

    def mean(self) -> float:
        return float(self.locations @ self.weights)

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
    """(n-1)-th root of the section volumes: identity in 2D, sqrt in 3D.

    In 2D the result is the sample's own array, which callers only read.
    In 3D the roots of a sample handed over, passed without a reference
    kept as in ``root_transform(sample_iur_sections(...))``, are written
    over its volumes; a sample still held elsewhere is never changed.
    """
    x, dim = sample.values, sample.dim
    del sample  # a handed-over sample is freed here
    return _roots(x, dim)


def _roots(x: np.ndarray, dim: int) -> np.ndarray:
    """``root_transform`` of the volumes ``x``, written over x in 3D when
    the caller's variable is x's only reference, the rule numpy's
    temporary elision uses.  Call it straight from the frame holding x."""
    if dim == 2:
        return x
    if dim != 3:
        raise ValueError("sample dimension must be 2 or 3")
    # the caller's variable, this call's argument and getrefcount's
    sole = (_EXACT_REFCOUNTS and sys.getrefcount(x) == 3
            and x.base is None and x.flags.writeable)
    return np.sqrt(x, out=x if sole else None)


def untransform_density(estimate: DensityEstimate,
                        dim: int) -> DensityEstimate:
    """Change of variables from the root scale back to the volume scale.

    In 2D the two scales coincide.  In 3D the volume-scale density is
    ``g(z) = g_root(sqrt(z)) / (2 sqrt(z))``, singular at z = 0; it is
    given on the squared root-scale grid without its zero point, so no
    interpolation error is added.
    """
    if estimate.transform != ROOT_SCALE:
        raise ValueError("input estimate must be on the root scale")
    if dim == 2:
        return replace(estimate, grid=estimate.grid.copy(),
                       values=estimate.evaluate(estimate.grid),
                       transform=VOLUME_SCALE)
    if dim != 3:
        raise ValueError("dim must be 2 or 3")
    grid = estimate.grid[estimate.grid > 0.0] ** 2
    roots = np.sqrt(grid)
    values = estimate.evaluate(roots) / (2.0 * roots)
    return replace(estimate, grid=grid, values=values, transform=VOLUME_SCALE)


# ---------------------------------------------------------------------------
# Kernel density estimation


def _window_sums(nodes: np.ndarray, weights: np.ndarray, centres: np.ndarray,
                 h: float) -> np.ndarray:
    """Sum of weights * exp(-((z - node)/h)^2 / 2) over the sorted nodes,
    for each centre z; nodes beyond 40 h are skipped, where every term
    underflows to 0.0."""
    reach = _KERNEL_REACH * h
    lo = np.searchsorted(nodes, centres - reach)
    hi = np.searchsorted(nodes, centres + reach)
    out = np.zeros(centres.shape)
    for i, (z, a, b) in enumerate(zip(centres, lo, hi)):
        if a < b:
            u = (z - nodes[a:b]) / h
            out[i] = np.exp(-0.5 * u * u) @ weights[a:b]
    return out


def _half_bins(x: np.ndarray, delta: float, top: int) -> np.ndarray:
    """Weights of the nonnegative ``x`` linearly binned on the nodes
    k * delta, 0 <= k <= top: a point (k + f) * delta with 0 <= f < 1
    puts 1 - f on node k and f on node k + 1."""
    total = np.zeros(top + 1)
    for start in range(0, x.size, _BIN_CHUNK):
        a = x[start:start + _BIN_CHUNK] / delta
        k = a.astype(np.intp)
        a -= k
        total[:-1] += np.bincount(k, 1.0 - a, minlength=top)
        total[1:] += np.bincount(k, a, minlength=top)
    return total


def _lattice_weights(x: np.ndarray, delta: float, top: int,
                     mirror: bool) -> np.ndarray:
    """Weights on the nodes k * delta, |k| <= top, at index k + top.

    |x| is linearly binned, then the sign applied, so -x gets the exact
    mirror of the weights of x.  With ``mirror`` (x nonnegative) they are
    the weights of the mirrored sample {x} U {-x}: node k's weight folds
    onto -k, and node 0 counts twice.  A binned kernel term is the linear
    interpolant, between two nodes, of the exact one, so it is off by at
    most delta^2 / 8 * max|K_h''| <= phi(0) / (8 * 32^2 * h) per unit of
    kernel mass when delta <= h / 32, as |phi''| <= phi(0).
    """
    w = np.zeros(2 * top + 1)
    if mirror:
        w[top:] = _half_bins(x, delta, top)
        w[top::-1] += w[top:]
    else:
        w[top:] = _half_bins(x[x >= 0], delta, top)
        w[top::-1] += _half_bins(-x[x < 0], delta, top)
    return w


def _lattice_step(grid: np.ndarray, h: float) -> float | None:
    """The spacing of a grid equispaced from 0, to rounding, if it is at
    least h / 32; None for any other grid."""
    if grid.size < 2 or grid[0] != 0.0 or not grid[1] >= h / _BINS_PER_H:
        return None
    step = float(grid[1])
    lattice = step * np.arange(grid.size)
    slack = 4.0 * np.finfo(float).eps * lattice[-1]
    if not np.abs(grid - lattice).max() <= slack:  # NaN too
        return None
    return step


def _lattice_sums(weights: np.ndarray, top: int, ratio: float, stride: int,
                  count: int) -> np.ndarray:
    """Kernel sums at the nodes j * stride, 0 <= j < count, of the
    lattice whose node k carries ``weights[k + top]``; ``ratio`` is the
    node spacing over h.

    The taps exp(-(i * ratio)^2 / 2), |i| <= 40 / ratio, are computed
    once.  They are cut into chunks of ``stride`` (one chunk when they
    are shorter), and each chunk is dotted with the matching window of
    every grid point at once: the windows of one chunk start ``stride``
    nodes apart, so they are the rows of one strided view of the padded
    weights, and one BLAS product per chunk serves the whole grid.
    Terms beyond the reach underflow to 0.0, so a grid point with no node
    within 40 h gets exactly 0, and no value is negative.
    """
    reach = int(_KERNEL_REACH / ratio)
    taps = 2 * reach + 1
    width = min(stride, taps)
    chunks = -(-taps // width)
    u = np.arange(-reach, chunks * width - reach) * ratio
    kernel = np.exp(-0.5 * u * u)
    # grid points past this one have no node within the reach
    near = min(count, (top + reach) // stride + 1)
    padded = np.zeros((near - 1) * stride + chunks * width)  # node q - reach
    lo, hi = max(0, reach - top), min(padded.size, reach + top + 1)
    padded[lo:hi] = weights[lo - reach + top:hi - reach + top]
    rows = np.lib.stride_tricks.sliding_window_view(padded, width)[::stride]
    out = np.zeros(count)
    for c in range(chunks):
        out[:near] += rows[c:c + near] @ kernel[c * width:(c + 1) * width]
    return out


def _kde_sums(x: np.ndarray, h: float, grid: np.ndarray,
              mirror: bool) -> np.ndarray:
    """Sum over the sample of exp(-((z - x_i)/h)^2 / 2) at each grid
    point z, with the mirrored term at z + x_i added when ``mirror``.

    On a grid equispaced from 0 with spacing at least h / 32 the sample
    is binned on a lattice of spacing delta = spacing / ceil(32 spacing /
    h) <= h / 32, whose every stride-th node is a grid point, and the
    sums are a lattice correlation (``_lattice_sums``).  On other grids it
    is binned on h / 32 and each point sums the occupied nodes within
    40 h.  When the lattice has at least as many nodes as the mirrored
    sample, binning saves nothing, and the sums run over the sample
    exactly.  Both KDEs pass their mirrored sample's size, so a
    reflection KDE and the classical KDE of its mirrored sample take the
    same branch.
    """
    step = _lattice_step(grid, h)
    stride = 1 if step is None else math.ceil(_BINS_PER_H * step / h)
    delta = h / _BINS_PER_H if step is None else step / stride
    top = int(max(x.max(), -x.min()) / delta) + 1  # highest node index
    if 2 * top + 1 >= (2 if mirror else 1) * x.size:
        nodes = np.sort(x)
        ones = np.ones(nodes.size)
        sums = _window_sums(nodes, ones, grid, h)
        if mirror:
            sums += _window_sums(nodes, ones, -grid, h)
        return sums
    weights = _lattice_weights(x, delta, top, mirror)
    if step is not None:
        return _lattice_sums(weights, top, delta / h, stride, grid.size)
    occupied = np.flatnonzero(weights)
    return _window_sums((occupied - top) * delta, weights[occupied], grid, h)


def _kde_sample(x, h: float) -> np.ndarray:
    """The sample as a float array, after the checks both KDEs share."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise EmptySample("cannot estimate a density from no data")
    if not h > 0:
        raise NonPositiveBandwidth(f"bandwidth must be positive, got {h}")
    # min and max, not an N-element mask; NaN reaches both
    if not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError("KDE data must be finite")
    return x


def classical_kde(x, h: float, grid) -> np.ndarray:
    """Plain Gaussian KDE values of ``x`` on ``grid``."""
    x = _kde_sample(x, h)
    grid = np.asarray(grid, dtype=float)
    return _kde_sums(x, h, grid, mirror=False) / (x.size * h * _SQRT2PI)


def reflection_kde(x, h: float, grid, bandwidth_method: str = "fixed"
                   ) -> DensityEstimate:
    """Boundary-corrected KDE for data supported on [0, inf).

    Every kernel term is mirrored across 0, so the continuous estimator
    integrates to exactly 1 over [0, inf) and equals twice the classical
    KDE of the mirrored sample of size 2N.  The mirror is never built:
    binned, each node's weight is folded onto its mirror node; summed
    exactly, the sum at z adds the sample's sums at z and at -z.
    """
    x = _kde_sample(x, h)
    if x.min() < 0:
        raise ValueError("reflection KDE expects nonnegative data")
    grid = np.asarray(grid, dtype=float)
    if (grid < 0).any():
        raise ValueError("evaluation grid must be nonnegative")
    values = _kde_sums(x, h, grid, mirror=True)
    values /= x.size * h * _SQRT2PI
    return DensityEstimate(
        grid=grid.copy(),
        values=values,
        bandwidth=float(h),
        transform=ROOT_SCALE,
        sample_size=int(x.size),
        bandwidth_method=bandwidth_method,
    )


def default_grid(x, h: float, grid_points: int | None = None) -> np.ndarray:
    """Equispaced grid on [0, max(x) + 4h] resolving the boundary.

    By default its points are at most h/2 apart: ceil((max(x) + 4h) /
    (h/2)) + 1 of them, but at least 16 and at most 65 536; beyond that
    cap the spacing exceeds h/2.  ``grid_points`` sets the count instead.
    """
    top = float(np.max(x)) + 4.0 * h
    if grid_points is None:
        grid_points = min(max(math.ceil(top / (0.5 * h)) + 1, 16),
                          _MAX_GRID_POINTS)
    if grid_points < 16:
        raise ValueError("grid needs at least 16 points")
    return np.linspace(0.0, top, grid_points)


# ---------------------------------------------------------------------------
# Bandwidth selection


def _mirror_quartiles(x: np.ndarray, bins: np.ndarray, counts: np.ndarray
                      ) -> tuple[float, float]:
    """``np.percentile(np.concatenate([x, -x]), [75, 25])``, bit for bit,
    from ``x`` alone.

    Sorted, the 2N-point mirror's top half is xs, the sorted sample, and
    numpy's linear method puts its 75th percentile at rank (2N - 1) * 0.75
    of the mirror, between xs[k] and xs[k + 1].  x_i's bin in ``bins`` is
    nondecreasing in x_i, so these lie in the bins where the cumulative
    ``counts`` pass k and k + 1, and only those bins' points are
    partitioned.  The rank's fraction is 0.25 or 0.75, never 0.5, so numpy
    takes the 25th percentile with the mirrored formula from the negated
    pair: it is exactly -q75.
    """
    n = x.size
    virtual = (2 * n - 1) * 0.75  # exact, as numpy computes it
    rank = math.floor(virtual)
    k, t = rank - n, virtual - rank
    cum = np.cumsum(counts)
    first, last = np.searchsorted(cum, [k, k + 1], side="right")
    k -= int(cum[first] - counts[first])  # rank among the gathered points
    parts = []
    for start in range(0, n, _BIN_CHUNK):
        b = bins[start:start + _BIN_CHUNK]
        parts.append(x[start:start + _BIN_CHUNK][(b >= first) & (b <= last)])
    part = np.concatenate(parts)
    part.partition([k, k + 1])
    a, b = float(part[k]), float(part[k + 1])
    q75 = a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
    return q75, -q75


def _pair_distance_counts(x: np.ndarray, nbins: int, bins: np.ndarray):
    """Binned counts of unordered pair distances in the mirrored sample
    {x_i} U {-x_i}, as used by the plug-in.

    Returns (counts, delta, x_counts) where counts[k] is the number of
    unordered pairs whose binned distance is k * delta, and x_counts[j]
    the number of x_i in bin j; ``bins`` receives each x_i's bin.  The
    mirror's range is [-m, m] with m = max|x|; x and -x are binned chunk
    by chunk with the float operations that binning the mirror would use.
    """
    hi = max(x.max(), -x.min())
    lo = -hi
    delta = (hi - lo) / nbins
    w = np.zeros((2, nbins), dtype=np.intp)  # x's bins, then -x's
    for start in range(0, x.size, _BIN_CHUNK):
        chunk = x[start:start + _BIN_CHUNK]
        halves = ((chunk, bins[start:start + _BIN_CHUNK]), (-chunk, None))
        for counts, (half, idx) in zip(w, halves):
            idx = np.minimum(((half - lo) / delta).astype(np.intp), nbins - 1,
                             out=idx)
            counts += np.bincount(idx, minlength=nbins)
    total = w.sum(axis=0).astype(float)
    cnt = np.correlate(total, total, mode="full")[nbins - 1:]
    cnt[0] = (cnt[0] - 2 * x.size) / 2.0
    return cnt, delta, w[0]


def _binned_functional(cnt, delta, n, h, hermite, power):
    """Binned estimate of a density functional from the Gaussian kernel
    derivative whose polynomial part, in u = (distance / h)^2, is
    ``hermite``, scaled by h^-``power``."""
    k = np.arange(cnt.size)
    u = (k * delta / h) ** 2
    mask = u < 1000.0
    term = np.exp(-0.5 * u[mask]) * hermite(u[mask])
    total = 2.0 * float(term @ cnt[mask]) + n * hermite(0.0)
    return total / (n * (n - 1.0) * h**power * _SQRT2PI)


def _hermite4(u):
    """He_4(x) = x^4 - 6 x^2 + 3 with u = x^2."""
    return u ** 2 - 6.0 * u + 3.0


def _hermite6(u):
    """He_6(x) = x^6 - 15 x^4 + 45 x^2 - 15 with u = x^2."""
    return u ** 3 - 15.0 * u ** 2 + 45.0 * u - 15.0


def _square_sum(x: np.ndarray) -> float:
    """``np.square(x).sum()``, bit for bit, from squares of at most
    ``_BIN_CHUNK`` values at a time.

    numpy sums a contiguous array pairwise: n > 128 values split at
    n // 2 - n // 2 % 8 and the two halves' sums are added.  Cutting x
    along that tree until a block fits keeps every addition.
    """
    if x.size <= _BIN_CHUNK:
        return float(np.square(x).sum())
    half = x.size // 2
    half -= half % 8
    return _square_sum(x[:half]) + _square_sum(x[half:])


def sheather_jones_bandwidth(x, nbins: int = 1000) -> tuple[float, str]:
    """Solve-the-equation plug-in bandwidth on the mirrored 2N sample.

    The input is the nonnegative (root-scale) sample; selection runs on
    {x_i} U {-x_i} so the returned bandwidth is the one to feed directly
    into ``reflection_kde``.  The mirror is never built: its quartiles,
    standard deviation (its mean is 0, so sqrt(mean(x^2)), the squares
    summed block by block along numpy's own pairwise tree) and binned
    pair counts all come from x.  Beyond x the solve holds 2 bytes a
    point for the pair counts' bins and scratch blocks of ``_BIN_CHUNK``
    values, never a second N-float array.  The quartiles are exact order
    statistics of x, found by partitioning only the points of the pair
    counts' bins that hold them (``_mirror_quartiles``).  The plug-in equation
    ``h = (R(k) / (n * S(alpha_2(h))))^(1/5)`` is solved by bisection on
    [h_silverman / 100, 100 * h_silverman] to 1e-8 relative tolerance;
    when the equation has no root there, Silverman's rule on the mirrored
    sample is returned.  The second value names the method used:
    "sheather_jones" or "silverman_fallback".
    """
    x = np.asarray(x, dtype=float)
    if x.size < 16:
        raise EmptySample("bandwidth selection needs at least 16 points")
    if np.ptp(x) == 0:  # exact: a constant sample can have std 1e-17
        raise ZeroVariance("sample has zero variance")
    n = 2 * x.size  # the mirror's size
    sd = math.sqrt(_square_sum(x) / x.size)
    bins = np.empty(x.size, np.min_scalar_type(-nbins))  # 2 bytes a point
    cnt, delta, x_counts = _pair_distance_counts(x, nbins, bins)
    q75, q25 = _mirror_quartiles(x, bins, x_counts)
    del bins
    iqr = q75 - q25
    if sd <= 0 or iqr <= 0:
        raise ZeroVariance("sample has zero variance")
    scale = min(sd, iqr / 1.349)
    h_silver = 0.9 * min(sd, iqr / 1.34) * n ** (-0.2)  # Silverman's rule

    a = 0.920 * scale * n ** (-1.0 / 7.0)
    b = 0.912 * scale * n ** (-1.0 / 9.0)
    sda = _binned_functional(cnt, delta, n, a, _hermite4, 5)
    tdb = -_binned_functional(cnt, delta, n, b, _hermite6, 7)
    if not (sda > 0 and tdb > 0):
        return h_silver, "silverman_fallback"

    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)
    alpha_const = 1.357 * (sda / tdb) ** (1.0 / 7.0)

    def fixed_point_gap(h):
        s = _binned_functional(cnt, delta, n, alpha_const * h ** (5.0 / 7.0),
                               _hermite4, 5)
        if s <= 0:
            return np.nan
        return (c1 / s) ** 0.2 - h

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
    h = 0.5 * (lo + hi)
    return h, "sheather_jones"


# ---------------------------------------------------------------------------
# ECDF and the estimation pipeline


def empirical_cdf(x) -> StepCDF:
    """Right-continuous ECDF with tied values merged."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    if n == 0:
        raise EmptySample("ECDF needs at least one observation")
    if np.isnan(xs[-1]):  # NaN sorts last
        raise ValueError("ECDF data must not be NaN")
    last = np.empty(n, dtype=bool)  # the last value of each run of ties
    np.not_equal(xs[1:], xs[:-1], out=last[:-1])
    last[-1] = True
    locations = xs[last]
    del xs
    cum = (np.flatnonzero(last) + 1) / n
    cum[-1] = 1.0
    return StepCDF(locations, cum)


def estimate_root_density(sample: SectionSample,
                          grid_points: int | None = None,
                          bandwidth: float | None = None) -> DensityEstimate:
    """Root transform, bandwidth selection and reflection KDE in one step.

    A caller that hands over its only reference to ``sample`` lends it
    the volumes' buffer: in 3D the roots are written over the volumes, so
    the N section values are held once from the sampler to the KDE.  A
    sample the caller still holds is copied and never changed; so is
    every sample on CPython 3.10, which keeps call arguments alive until
    the call returns, and on 3.14 (see ``_EXACT_REFCOUNTS``).
    """
    x, dim = sample.values, sample.dim
    del sample  # a handed-over sample is freed here
    x = _roots(x, dim)
    if bandwidth is None:
        h, method = sheather_jones_bandwidth(x)
    else:
        h, method = float(bandwidth), "fixed"
    return reflection_kde(x, h, default_grid(x, h, grid_points),
                          bandwidth_method=method)


# Kept for the benchmark, which binds these names here (the
# ``unfold-dodeca`` output check and the traced file writers); remove them
# in the next change to the benchmark.  Imported last: ``io`` needs StepCDF.
from .io import load_step_cdf_csv, save_density_csv, save_step_cdf_csv
