"""Density and distribution estimates from section samples.

The pipeline: take the (n-1)-th root of the section volumes, estimate
their density with a boundary-corrected Gaussian KDE that mirrors every
kernel term across 0 (the reflection method, so no mass is placed below
zero), pick the bandwidth with the Sheather-Jones solve-the-equation
plug-in applied to the mirrored sample of size 2N, and if the volume
scale is wanted, change variables back pointwise.  Neither step builds
the mirror, and both bin the sample linearly with ``_half_bins``: the
plug-in takes the mirror's quartiles and pair counts from its lattice,
and the KDE folds each lattice node's weight onto its mirror node.

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
_HERMITE4 = (-6.0, 3.0)  # He_4(x) = u^2 - 6 u + 3 with u = x^2
_HERMITE6 = (-15.0, 45.0, -15.0)  # He_6(x) = u^3 - 15 u^2 + 45 u - 15

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


def _mirror_quartiles(x: np.ndarray, weights: np.ndarray, delta: float
                      ) -> tuple[float, float]:
    """``np.percentile(np.concatenate([x, -x]), [75, 25])``, bit for bit,
    from ``x`` and its ``weights`` on the nodes k * delta (``_half_bins``).

    numpy puts the mirror's 75th percentile between the sample's order
    statistics xs[k] and xs[k + 1].  The weight C_j of nodes 0..j lies
    between the counts of points below j * delta and (j + 1) * delta, so
    xs[k] >= j * delta for the last C_j <= k and xs[k + 1] < (j + 1) delta
    for the first C_j > k + 1.5, to a node of slack for rounding; only the
    points in that bracket are partitioned.  The 25th is exactly -q75.
    """
    n = x.size
    virtual = (2 * n - 1) * 0.75  # exact, as numpy computes it
    rank = math.floor(virtual)
    k, t = rank - n, virtual - rank
    first, last = np.searchsorted(np.cumsum(weights), [k, k + 1.5],
                                  side="right")
    lo, hi = max(int(first) - 2, 0) * delta, (int(last) + 2) * delta
    parts = []
    for start in range(0, n, _BIN_CHUNK):
        chunk = x[start:start + _BIN_CHUNK]
        k -= int(np.count_nonzero(chunk < lo))
        parts.append(chunk[(chunk >= lo) & (chunk < hi)])
    part = np.concatenate(parts)
    part.partition([k, k + 1])
    a, b = float(part[k]), float(part[k + 1])
    q75 = a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
    return q75, -q75


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length numpy's FFT takes fast."""
    return min(p << (-(-n // p) - 1).bit_length()
               for p in (3 ** i * 5 ** j for i in range(12) for j in range(8)))


def _mirror_pair_counts(w: np.ndarray) -> np.ndarray:
    """Binned pair counts of the mirrored sample at the lags 0..2 top, from
    the sample's weights w on the nodes 0..top (``_half_bins``).

    The mirror's lattice holds w_|j| on node j and 2 w_0 on node 0, so its
    autocorrelation is A(k) = 2 sum_j w_j w_{j+k} + sum_{a+b=k} w_a w_b,
    plus w_0^2 at k = 0: one FFT of w and one inverse, of length at least
    3 top + 1 so that the wrapped negative lags miss those kept.  A(0) is
    halved, so 2 sum_k counts[k] L(k delta) sums L over all ordered pairs.
    """
    size = _fft_length(3 * w.size - 2)  # 3 top + 1
    f = np.fft.rfft(w, size)
    counts = np.fft.irfft(f * (2.0 * f.conj() + f), size)[:2 * w.size - 1]
    counts[0] = 0.5 * (counts[0] + w[0] ** 2)
    return counts


def _binned_functional(counts, lag2, n, h, hermite, power):
    """Binned estimate of a density functional from the Gaussian kernel
    derivative whose monic polynomial part in u = (distance / h)^2 has the
    lower coefficients ``hermite``, scaled by h^-``power``, at the lags'
    squared distances ``lag2``; lags with u >= 1000 weigh < e^-500."""
    u = lag2[:np.searchsorted(lag2, 1000.0 * h * h)] * (1.0 / (h * h))
    term = u + hermite[0]
    for c in hermite[1:]:  # Horner's rule
        term *= u
        term += c
    term *= np.exp(-0.5 * u)
    total = 2.0 * float(term @ counts[:u.size])
    return total / (n * (n - 1.0) * h**power * _SQRT2PI)


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


def _sj_root(weights, delta, n, scale, h_silver) -> tuple[float, str]:
    """The plug-in's root from the sample's weights on the nodes k * delta,
    to 1e-8 relative; h_silver if none is in (h_silver/1000, 100 h_silver)."""
    counts = _mirror_pair_counts(weights)
    lag2 = (np.arange(counts.size) * delta) ** 2
    a = 0.920 * scale * n ** (-1.0 / 7.0)
    b = 0.912 * scale * n ** (-1.0 / 9.0)
    sda = _binned_functional(counts, lag2, n, a, _HERMITE4, 5)
    tdb = -_binned_functional(counts, lag2, n, b, _HERMITE6, 7)
    if not (sda > 0 and tdb > 0):
        return h_silver, "silverman_fallback"
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)
    alpha_const = 1.357 * (sda / tdb) ** (1.0 / 7.0)

    def log_gap(t):  # log of the equation's right side at h = e^t, less t
        s = _binned_functional(counts, lag2, n,
                               alpha_const * math.exp(t * 5.0 / 7.0),
                               _HERMITE4, 5)
        return 0.2 * math.log(c1 / s) - t if s > 0 else math.nan

    # false position in t = log h, where the gap is nearly linear; an end
    # kept twice has its gap halved (Illinois), and each step lands 4e-9 in
    lo, hi = math.log(h_silver / 1000.0), math.log(h_silver * 100.0)
    flo, fhi, kept = log_gap(lo), log_gap(hi), None
    if not (math.isfinite(flo) and math.isfinite(fhi) and flo * fhi < 0):
        return h_silver, "silverman_fallback"
    while hi - lo > 1e-8:
        t = min(max(lo - flo * (hi - lo) / (fhi - flo), lo + 4e-9), hi - 4e-9)
        ft = log_gap(t)
        if not math.isfinite(ft):
            return h_silver, "silverman_fallback"
        if (ft > 0) == (flo > 0):
            lo, flo, fhi = t, ft, fhi * (0.5 if kept == "hi" else 1.0)
            kept = "hi"
        else:
            hi, fhi, flo = t, ft, flo * (0.5 if kept == "lo" else 1.0)
            kept = "lo"
    return math.exp(0.5 * (lo + hi)), "sheather_jones"


def sheather_jones_bandwidth(x, nbins: int = 1 << 16) -> tuple[float, str]:
    """Solve-the-equation plug-in bandwidth on the mirrored 2N sample.

    The input is the nonnegative (root-scale) sample; selection runs on
    {x_i} U {-x_i} (Sheather & Jones 1991), so h feeds ``reflection_kde``
    directly.  The mirror is never built: its standard deviation is
    sqrt(mean(x^2)), summed along numpy's own pairwise tree, and x is
    linearly binned with the KDE's ``_half_bins`` on delta = 2 max(x) /
    ``nbins``, whose weights give the mirror's exact quartiles and, by
    FFT, its binned pair counts (Silverman 1982, Wand 1994).

    Linear binning moves h by about 0.0075 (delta / h)^2 relative, so the
    solve needs delta <= h / 8, not the KDE's h / 32.  When the root h
    misses that, x is binned once more, on delta = h / 16 but at most 16
    times finer than before, which bounds the memory, and solved again.
    The equation ``h = (R(k) / (n * S(alpha_2(h))))^(1/5)`` is solved by
    false position in log h; without a root, Silverman's rule on the
    mirror is returned, and the second value, the method used, says
    "silverman_fallback" instead of "sheather_jones".
    """
    x = np.asarray(x, dtype=float)
    if x.size < 16:
        raise EmptySample("bandwidth selection needs at least 16 points")
    low, m = float(x.min()), float(x.max())
    if not low >= 0:  # NaN too
        raise ValueError("bandwidth selection expects nonnegative data")
    if m == low:  # exact: a constant sample can have std 1e-17
        raise ZeroVariance("sample has zero variance")
    n = 2 * x.size  # the mirror's size
    sd = math.sqrt(_square_sum(x) / x.size)
    delta = 2.0 * m / nbins
    weights = _half_bins(x, delta, int(m / delta) + 1)
    q75, q25 = _mirror_quartiles(x, weights, delta)
    iqr = q75 - q25
    if sd <= 0 or iqr <= 0:
        raise ZeroVariance("sample has zero variance")
    scale = min(sd, iqr / 1.349)
    h_silver = 0.9 * min(sd, iqr / 1.34) * n ** (-0.2)  # Silverman's rule
    h, method = _sj_root(weights, delta, n, scale, h_silver)
    if delta > h / 8.0:
        delta = max(h, delta) / 16.0
        weights = _half_bins(x, delta, int(m / delta) + 1)
        h, method = _sj_root(weights, delta, n, scale, h_silver)
    return h, method


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
