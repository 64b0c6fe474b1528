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
jumps at the observations is certified: a support-reduction solver
(constrained Newton steps on a small active set of atoms) raises the
log-likelihood monotonically and stops only when the Kiefer-Wolfowitz
gradient gap, which bounds the distance to the optimum, is at most the
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import (DensityEstimate, StepCDF, estimate_root_density,
                      root_transform)
from .errors import AllZeroLikelihood, InfiniteMean, ZeroLocation
from .geometry import ConvexBody
from .rng import RngStream
from .sampling import sample_iur_sections

START_ATOMS = 20  # evenly spaced candidates carrying the starting weights
ARMIJO = 1e-4  # share of the predicted log-likelihood gain a step must reach
MIN_STEP = 2.0 ** -40  # shortest line-search step before the solver gives up
_KERNEL_BLOCK = 1 << 16  # mixture-kernel entries computed per block


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
        from scipy.special import gammainc  # about 0.2 s of start-up

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


SizeDistribution = Exponential | Gamma | PointMass | StepCDF


def _check_atoms(steps: StepCDF) -> None:
    if (steps.locations <= 0).any():
        raise ZeroLocation("size atoms must be strictly positive")


def length_biased(h: SizeDistribution) -> SizeDistribution:
    """Size-weighted version of ``h``: the law of a sectioned particle's size.

    Exponential(r) becomes Gamma(2, r), Gamma(k, r) becomes Gamma(k+1, r),
    a point mass is unchanged, and step CDFs are reweighted by their atom
    locations.
    """
    if isinstance(h, StepCDF):
        _check_atoms(h)
    mean = h.mean()
    if not np.isfinite(mean) or mean <= 0:
        raise InfiniteMean("length biasing requires a finite positive mean")
    if isinstance(h, Exponential):
        return Gamma(2.0, h.rate)
    if isinstance(h, Gamma):
        return Gamma(h.shape + 1.0, h.rate)
    if isinstance(h, PointMass):
        return h
    if isinstance(h, StepCDF):
        return StepCDF.from_atoms(h.locations, h.weights * h.locations)
    raise TypeError(f"unsupported size distribution {type(h).__name__}")


def unbias(hb: SizeDistribution) -> SizeDistribution:
    """Exact inverse of ``length_biased`` for atomic distributions."""
    if isinstance(hb, PointMass):
        return hb
    if isinstance(hb, StepCDF):
        _check_atoms(hb)
        return StepCDF.from_atoms(hb.locations, hb.weights / hb.locations)
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
    0 outside (0, last grid point]; the stored density must integrate to
    1 within 1e-3.
    """

    estimate: DensityEstimate

    def __post_init__(self):
        total = self.estimate.integral()
        if abs(total - 1.0) > 1e-3:
            raise ValueError(
                f"reference density integrates to {total:.6f}, not 1"
            )

    @classmethod
    def from_body(cls, body: ConvexBody, size: int, rng: RngStream,
                  workers: int = 1) -> "ReferenceDensity":
        # handed over, not kept: in 3D the volumes go once the roots exist
        return cls(estimate_root_density(
            sample_iur_sections(body, size, rng, workers=workers)))

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        # the interpolant is already 0 past the last grid point
        out = np.asarray(self.estimate.evaluate(z))
        out[~(z > 0)] = 0.0  # NaN too
        return out


# ---------------------------------------------------------------------------
# Likelihood and the nonparametric MLE


def _mixture_kernel(s_obs: np.ndarray, atoms: np.ndarray,
                    reference: ReferenceDensity) -> np.ndarray:
    """k[i, j] = g(s_i / atom_j) / atom_j, the scale-mixture kernel.

    One n x m array, filled in blocks of rows: each block holds its
    ratios first, then g of them divided by the atoms, so beyond the
    kernel only one block's temporaries exist at a time.
    """
    kernel = np.empty((s_obs.size, atoms.size))
    rows = max(1, _KERNEL_BLOCK // atoms.size)
    for lo in range(0, s_obs.size, rows):
        block = kernel[lo:lo + rows]
        np.divide.outer(s_obs[lo:lo + rows], atoms, out=block)
        np.divide(reference.evaluate(block), atoms, out=block)
    return kernel


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
    """NPMLE output: fitted biased size distribution plus the run report.

    ``gap`` is max_j D_j - 1 over all candidate atoms at the returned
    weights, where D_j = (1/n) sum_i k_ij / mix_i.  The log-likelihood of
    the fit is within ``gap`` of the maximum.  ``support`` is the number
    of atoms with positive weight.
    """

    step_cdf: StepCDF
    iterations: int
    final_loglik: float
    converged: bool
    tol: float
    pruned_atoms: int
    loglik_trace: np.ndarray
    gap: float
    support: int

    def report(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_loglik": self.final_loglik,
            "converged": self.converged,
            "tol": self.tol,
            "pruned_atoms": self.pruned_atoms,
            "gap": self.gap,
            "support": self.support,
        }


def nnls(a, b, start=None) -> np.ndarray:
    """Nonnegative least squares: x >= 0 minimizing |a x - b|.

    Lawson & Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23).  It runs on the triangular factor R of the QR
    factorization of [a | b]: |a x - b| equals |R x - r| for R's first k
    columns and its last column r, so every step costs O(k^3) whatever
    the row count of ``a``.  ``start`` (boolean, one entry per column)
    names a passive set to begin from: columns whose least squares
    coefficient is not positive leave it until the rest are positive, and
    when its columns are singular the solver starts cold from x = 0.  On
    return the dual vector a^T (b - a x) is at most a rounding-level
    tolerance where x = 0, and about 0 where x > 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = a.shape
    factor = np.linalg.qr(np.column_stack([a, b]), mode="r")
    r, rb = factor[:, :k], factor[:, k]
    # rounding level of the dual a^T (b - a x)
    tol = (10.0 * max(m, k) * np.finfo(float).eps
           * np.abs(a).sum(axis=0).max() * np.abs(b).max())
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    if start is not None:
        # from x = 0 every nonpositive coefficient leaves the start set at
        # once, until the rest are positive: a valid state to go on from
        passive = np.array(start, dtype=bool)
        while passive.any():
            z = _passive_solution(r, rb, passive)
            if z is None:
                passive[:] = False
            elif (z[passive] > 0).all():
                x = z
                break
            else:
                passive &= z > 0
    for _ in range(3 * k):
        dual = r.T @ (rb - r @ x)
        # enter the column of largest dual that is independent of the
        # passive set and gets a positive coefficient
        for j in np.argsort(-dual):
            if not dual[j] > tol:
                return x
            if passive[j]:
                continue
            trial = passive.copy()
            trial[j] = True
            z = _passive_solution(r, rb, trial)
            if z is not None and z[j] > 0:
                break
        else:
            return x
        passive = trial
        # step back toward x until every passive coefficient is positive
        while not (z[passive] > 0).all():
            drop = np.flatnonzero(passive & (z <= 0))
            ratios = x[drop] / (x[drop] - z[drop])
            x += ratios.min() * (z - x)
            x[drop[ratios.argmin()]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
            z = _passive_solution(r, rb, passive)
            if z is None:
                return x
        x = z
    return x


def _passive_solution(r, rb, passive) -> np.ndarray | None:
    """Least squares solution on the passive columns, 0 elsewhere; None
    when those columns are numerically dependent."""
    p = int(np.count_nonzero(passive))
    z = np.zeros(r.shape[1])
    if p == 0:
        return z
    if p > r.shape[0]:
        return None
    factor = np.linalg.qr(np.column_stack([r[:, passive], rb]), mode="r")
    diag = np.abs(np.diag(factor[:p, :p]))
    if not diag.min() > 10.0 * p * np.finfo(float).eps * diag.max():
        return None
    z[passive] = np.linalg.solve(factor[:p, :p], factor[:p, p])
    return z


def check_stopping_rule(tol: float, max_iter: int) -> None:
    """Raise ValueError on a negative ``max_iter``, or on a ``tol`` below 0
    that no gap can reach (the weighted mean of D over the support is 1)."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not tol >= 0:  # also catches NaN
        raise ValueError(f"tol must be >= 0, got {tol}")


def check_observations(values: np.ndarray) -> None:
    """Raise ValueError on an empty array, ZeroLocation on a value that is
    not finite and positive."""
    if values.size == 0:
        raise ValueError("no observations")
    if not (np.isfinite(values) & (values > 0)).all():
        raise ZeroLocation("observations must be finite and positive")


def npmle_em(s_obs, reference: ReferenceDensity, tol: float = 1e-8,
             max_iter: int = 20000) -> UnfoldResult:
    """Certified nonparametric MLE of the biased size distribution.

    Candidate atoms are the observed values (duplicates merged).  The
    solver is support reduction in its constrained-Newton form (Wang 2007,
    JRSS B 69:185-198; Groeneboom, Jongbloed & Wellner 2008, Scand. J.
    Statist. 35:385-399).  Each iteration computes the gradient D over all
    candidates, adds the local maxima of D above 1 to the active set,
    maximizes the quadratic model of the log-likelihood over the simplex
    on that set by nonnegative least squares, drops atoms of zero weight
    and takes an Armijo backtracking step, so the log-likelihood never
    decreases.  ``converged`` is True only when the gap max_j D_j - 1 is
    at most ``tol``; after ``max_iter`` steps, or when no step gains, the
    current fit is returned with ``converged`` False and its gap.  The
    stopping rule and the observations are checked first.
    """
    check_stopping_rule(tol, max_iter)
    s_obs = np.sort(np.asarray(s_obs, dtype=float))
    check_observations(s_obs)
    atoms = np.unique(s_obs)
    n = s_obs.size
    kernel = _mixture_kernel(s_obs, atoms, reference)
    if (kernel.max(axis=1) <= 0).any():
        raise AllZeroLikelihood(
            "an observation has zero density under every candidate atom"
        )

    # start on a few spread atoms, plus each uncovered observation's best
    w = np.zeros(atoms.size)
    w[np.linspace(0, atoms.size - 1, START_ATOMS).astype(int)] = 1.0
    w[kernel[kernel @ w <= 0].argmax(axis=1)] = 1.0
    w /= w.sum()
    # Over the simplex |S x - 2| = |M x| with M = S - 2, and its minimizer
    # there is y / sum(y) for the nonnegative least squares solution y of
    # |M y|^2 + n (sum(y) - 1)^2, as in Lawson & Hanson's LDP reduction.
    rhs = np.zeros(n + 1)
    rhs[n] = np.sqrt(n)
    trace = []
    converged = False
    iterations = 0
    while True:
        active = np.flatnonzero(w)
        mix = kernel[:, active] @ w[active]
        trace.append(float(np.mean(np.log(mix))))
        grad = kernel.T @ (1.0 / mix) / n
        gap = float(grad.max()) - 1.0
        if gap <= tol:
            converged = True
            break
        if iterations == max_iter:
            break
        peaks = grad > 1.0
        peaks[1:] &= grad[1:] > grad[:-1]
        peaks[:-1] &= grad[:-1] >= grad[1:]
        cols = np.flatnonzero((w > 0) | peaks)
        # quadratic model of the log-likelihood at x: -|S x - 2|^2 / 2n
        # plus a constant, with S_ij = k_ij / mix_i
        columns = kernel[:, cols]
        model = np.empty((n + 1, cols.size))
        np.divide(columns, mix[:, None], out=model[:n])
        model[:n] -= 2.0
        model[n] = rhs[n]
        x = nnls(model, rhs, start=w[cols] > 0)
        target = np.zeros(atoms.size)
        target[cols] = x / x.sum()
        # The step must raise mean log(mix) - sum(w), the log-likelihood
        # on the simplex.  Near the optimum its gain is as small as the
        # rounding of log(mix) and of the weight normalizations, so the
        # gain is taken from the relative change of each mixture value,
        # and subtracting the change of sum(w) cancels that rounding.
        direction = target - w
        rate = columns @ direction[cols] / mix
        shift = float(direction.sum())
        slope = float(np.mean(rate)) - shift
        step = 1.0
        while slope > 0 and step >= MIN_STEP:
            change = step * rate
            if ((change > -1.0).all() and np.mean(np.log1p(change))
                    - step * shift >= ARMIJO * step * slope):
                break
            step /= 2.0
        else:
            break  # no ascent direction left
        w = (1.0 - step) * w + step * target
        iterations += 1

    keep = w > 0
    cdf = StepCDF.from_atoms(atoms[keep], w[keep])
    return UnfoldResult(
        step_cdf=cdf,
        iterations=iterations,
        final_loglik=trace[-1],
        converged=converged,
        tol=tol,
        pruned_atoms=int(np.count_nonzero(~keep)),
        loglik_trace=np.array(trace),
        gap=gap,
        support=int(np.count_nonzero(keep)),
    )
