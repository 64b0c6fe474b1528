"""Sampling of random hyperplane sections of convex bodies.

Isotropic uniformly random (IUR) sections are drawn by rejection: the
body is centered at its centroid, enclosed in a sphere of radius R, a
direction is drawn uniformly on the sphere and an offset uniformly on
(0, R); proposals whose plane misses the body are rejected.  Accepted
section volumes are distributed like the volume of an IUR section.

Proposals are sharded over ``workers`` independent substreams, each run
in a thread that fills its own slice of one array in stream order, so
results are reproducible for a fixed worker count regardless of schedule.
Each proposal consumes exactly ``dim`` uniforms from its stream, which
makes the draws independent of the internal batch size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample
from .geometry import (ConvexBody, section_volumes, translate_body,
                       validate_body)
from .rng import RngStream

_BATCH = 1 << 15


@dataclass
class SectionSample:
    """A seeded batch of section volumes with acceptance bookkeeping."""

    values: np.ndarray
    n_proposed: int
    n_accepted: int
    seed: int
    body_label: str
    dim: int
    workers: int = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.n_accepted != len(self.values):
            raise ValueError("n_accepted must equal len(values)")
        if self.n_accepted > self.n_proposed:
            raise ValueError("cannot accept more than proposed")
        if not (self.values >= 0).all():  # also catches NaN
            raise ValueError("section volumes must be nonnegative")


def _directions_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Map uniform rows to isotropic directions.

    2D: angle 2*pi*u0.  3D: longitude 2*pi*u0 and cosine of the polar
    angle uniform on (-1, 1) from u1, the standard area-preserving
    construction.
    """
    dim = u.shape[1]
    phi = 2.0 * np.pi * u[:, 0]
    if dim == 2:
        return np.column_stack([np.cos(phi), np.sin(phi)])
    x = 2.0 * u[:, 1] - 1.0
    sin_om = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    return np.column_stack([sin_om * np.cos(phi), sin_om * np.sin(phi), x])


def sample_directions(dim: int, size: int, rng: RngStream) -> np.ndarray:
    """(size, dim) isotropic unit vectors from one stream."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    gen = rng.generator()
    return _directions_from_uniforms(gen.random((size, dim)))


def enclosing_radius(body: ConvexBody) -> float:
    """Radius of the centroid-centered ball enclosing the body."""
    if body.kind == "ball":
        return float(body.radius)
    d = body.vertices - body.centroid
    return float(np.sqrt((d * d).sum(axis=1).max()))


def sample_iur_sections(body: ConvexBody, size: int, rng: RngStream,
                        workers: int = 1) -> SectionSample:
    """Exactly ``size`` i.i.d. IUR section volumes of ``body``.

    The body is recentered at its centroid and enclosed in the smallest
    centroid-centered sphere before rejection sampling.  The values form
    ``min(workers, size)`` slices, the first ``size % workers`` one longer
    than the rest; slice ``w`` is drawn from substream ``rng.derive(w)``.
    The shards run in a pool of threads, at most one per usable core, so
    the values depend on ``workers`` but not on the core count.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    validate_body(body)
    centered = translate_body(body, -body.centroid)
    radius = enclosing_radius(centered)

    values = np.empty(size)
    shards = min(workers, size)
    args = ([centered] * shards, [radius] * shards,
            np.array_split(values, shards),  # views, longest first
            [rng.derive(w) for w in range(shards)])
    threads = min(shards, len(os.sched_getaffinity(0)))
    if threads == 1:
        proposals = list(map(_worker_draws, *args))
    else:
        # imported here: about 10 ms at start-up that serial runs never need.
        # Threads racing to fill the body's lazy caches compute equal arrays.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            proposals = list(pool.map(_worker_draws, *args))
    return SectionSample(
        values=values,
        n_proposed=sum(proposals),
        n_accepted=size,
        seed=rng.seed,
        body_label=body.label,
        dim=body.dim,
        workers=workers,
    )


def _worker_draws(body, radius, out, stream) -> int:
    """Fill ``out`` with accepted section volumes; return the proposals."""
    gen = stream.generator()
    dim = body.dim
    quota = len(out)
    got, nprop = 0, 0
    while got < quota:
        u = gen.random((_BATCH, dim))
        thetas = _directions_from_uniforms(u)
        offsets = radius * u[:, dim - 1]
        if body.kind == "ball":
            hits = offsets <= body.radius  # always true: radius == R
        else:
            # a fast BLAS product only decides acceptance: its rounding
            # depends on the batch, so section_volumes does not reuse it
            heights = body.vertices @ thetas.T
            hits = ((offsets >= heights.min(axis=0))
                    & (offsets <= heights.max(axis=0)))
        csum = np.cumsum(hits)
        if csum[-1] >= quota - got:
            # stop at the proposal delivering the last needed acceptance
            last = int(np.searchsorted(csum, quota - got))
            hits[last + 1:] = False
            nprop += last + 1
        else:
            nprop += _BATCH
        i = np.nonzero(hits)[0]
        out[got:got + i.size] = section_volumes(body, thetas[i], offsets[i])
        got += i.size
    return nprop


def acceptance_estimate(sample: SectionSample) -> float:
    """Fraction of proposals accepted; estimates mean width / (2 R)."""
    if sample.n_proposed <= 0:
        raise EmptySample("sample contains no proposals")
    return sample.n_accepted / sample.n_proposed
