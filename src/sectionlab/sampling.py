"""Sampling of random hyperplane sections of convex bodies.

Isotropic uniformly random (IUR) sections are drawn by rejection: the
body is centered at its centroid, enclosed in a sphere of radius R, a
direction is drawn uniformly on the sphere and an offset uniformly on
(0, R); proposals whose plane misses the body are rejected.  Accepted
section volumes are distributed like the volume of an IUR section.

Proposals are sharded over ``workers`` independent substreams, each
filling its own slice of one array in stream order.  Workers choose the
streams, and so the values; the usable cores choose only the speed.  The
calling thread draws every shard's batches in turn and, on several cores,
queues each batch's sections in pieces for ``cores - 1`` helper threads,
draws and accept-tests the next batch meanwhile, from the same shard or
the next, and then computes the pieces still queued itself.  Each value
has the same bits wherever a piece or chunk boundary falls, so a fixed
worker count gives the same results on any core count.  Each proposal
consumes exactly ``dim`` uniforms from its stream, which makes the draws
independent of the internal batch size.
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
# each batch goes to the helpers in this many pieces per core, fine
# enough that the pieces still queued once the next batch is drawn, which
# the drawing thread computes itself, balance the threads' work
_PIECES_PER_CORE = 4


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
    construction.  Each column is written in place, without the
    temporaries that stacking the columns would hold; in 2D both come
    from one complex exp(i phi), whose parts are cos(phi) and sin(phi).
    """
    dim = u.shape[1]
    phi = 2.0 * np.pi * u[:, 0]
    if dim == 2:
        z = np.multiply(1j, phi)
        return np.exp(z, out=z).view(float).reshape(-1, 2)
    out = np.empty(u.shape)
    x = 2.0 * u[:, 1] - 1.0
    sin_om = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    np.multiply(sin_om, np.cos(phi), out=out[:, 0])
    np.multiply(sin_om, np.sin(phi), out=out[:, 1])
    out[:, 2] = x
    return out


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
    One thread draws the slices in turn, and the sections are computed on
    every usable core, so the values depend on ``workers`` but not on the
    core count.
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
    slices = np.array_split(values, shards)  # views, longest first
    streams = [rng.derive(w) for w in range(shards)]
    cores = len(os.sched_getaffinity(0))
    if cores == 1:
        proposals = _draw(centered, radius, slices, streams)
    else:
        # imported here: about 10 ms at start-up that serial runs never
        # need.  Threads racing to fill the body's lazy caches compute
        # equal arrays.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(cores - 1) as helpers:
            proposals = _draw(centered, radius, slices, streams, helpers,
                              _PIECES_PER_CORE * cores)
    return SectionSample(
        values=values,
        n_proposed=proposals,
        n_accepted=size,
        seed=rng.seed,
        body_label=body.label,
        dim=body.dim,
        workers=workers,
    )


def _fill(out, body, thetas, offsets) -> None:
    out[:] = section_volumes(body, thetas, offsets)


def _finish(pieces) -> None:
    """Compute the pieces no helper has started here; wait for the rest.

    Helpers start pieces in submission order, so once a piece cannot be
    cancelled every earlier one has started too.
    """
    for task, args in reversed(pieces):
        if task.cancel():
            _fill(*args)
        else:
            task.result()  # re-raises a helper's error


def _draw(body, radius, slices, streams, helpers=None, split=1) -> int:
    """Fill each slice with accepted section volumes drawn from its
    stream, in turn; return the proposals.

    With a pool of ``helpers``, each batch's sections are queued there in
    ``split`` pieces while this thread draws and accept-tests the next
    batch, from the same slice or the next; then it computes the pieces
    still queued itself.  At most one batch is in flight, so memory stays
    bounded.
    """
    nprop = 0
    pieces = []
    # reused by every batch: with it and the stacked directions allocated
    # afresh, a cube batch freed more at once than glibc's dynamic trim
    # threshold, so its pages went back to the OS and were faulted in
    # again on every batch (7x the minor faults on 3e6 cube sections)
    u = np.empty((_BATCH, body.dim))
    for out, stream in zip(slices, streams):
        gen = stream.generator()
        got = 0
        while got < len(out):
            thetas, offsets, proposed = _accepted_batch(
                gen, body, radius, len(out) - got, u)
            nprop += proposed
            dest = out[got:got + len(offsets)]
            got += len(offsets)
            if helpers is None:
                _fill(dest, body, thetas, offsets)
                continue
            _finish(pieces)
            pieces = []
            piece = max(1, -(-len(offsets) // split))
            for lo in range(0, len(offsets), piece):
                args = (dest[lo:lo + piece], body, thetas[lo:lo + piece],
                        offsets[lo:lo + piece])
                pieces.append((helpers.submit(_fill, *args), args))
    _finish(pieces)
    return nprop


def _accepted_batch(gen, body, radius, wanted, u):
    """Directions and offsets of one batch's accepted planes, at most
    ``wanted`` of them, and the proposals that delivered them.  The
    uniforms go into at most ``2 * wanted`` rows of ``u``: every builtin
    body accepts at least 0.82 of its proposals, so one such batch usually
    fills the shard."""
    dim = body.dim
    u = u[:2 * wanted]
    gen.random(out=u)
    thetas = _directions_from_uniforms(u)
    offsets = radius * u[:, dim - 1]
    # offsets are >= 0 and the centroid is interior, so a plane meets the
    # body when its offset is at most the support.  The BLAS product's
    # rounding depends on the batch, so section_volumes does not reuse it.
    if body.kind == "ball":
        support = body.radius  # always hit: radius == R
    else:
        support = (body.vertices @ thetas.T).max(axis=0)
    i = np.flatnonzero(offsets <= support)[:wanted]
    # stop at the proposal delivering the last needed acceptance
    proposed = len(u) if i.size < wanted else int(i[-1]) + 1
    return np.take(thetas, i, axis=0), np.take(offsets, i), proposed


def acceptance_estimate(sample: SectionSample) -> float:
    """Fraction of proposals accepted; estimates mean width / (2 R)."""
    if sample.n_proposed <= 0:
        raise EmptySample("sample contains no proposals")
    return sample.n_accepted / sample.n_proposed
