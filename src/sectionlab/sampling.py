"""Sampling of random hyperplane sections of convex bodies.

Isotropic uniformly random (IUR) sections are drawn by rejection: the
body is centered at its centroid, enclosed in a sphere of radius R, a
direction is drawn uniformly on the sphere and an offset uniformly on
(0, R); proposals whose plane misses the body are rejected.  Accepted
section volumes are distributed like the volume of an IUR section.

Proposals are sharded over ``workers`` independent substreams, each
filling its own slice of one array in stream order.  Workers choose the
streams, and so the values; the usable cores choose only the speed.  The
calling thread draws every shard's batches in turn, queues each batch's
sections in pieces for ``cores - 1`` bare helper threads (none on one
core), draws and accept-tests the next batch meanwhile, from the same
shard or the next, and then computes the pieces still queued itself from
the queue's tail, as helpers take its head.  A new helper
starts on the caller's CPU and mostly stays there (one call used 0.97-1.00
CPU-s per wall s on 2 vCPUs), so it moves once to a CPU of its own, then
is unpinned; the caller's affinity is untouched.  Each value has the same
bits wherever a piece or chunk boundary falls or a thread runs, so a fixed
worker count gives the same results on any core count.  Each proposal
consumes exactly ``dim`` uniforms from its stream, which makes the draws
independent of the internal batch size.
"""

from __future__ import annotations

import os
import threading
from collections import deque
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
        # min, not an N-element mask; a NaN minimum fails the test too
        if self.values.size and not self.values.min() >= 0:
            raise ValueError("section volumes must be nonnegative")


def _directions_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Map uniform rows to isotropic directions.

    2D: angle phi = 2*pi*u0.  3D: longitude phi and cosine of the polar
    angle uniform on (-1, 1) from u1, the standard area-preserving
    construction.  cos(phi) and sin(phi) come from one tan of the half
    angle: with t = tan(pi*u0) they are (1 - t*t) / (1 + t*t) and
    (t + t) / (1 + t*t), within 2.3e-16 of np.cos and np.sin over 2e6
    uniforms.  t*t cannot overflow: for float u0, |t| is at most
    tan(pi * 0.5), about 1.6e16.  Each column is written in place, without
    the temporaries that stacking them would hold.
    """
    out = np.empty(u.shape)
    cos, sin = out[:, 0], out[:, 1]
    t = np.tan(np.multiply(np.pi, u[:, 0]))
    np.multiply(t, t, out=cos)
    d = cos + 1.0
    np.subtract(1.0, cos, out=cos)
    cos /= d
    np.add(t, t, out=sin)
    sin /= d
    if u.shape[1] == 3:
        x = out[:, 2]
        np.subtract(np.multiply(2.0, u[:, 1], out=x), 1.0, out=x)
        sin_om = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        cos *= sin_om
        sin *= sin_om
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
    mask = os.sched_getaffinity(0)
    cores = len(mask)
    cpu = _caller_cpu()
    spare = [] if cpu is None else sorted(mask - {cpu})
    # threads racing to fill the body's lazy caches compute equal arrays;
    # one core has no helpers, and computes each batch whole
    with _Helpers(cores - 1, mask, spare) as helpers:
        proposals = _draw(centered, radius, slices, streams, helpers,
                          _PIECES_PER_CORE * cores if cores > 1 else 1)
    return SectionSample(
        values=values,
        n_proposed=proposals,
        n_accepted=size,
        seed=rng.seed,
        body_label=body.label,
        dim=body.dim,
        workers=workers,
    )


def _caller_cpu() -> int | None:
    """The CPU this thread runs on, or None if unknown: field 39 of its
    stat, counted after the parenthesised name, which may hold spaces."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rpartition(")")[2].split()[36])
    except OSError:
        return None


def _leave_cpu(mask, spare) -> None:
    """Move a new helper once to a CPU of its own, then unpin it."""
    try:
        os.sched_setaffinity(0, {spare.pop()})
        os.sched_setaffinity(0, mask)
    except (OSError, IndexError):
        pass


def _fill(out, body, thetas, offsets) -> None:
    out[:] = section_volumes(body, thetas, offsets)


class _Helpers:
    """``n`` threads that leave the caller's CPU, then compute queued
    ``_fill`` pieces from the head of the queue.  Leaving the block drops
    the queue and joins every helper; only then does an error, a helper's
    first one included, reach the caller."""

    def __init__(self, n, mask, spare):
        self.queue, self.busy, self.error, self.closed = deque(), 0, None, False
        self.cond = threading.Condition()
        self.threads = [threading.Thread(target=self._run, args=(mask, spare),
                                         name=f"sampler-helper-{i}")
                        for i in range(n)]
        for thread in self.threads:
            thread.start()

    def _run(self, mask, spare) -> None:
        _leave_cpu(mask, spare)
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self.queue or self.closed)
                if not self.queue:
                    return
                args = self.queue.popleft()
                self.busy += 1
            try:
                _fill(*args)
            except BaseException as exc:
                with self.cond:
                    self.error = self.error or exc
                    self.queue.clear()
            with self.cond:
                self.busy -= 1
                self.cond.notify_all()

    def put(self, pieces) -> None:
        with self.cond:
            self.queue.extend(pieces)
            self.cond.notify_all()

    def finish(self) -> None:
        """Compute the queued pieces here, newest first; wait for the rest."""
        while True:
            with self.cond:
                self.cond.wait_for(lambda: self.queue or not self.busy)
                if self.error is not None:
                    raise self.error
                if not self.queue:
                    return
                args = self.queue.pop()
            _fill(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        with self.cond:
            self.queue.clear()
            self.closed = True
            self.cond.notify_all()
        for thread in self.threads:
            thread.join()


def _draw(body, radius, slices, streams, helpers, split) -> int:
    """Fill each slice with accepted section volumes drawn from its
    stream, in turn; return the proposals.

    Each batch's sections are queued on the ``helpers`` pool in ``split``
    pieces while this thread draws and accept-tests the next batch, from
    the same slice or the next; then it computes the pieces still queued
    itself.  At most one batch is in flight, so memory stays bounded.
    """
    nprop = 0
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
            helpers.finish()
            piece = max(1, -(-len(offsets) // split))
            helpers.put([(dest[lo:lo + piece], body, thetas[lo:lo + piece],
                          offsets[lo:lo + piece])
                         for lo in range(0, len(offsets), piece)])
    helpers.finish()
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
