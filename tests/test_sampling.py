import math

import numpy as np
import pytest

from sectionlab.errors import EmptySample
from sectionlab.io import (
    load_sample_csv,
    load_sample_json,
    save_sample_csv,
    save_sample_json,
    write_json,
)
from sectionlab.oracles import square_chord_cdf
from sectionlab.rng import RngStream
from sectionlab.sampling import (
    SectionSample,
    acceptance_estimate,
    enclosing_radius,
    sample_directions,
    sample_iur_sections,
)
from sectionlab.validation import ks_vs_cdf


@pytest.fixture
def fake_setaffinity(monkeypatch):
    """Record ``os.sched_setaffinity`` calls as (thread, pid, CPUs) instead
    of making them, so fake CPU ids never reach the kernel."""
    import os
    import threading

    calls = []

    def record(pid, mask):
        calls.append((threading.get_ident(), pid, set(mask)))

    monkeypatch.setattr(os, "sched_setaffinity", record)
    return calls


def record_pools(monkeypatch):
    """Record the helper count of every pool the sampler starts."""
    import sectionlab.sampling as sampling

    pools = []

    class RecordingHelpers(sampling._Helpers):
        def __init__(self, n, mask, spare):
            pools.append(n)
            super().__init__(n, mask, spare)

    monkeypatch.setattr(sampling, "_Helpers", RecordingHelpers)
    return pools


class TestDirections:
    def test_unit_norm(self):
        for dim in (2, 3):
            dirs = sample_directions(dim, 1000, RngStream(0))
            assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_isotropy_moments_3d(self):
        dirs = sample_directions(3, 1_000_000, RngStream(1))
        means = dirs.mean(axis=0)
        assert (np.abs(means) < 0.004).all()  # SE ~ 0.00058
        z2 = (dirs[:, 2] ** 2).mean()
        assert 0.330 < z2 < 0.337  # E[u3^2] = 1/3

    def test_isotropy_moments_2d(self):
        dirs = sample_directions(2, 1_000_000, RngStream(2))
        assert (np.abs(dirs.mean(axis=0)) < 0.004).all()

    def test_determinism(self):
        a = sample_directions(2, 100, RngStream(7))
        b = sample_directions(2, 100, RngStream(7))
        assert np.array_equal(a, b)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            sample_directions(4, 10, RngStream(0))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_directions_are_the_half_angle_map_bit_for_bit(self, dim):
        from sectionlab.sampling import _directions_from_uniforms

        u = np.random.default_rng(3).random((200_000, dim))
        u[:8, 0] = [0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 2.0 ** -53,
                    1.0 - 2.0 ** -53]
        dirs = _directions_from_uniforms(u)
        t = np.tan(np.pi * u[:, 0])
        cos = (1.0 - t * t) / (1.0 + t * t)
        sin = (t + t) / (1.0 + t * t)
        expected = np.column_stack([cos, sin])
        if dim == 3:
            x = 2.0 * u[:, 1] - 1.0
            r = np.sqrt(np.maximum(1.0 - x * x, 0.0))
            expected = np.column_stack([r * cos, r * sin, x])
        assert dirs.shape == u.shape and dirs.flags.c_contiguous
        assert np.array_equal(dirs.view(np.int64), expected.view(np.int64))
        # at most 2 ulp of 1 from the cos and sin of phi = 2 pi u0
        phi = 2.0 * np.pi * u[:, 0]
        assert np.abs(cos - np.cos(phi)).max() <= 2 * np.spacing(1.0)
        assert np.abs(sin - np.sin(phi)).max() <= 2 * np.spacing(1.0)


class TestIurSampling:
    def test_ball_accepts_everything(self, ball3):
        sample = sample_iur_sections(ball3, 50_000, RngStream(1))
        assert acceptance_estimate(sample) == 1.0
        assert (sample.values > 0).all()
        assert sample.values.max() <= math.pi

    def test_cube_acceptance_rate(self, cube):
        sample = sample_iur_sections(cube, 200_000, RngStream(11))
        rate = acceptance_estimate(sample)
        expected = 1.5 / math.sqrt(3.0)  # mean width over sphere diameter
        assert rate == pytest.approx(expected, abs=0.005)

    def test_enclosing_radius(self, cube, ball3):
        assert enclosing_radius(cube) == pytest.approx(math.sqrt(3.0) / 2.0)
        assert enclosing_radius(ball3) == 1.0

    def test_square_diameter_bound(self, square):
        sample = sample_iur_sections(square, 1_000_000, RngStream(3))
        assert sample.values.max() <= math.sqrt(2.0)
        assert sample.values.max() > 1.41

    def test_bit_identical_reruns(self, cube):
        one = sample_iur_sections(cube, 2000, RngStream(42))
        two = sample_iur_sections(cube, 2000, RngStream(42))
        assert np.array_equal(one.values, two.values)
        assert one.n_proposed == two.n_proposed

    def test_batch_size_does_not_change_draws(self, cube, dodecahedron,
                                              monkeypatch):
        # the dodecahedron and the 7-gon have vertex coordinates that are
        # not binary fractions, where a matrix product's rounding would
        # depend on a plane's position in its batch
        import sectionlab.sampling as sampling
        from sectionlab.geometry import builtin_body

        bodies = (cube, dodecahedron, builtin_body("polygon7"))
        runs = [(b, w) for b in bodies for w in (1, 997)]
        first = [sample_iur_sections(b, 20000, RngStream(42), workers=w)
                 for b, w in runs]
        monkeypatch.setattr(sampling, "_BATCH", 311)
        for (body, workers), one in zip(runs, first):
            two = sample_iur_sections(body, 20000, RngStream(42),
                                      workers=workers)
            assert np.array_equal(one.values, two.values), body.label
            assert one.n_proposed == two.n_proposed

    def test_batches_sized_from_the_quota(self, cube, monkeypatch):
        # one section per shard: about two proposals each, not a full batch
        import sectionlab.sampling as sampling

        rows = []
        real = sampling._directions_from_uniforms

        def spy(u):
            rows.append(len(u))
            return real(u)

        monkeypatch.setattr(sampling, "_directions_from_uniforms", spy)
        sample_iur_sections(cube, 997, RngStream(3), workers=997)
        assert sum(rows) <= 8 * 997

    def test_worker_merge_reproducible(self, cube):
        one = sample_iur_sections(cube, 2000, RngStream(42), workers=4)
        two = sample_iur_sections(cube, 2000, RngStream(42), workers=4)
        assert np.array_equal(one.values, two.values)
        solo = sample_iur_sections(cube, 2000, RngStream(42))
        assert not np.array_equal(one.values, solo.values)

    @pytest.mark.parametrize("workers", [2, 3, 64])
    def test_pooled_shards_match_serial_loop(self, dodecahedron, monkeypatch,
                                             fake_setaffinity, workers):
        import os
        import sys

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = sample_iur_sections(dodecahedron, 3000, RngStream(8),
                                     workers=workers)
        pools = record_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pooled = sample_iur_sections(dodecahedron, 3000, RngStream(8),
                                         workers=workers)
        finally:
            sys.setswitchinterval(interval)
        # the calling thread draws every shard beside cores - 1 helpers
        assert pools == [1]
        assert np.array_equal(pooled.values, serial.values)
        assert pooled.n_proposed == serial.n_proposed

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_spare_cores_match_serial_loop(self, square, dodecahedron,
                                           monkeypatch, fake_setaffinity,
                                           cores, workers):
        # small batches, so that many batches are in flight, shard
        # boundaries fall inside the pipeline and the drawing thread
        # computes some pieces itself; every usable core computes
        # sections for any shard count
        import os
        import sys

        import sectionlab.sampling as sampling
        from sectionlab.geometry import builtin_body

        monkeypatch.setattr(sampling, "_BATCH", 997)
        bodies = (square, dodecahedron, builtin_body("polygon7"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = [sample_iur_sections(b, 20000, RngStream(9), workers=workers)
                  for b in bodies]
        pools = record_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            pooled = [sample_iur_sections(b, 20000, RngStream(9),
                                          workers=workers) for b in bodies]
        finally:
            sys.setswitchinterval(interval)
        for one, two in zip(serial, pooled):
            assert np.array_equal(one.values, two.values), one.body_label
            assert one.n_proposed == two.n_proposed
        # the calling thread draws every shard beside cores - 1 helpers,
        # none on one core
        assert pools == [cores - 1] * 3

    def test_helper_error_reaches_the_caller(self, cube, monkeypatch,
                                             fake_setaffinity):
        import os
        import threading

        import sectionlab.sampling as sampling

        class KernelFault(ValueError):
            pass

        real_kernel = sampling.section_volumes
        raised_in = []

        def faulty_kernel(body, thetas, offsets):
            thread = threading.current_thread()
            if thread is not threading.main_thread():
                raised_in.append(thread.name)
                raise KernelFault("kernel failed in a helper")
            return real_kernel(body, thetas, offsets)

        monkeypatch.setattr(sampling, "_BATCH", 997)
        monkeypatch.setattr(sampling, "section_volumes", faulty_kernel)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        before = set(threading.enumerate())
        for workers in (1, 2):
            raised_in.clear()
            with pytest.raises(KernelFault):
                sample_iur_sections(cube, 20000, RngStream(3),
                                    workers=workers)
            assert raised_in[0].startswith("sampler-helper-"), workers
            # no helper left running
            assert set(threading.enumerate()) == before, workers

    def test_extra_sections_go_to_the_first_shards(self, cube):
        # 10 sections over 3 workers: slices of 4, 3 and 3 sections, drawn
        # from substreams 0, 1 and 2 and laid out in that order
        from sectionlab.geometry import translate_body
        from sectionlab.sampling import _draw, _Helpers

        centered = translate_body(cube, -cube.centroid)
        radius = enclosing_radius(centered)
        slices, proposals = [], 0
        for w, quota in enumerate((4, 3, 3)):
            out = np.empty(quota)
            with _Helpers(0, set(), []) as helpers:  # this thread alone
                proposals += _draw(centered, radius, [out],
                                   [RngStream(5).derive(w)], helpers, 1)
            slices.append(out)
        sample = sample_iur_sections(cube, 10, RngStream(5), workers=3)
        assert np.array_equal(sample.values, np.concatenate(slices))
        assert sample.n_proposed == proposals

    def test_more_workers_than_sections(self, cube):
        # only the non-empty shards are built, one per section
        many = sample_iur_sections(cube, 5, RngStream(4), workers=10**6)
        five = sample_iur_sections(cube, 5, RngStream(4), workers=5)
        assert np.array_equal(many.values, five.values)
        assert many.n_proposed == five.n_proposed

    def test_recentering_matches_centered_body(self, cube):
        # recentering at the centroid makes position irrelevant (up to
        # float residue of the centroid computation)
        from sectionlab.geometry import translate_body

        moved = translate_body(cube, np.array([5.0, -3.0, 2.0]))
        a = sample_iur_sections(cube, 1000, RngStream(9))
        b = sample_iur_sections(moved, 1000, RngStream(9))
        assert a.n_proposed == b.n_proposed
        assert np.allclose(a.values, b.values, rtol=1e-9, atol=1e-12)

    def test_size_validation(self, cube):
        with pytest.raises(ValueError):
            sample_iur_sections(cube, 0, RngStream(0))


class TestHelperStart:
    """A new helper thread starts on the drawing thread's CPU; it moves
    once to a CPU of its own and is then unpinned again."""

    @pytest.mark.parametrize("cores,caller", [(2, 0), (2, 1), (3, 1),
                                              (4, 0), (4, 3)])
    def test_each_helper_leaves_the_callers_cpu(self, cube, monkeypatch,
                                                fake_setaffinity, cores,
                                                caller):
        import os
        import threading
        import time

        import sectionlab.sampling as sampling

        mask = set(range(cores))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
        monkeypatch.setattr(sampling, "_caller_cpu", lambda: caller)
        real_kernel = sampling.section_volumes

        def slow_kernel(body, thetas, offsets):
            # no helper finishes a piece before the batch is queued, so
            # the pool starts all of its threads
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.005)
            return real_kernel(body, thetas, offsets)

        monkeypatch.setattr(sampling, "section_volumes", slow_kernel)
        sample_iur_sections(cube, 3000, RngStream(5), workers=2)
        helpers = {}
        for thread, pid, cpus in fake_setaffinity:
            assert pid == 0  # the calling thread itself
            helpers.setdefault(thread, []).append(cpus)
        # the caller's mask is never set
        assert threading.get_ident() not in helpers
        assert len(helpers) == cores - 1
        for calls in helpers.values():
            assert len(calls) == 2
            assert len(calls[0]) == 1 and caller not in calls[0]
            assert calls[1] == mask
        moved_to = [calls[0].pop() for calls in helpers.values()]
        assert sorted(moved_to) == sorted(mask - {caller})

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_refused_move_changes_nothing(self, dodecahedron, monkeypatch,
                                          cores):
        import os

        import sectionlab.sampling as sampling

        monkeypatch.setattr(sampling, "_BATCH", 997)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = sample_iur_sections(dodecahedron, 20000, RngStream(6),
                                     workers=2)
        refused = []

        def refuse(pid, mask):
            refused.append(set(mask))
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        monkeypatch.setattr(sampling, "_caller_cpu", lambda: 0)
        pooled = sample_iur_sections(dodecahedron, 20000, RngStream(6),
                                     workers=2)
        assert refused and all(len(cpus) == 1 for cpus in refused)
        assert np.array_equal(pooled.values, serial.values)
        assert pooled.n_proposed == serial.n_proposed

    def test_caller_cpu_is_in_this_threads_mask(self):
        import os

        from sectionlab.sampling import _caller_cpu

        assert _caller_cpu() in os.sched_getaffinity(0)

    def test_unknown_caller_cpu_leaves_helpers_alone(self, cube, monkeypatch,
                                                     fake_setaffinity):
        import os

        import sectionlab.sampling as sampling

        def no_proc(*args, **kwargs):
            raise FileNotFoundError("no /proc here")

        monkeypatch.setattr(sampling, "open", no_proc, raising=False)
        assert sampling._caller_cpu() is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = sample_iur_sections(cube, 3000, RngStream(7), workers=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pooled = sample_iur_sections(cube, 3000, RngStream(7), workers=2)
        assert fake_setaffinity == []
        assert np.array_equal(pooled.values, serial.values)
        assert pooled.n_proposed == serial.n_proposed


NO_EXECUTOR_SCRIPT = r"""
import json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}  # two CPUs, whatever the host
os.sched_setaffinity = lambda pid, mask: None  # fake ids stay here
import sectionlab.cli as cli
import sectionlab.sampling as sampling

pools = []
start = sampling._Helpers.__init__
sampling._Helpers.__init__ = lambda self, n, *a: (pools.append(n),
                                                  start(self, n, *a))[1]
try:
    cli.main.main(args=["density", "--shape", "square", "--n", "200000",
                        "-o", "square.csv"], prog_name="sectionlab")
except SystemExit as exc:
    code = exc.code
loaded = [m for m in ("concurrent.futures", "logging") if m in sys.modules]
print(json.dumps({"code": code, "pools": pools, "loaded": loaded}))
"""


class TestHelperImports:
    def test_pooled_density_loads_no_executor(self, tmp_path):
        """A sampling command on two CPUs starts its helper pool without
        importing concurrent.futures, and through it logging: 4.6-7.7 ms
        of start-up."""
        import json
        import os
        import subprocess
        import sys

        import sectionlab

        src = os.path.dirname(os.path.dirname(sectionlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", NO_EXECUTOR_SCRIPT],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report == {"code": 0, "pools": [1], "loaded": []}


class TestSectionLaws:
    def test_square_chords_match_analytic_cdf(self, square):
        """End-to-end distributional check against the closed-form chord
        law, the antiderivative of the density oracle (checked by
        quadrature in the oracle tests)."""
        sample = sample_iur_sections(square, 1_000_000, RngStream(1))
        assert ks_vs_cdf(sample.values, square_chord_cdf) < 0.003

    def test_full_sphere_matches_hemisphere_parameterization(self, cube):
        """Directions on the full sphere with offsets in (0, R) define the
        same section law as hemispheric directions with signed offsets."""
        from sectionlab.geometry import section_volumes
        from sectionlab.sampling import enclosing_radius
        from sectionlab.validation import ks_two_sample

        radius = enclosing_radius(cube)
        gen = RngStream(6, 77).generator()
        parts, have = [], 0
        while have < 200_000:
            u = gen.random((1 << 15, 3))
            phi = 2.0 * np.pi * u[:, 0]
            z = np.abs(2.0 * u[:, 1] - 1.0)  # upper hemisphere
            rxy = np.sqrt(1.0 - z * z)
            thetas = np.column_stack([rxy * np.cos(phi), rxy * np.sin(phi), z])
            offsets = radius * (2.0 * u[:, 2] - 1.0)  # signed
            d = cube.vertices @ thetas.T
            hit = (offsets >= d.min(axis=0)) & (offsets <= d.max(axis=0))
            parts.append(section_volumes(cube, thetas[hit], offsets[hit]))
            have += parts[-1].size
        hemi = np.concatenate(parts)[:200_000]
        full = sample_iur_sections(cube, 200_000, RngStream(5)).values
        assert ks_two_sample(full, hemi) < 0.006


class TestAcceptanceEstimate:
    def test_empty_raises(self):
        empty = SectionSample(values=np.array([]), n_proposed=0,
                              n_accepted=0, seed=0, body_label="x", dim=2)
        with pytest.raises(EmptySample):
            acceptance_estimate(empty)

    def test_invalid_bookkeeping(self):
        with pytest.raises(ValueError):
            SectionSample(values=np.array([1.0]), n_proposed=0, n_accepted=1,
                          seed=0, body_label="x", dim=2)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SectionSample(values=np.array([np.nan, 1.0]), n_proposed=2,
                          n_accepted=2, seed=0, body_label="x", dim=2)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, -1.0, -1e-300])
    def test_bad_value_raises_wherever_it_is(self, bad):
        for at in (0, 1, 2):
            values = np.array([1.0, 2.0, 3.0])
            values[at] = bad
            with pytest.raises(ValueError, match="nonnegative"):
                SectionSample(values=values, n_proposed=3, n_accepted=3,
                              seed=0, body_label="x", dim=2)

    def test_zero_and_empty_values_are_accepted(self):
        for values in ([0.0, -0.0, 1.0], []):
            SectionSample(values=np.array(values), n_proposed=3,
                          n_accepted=len(values), seed=0, body_label="x",
                          dim=2)


class TestSampleFiles:
    def test_csv_roundtrip(self, square, tmp_path):
        sample = sample_iur_sections(square, 200, RngStream(5))
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path, config={"command": "sample"})
        back = load_sample_csv(path)
        assert np.array_equal(back.values, sample.values)
        assert back.n_proposed == sample.n_proposed
        assert back.seed == sample.seed
        assert back.dim == 2

    def test_csv_with_nan_is_rejected(self, square, tmp_path):
        # a ValueError is an input error: exit 3 at the CLI
        sample = sample_iur_sections(square, 20, RngStream(5))
        path = tmp_path / "sample.csv"
        save_sample_csv(sample, path)
        lines = path.read_text().splitlines()
        lines[-1] = "nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="nonnegative"):
            load_sample_csv(path)

    def test_json_roundtrip(self, cube, tmp_path):
        sample = sample_iur_sections(cube, 100, RngStream(5))
        path = tmp_path / "sample.json"
        save_sample_json(sample, path)
        back = load_sample_json(path)
        assert np.array_equal(back.values, sample.values)
        assert back.body_label == "cube"

    def test_json_blocks_keep_write_jsons_bytes(self, tmp_path):
        gen = np.random.default_rng(8)
        for size in (0, 1, 65_536, 200_001):
            values = gen.random(size) * 10.0 ** gen.integers(-300, 300, size)
            values[:min(size, 3)] = [0.0, np.inf, 1e-320][:size]
            sample = SectionSample(values=values, n_proposed=size + 5,
                                   n_accepted=size, seed=3, body_label="b",
                                   dim=3, workers=2)
            # a config holding a "values" key and an empty list as a string
            config = {"values": [], "output": '"values": []', "n": size}
            save_sample_json(sample, tmp_path / "new.json", config=config)
            payload = {key: getattr(sample, key) for key in (
                "body_label", "dim", "seed", "n_proposed", "n_accepted",
                "workers")}
            write_json({**payload, "values": values.tolist(),
                        "config": config}, tmp_path / "old.json")
            assert ((tmp_path / "new.json").read_bytes()
                    == (tmp_path / "old.json").read_bytes()), size


class TestDistributionInvariances:
    """The section law is invariant to where and how the body sits."""

    def test_translation_rotation_scaling(self, cube):
        from sectionlab.validation import check_invariances

        for result in check_invariances(cube, n=20_000, trials=4, seed=3):
            assert result.passed, result.line()

    def test_inclusion_bound_small(self):
        from sectionlab.validation import check_inclusion_bound

        result = check_inclusion_bound(n=100_000, seed=3, slack=0.02)
        assert result.passed, result.line()
