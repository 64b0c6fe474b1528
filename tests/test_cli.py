import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from sectionlab.cli import main
from sectionlab.io import (
    load_sample_csv,
    load_sample_json,
    load_step_cdf_csv,
    read_csv,
)
from sectionlab.rng import RngStream
from sectionlab.stereology import Exponential, sample_profile_sizes


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestSampleCommand:
    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "chords.csv"
        run_ok(runner, ["sample", "--shape", "square", "--n", "500",
                        "--seed", "7", "-o", str(out)])
        sample = load_sample_csv(out)
        assert sample.n_accepted == 500
        assert sample.values.max() <= math.sqrt(2.0)
        text = out.read_text()
        assert "# config:" in text

    def test_json_output(self, runner, tmp_path):
        out = tmp_path / "areas.json"
        run_ok(runner, ["sample", "--shape", "ball", "--n", "200",
                        "--seed", "3", "-o", str(out)])
        sample = load_sample_json(out)
        assert sample.n_proposed == 200  # ball accepts everything
        payload = json.loads(out.read_text())
        assert payload["config"]["command"] == "sample"

    def test_reruns_are_byte_identical(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        run_ok(runner, ["sample", "--shape", "cube", "--n", "300",
                        "--seed", "5", "-o", str(out)])
        first = out.read_bytes()
        run_ok(runner, ["sample", "--shape", "cube", "--n", "300",
                        "--seed", "5", "-o", str(out)])
        assert out.read_bytes() == first

    def test_unknown_shape_error_json(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--shape", "nonagon99x",
                                      "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 3
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "UnknownShape"

    def test_invalid_n(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", "--shape", "cube", "--n", "0",
                                      "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 3

    def test_unallocatable_n_exits_3(self, runner, tmp_path, monkeypatch):
        import sectionlab.cli as cli

        def too_large(body, size, stream, workers=1):
            raise MemoryError(f"Unable to allocate {8 * size} bytes")

        monkeypatch.setattr(cli, "sample_iur_sections", too_large)
        result = runner.invoke(main, ["sample", "--shape", "cube", "--n",
                                      "1000000000000",
                                      "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 3, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "MemoryError"
        assert "8000000000000 bytes" in payload["message"]

    def test_shape_file_input(self, runner, tmp_path):
        corners = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        shape_path = tmp_path / "bigcube.json"
        with open(shape_path, "w") as fh:
            json.dump({"kind": "polytope", "dim": 3, "vertices": corners}, fh)
        out = tmp_path / "s.csv"
        run_ok(runner, ["sample", "--shape", str(shape_path), "--n", "100",
                        "-o", str(out)])
        sample = load_sample_csv(out)
        assert sample.body_label == "bigcube"
        assert sample.values.max() > 1.0  # areas up to 4*sqrt(2)

    def test_workers_env_is_ignored(self, runner, tmp_path, monkeypatch):
        # worker streams come from --workers alone
        out = tmp_path / "w.csv"
        args = ["sample", "--shape", "cube", "--n", "1000", "--seed", "1",
                "-o", str(out)]
        run_ok(runner, args)
        plain = out.read_bytes()
        monkeypatch.setenv("SECTION_LAB_WORKERS", "3")
        run_ok(runner, args)
        assert out.read_bytes() == plain
        assert load_sample_csv(out).workers == 1

    def test_file_named_like_a_builtin_wins(self, runner, tmp_path,
                                            monkeypatch):
        corners = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        (tmp_path / "cube").write_text(
            json.dumps({"kind": "polytope", "dim": 3, "vertices": corners}))
        monkeypatch.chdir(tmp_path)
        run_ok(runner, ["sample", "--shape", "cube", "--n", "100",
                        "-o", "s.csv"])
        # areas up to 4 sqrt(2); the unit cube's stop at sqrt(2)
        assert load_sample_csv(tmp_path / "s.csv").values.max() > 1.5

    @pytest.mark.parametrize("shape", ["cubex", "polygon2", "foo.json"])
    def test_unknown_shapes_exit_3(self, runner, tmp_path, monkeypatch,
                                   shape):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["sample", "--shape", shape,
                                      "-o", "x.csv"])
        assert result.exit_code == 3, result.output
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "UnknownShape"
        assert shape in payload["message"]


class TestDensityCommand:
    def test_root_scale(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        run_ok(runner, ["density", "--shape", "cube", "--n", "5000",
                        "--seed", "1", "-o", str(out), "--grid-points", "64"])
        header, rows = read_csv(out, 2, "grid,value")
        assert rows.shape == (64, 2)
        assert header["transform"] == "root_scale"
        meta = json.loads((tmp_path / "g.meta.json").read_text())
        assert meta["transform"] == "root_scale"
        assert meta["N"] == 5000
        assert meta["bandwidth"] > 0

    def test_both_scales(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        run_ok(runner, ["density", "--shape", "cube", "--n", "3000",
                        "--seed", "1", "-o", str(out), "--scale", "both"])
        assert (tmp_path / "g.root.csv").exists()
        assert (tmp_path / "g.volume.csv").exists()

    def test_fixed_bandwidth(self, runner, tmp_path):
        out = tmp_path / "g.csv"
        run_ok(runner, ["density", "--shape", "square", "--n", "2000",
                        "--seed", "2", "-o", str(out),
                        "--bandwidth", "0.05"])
        meta = json.loads((tmp_path / "g.meta.json").read_text())
        assert meta["bandwidth"] == 0.05
        assert meta["bandwidth_method"] == "fixed"

    def test_default_grid_spacing_is_half_the_bandwidth(self, runner,
                                                         tmp_path):
        out = tmp_path / "g.csv"
        run_ok(runner, ["density", "--shape", "square", "--n", "20000",
                        "--seed", "3", "-o", str(out)])
        header, rows = read_csv(out, 2, "grid,value")
        meta = json.loads((tmp_path / "g.meta.json").read_text())
        assert meta["config"]["grid_points"] is None
        assert np.diff(rows[:, 0]).max() <= meta["bandwidth"] / 2
        assert np.trapezoid(rows[:, 1], rows[:, 0]) == pytest.approx(
            1.0, abs=1e-6)

    def test_grid_floor(self, runner, tmp_path):
        result = runner.invoke(main, ["density", "--shape", "cube",
                                      "--grid-points", "4",
                                      "-o", str(tmp_path / "g.csv")])
        assert result.exit_code == 3


class TestEcdfCommand:
    def test_root_scale_default(self, runner, tmp_path):
        out = tmp_path / "G.csv"
        run_ok(runner, ["ecdf", "--shape", "cube", "--n", "2000",
                        "--seed", "1", "-o", str(out)])
        cdf = load_step_cdf_csv(out)
        assert cdf.cumulative[-1] == 1.0
        assert cdf.locations.max() < 2 ** 0.25 + 1e-9  # root scale bound

    def test_volume_scale(self, runner, tmp_path):
        out = tmp_path / "G.csv"
        run_ok(runner, ["ecdf", "--shape", "cube", "--n", "2000",
                        "--seed", "1", "-o", str(out), "--scale", "volume"])
        cdf = load_step_cdf_csv(out)
        assert cdf.locations.max() > 1.2  # areas reach sqrt(2)


class TestUnfoldCommand:
    def test_end_to_end(self, runner, tmp_path, ball3):
        s = sample_profile_sizes(ball3, Exponential(1.0), 150, RngStream(31))
        areas = s * s  # observations are areas in 3D
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(repr(float(a)) for a in areas) + "\n")
        out = tmp_path / "hb.csv"
        result = run_ok(runner, ["unfold", "--observations", str(obs),
                                 "--shape", "ball", "--n", "30000",
                                 "--seed", "31", "-o", str(out),
                                 "--max-iter", "600", "--unbias"])
        fitted = load_step_cdf_csv(out)
        assert fitted.cumulative[-1] == 1.0
        report = json.loads((tmp_path / "hb.report.json").read_text())
        assert report["iterations"] <= 600
        assert "final_loglik" in report
        assert report["converged"] and report["gap"] <= report["tol"]
        assert f"gap {report['gap']:.3g}" in result.output
        unbiased = load_step_cdf_csv(tmp_path / "hb.unbiased.csv")
        assert unbiased.cumulative[-1] == 1.0

    def test_workers_reruns_are_byte_identical(self, runner, tmp_path,
                                               ball3):
        s = sample_profile_sizes(ball3, Exponential(1.0), 100, RngStream(32))
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(repr(float(a * a)) for a in s) + "\n")
        runs = []
        for workers in ("2", "2", "1"):
            out = tmp_path / f"hb{workers}.csv"
            run_ok(runner, ["unfold", "--observations", str(obs), "--shape",
                            "ball", "--n", "20000", "--seed", "32",
                            "--workers", workers, "-o", str(out)])
            runs.append((out.read_bytes(),
                         out.with_suffix(".report.json").read_bytes()))
        assert runs[0] == runs[1]
        # the reference density is drawn over the worker shards
        assert json.loads(runs[0][1])["final_loglik"] != \
            json.loads(runs[2][1])["final_loglik"]

    @pytest.mark.parametrize("text,error", [
        ("1.0\n-2.0\n0.5\n", "ZeroLocation"),
        ("1.0\nnan\n0.5\n", "ZeroLocation"),
        ("1.0\ninf\n0.5\n", "ZeroLocation"),
        ("# no values\n", "ValueError"),
        ("location,cumulative\n1.0,1.0\n", "ValueError"),
        ("1.0\n2.0,3.0\n", "ValueError"),
    ])
    def test_bad_observations_exit_3(self, runner, tmp_path, monkeypatch,
                                     text, error):
        import sectionlab.cli as cli

        def no_reference(*args, **kwargs):
            raise AssertionError("reference sampled before input checks")

        monkeypatch.setattr(cli.ReferenceDensity, "from_body", no_reference)
        obs = tmp_path / "obs.csv"
        obs.write_text(text)
        result = runner.invoke(main, ["unfold", "--observations", str(obs),
                                      "--shape", "ball", "--n", "2000",
                                      "-o", str(tmp_path / "h.csv")])
        assert result.exit_code == 3, result.output
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == error

    @pytest.mark.parametrize("option", [["--max-iter", "-1"],
                                        ["--tol", "-1"], ["--tol", "nan"]])
    def test_unreachable_stopping_rule_exits_3(self, runner, tmp_path,
                                               monkeypatch, option):
        from sectionlab.stereology import ReferenceDensity

        def unreachable(*args, **kwargs):
            raise AssertionError("the reference is sampled first")

        # checked before the reference sample, which takes most of a run
        monkeypatch.setattr(ReferenceDensity, "from_body", unreachable)
        obs = tmp_path / "obs.csv"
        obs.write_text("0.5\n0.8\n1.1\n")
        result = runner.invoke(main, ["unfold", "--observations", str(obs),
                                      "--shape", "ball", "--n", "2000",
                                      *option, "-o", str(tmp_path / "h.csv")])
        assert result.exit_code == 3, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValueError"
        assert not (tmp_path / "h.csv").exists()

    def test_missing_observations(self, runner, tmp_path):
        result = runner.invoke(main, ["unfold", "--observations",
                                      str(tmp_path / "nope.csv"),
                                      "--shape", "ball",
                                      "-o", str(tmp_path / "h.csv")])
        assert result.exit_code == 3


class TestValidateCommand:
    def test_ball_passes(self, runner):
        result = run_ok(runner, ["validate", "--shape", "ball",
                                 "--n", "200000"])
        assert "PASS section_law" in result.output

    def test_cube_suite(self, runner):
        result = run_ok(runner, ["validate", "--shape", "cube",
                                 "--n", "30000", "--trials", "3"])
        assert "acceptance_rate" in result.output
        assert "section_oracle_equivalence" in result.output
        assert "FAIL" not in result.output

    def test_workers_reruns_are_byte_identical(self, runner):
        args = ["validate", "--shape", "cube", "--n", "20000",
                "--trials", "2", "--workers"]
        outputs = [run_ok(runner, args + [workers]).output
                   for workers in ("2", "2", "1")]
        assert outputs[0] == outputs[1]
        # every check samples over the worker streams
        assert outputs[0] != outputs[2]

    def test_square_law_needs_a_2d_body(self, runner, tmp_path):
        # the unit cube's areas are not the unit square's chords
        corners = [[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                   for z in (-0.5, 0.5)]
        cube = tmp_path / "square.json"
        cube.write_text(json.dumps({"kind": "polytope", "dim": 3,
                                    "vertices": corners}))
        result = run_ok(runner, ["validate", "--shape", str(cube),
                                 "--n", "20000", "--trials", "1"])
        assert "section_law" not in result.output
        assert "acceptance_rate" in result.output

    def test_disk_file_gets_the_disk_law(self, runner, tmp_path):
        disk = tmp_path / "disk.json"
        disk.write_text('{"kind": "ball", "center": [0, 0], "radius": 1}')
        result = run_ok(runner, ["validate", "--shape", str(disk),
                                 "--n", "20000", "--seed", "6"])
        from sectionlab.io import load_body
        from sectionlab.sampling import sample_iur_sections
        from sectionlab.validation import ks_vs_cdf

        chords = sample_iur_sections(load_body(disk), 20000,
                                     RngStream(6)).values
        stat = ks_vs_cdf(chords, lambda c: 1.0 - (1.0 - c * c / 4.0) ** 0.5)
        assert f"PASS section_law: statistic={stat:.6g} " in result.output

    def test_square_oracle_tests_the_validated_body(self, runner, tmp_path):
        # a triangle labelled "square" by its file name
        fake = tmp_path / "square.json"
        fake.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
        result = runner.invoke(main, ["validate", "--shape", str(fake),
                                      "--n", "50000", "--trials", "1"])
        assert result.exit_code == 2, result.output
        assert "FAIL section_law" in result.output

    def test_square_law_fails_a_larger_square(self, runner, tmp_path):
        # chords up to 2 sqrt(2), beyond the unit square's support: a
        # failed check, not an input error
        big = tmp_path / "square.json"
        big.write_text('{"vertices": [[0, 0], [2, 0], [2, 2], [0, 2]]}')
        result = runner.invoke(main, ["validate", "--shape", str(big),
                                      "--n", "20000", "--trials", "1"])
        assert result.exit_code == 2, result.output
        assert "FAIL section_law" in result.output

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one(self, runner, trials):
        result = runner.invoke(main, ["validate", "--shape", "cube",
                                      "--n", "1000", "--trials", trials])
        assert result.exit_code == 3, result.output
        payload = json.loads(result.output.strip().splitlines()[-1])
        assert payload["error"] == "ValueError"
        assert "PASS" not in result.output

    def test_failing_check_exits_2(self, runner, monkeypatch):
        import sectionlab.cli as cli
        from sectionlab.validation import CheckResult

        monkeypatch.setattr(
            cli, "run_shape_checks",
            lambda body, n, seed, trials, workers: [
                CheckResult("forced", False, 1.0, 0.5)
            ],
        )
        result = runner.invoke(main, ["validate", "--shape", "ball",
                                      "--n", "100"])
        assert result.exit_code == 2
        assert "FAIL forced" in result.output


class TestUnfold2d:
    def test_chord_observations(self, runner, tmp_path, square):
        # 2D: observations are chord lengths, used without a square root
        s = sample_profile_sizes(square, Exponential(1.0), 120, RngStream(33))
        obs = tmp_path / "chords.csv"
        obs.write_text("\n".join(repr(float(v)) for v in s) + "\n")
        out = tmp_path / "hb.csv"
        run_ok(runner, ["unfold", "--observations", str(obs), "--shape",
                        "square", "--n", "20000", "--seed", "33",
                        "-o", str(out), "--max-iter", "500"])
        fitted = load_step_cdf_csv(out)
        assert fitted.locations.min() > 0

    def test_square_at_default_reference_and_grid(self, runner, tmp_path,
                                                  square):
        s = sample_profile_sizes(square, Exponential(1.0), 300, RngStream(34))
        obs = tmp_path / "chords.csv"
        obs.write_text("\n".join(repr(float(v)) for v in s) + "\n")
        out = tmp_path / "hb.csv"
        run_ok(runner, ["unfold", "--observations", str(obs), "--shape",
                        "square", "-o", str(out)])
        report = json.loads((tmp_path / "hb.report.json").read_text())
        assert report["converged"] is True


NO_SCIPY_SCRIPT = r"""
import json, sys
import sectionlab.cli as cli

def loaded():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

report = {"import": loaded()}
for shape in ("square", "cube", "dodecahedron", "ball"):
    cli.resolve_shape(shape, False)
    cli.resolve_shape(shape, True)
report["resolve_shape"] = loaded()

from sectionlab.rng import RngStream
from sectionlab.stereology import Exponential, sample_profile_sizes

body = cli.resolve_shape("dodecahedron", True)
roots = sample_profile_sizes(body, Exponential(1.0), 200, RngStream(3))
with open("obs.csv", "w") as fh:
    fh.writelines(f"{float(v) ** 2!r}\n" for v in roots)
codes = []
for args in (
    ["density", "--shape", "cube", "--n", "20000", "-o", "cube.csv"],
    ["unfold", "--observations", "obs.csv", "--shape", "dodecahedron",
     "--normalize-volume", "--n", "50000", "-o", "hb.csv"],
    ["validate", "--shape", "square", "--n", "20000", "--trials", "1"],
):
    try:
        cli.main.main(args=args, prog_name="sectionlab")
    except SystemExit as exc:
        codes.append(exc.code)
report["commands"] = loaded()
report["codes"] = codes
print(json.dumps(report))
"""


class TestStartsWithoutScipy:
    def test_builtin_commands_never_import_scipy(self, tmp_path):
        """Import, builtin shapes and the density, unfold and validate
        commands on them load no scipy module: scipy is needed only for
        body JSON files, regular polygons and Gamma.cdf."""
        import os
        import subprocess
        import sys

        import sectionlab

        src = os.path.dirname(os.path.dirname(sectionlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0, 0]
        assert report["import"] == []
        assert report["resolve_shape"] == []
        assert report["commands"] == []


BLOCKED_SCIPY_SCRIPT = r"""
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, BlockScipy())
import sectionlab.cli as cli
cli.main.main(args=sys.argv[1:], prog_name="sectionlab")
"""


class TestWithoutScipy:
    @pytest.mark.parametrize("shape", ["polygon7", "triangle.json"])
    def test_missing_scipy_is_an_input_error(self, tmp_path, shape):
        """Shapes that need qhull exit 3 with a one-line JSON error that
        names scipy, not with a traceback, when scipy cannot be imported."""
        import os
        import subprocess
        import sys

        import sectionlab

        (tmp_path / "triangle.json").write_text(
            '{"vertices": [[0, 0], [1, 0], [0, 1]]}')
        src = os.path.dirname(os.path.dirname(sectionlab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", BLOCKED_SCIPY_SCRIPT, "density", "--shape",
             shape, "--n", "2000", "-o", "out.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr
        error = json.loads(done.stderr.splitlines()[-1])
        assert error["error"] == "ModuleNotFoundError"
        assert "scipy" in error["message"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class TestBlasThreads:
    def test_unset_threads_unfold_like_one_thread(self, tmp_path,
                                                  dodecahedron):
        """With the BLAS thread variables unset, unfold writes the bytes it
        writes with them at 1.  Run in children whose environment lacks
        them: this process already set them on importing sectionlab.  On
        a 2-core machine, 2000 areas against a 1e5 reference are enough
        for a second BLAS thread to change the fit's rounding."""
        import os
        import subprocess
        import sys

        import sectionlab

        roots = sample_profile_sizes(dodecahedron, Exponential(1.0), 2000,
                                     RngStream(1))
        obs = tmp_path / "obs.csv"
        obs.write_text("".join(f"{float(v) ** 2!r}\n" for v in roots))
        src = os.path.dirname(os.path.dirname(sectionlab.__file__))
        base = {k: v for k, v in os.environ.items()
                if k not in BLAS_THREAD_VARS}
        outputs = []
        for threads in (None, "1"):
            env = {**base, "PYTHONPATH": src}
            if threads:
                env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
            run_dir = tmp_path / f"threads-{threads}"
            run_dir.mkdir()
            subprocess.run(
                [sys.executable, "-m", "sectionlab.cli", "unfold",
                 "--observations", str(obs), "--shape", "dodecahedron",
                 "--normalize-volume", "--n", "100000", "-o", "hb.csv"],
                cwd=run_dir, env=env, check=True, timeout=300)
            outputs.append((run_dir / "hb.csv").read_bytes())
        assert outputs[0] == outputs[1]
