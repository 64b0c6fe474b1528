"""sectionlab benchmark: three CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload repeats one ``sectionlab`` CLI command in a fresh
process (closed loop, one client) until ``--seconds`` have passed, then
checks the outputs.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced commands and prints the
per-layer metrics.  The last line of stdout is the result object; the
line before it records the environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: EM's many small kernel @ w products spin and wait on a
# second thread, which made their time vary by 45 % between commands, and
# a thread count read from the machine could change results between machines.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

RUN_DEADLINE_S = 160.0  # no command runs past this, so a run ends within 180 s
SEED_STRIDE = 1000  # input seeds of run --seed s: s * SEED_STRIDE + i
MIN_COMMANDS = 3  # timed untraced commands per run, whatever --seconds
MIN_PAIRS = 2  # untraced + traced pairs per --trace 1 run
SETUP_PROBES = 1  # set-up-only starts after each timed untraced command

# Run sizes: one command does 1.3-5 s of work on a 2-core Xeon, so a
# 30 s run holds 6-15 commands.
N_CUBE = 300_000
N_SQUARE = 1_000_000
N_REFERENCE = 100_000
N_OBSERVATIONS = 1000
# The CLI's default of 512 grid points spaces the square's root density
# about 4x its bandwidth at n = 1e6, and the trapezoid integral of what it
# writes is then 1.003-1.012; 2048 points space it about h, where the
# integral is 1 within 3e-8 (see README.md, Output checks).
GRID_SQUARE = 2048
# npmle_em at n = 1000 takes 3800-4900 iterations on most inputs, and more
# than its default max_iter of 5000 on about one in 60.
EM_MAX_ITER = 20_000

PROBE_BATCH = 1 << 15  # proposals per probe call, as in one sampler batch
PROBE_CALLS = 3  # probe calls after each traced command


# ---------------------------------------------------------------------------
# Output checks; every threshold is the one the package's own checks use.


def _read_grid_csv(path):
    """(grid, values) of a density CSV written by save_density_csv."""
    import numpy as np

    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("grid"):
                continue
            rows.append([float(v) for v in line.split(",")])
    table = np.array(rows)
    return table[:, 0], table[:, 1]


def _check_root_density(outdir: Path, root_csv: str) -> list[str]:
    import numpy as np

    problems = []
    with open(outdir / "out.meta.json") as fh:
        method = json.load(fh)["bandwidth_method"]
    if method != "sheather_jones":
        problems.append(f"bandwidth method {method}, not sheather_jones")
    grid, values = _read_grid_csv(outdir / root_csv)
    total = float(np.trapezoid(values, grid))
    # ReferenceDensity accepts a root-scale density within 1e-3 of 1
    if abs(total - 1.0) > 1e-3:
        problems.append(f"root-scale density integrates to {total:.6f}")
    return problems


def check_density_cube(outdir: Path) -> list[str]:
    return _check_root_density(outdir, "out.root.csv")


def check_density_square(outdir: Path) -> list[str]:
    import numpy as np
    from sectionlab.oracles import square_chord_density

    problems = _check_root_density(outdir, "out.csv")
    # validation.check_square_chord_density: sup error away from the
    # singular window |z - 1| <= 0.15, at most 0.08 sqrt(1e6 / n)
    grid, values = _read_grid_csv(outdir / "out.csv")
    z = np.linspace(0.05, 1.35, 512)
    z = z[np.abs(z - 1.0) > 0.15]
    estimate = np.interp(z, grid, values, left=0.0, right=0.0)
    sup = float(np.abs(estimate - square_chord_density(z)).max())
    limit = 0.08 * math.sqrt(1e6 / N_SQUARE)
    if sup > limit:
        problems.append(f"square chord density sup error {sup:.4g} > {limit:.4g}")
    return problems


def check_unfold_dodeca(outdir: Path) -> list[str]:
    from sectionlab.density import load_step_cdf_csv
    from sectionlab.errors import SectionLabError

    problems = []
    with open(outdir / "out.report.json") as fh:
        report = json.load(fh)
    if report.get("converged") is not True:
        problems.append(f"EM did not converge: {report.get('iterations')} "
                        "iterations")
    for name in ("out.csv", "out.unbiased.csv"):
        try:
            load_step_cdf_csv(outdir / name)
        except (SectionLabError, ValueError) as exc:
            problems.append(f"{name} does not load: {exc}")
    return problems


def prepare_unfold_dodeca(workdir: Path, seed: int) -> None:
    """Observed areas of n = 1000 profiles, from stream 1 of the seed."""
    from sectionlab.cli import resolve_shape
    from sectionlab.rng import RngStream
    from sectionlab.stereology import Exponential, sample_profile_sizes

    body = resolve_shape("dodecahedron", True)
    roots = sample_profile_sizes(body, Exponential(1.0), N_OBSERVATIONS,
                                 RngStream(seed, stream_id=1))
    with open(workdir / "observations.csv", "w") as fh:
        fh.writelines(f"{float(v) ** 2!r}\n" for v in roots)


@dataclass(frozen=True)
class Workload:
    cli: tuple  # CLI arguments without --seed and -o
    outputs: tuple  # files the command writes for "-o out.csv"
    check: Callable[[Path], list]  # failure messages for one seed's outputs
    prepare: Callable[[Path, int], None] | None = None


# Why each workload exists is in README.md; the layer each one loads most:
WORKLOADS = {
    # 3D fan-triangle kernel; the only one where shard workers can act
    "density-cube": Workload(
        ("density", "--shape", "cube", "--n", str(N_CUBE), "--scale", "both",
         "--workers", "2"),
        ("out.root.csv", "out.volume.csv", "out.meta.json"),
        check_density_cube),
    # 2D chord kernel plus SJ and KDE
    "density-square": Workload(
        ("density", "--shape", "square", "--n", str(N_SQUARE), "--grid-points",
         str(GRID_SQUARE), "--workers", "1"),
        ("out.csv", "out.meta.json"),
        check_density_square),
    # reference density on the costliest body, then dense EM
    "unfold-dodeca": Workload(
        ("unfold", "--observations", "observations.csv", "--shape",
         "dodecahedron", "--normalize-volume", "--unbias", "--workers", "1",
         "--n", str(N_REFERENCE), "--max-iter", str(EM_MAX_ITER)),
        ("out.csv", "out.report.json", "out.unbiased.csv"),
        check_unfold_dodeca, prepare_unfold_dodeca),
}


# ---------------------------------------------------------------------------
# Running commands


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(args: list, workdir: Path, outputs: tuple, mode: str,
                timeout: float) -> dict:
    """One CLI command in a fresh process; timings, usage and output digests.
    ``mode`` is ``run``, ``trace`` or ``setup`` (see cli_child.py).  The
    command is killed after ``timeout`` seconds."""
    timing_path = workdir / "timing.json"
    for name in (*outputs, timing_path.name):
        (workdir / name).unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "cli_child.py"), str(timing_path),
            mode, "--", *args]
    env = _child_env()
    with open(workdir / "stdout.txt", "w") as out, \
            open(workdir / "stderr.txt", "w") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own usage (its reaped children
            # included), unlike RUSAGE_CHILDREN's high-water mark
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_exit = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (workdir / "stderr.txt").read_text()
    record = {"trace": mode == "trace", "exit": proc.returncode,
              "traceback": "Traceback" in stderr,
              "rss_mb": usage.ru_maxrss * 1024 / 1e6,
              "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode != 0 or record["traceback"]:
        sys.stderr.write(f"command failed ({proc.returncode}): {' '.join(args)}\n"
                         f"{stderr}\n")
    if timing_path.exists():
        timing = json.loads(timing_path.read_text())
        record["setup_s"] = timing["t_ready"] - t_spawn
        if "t_main_end" in timing:
            t_done = timing.get("t_counted", timing["t_main_end"])
            record.update(wall_s=t_exit - timing["t_ready"],
                          spans=timing.get("spans", []),
                          counter_s=t_done - timing["t_main_end"],
                          # interpreter teardown and memory release
                          exit_s=t_exit - t_done)
    missing = [name for name in outputs if not (workdir / name).exists()]
    record["digests"] = None if missing else {
        name: _digest(workdir / name) for name in outputs}
    return record


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced command's spans

IO_SPANS = {
    "density.save_density_csv": "io.save_density_csv",
    "density.save_step_cdf_csv": "io.save_step_cdf_csv",
    "cli._read_values": "io.read_observations",
}


def layer_metrics(spans: list) -> dict:
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span["name"]].append(index)

    def duration(index):
        return spans[index]["end"] - spans[index]["start"]

    def seconds(name):
        return sum(duration(i) for i in by_name[name])

    def counter(name, key):
        return sum(spans[i].get("counters", {}).get(key, 0)
                   for i in by_name[name])

    def last(name, key):
        values = [spans[i].get("counters", {}).get(key) for i in by_name[name]]
        values = [v for v in values if v is not None]
        return values[-1] if values else 0.0

    def self_seconds(name):
        total = seconds(name)
        for index in by_name[name]:
            total -= sum(duration(j) for j, s in enumerate(spans)
                         if s["parent"] == index)
        return total

    m = {
        "geometry.build_s": seconds("cli.resolve_shape"),
        "sampling.s": seconds("sampling.sample_iur_sections"),
        "sampling.proposals": counter("sampling.sample_iur_sections",
                                      "proposals"),
        "sampling.accepted": counter("sampling.sample_iur_sections",
                                     "accepted"),
        "density.root_transform_s": seconds("density.root_transform"),
        "density.sj_s": seconds("density.sheather_jones_bandwidth"),
        "density.sj_h": last("density.sheather_jones_bandwidth", "h"),
        "density.sj_bin_over_h": last("density.sheather_jones_bandwidth",
                                      "bin_over_h"),
        "density.sj_fallback": counter("density.sheather_jones_bandwidth",
                                       "fallback"),
        "density.kde_s": seconds("density.reflection_kde"),
        "density.kde_terms": counter("density.reflection_kde", "terms"),
        "density.untransform_s": seconds("density.untransform_density"),
        "stereology.reference_s": seconds("stereology.ReferenceDensity.from_body"),
        "stereology.reference_self_s":
            self_seconds("stereology.ReferenceDensity.from_body"),
        "stereology.em_s": seconds("stereology.npmle_em"),
    }
    for key in ("iterations", "converged", "loglik", "atoms", "pruned_atoms",
                "kernel_mb"):
        m[f"stereology.em_{key}"] = last("stereology.npmle_em", key)
    m["sampling.sections_per_s"] = (m["sampling.accepted"] / m["sampling.s"]
                                    if m["sampling.s"] else 0.0)
    m["sampling.acceptance"] = (m["sampling.accepted"] / m["sampling.proposals"]
                                if m["sampling.proposals"] else 0.0)
    m["density.kde_ns_per_term"] = (m["density.kde_s"] * 1e9
                                    / m["density.kde_terms"]
                                    if m["density.kde_terms"] else 0.0)
    for span_name, prefix in IO_SPANS.items():
        s = seconds(span_name)
        mb = counter(span_name, "bytes") / 1e6
        m[f"{prefix}.s"], m[f"{prefix}.mb"] = s, mb
        m[f"{prefix}.mb_per_s"] = mb / s if s else 0.0
    return m


def coverage(record) -> float:
    """Share of a traced command's wall time that its stages cover: the
    layer calls and the process exit.

    spans[0] is the command's root span (``cli.main``); its children are
    the layer calls.  The tracer's own counter computation after the
    command is taken out of the wall time; it stays in trace.overhead_s.
    """
    spans = record["spans"]
    layers = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
    return (layers + record["exit_s"]) / (record["wall_s"] - record["counter_s"])


EXACT_COUNTS = ("sampling.proposals", "density.sj_h", "stereology.em_iterations",
                "density.kde_terms")


def probe_planes(body, seed: int):
    """The centred body and PROBE_CALLS batches of planes that hit it, drawn
    as the sampler draws them (stream 2 of the seed)."""
    from sectionlab.geometry import translate_body
    from sectionlab.rng import RngStream
    from sectionlab.sampling import enclosing_radius, sample_directions

    body = translate_body(body, -body.centroid)
    radius = enclosing_radius(body)
    stream = RngStream(seed, stream_id=2)
    batches = []
    for k in range(PROBE_CALLS):
        thetas = sample_directions(body.dim, PROBE_BATCH, stream.derive(0, k))
        offsets = radius * stream.derive(1, k).generator().random(PROBE_BATCH)
        heights = body.vertices @ thetas.T
        hits = (offsets >= heights.min(axis=0)) & (offsets <= heights.max(axis=0))
        batches.append((thetas[hits], offsets[hits]))
    return body, batches


def probe_us_per_section(body, batches) -> list:
    """Cost per section of one section_volumes call on each batch."""
    from sectionlab.geometry import section_volumes

    costs = []
    for thetas, offsets in batches:
        start = time.perf_counter()
        section_volumes(body, thetas, offsets)
        costs.append((time.perf_counter() - start) / len(offsets) * 1e6)
    return costs


# ---------------------------------------------------------------------------
# Environment


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=5,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "nproc": NPROC,
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ[BLAS_THREAD_VARS[0]]}


# ---------------------------------------------------------------------------


def completed(record) -> bool:
    """The command exited 0, printed no traceback and wrote its timings."""
    return record["exit"] == 0 and not record["traceback"] and "wall_s" in record


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _summary(name, values):
    if len(values) >= 4:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return f"{name}: median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})"
    return f"{name}: median {_median(values):.4g} (n={len(values)})"


def use_checkout() -> None:
    """Import sectionlab from src/ and pin BLAS threads, for this process
    and the commands it starts."""
    for var in BLAS_THREAD_VARS:  # EM's kernel @ w goes through BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "sectionlab" / "__init__.py").is_file():
        print(f"error: no sectionlab sources under {SRC}", file=sys.stderr)
        return 2

    use_checkout()
    from sectionlab.cli import resolve_shape

    workload = WORKLOADS[opts.workload]
    workdir = OUT / f"{opts.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probe = None
        if opts.trace:
            cli = workload.cli
            probe = probe_planes(resolve_shape(cli[cli.index("--shape") + 1],
                                               "--normalize-volume" in cli),
                                 opts.seed)
        records, setup_probes, problems = run_loop(opts, workload, workdir,
                                                   deadline, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in records if not r["trace"] and not r["warmup"]]
    traced = [r for r in records if r["trace"]]
    setups = [r["setup_s"] for r in untraced if completed(r)] + setup_probes
    for i, r in enumerate(records):
        print(f"command {i} seed {r['seed']} trace {int(r['trace'])}"
              f"{' (warm-up)' if r['warmup'] else ''}: "
              + " ".join(f"{k} {r[k]:.4g}" for k in
                         ("setup_s", "wall_s", "rss_mb", "cpu_s") if k in r)
              + ("" if r["ok"] else " FAILED"), file=sys.stderr)
    print(_summary("setup_s (set-up-only starts included)", setups),
          file=sys.stderr)
    for key in ("wall_s", "rss_mb", "cpu_s"):
        print(_summary(key, [r[key] for r in untraced if key in r]),
              file=sys.stderr)
    if opts.trace:
        metrics, count_problems = traced_metrics(untraced, traced)
        problems += count_problems
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
        trace_path = OUT / f"trace-{opts.workload}-seed{opts.seed}.json"
        trace_path.write_text(json.dumps(
            [dict(span, command=i) for i, r in enumerate(traced)
             for span in r.get("spans", [])]))
    else:
        ran = [r for r in untraced if completed(r)]
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median([r["wall_s"] for r in ran]),
            "peak_rss_mb": _median([r["rss_mb"] for r in ran]),
        }
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
    failed = sum(1 for r in records if not r["ok"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": environment()}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_loop(opts, workload: Workload, workdir: Path, deadline: float,
             probe=None):
    """Commands until --seconds have passed; marks each record ok or not.
    Returns the records, the set-up times of set-up-only starts, and the
    problems found.

    The warm-up command and the first timed command share the run's first
    input seed, so every run repeats one (seed, workers) pair.  In an
    untraced run each later command gets an input seed of its own: EM's
    cost varies with its input, and a median over many inputs varies less
    from run to run.  A traced run keeps the first seed, so its counts
    repeat.  The deadline keeps a run far below SEED_STRIDE commands.
    """
    folders = {}  # input seed -> its directory
    references = {}  # input seed -> digests of its first outputs
    records, setup_probes, problems = [], [], []
    start = None
    # step -1 is a warm-up command: checked like the rest, never timed
    for step in itertools.count(-1):
        now = time.perf_counter()
        if step == 0:
            start = now
        elif step > 0 and now - start >= opts.seconds \
                and step >= (MIN_PAIRS if opts.trace else MIN_COMMANDS):
            break
        if now >= deadline:
            problems.append(f"run stopped at the {RUN_DEADLINE_S:.0f} s deadline")
            break
        seed = opts.seed * SEED_STRIDE + (0 if opts.trace else max(step, 0))
        if seed not in folders:
            folders[seed] = workdir / f"seed-{seed}"
            folders[seed].mkdir()
            if workload.prepare is not None:
                workload.prepare(folders[seed], seed)
        folder = folders[seed]
        args = [*workload.cli, "--seed", str(seed), "-o", "out.csv"]
        for trace in ([False, True] if opts.trace and step >= 0 else [False]):
            record = run_command(args, folder, workload.outputs,
                                 "trace" if trace else "run",
                                 max(deadline - time.perf_counter(), 1.0))
            record["seed"], record["warmup"] = seed, step < 0
            if seed not in references and record["digests"] is not None:
                references[seed] = record["digests"]
                (folder / "checked").mkdir()
                for name in workload.outputs:
                    shutil.copy(folder / name, folder / "checked" / name)
            record["ok"] = (completed(record) and record["digests"] is not None
                            and record["digests"] == references[seed])
            if trace:
                # the probe runs between traced commands, so that it sees
                # the machine as the traced sampler did
                record["probe_us"] = probe_us_per_section(*probe)
            if record["digests"] not in (None, references.get(seed)):
                problems.append(f"outputs of a repeated (seed {seed}, "
                                "workers) pair differ")
            records.append(record)
        # more set-up samples, spread over the run like the commands
        for _ in range(SETUP_PROBES if not opts.trace and step >= 0 else 0):
            probe_record = run_command(args, folder, (), "setup",
                                       max(deadline - time.perf_counter(), 1.0))
            if probe_record["exit"] != 0 or "setup_s" not in probe_record:
                problems.append("a set-up-only start failed")
            else:
                setup_probes.append(probe_record["setup_s"])
    for seed, folder in folders.items():
        if seed not in references:
            continue
        seed_problems = workload.check(folder / "checked")
        problems += [f"seed {seed}: {p}" for p in seed_problems]
        for record in records:
            if seed_problems and record["seed"] == seed:
                record["ok"] = False
    return records, setup_probes, problems


def traced_metrics(untraced: list, traced: list):
    # a command that ran is measured even when its outputs fail a check
    traced = [r for r in traced if completed(r)]
    untraced = [r for r in untraced if completed(r)]
    per_command = [layer_metrics(r["spans"]) for r in traced]
    problems = []
    for name in EXACT_COUNTS:
        values = {m[name] for m in per_command}
        if len(values) > 1:
            problems.append(f"{name} differs across runs of one seed: "
                            f"{sorted(values)}")
    names = per_command[0].keys() if per_command else []
    metrics = defaultdict(float, {name: _median([m[name] for m in per_command])
                                  for name in names})
    probe_us = _median([c for r in traced for c in r["probe_us"]])
    metrics["geometry.us_per_section"] = probe_us
    metrics["sampling.kernel_share"] = (
        probe_us * 1e-6 * metrics["sampling.accepted"] / metrics["sampling.s"]
        if metrics["sampling.s"] else 0.0)
    metrics["cli.cpu_s"] = _median([r["cpu_s"] for r in untraced])
    metrics["cli.exit_s"] = _median([r["exit_s"] for r in untraced])
    metrics["trace.commands"] = len(per_command)
    metrics["trace.coverage"] = _median([coverage(r) for r in traced])
    metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                   - _median([r["wall_s"] for r in untraced]))
    return metrics, problems


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
