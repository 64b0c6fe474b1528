"""Command-line front end.

Subcommands drive the full pipeline and write plot-ready data files:

  sample    draw section volumes and write them as CSV or JSON
  density   estimate the root- and/or volume-scale section density
  ecdf      empirical CDF of (root) section volumes
  unfold    nonparametric MLE of the biased particle size distribution
  validate  oracle comparisons and invariance suites for one shape

Every output embeds the run configuration, and re-running a command with
an identical configuration reproduces the output bytes.  Exit codes:
0 success, 2 validation failure, 3 input error.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bodies_io import load_body
from .density import (
    density_metadata,
    empirical_cdf,
    estimate_root_density,
    root_transform,
    save_density_csv,
    save_step_cdf_csv,
    untransform_density,
)
from .errors import SectionLabError, UnknownShape
from .geometry import ConvexBody, builtin_body, scale_body, volume
from .rng import RngStream
from .sampling import (
    sample_iur_sections,
    save_sample_csv,
    save_sample_json,
)
from .stereology import ReferenceDensity, npmle_em, unbias
from .validation import run_shape_checks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INPUT = 3

_BUILTIN_PREFIXES = ("square", "cube", "dodecahedron", "ball", "polygon")


@dataclass
class RunConfig:
    """Everything needed to reproduce one CLI run byte for byte."""

    command: str
    shape: str = ""
    n: int = 1_000_000
    seed: int = 0
    output: str = ""
    grid_points: int = 512
    bandwidth: float | None = None
    scale: str = "root"
    workers: int = 1
    normalize_volume: bool = False
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["version"] = __version__
        return data


def _fail(code: int, error: str, message: str):
    payload = {"error": error, "message": message}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def resolve_shape(shape: str, normalize_volume: bool) -> ConvexBody:
    """Builtin name or path to a body JSON file."""
    lowered = shape.lower()
    if lowered.startswith(_BUILTIN_PREFIXES) and not os.path.exists(shape):
        try:
            return builtin_body(lowered, normalize_volume=normalize_volume)
        except ValueError as exc:
            raise UnknownShape(str(exc)) from exc
    path = Path(shape)
    if not path.exists():
        raise UnknownShape(f"{shape!r} is not a builtin shape or a file")
    body = load_body(path, label=path.stem)
    if normalize_volume:
        body = scale_body(body, volume(body) ** (-1.0 / body.dim))
    return body


def _default_workers() -> int:
    return int(os.environ.get("SECTION_LAB_WORKERS", "1"))


def _common_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Base seed of the random streams.")(fn)
    fn = click.option("--workers", type=int, default=_default_workers,
                      help="Worker stream count (default from "
                           "SECTION_LAB_WORKERS, else 1).")(fn)
    fn = click.option("--normalize-volume", is_flag=True, default=False,
                      help="Scale the shape to volume 1 first.")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Random hyperplane sections of convex bodies."""


@main.command()
@click.option("--shape", required=True, help="Builtin name or body JSON file.")
@click.option("--n", type=int, default=1_000_000, show_default=True,
              help="Number of accepted sections.")
@click.option("--output", "-o", required=True, type=click.Path(),
              help="Output file (.csv or .json).")
@_common_options
def sample(shape, n, output, seed, workers, normalize_volume):
    """Draw isotropic random section volumes of a shape."""
    config = RunConfig(command="sample", shape=shape, n=n, seed=seed,
                       output=str(output), workers=workers,
                       normalize_volume=normalize_volume)
    try:
        if n < 1:
            raise ValueError("--n must be >= 1")
        body = resolve_shape(shape, normalize_volume)
        result = sample_iur_sections(body, n, RngStream(seed),
                                     workers=workers)
        if str(output).endswith(".json"):
            save_sample_json(result, output, config=config.to_dict())
        else:
            save_sample_csv(result, output, config=config.to_dict())
    except (SectionLabError, ValueError, OSError) as exc:
        _fail(EXIT_INPUT, type(exc).__name__, str(exc))
    click.echo(f"wrote {output} (accepted {n}, proposed {result.n_proposed})")


@main.command()
@click.option("--shape", required=True, help="Builtin name or body JSON file.")
@click.option("--n", type=int, default=1_000_000, show_default=True)
@click.option("--output", "-o", required=True, type=click.Path(),
              help="Output CSV; a .json metadata sidecar is written too.")
@click.option("--grid-points", type=int, default=512, show_default=True)
@click.option("--bandwidth", type=float, default=None,
              help="Fixed bandwidth (default: Sheather-Jones).")
@click.option("--scale", type=click.Choice(["root", "volume", "both"]),
              default="root", show_default=True)
@_common_options
def density(shape, n, output, grid_points, bandwidth, scale, seed, workers,
            normalize_volume):
    """Estimate the section volume density of a shape."""
    config = RunConfig(command="density", shape=shape, n=n, seed=seed,
                       output=str(output), grid_points=grid_points,
                       bandwidth=bandwidth, scale=scale, workers=workers,
                       normalize_volume=normalize_volume)
    try:
        if n < 1:
            raise ValueError("--n must be >= 1")
        if grid_points < 16:
            raise ValueError("--grid-points must be >= 16")
        body = resolve_shape(shape, normalize_volume)
        result = sample_iur_sections(body, n, RngStream(seed),
                                     workers=workers)
        estimate = estimate_root_density(result, grid_points=grid_points,
                                         bandwidth=bandwidth)
        outputs = []
        base = Path(output)
        if scale in ("root", "both"):
            path = base if scale == "root" else base.with_suffix(".root.csv")
            save_density_csv(estimate, path, config=config.to_dict(),
                             body_label=body.label)
            outputs.append(path)
        if scale in ("volume", "both"):
            vol = untransform_density(estimate, body.dim)
            path = base if scale == "volume" else base.with_suffix(".volume.csv")
            save_density_csv(vol, path, config=config.to_dict(),
                             body_label=body.label)
            outputs.append(path)
        meta = density_metadata(estimate, body_label=body.label,
                                config=config.to_dict())
        meta_path = base.with_suffix(".meta.json")
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, sort_keys=True)
            fh.write("\n")
        outputs.append(meta_path)
    except (SectionLabError, ValueError, OSError) as exc:
        _fail(EXIT_INPUT, type(exc).__name__, str(exc))
    click.echo("wrote " + ", ".join(str(p) for p in outputs)
               + f" (bandwidth {estimate.bandwidth:.6g},"
                 f" {estimate.bandwidth_method})")


@main.command()
@click.option("--shape", required=True, help="Builtin name or body JSON file.")
@click.option("--n", type=int, default=1_000_000, show_default=True)
@click.option("--output", "-o", required=True, type=click.Path())
@click.option("--scale", type=click.Choice(["root", "volume"]),
              default="root", show_default=True)
@_common_options
def ecdf(shape, n, output, scale, seed, workers, normalize_volume):
    """Empirical CDF of (root-transformed) section volumes."""
    config = RunConfig(command="ecdf", shape=shape, n=n, seed=seed,
                       output=str(output), scale=scale, workers=workers,
                       normalize_volume=normalize_volume)
    try:
        if n < 1:
            raise ValueError("--n must be >= 1")
        body = resolve_shape(shape, normalize_volume)
        result = sample_iur_sections(body, n, RngStream(seed),
                                     workers=workers)
        data = root_transform(result) if scale == "root" else result.values
        cdf = empirical_cdf(data)
        save_step_cdf_csv(cdf, output, config=config.to_dict())
    except (SectionLabError, ValueError, OSError) as exc:
        _fail(EXIT_INPUT, type(exc).__name__, str(exc))
    click.echo(f"wrote {output} ({len(cdf.locations)} steps)")


@main.command()
@click.option("--observations", required=True, type=click.Path(exists=False),
              help="CSV of observed section areas (one value per line).")
@click.option("--shape", required=True,
              help="Reference particle: builtin name or body JSON file.")
@click.option("--n", type=int, default=1_000_000, show_default=True,
              help="Reference-density sample size.")
@click.option("--output", "-o", required=True, type=click.Path(),
              help="Fitted biased size CDF (CSV); report goes to a .json "
                   "sidecar.")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iter", type=int, default=20000, show_default=True)
@click.option("--unbias", "do_unbias", is_flag=True, default=False,
              help="Also write the unbiased size CDF.")
@_common_options
def unfold(observations, shape, n, output, tol, max_iter, do_unbias, seed,
           workers, normalize_volume):
    """Unfold a size distribution from observed section areas."""
    config = RunConfig(command="unfold", shape=shape, n=n, seed=seed,
                       output=str(output), workers=workers,
                       normalize_volume=normalize_volume,
                       extra={"observations": str(observations), "tol": tol,
                              "max_iter": max_iter, "unbias": do_unbias})
    try:
        areas = _read_values(observations)
        if areas.size == 0:
            raise ValueError("observations file is empty")
        body = resolve_shape(shape, normalize_volume)
        reference = ReferenceDensity.from_body(body, size=n,
                                               rng=RngStream(seed),
                                               workers=workers)
        roots = np.sqrt(areas) if body.dim == 3 else areas
        result = npmle_em(roots, reference, tol=tol, max_iter=max_iter)
        save_step_cdf_csv(result.step_cdf, output, config=config.to_dict())
        report = result.report()
        report["config"] = config.to_dict()
        report_path = Path(output).with_suffix(".report.json")
        with open(report_path, "w") as fh:
            json.dump(report, fh, sort_keys=True)
            fh.write("\n")
        if do_unbias:
            unbiased = unbias(result.step_cdf)
            save_step_cdf_csv(unbiased, Path(output).with_suffix(".unbiased.csv"),
                              config=config.to_dict())
    except (SectionLabError, ValueError, OSError) as exc:
        _fail(EXIT_INPUT, type(exc).__name__, str(exc))
    status = "converged" if result.converged else "NOT converged"
    click.echo(f"wrote {output} ({status} after {result.iterations} "
               f"iterations, loglik {result.final_loglik:.6f})")


@main.command()
@click.option("--shape", required=True, help="Builtin name or body JSON file.")
@click.option("--n", type=int, default=1_000_000, show_default=True)
@click.option("--trials", type=int, default=5, show_default=True,
              help="Trials per invariance suite.")
@_common_options
def validate(shape, n, trials, seed, workers, normalize_volume):
    """Run oracle comparisons and invariance suites for a shape."""
    try:
        if n < 1:
            raise ValueError("--n must be >= 1")
        body = resolve_shape(shape, normalize_volume)
        results = run_shape_checks(body, n, seed, trials=trials)
    except (SectionLabError, ValueError, OSError) as exc:
        _fail(EXIT_INPUT, type(exc).__name__, str(exc))
    failed = False
    for result in results:
        click.echo(result.line())
        failed = failed or not result.passed
    if failed:
        sys.exit(EXIT_VALIDATION)


def _read_values(path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values.append(float(line))
    return np.array(values, dtype=float)


if __name__ == "__main__":
    main()
