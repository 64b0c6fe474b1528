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

import functools
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import click
import numpy as np

from . import __version__
from .density import (
    empirical_cdf,
    estimate_root_density,
    root_transform,
    untransform_density,
)
from .errors import SectionLabError, UnknownShape
from .geometry import ConvexBody, builtin_body, scale_body, volume
from .io import (
    density_metadata,
    load_body,
    load_observations,
    save_density_csv,
    save_sample_csv,
    save_sample_json,
    save_step_cdf_csv,
    write_json,
)
from .rng import RngStream
from .sampling import SectionSample, sample_iur_sections
from .stereology import (ReferenceDensity, check_observations,
                         check_stopping_rule, npmle_em, unbias as unbias_cdf)
from .validation import run_shape_checks

EXIT_VALIDATION = 2
EXIT_INPUT = 3


@dataclass
class RunConfig:
    """Everything needed to reproduce one CLI run byte for byte."""

    command: str
    shape: str = ""
    n: int = 1_000_000
    seed: int = 0
    output: str = ""
    grid_points: int | None = None
    bandwidth: float | None = None
    scale: str = "root"
    workers: int = 1
    normalize_volume: bool = False
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["version"] = __version__
        return data


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)} - {"command", "extra"}


def _command(command):
    """A command's callback: ``command`` gets the RunConfig of the options.

    Options named like a RunConfig field fill it; the others go to
    ``extra``.  Bad input is reported as one JSON line on stderr, exit 3;
    so is a missing scipy, which body files and ``polygon<k>`` need, and
    a size too large to allocate.
    """
    @functools.wraps(command)
    def run(**options):
        known = {k: v for k, v in options.items() if k in _CONFIG_FIELDS}
        extra = {k: v for k, v in options.items() if k not in _CONFIG_FIELDS}
        config = RunConfig(command=command.__name__, extra=extra, **known)
        try:
            return command(config)
        except (SectionLabError, ValueError, OSError, ImportError,
                MemoryError) as exc:
            payload = {"error": type(exc).__name__, "message": str(exc)}
            click.echo(json.dumps(payload, sort_keys=True), err=True)
            sys.exit(EXIT_INPUT)
    return run


def resolve_shape(shape: str, normalize_volume: bool) -> ConvexBody:
    """Path to a body JSON file, or else a builtin name."""
    path = Path(shape)
    if not path.exists():
        try:
            return builtin_body(shape, normalize_volume=normalize_volume)
        except ValueError as exc:
            raise UnknownShape(f"{shape!r} is not a file, and {exc}") from exc
    body = load_body(path, label=path.stem)
    if normalize_volume:
        body = scale_body(body, volume(body) ** (-1.0 / body.dim))
    return body


def _body(config: RunConfig) -> ConvexBody:
    """Check ``--n`` and resolve ``--shape``."""
    if config.n < 1:
        raise ValueError("--n must be >= 1")
    return resolve_shape(config.shape, config.normalize_volume)


def _sample(body: ConvexBody, config: RunConfig) -> SectionSample:
    """``--n`` sections of ``body`` drawn from ``--seed``."""
    return sample_iur_sections(body, config.n, RngStream(config.seed),
                               workers=config.workers)


def _common_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Base seed of the random streams.")(fn)
    fn = click.option("--workers", type=int, default=1, show_default=True,
                      help="Worker stream count.")(fn)
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
@_command
def sample(config):
    """Draw isotropic random section volumes of a shape."""
    result = _sample(_body(config), config)
    json_out = config.output.endswith(".json")
    save = save_sample_json if json_out else save_sample_csv
    save(result, config.output, config=config.to_dict())
    click.echo(f"wrote {config.output} (accepted {config.n}, "
               f"proposed {result.n_proposed})")


@main.command()
@click.option("--shape", required=True, help="Builtin name or body JSON file.")
@click.option("--n", type=int, default=1_000_000, show_default=True)
@click.option("--output", "-o", required=True, type=click.Path(),
              help="Output CSV; a .json metadata sidecar is written too.")
@click.option("--grid-points", type=int, default=None,
              help="Grid point count (default: points at most h/2 apart, "
                   "h the bandwidth).")
@click.option("--bandwidth", type=float, default=None,
              help="Fixed bandwidth (default: Sheather-Jones).")
@click.option("--scale", type=click.Choice(["root", "volume", "both"]),
              default="root", show_default=True)
@_common_options
@_command
def density(config):
    """Estimate the section volume density of a shape."""
    if config.grid_points is not None and config.grid_points < 16:
        raise ValueError("--grid-points must be >= 16")
    body = _body(config)
    # handed over, not kept: in 3D the volumes go once the roots exist
    estimate = estimate_root_density(_sample(body, config),
                                     grid_points=config.grid_points,
                                     bandwidth=config.bandwidth)
    scale = config.scale
    outputs = []
    base = Path(config.output)
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
    outputs.append(base.with_suffix(".meta.json"))
    write_json(density_metadata(estimate, body_label=body.label,
                                config=config.to_dict()), outputs[-1])
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
@_command
def ecdf(config):
    """Empirical CDF of (root-transformed) section volumes."""
    result = _sample(_body(config), config)
    root = config.scale == "root"
    cdf = empirical_cdf(root_transform(result) if root else result.values)
    save_step_cdf_csv(cdf, config.output, config=config.to_dict())
    click.echo(f"wrote {config.output} ({len(cdf.locations)} steps)")


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
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Bound on the optimality gap max_j D_j - 1 at which the "
                   "fit counts as converged; the log-likelihood is then "
                   "within tol of its maximum.")
@click.option("--max-iter", type=int, default=20000, show_default=True)
@click.option("--unbias", is_flag=True, default=False,
              help="Also write the unbiased size CDF.")
@_common_options
@_command
def unfold(config):
    """Unfold a size distribution from observed section areas."""
    options = config.extra
    # before the reference sample, which takes most of the run
    check_stopping_rule(options["tol"], options["max_iter"])
    areas = load_observations(options["observations"])
    check_observations(areas)
    body = _body(config)
    reference = ReferenceDensity.from_body(body, size=config.n,
                                           rng=RngStream(config.seed),
                                           workers=config.workers)
    roots = np.sqrt(areas) if body.dim == 3 else areas
    result = npmle_em(roots, reference, tol=options["tol"],
                      max_iter=options["max_iter"])
    output = Path(config.output)
    save_step_cdf_csv(result.step_cdf, output, config=config.to_dict())
    write_json({**result.report(), "config": config.to_dict()},
               output.with_suffix(".report.json"))
    if options["unbias"]:
        save_step_cdf_csv(unbias_cdf(result.step_cdf),
                          output.with_suffix(".unbiased.csv"),
                          config=config.to_dict())
    status = "converged" if result.converged else "NOT converged"
    click.echo(f"wrote {config.output} ({status} after {result.iterations} "
               f"iterations, loglik {result.final_loglik:.6f}, "
               f"gap {result.gap:.3g})")


@main.command()
@click.option("--shape", required=True, help="Builtin name or body JSON file.")
@click.option("--n", type=int, default=1_000_000, show_default=True)
@click.option("--trials", type=int, default=5, show_default=True,
              help="Trials per invariance suite.")
@_common_options
@_command
def validate(config):
    """Run oracle comparisons and invariance suites for a shape."""
    if config.extra["trials"] < 1:
        raise ValueError("--trials must be >= 1")
    results = run_shape_checks(_body(config), config.n, config.seed,
                               trials=config.extra["trials"],
                               workers=config.workers)
    failed = False
    for result in results:
        click.echo(result.line())
        failed = failed or not result.passed
    if failed:
        sys.exit(EXIT_VALIDATION)


# Kept for the benchmark, whose tracer binds ``cli._read_values``; remove
# it in the next change to the benchmark.
_read_values = load_observations


if __name__ == "__main__":
    main()
