"""Data files: section samples, density estimates, step CDFs, observations.

Every CSV shares one layout: ``# key: value`` header lines (a dict value
is written as sorted-key JSON), an optional line naming the columns, then
one row of float reprs per line, so values round-trip bit for bit.  JSON
files are written with sorted keys and a trailing newline.
"""

from __future__ import annotations

import json

import numpy as np

from .density import DensityEstimate, StepCDF
from .sampling import SectionSample

_SAMPLE_FIELDS = ("body_label", "dim", "seed", "n_proposed", "n_accepted",
                  "workers")


def write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: dict, columns, names: str | None = None) -> None:
    """Header lines (``None`` values skipped), the names line, then rows."""
    with open(path, "w") as fh:
        for key, value in header.items():
            if isinstance(value, dict):
                value = json.dumps(value, sort_keys=True)
            if value is not None:
                fh.write(f"# {key}: {value}\n")
        if names is not None:
            fh.write(names + "\n")
        line = ",".join(["%r"] * len(columns)) + "\n"
        for row in zip(*(np.asarray(c, float).tolist() for c in columns)):
            fh.write(line % row)


def read_csv(path, width: int, names: str | None = None
             ) -> tuple[dict, np.ndarray]:
    """Header dict (values as text) and the rows as a (rows, width) array.

    Raises ValueError on a row that is not ``width`` floats; a line equal
    to ``names`` is skipped.
    """
    header, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
            elif line and line != names:
                if line.count(",") != width - 1:
                    raise ValueError(f"{path}: expected {width} column(s), "
                                     f"got {line!r}")
                rows.append(line)
    values = [float(f) for row in rows for f in row.split(",")]
    return header, np.array(values, dtype=float).reshape(-1, width)


# ---------------------------------------------------------------------------
# Section samples


def save_sample_csv(sample: SectionSample, path, config: dict | None = None
                    ) -> None:
    """One value per line, metadata as leading comment lines."""
    header = {key: getattr(sample, key) for key in _SAMPLE_FIELDS}
    write_csv(path, {**header, "config": config}, [sample.values])


def load_sample_csv(path) -> SectionSample:
    meta, rows = read_csv(path, 1)
    counts = {key: int(meta[key])
              for key in ("dim", "seed", "n_proposed", "n_accepted")}
    return SectionSample(values=rows[:, 0],
                         body_label=meta.get("body_label", "body"),
                         workers=int(meta.get("workers", 1)), **counts)


def save_sample_json(sample: SectionSample, path, config: dict | None = None
                     ) -> None:
    payload = {key: getattr(sample, key) for key in _SAMPLE_FIELDS}
    payload["values"] = sample.values.tolist()
    if config is not None:
        payload["config"] = config
    write_json(payload, path)


def load_sample_json(path) -> SectionSample:
    with open(path) as fh:
        payload = json.load(fh)
    fields = {key: payload[key] for key in _SAMPLE_FIELDS if key in payload}
    return SectionSample(values=payload["values"], **fields)


# ---------------------------------------------------------------------------
# Density estimates and step CDFs


def save_density_csv(estimate: DensityEstimate, path,
                     config: dict | None = None, body_label: str = ""
                     ) -> None:
    header = {
        "transform": estimate.transform,
        "bandwidth": float(estimate.bandwidth),
        "bandwidth_method": estimate.bandwidth_method,
        "sample_size": estimate.sample_size,
        "body_label": body_label or None,
        "config": config,
    }
    write_csv(path, header, [estimate.grid, estimate.values], "grid,value")


def density_metadata(estimate: DensityEstimate, body_label: str = "",
                     config: dict | None = None) -> dict:
    """The ``.meta.json`` sidecar of a density run."""
    meta = {
        "bandwidth": estimate.bandwidth,
        "bandwidth_method": estimate.bandwidth_method,
        "N": estimate.sample_size,
        "transform": estimate.transform,
        "body_label": body_label,
    }
    if config is not None:
        meta["config"] = config
    return meta


def save_step_cdf_csv(cdf: StepCDF, path, config: dict | None = None
                      ) -> None:
    write_csv(path, {"config": config}, [cdf.locations, cdf.cumulative],
              "location,cumulative")


def load_step_cdf_csv(path) -> StepCDF:
    _, rows = read_csv(path, 2, "location,cumulative")
    return StepCDF(rows[:, 0], rows[:, 1])


def load_observations(path) -> np.ndarray:
    """Observed section sizes: one value per line, ``#`` lines ignored."""
    return read_csv(path, 1)[1][:, 0]
