"""Data files: bodies, section samples, density estimates, step CDFs,
observations.

A body is read from JSON in one of three encodings: a vertex list (the
points whose hull is the body; a ``facets`` key is ignored, since the
hull is rebuilt), a half-space system {normals, offsets} with interior
{x : n_i . x <= c_i}, converted by vertex enumeration, or a ball
{kind: "ball", center, radius}.

Every CSV shares one layout: ``# key: value`` header lines (a dict value
is written as sorted-key JSON), an optional line naming the columns, then
one row of float reprs per line, so values round-trip bit for bit.  JSON
files are written with sorted keys and a trailing newline.
"""

from __future__ import annotations

import json

import numpy as np

from .density import DensityEstimate, StepCDF
from .errors import DegenerateInput
from .geometry import (ConvexBody, build_polytope, validate_body,
                       vertices_from_halfspaces)
from .sampling import SectionSample

_ROW_BLOCK = 1 << 16  # CSV rows formatted per block
_SAMPLE_FIELDS = ("body_label", "dim", "seed", "n_proposed", "n_accepted",
                  "workers")


def write_json(payload: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: dict, columns, names: str | None = None) -> None:
    """Header lines (``None`` values skipped), the names line, then rows.

    The rows are formatted ``_ROW_BLOCK`` at a time, so the Python floats
    a row's repr needs, 32 bytes each, exist for one block and not for
    the whole columns.  The rows stop at the shortest column.
    """
    columns = [np.asarray(c, float) for c in columns]
    rows = min(map(len, columns), default=0)
    line = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        for key, value in header.items():
            if isinstance(value, dict):
                value = json.dumps(value, sort_keys=True)
            if value is not None:
                fh.write(f"# {key}: {value}\n")
        if names is not None:
            fh.write(names + "\n")
        for start in range(0, rows, _ROW_BLOCK):
            block = (c[start:start + _ROW_BLOCK].tolist() for c in columns)
            fh.writelines(line % row for row in zip(*block))


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
# Bodies


def body_from_dict(data: dict, label: str | None = None) -> ConvexBody:
    name = label or data.get("label", "body")
    if data.get("kind") == "ball":
        center = np.asarray(data["center"], dtype=float)
        ball = ConvexBody(dim=len(center), kind="ball", center=center,
                          radius=float(data["radius"]), label=name)
        validate_body(ball)  # a bad file fails at load
        return ball
    if "normals" in data:
        points = vertices_from_halfspaces(data["normals"], data["offsets"])
        return build_polytope(points, label=name)
    if "vertices" in data:
        return build_polytope(np.asarray(data["vertices"], dtype=float),
                              label=name)
    raise DegenerateInput(
        "body JSON needs 'vertices', 'normals'/'offsets', or kind 'ball'"
    )


def load_body(path, label: str | None = None) -> ConvexBody:
    with open(path) as fh:
        return body_from_dict(json.load(fh), label=label)


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
    """``write_json`` of the fields and values, bit for bit, with the
    values encoded ``_ROW_BLOCK`` at a time into the place of an empty
    list, so their Python floats never exist all at once."""
    payload = {key: getattr(sample, key) for key in _SAMPLE_FIELDS}
    payload["values"] = []
    if config is not None:
        payload["config"] = config
    # only "workers", an int, sorts after "values": its list is the last
    head, _, tail = json.dumps(payload, sort_keys=True).rpartition(
        '"values": []')
    values = sample.values
    with open(path, "w") as fh:
        fh.write(head + '"values": [')
        for start in range(0, values.size, _ROW_BLOCK):
            block = values[start:start + _ROW_BLOCK].tolist()
            fh.write((", " if start else "") + json.dumps(block)[1:-1])
        fh.write("]" + tail + "\n")


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
