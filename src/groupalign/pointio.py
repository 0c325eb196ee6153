"""Plain-text point files, JSON group manifests, and CSV run reports.

Point files hold one point per line (2 or 3 whitespace-separated
coordinates); blank lines and lines starting with '#' are skipped.
Coordinates are written with 17 significant digits so float64 values
round-trip exactly.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyFileError,
    MixedDimensionalityError,
    ParseError,
    ShapeMismatchError,
    TooFewSetsError,
)
from .geometry import Group, PointSet, VALID_DIMS


def read_point_set(path: str | Path) -> PointSet:
    """Parse a whitespace-separated point file into a PointSet."""
    path = Path(path)
    rows: list[list[float]] = []
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in VALID_DIMS:
                raise ParseError(
                    f"expected 2 or 3 columns, got {len(fields)}",
                    path=path,
                    line=lineno,
                )
            if dim is None:
                dim = len(fields)
            elif len(fields) != dim:
                raise MixedDimensionalityError(
                    f"row has {len(fields)} columns, file started with {dim}",
                    path=path,
                    line=lineno,
                )
            try:
                row = [float(f) for f in fields]
                # float() accepts 'nan' and 'inf', and overflows '1e400' to inf.
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"non-finite coordinate in {line!r}")
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from exc
            rows.append(row)
    if not rows:
        raise EmptyFileError("no data lines", path=path)
    return PointSet(np.array(rows))


def write_point_set(ps: PointSet, path: str | Path) -> None:
    """Write one point per line with round-trip-exact precision."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row in ps.points:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


@dataclass
class ManifestGroup:
    group_id: str
    members: list[Path]


@dataclass
class GroupManifest:
    """Dimensionality, group membership by file path, and freeform metadata."""

    dim: int
    groups: list[ManifestGroup]
    meta: dict = field(default_factory=dict)


def write_manifest(manifest: GroupManifest, path: str | Path) -> None:
    """Serialize a manifest; member paths are stored relative to it."""
    path = Path(path)
    base = path.resolve().parent
    payload = {
        "dim": manifest.dim,
        "groups": [
            {
                "id": g.group_id,
                "members": [
                    os.path.relpath(Path(m).resolve(), base).replace(os.sep, "/")
                    for m in g.members
                ],
            }
            for g in manifest.groups
        ],
        "meta": manifest.meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_manifest(path: str | Path) -> GroupManifest:
    """Load a manifest; member paths come back resolved against its folder."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(payload, dict):
        raise ParseError("manifest must be a JSON object", path=path)
    try:
        dim = payload["dim"]
        raw_groups = payload["groups"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}", path=path) from exc
    if not isinstance(dim, int) or dim not in VALID_DIMS:
        raise ParseError(f"dim must be the integer 2 or 3, got {dim!r}", path=path)
    if not isinstance(raw_groups, list) or not raw_groups:
        raise ParseError("groups must be a non-empty list", path=path)
    base = path.resolve().parent
    groups = []
    seen: set[str] = set()
    for entry in raw_groups:
        try:
            gid = entry["id"]
            names = entry["members"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed group entry: {exc}", path=path) from exc
        if not isinstance(gid, str):
            raise ParseError(f"group id must be a string, got {gid!r}", path=path)
        if not isinstance(names, list) or not all(isinstance(m, str) for m in names):
            raise ParseError(
                f"group {gid!r}: members must be a list of file names, got {names!r}",
                path=path,
            )
        members = [base / m for m in names]
        # Ids name output files, so they must stay inside the output folder
        # and must not collide.
        if not gid or "/" in gid or "\\" in gid or ".." in gid:
            raise ParseError(f"group id {gid!r} is empty or path-like", path=path)
        if gid in seen:
            raise ParseError(f"group id {gid!r} appears twice", path=path)
        seen.add(gid)
        if len(members) < 2:
            raise TooFewSetsError(
                f"group {gid!r} lists {len(members)} members, need at least 2"
            )
        groups.append(ManifestGroup(gid, members))
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"meta must be a JSON object, got {meta!r}", path=path)
    return GroupManifest(dim=dim, groups=groups, meta=meta)


def load_groups(manifest: GroupManifest) -> list[Group]:
    """Read every member file and build validated Groups."""
    out = []
    for g in manifest.groups:
        members = []
        for m in g.members:
            ps = read_point_set(m)
            if ps.dim != manifest.dim:
                raise ShapeMismatchError(
                    f"{m}: file is {ps.dim}D but manifest says {manifest.dim}D"
                )
            members.append(ps)
        out.append(Group(tuple(members), g.group_id))
    return out


REPORT_FIELDS = (
    "group_id",
    "k",
    "initial_normalized_cd",
    "final_normalized_cd",
    "steps",
    "wall_seconds",
    "converged",
)


@dataclass
class RunReport:
    """``report.csv``: one row per ``GroupAlignment`` plus a mean row.

    A function would do; the class stays because the benchmark wraps
    ``RunReport.write_csv`` by that name.
    """

    groups: Sequence  # optimizer.GroupAlignment records

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_FIELDS)
            for g in self.groups:
                writer.writerow(
                    [
                        g.group_id,
                        len(g.transformed),
                        f"{g.initial_normalized_cd:.17g}",
                        f"{g.final_normalized_cd:.17g}",
                        g.steps_run,
                        f"{g.wall_seconds:.6f}",
                        # Converged: the run did not end worse than it started.
                        str(g.final_normalized_cd <= g.initial_normalized_cd).lower(),
                    ]
                )
            initial = np.mean([g.initial_normalized_cd for g in self.groups])
            final = np.mean([g.final_normalized_cd for g in self.groups])
            writer.writerow(["mean", "", f"{initial:.17g}", f"{final:.17g}", "", "", ""])


def write_loss_trace(trace: np.ndarray, path: str | Path) -> None:
    """CSV with one (step, alignment, regularizer, total) row per step."""
    trace = np.asarray(trace)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "alignment", "regularizer", "total"])
        for step, (alignment, regularizer, total) in enumerate(trace):
            writer.writerow(
                [step, f"{alignment:.17g}", f"{regularizer:.17g}", f"{total:.17g}"]
            )
