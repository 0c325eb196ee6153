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

import numpy as np

from .errors import ParseError
from .geometry import Group, PointSet, VALID_DIMS


def read_point_set(path: str | Path) -> PointSet:
    """Parse a whitespace-separated point file into a PointSet."""
    path = Path(path)
    rows: list[list[float]] = []
    dim: int | None = None
    try:
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
                    raise ParseError(
                        f"row has {len(fields)} columns, file started with {dim}",
                        path=path,
                        line=lineno,
                    )
                try:
                    row = [float(f) for f in fields]
                except ValueError as exc:
                    raise ParseError(str(exc), path=path, line=lineno) from None
                # float() accepts 'nan' and 'inf', and overflows '1e400' to inf.
                if not all(map(math.isfinite, row)):
                    raise ParseError(
                        f"non-finite coordinate in {line!r}", path=path, line=lineno
                    )
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=path) from None
    if not rows:
        raise ParseError("no data lines", path=path)
    return PointSet(np.array(rows))


def write_point_set(ps: PointSet, path: str | Path) -> None:
    """Write one point per line with round-trip-exact precision."""
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, ps.points, fmt="%.17g")


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


def read_json(path: str | Path):
    """Load a UTF-8 JSON file; a ParseError names the file if it is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from None


def read_manifest(path: str | Path) -> GroupManifest:
    """Load a manifest; member paths come back resolved against its folder."""
    path = Path(path)
    payload = read_json(path)
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
        if any("\0" in m for m in names):
            raise ParseError(f"group {gid!r}: a member name holds a NUL", path=path)
        members = [base / m for m in names]
        # Ids name output files, so they must stay inside the output folder,
        # must not collide, and must be printable file names.
        if not gid or "/" in gid or "\\" in gid or ".." in gid:
            raise ParseError(f"group id {gid!r} is empty or path-like", path=path)
        if any(c < " " or c == "\x7f" for c in gid):
            raise ParseError(f"group id {gid!r} holds a control character", path=path)
        if gid in seen:
            raise ParseError(f"group id {gid!r} appears twice", path=path)
        seen.add(gid)
        if len(members) < 2:
            raise ParseError(
                f"group {gid!r} lists {len(members)} members, need at least 2",
                path=path,
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
                raise ParseError(
                    f"file is {ps.dim}D but manifest says {manifest.dim}D", path=m
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
    """``report.csv``: one row per group of an ``AlignmentResult``, plus a mean row.

    A function would do; the class stays because the benchmark wraps
    ``RunReport.write_csv`` by that name.
    """

    result: object  # an optimizer.AlignmentResult

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_FIELDS)
            res = self.result
            for g in res.groups:
                writer.writerow(
                    [
                        g.group_id,
                        len(g.transformed),
                        f"{g.initial_normalized_cd:.17g}",
                        f"{g.final_normalized_cd:.17g}",
                        res.steps_run,  # the run's, as is its wall time
                        f"{res.wall_seconds:.6f}",
                        # Converged: the run did not end worse than it started.
                        str(g.final_normalized_cd <= g.initial_normalized_cd).lower(),
                    ]
                )
            initial = np.mean([g.initial_normalized_cd for g in res.groups])
            final = np.mean([g.final_normalized_cd for g in res.groups])
            writer.writerow(["mean", "", f"{initial:.17g}", f"{final:.17g}", "", "", ""])


def write_loss_trace(trace: np.ndarray, path: str | Path) -> None:
    """CSV with one (step, alignment, regularizer, total) row per step."""
    trace = np.reshape(trace, (-1, 3))
    rows = np.column_stack([np.arange(len(trace)), trace])
    # CRLF rows, as csv writes them; a handle, so NumPy never gzips a ".gz" path.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, rows, fmt=["%d"] + ["%.17g"] * 3, delimiter=",",
                   newline="\r\n", header="step,alignment,regularizer,total",
                   comments="")
