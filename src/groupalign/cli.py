"""Command-line harness: synthesize groups, corrupt them, align, evaluate, plot.

Exit code 0 on success; parse/usage problems exit 2 (argparse), any
library, I/O or allocation error prints a diagnostic to stderr and exits 1.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import GroupAlignError, NonFiniteError, ParseError
from .geometry import PointSet, normalize
from .loss import normalized_cd
from .optimizer import OptimConfig, align
from .pointio import (
    GroupManifest,
    ManifestGroup,
    RunReport,
    load_groups,
    read_json,
    read_manifest,
    read_point_set,
    write_loss_trace,
    write_manifest,
    write_point_set,
)
from .shapes import BLOB_POINTS, blob_shape, fish_shape
from .svgplot import render_svg
from .synthesis import CORRUPTIONS, make_group

CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(OptimConfig))


def _member_paths(out: Path, groups) -> list[list[Path]]:
    # read_manifest rejects repeated and path-like group ids, so no two
    # members get one name and no name leaves `out`.
    return [[out / f"{g.group_id}_m{i:02d}.txt" for i in range(len(g.members))]
            for g in groups]


def _write_groups(groups, member_paths, dim, meta, manifest_path) -> None:
    """Write each group's point sets to its member paths, then the manifest
    that lists them. ``groups`` holds (group id, point sets) pairs."""
    for (_, sets), paths in zip(groups, member_paths):
        for ps, path in zip(sets, paths):
            write_point_set(ps, path)
    listed = [ManifestGroup(gid, paths) for (gid, _), paths in zip(groups, member_paths)]
    write_manifest(GroupManifest(dim, listed, meta), manifest_path)


def _refuse_overwrite(inputs, outputs) -> None:
    """Raise before any write when an output path names an input file.

    Files are compared by device and inode, which also sees through
    symlinks, hard links and relative paths."""
    taken = {(st.st_dev, st.st_ino) for st in map(os.stat, inputs)}
    for path in outputs:
        try:
            st = os.stat(path)
        except (FileNotFoundError, NotADirectoryError):
            continue  # nothing there yet, so not an input
        if (st.st_dev, st.st_ino) in taken:
            raise GroupAlignError(f"{path} is an input file; choose another --out")


def _cmd_synth(args) -> int:
    if args.groups < 1:
        raise GroupAlignError(f"--groups must be at least 1, got {args.groups}")
    if args.points is not None and (args.base is not None or args.dim in (None, 2)):
        raise GroupAlignError("--points applies only to 3D blobs (--dim 3 without --base)")
    seeds = np.random.SeedSequence(args.seed).generate_state(2 * args.groups)
    if args.base is not None:
        base = normalize(read_point_set(args.base))
        if args.dim not in (None, base.dim):
            raise GroupAlignError(f"--dim {args.dim}, but {args.base} is {base.dim}D")
        bases = [base] * args.groups
    elif args.dim in (None, 2):
        bases = [fish_shape()] * args.groups
    else:
        n = BLOB_POINTS if args.points is None else args.points
        bases = [blob_shape(n, int(s)) for s in seeds[0::2]]
    groups = [
        make_group(base, args.k, args.level, int(s), f"g{gi:03d}")
        for gi, (base, s) in enumerate(zip(bases, seeds[1::2]))
    ]
    out = Path(args.out)
    member_paths = _member_paths(out, groups)
    manifest_path = out / "manifest.json"
    inputs = [] if args.base is None else [args.base]
    _refuse_overwrite(inputs, [*chain.from_iterable(member_paths), manifest_path])
    out.mkdir(parents=True, exist_ok=True)
    meta = {"level": args.level, "seed": args.seed, "k": args.k}
    _write_groups([(g.group_id, g.members) for g in groups], member_paths,
                  groups[0].dim, meta, manifest_path)
    print(f"wrote {args.groups} group(s) of {args.k} members to {manifest_path}")
    return 0


def _cmd_noise(args) -> int:
    manifest = read_manifest(args.manifest)
    groups = load_groups(manifest)
    selected = None
    if args.members != "all":
        try:
            selected = {int(tok) for tok in args.members.split(",")}
        except ValueError:
            raise GroupAlignError(
                f"--members must be comma-separated indices, got {args.members!r}"
            ) from None
        widest = max(len(g.members) for g in manifest.groups)
        if not all(0 <= i < widest for i in selected):
            raise GroupAlignError(
                f"--members must be indices 0 to {widest - 1}, got {args.members!r}"
            )
    seeds = np.random.SeedSequence(args.seed).generate_state(
        sum(len(g.members) for g in manifest.groups)
    )
    seed_iter = iter(int(s) for s in seeds)
    noisy = []
    for g in groups:
        sets = []
        for mi, ps in enumerate(g.members):
            seed = next(seed_iter)
            if selected is None or mi in selected:
                ps = CORRUPTIONS[args.kind](ps, args.level, seed)
            sets.append(ps)
        noisy.append((g.group_id, sets))

    out = Path(args.out)
    new_paths = _member_paths(out, manifest.groups)
    manifest_path = out / "manifest.json"
    inputs = [args.manifest, *(m for g in manifest.groups for m in g.members)]
    _refuse_overwrite(inputs, [*chain.from_iterable(new_paths), manifest_path])
    out.mkdir(parents=True, exist_ok=True)
    meta = dict(manifest.meta)
    meta["noise"] = {"kind": args.kind, "level": args.level, "seed": args.seed}
    _write_groups(noisy, new_paths, manifest.dim, meta, manifest_path)
    print(f"wrote corrupted copies to {manifest_path}")
    return 0


def _load_config(args) -> OptimConfig:
    values = {}
    if args.config is not None:
        raw = read_json(args.config)
        if not isinstance(raw, dict):
            raise ParseError("config must be a JSON object", path=args.config)
        if "lambda" in raw:  # accepted alias
            if "reg_lambda" in raw:
                raise ParseError(
                    "set 'lambda' or 'reg_lambda', not both", path=args.config
                )
            raw["reg_lambda"] = raw.pop("lambda")
        unknown = set(raw) - set(CONFIG_KEYS)
        if unknown:
            raise ParseError(f"unknown config keys {sorted(unknown)}", path=args.config)
        values.update(raw)
    # Flags are stored under their config keys and left None when not given.
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    if args.hidden is not None:
        # Parsed here, since argparse turns any ValueError from a type
        # function into a usage error (exit 2).
        try:
            values["hidden"] = tuple(int(tok) for tok in args.hidden.split(","))
        except ValueError as exc:
            raise GroupAlignError(f"--hidden: {exc}") from None
    return OptimConfig(**values)


def _cmd_align(args) -> int:
    manifest = read_manifest(args.manifest)
    groups = load_groups(manifest)
    cfg = _load_config(args)
    out = Path(args.out)
    member_paths = _member_paths(out, manifest.groups)
    report_path, trace_path, manifest_path = (
        out / n for n in ("report.csv", "loss_trace.csv", "manifest.json")
    )
    svg_paths = []
    if args.svg and manifest.dim == 2:
        svg_paths = [[out / f"{g.group_id}_{when}.svg" for when in ("before", "after")]
                     for g in manifest.groups]
    inputs = [args.manifest, *(m for g in manifest.groups for m in g.members)]
    outputs = [*chain.from_iterable(member_paths + svg_paths),
               report_path, trace_path, manifest_path]
    _refuse_overwrite(inputs, outputs)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)

    try:
        result = align(groups, cfg)
    except NonFiniteError as err:
        # Keep the losses gathered before the failure; main() reports it.
        write_loss_trace([] if err.trace is None else err.trace, trace_path)
        raise
    except BaseException:
        for d in created:
            d.rmdir()  # nothing is written into them before align returns
        raise

    RunReport(result.groups).write_csv(report_path)
    write_loss_trace(result.loss_trace, trace_path)
    _write_groups([(ga.group_id, ga.transformed) for ga in result.groups], member_paths,
                  manifest.dim, {"aligned": True}, manifest_path)

    if args.svg and manifest.dim != 2:
        print("skipping SVG output for 3D data", file=sys.stderr)
    for g, ga, (before, after) in zip(groups, result.groups, svg_paths):
        render_svg(g.members, before)
        render_svg(ga.transformed, after)

    for ga in result.groups:
        initial, final = ga.initial_normalized_cd, ga.final_normalized_cd
        drop = 100.0 * (1.0 - final / initial) if initial > 0 else 0.0
        print(f"{ga.group_id}: {initial:.6g} -> {final:.6g} "
              f"({drop:.1f}% reduction, {ga.steps_run} steps)")
    print(f"report: {report_path}")
    return 0


def _cmd_eval(args) -> int:
    manifest = read_manifest(args.manifest)
    groups = load_groups(manifest)
    values = []
    for g in groups:
        value = normalized_cd(g.members)
        values.append(value)
        print(f"{g.group_id},{value:.17g}")
    print(f"mean,{float(np.mean(values)):.17g}")
    return 0


def _cmd_plot(args) -> int:
    sets = [read_point_set(p) for p in args.files]
    _refuse_overwrite(args.files, [args.out])
    render_svg(sets, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupalign",
        description="Groupwise non-rigid point-set alignment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize groups of deformed copies")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, default=7, help="members per group")
    p.add_argument("--level", type=float, default=0.4, help="deformation level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--groups", type=int, default=1, help="number of groups")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None,
                   help="2 or 3 (default: the --base file's, else 2)")
    p.add_argument("--base", default=None, help="point file to use as the base shape")
    p.add_argument("--points", type=int, default=None,
                   help=f"points per 3D blob (default: {BLOB_POINTS})")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("noise", help="corrupt members of an existing manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=tuple(CORRUPTIONS))
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--members",
        default="all",
        help="comma-separated member indices to corrupt (default: all)",
    )
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("align", help="align the groups of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON file of optimizer settings")
    p.add_argument("--steps", dest="max_steps", type=int, default=None)
    p.add_argument("--lambda", dest="reg_lambda", type=float, default=None)
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--hidden", default=None, help="comma-separated hidden widths")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr-start", type=float, default=None)
    p.add_argument("--lr-end", type=float, default=None)
    p.add_argument("--lr-decay-steps", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--svg", action="store_true", help="write before/after overlays")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("eval", help="print normalized Chamfer per group")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plot", help="overlay point files into an SVG")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
