"""Command-line harness: synthesize groups, corrupt them, align, evaluate, plot.

Exit code 0 on success; parse/usage problems exit 2 (argparse), any
library or I/O error prints a diagnostic to stderr and exits 1.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import GroupAlignError
from .geometry import PointSet, normalize
from .loss import normalized_cd
from .optimizer import OptimConfig, align
from .pointio import (
    GroupManifest,
    ManifestGroup,
    RunReport,
    RunRow,
    load_groups,
    read_manifest,
    read_point_set,
    write_loss_trace,
    write_manifest,
    write_point_set,
)
from .shapes import blob_shape, fish_shape
from .svgplot import render_svg
from .synthesis import NoiseSpec, apply_noise, make_group

CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(OptimConfig))


def _cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).generate_state(2 * args.groups)

    if args.base is not None:
        base = normalize(read_point_set(args.base))
        dim = base.dim
    else:
        dim = args.dim
        base = fish_shape() if dim == 2 else None

    manifest_groups = []
    for gi in range(args.groups):
        gid = f"g{gi:03d}"
        if args.base is not None:
            group_base = base
        elif dim == 2:
            group_base = base
        else:
            group_base = blob_shape(args.points, int(seeds[2 * gi]))
        group = make_group(group_base, args.k, args.level, int(seeds[2 * gi + 1]), gid)
        members = []
        for mi, member in enumerate(group.members):
            member_path = out / f"{gid}_m{mi:02d}.txt"
            write_point_set(member, member_path)
            members.append(member_path)
        manifest_groups.append(ManifestGroup(gid, members))

    manifest = GroupManifest(
        dim=dim,
        groups=manifest_groups,
        meta={"level": args.level, "seed": args.seed, "k": args.k},
    )
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    print(f"wrote {args.groups} group(s) of {args.k} members to {manifest_path}")
    return 0


def _cmd_noise(args) -> int:
    manifest = read_manifest(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    selected = None
    if args.members != "all":
        selected = {int(tok) for tok in args.members.split(",")}

    seeds = np.random.SeedSequence(args.seed).generate_state(
        sum(len(g.members) for g in manifest.groups)
    )
    seed_iter = iter(int(s) for s in seeds)

    new_groups = []
    for g in manifest.groups:
        members = []
        for mi, member_path in enumerate(g.members):
            ps = read_point_set(member_path)
            seed = next(seed_iter)
            if selected is None or mi in selected:
                ps = apply_noise(ps, NoiseSpec(args.kind, args.level, seed))
            new_path = out / Path(member_path).name
            write_point_set(ps, new_path)
            members.append(new_path)
        new_groups.append(ManifestGroup(g.group_id, members))

    meta = dict(manifest.meta)
    meta["noise"] = {"kind": args.kind, "level": args.level, "seed": args.seed}
    new_manifest = GroupManifest(manifest.dim, new_groups, meta)
    manifest_path = out / "manifest.json"
    write_manifest(new_manifest, manifest_path)
    print(f"wrote corrupted copies to {manifest_path}")
    return 0


def _load_config(args) -> OptimConfig:
    values = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise GroupAlignError(f"{args.config}: config must be a JSON object")
        if "lambda" in raw:  # accepted alias
            raw["reg_lambda"] = raw.pop("lambda")
        unknown = set(raw) - set(CONFIG_KEYS)
        if unknown:
            raise GroupAlignError(f"{args.config}: unknown config keys {sorted(unknown)}")
        values.update(raw)

    overrides = {
        "max_steps": args.steps,
        "reg_lambda": args.reg_lambda,
        "latent_dim": args.latent_dim,
        "seed": args.seed,
        "lr_start": args.lr_start,
        "lr_end": args.lr_end,
        "lr_decay_steps": args.lr_decay_steps,
        "workers": args.workers,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if args.hidden is not None:
        values["hidden"] = tuple(int(tok) for tok in args.hidden.split(","))
    if args.per_group_decoder:
        values["share_decoder"] = False
    return OptimConfig(**values)


def _cmd_align(args) -> int:
    manifest = read_manifest(args.manifest)
    groups = load_groups(manifest)
    cfg = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    result = align(groups, cfg)
    wall = time.perf_counter() - start

    aligned_groups = []
    rows = []
    for ga in result.groups:
        members = []
        for mi, ps in enumerate(ga.transformed):
            member_path = out / f"{ga.group_id}_m{mi:02d}.txt"
            write_point_set(ps, member_path)
            members.append(member_path)
        aligned_groups.append(ManifestGroup(ga.group_id, members))
        rows.append(
            RunRow(
                group_id=ga.group_id,
                k=len(ga.transformed),
                initial_normalized_cd=ga.initial_normalized_cd,
                final_normalized_cd=ga.final_normalized_cd,
                steps=ga.steps_run,
                wall_seconds=wall / len(result.groups),
            )
        )

    report = RunReport(rows)
    report.write_csv(out / "report.csv")
    write_loss_trace(result.loss_trace, out / "loss_trace.csv")
    write_manifest(
        GroupManifest(manifest.dim, aligned_groups, {"aligned": True}),
        out / "manifest.json",
    )

    if args.svg:
        if manifest.dim != 2:
            print("skipping SVG output for 3D data", file=sys.stderr)
        else:
            for g, ga in zip(groups, result.groups):
                render_svg(g.members, out / f"{ga.group_id}_before.svg")
                render_svg(ga.transformed, out / f"{ga.group_id}_after.svg")

    for row in rows:
        drop = 0.0
        if row.initial_normalized_cd > 0:
            drop = 100.0 * (1.0 - row.final_normalized_cd / row.initial_normalized_cd)
        print(
            f"{row.group_id}: {row.initial_normalized_cd:.6g} -> "
            f"{row.final_normalized_cd:.6g} ({drop:.1f}% reduction, "
            f"{row.steps} steps)"
        )
    print(f"report: {out / 'report.csv'}")
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
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    p.add_argument("--base", default=None, help="point file to use as the base shape")
    p.add_argument("--points", type=int, default=2048, help="3D base cardinality")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("noise", help="corrupt members of an existing manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=("po", "di", "gd"))
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
    p.add_argument("--steps", type=int, default=None, help="override max_steps")
    p.add_argument("--lambda", dest="reg_lambda", type=float, default=None)
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--hidden", default=None, help="comma-separated hidden widths")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr-start", type=float, default=None)
    p.add_argument("--lr-end", type=float, default=None)
    p.add_argument("--lr-decay-steps", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--per-group-decoder", action="store_true")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupAlignError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
