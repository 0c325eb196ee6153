import argparse
import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from groupalign import cli, decoder
from groupalign.cli import _load_config, build_parser, main
from groupalign.optimizer import OptimConfig, align
from groupalign.geometry import PointSet
from groupalign.pointio import read_manifest, read_point_set, write_point_set


def _read_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows


def _synth(tmp_path, name="data", **over):
    args = {"k": "3", "level": "0.2", "seed": "5"}
    args.update({k: str(v) for k, v in over.items()})
    out = tmp_path / name
    argv = ["synth", "--out", str(out)]
    for key, val in args.items():
        argv += [f"--{key.replace('_', '-')}", val]
    assert main(argv) == 0
    return out / "manifest.json"


class TestSynth:
    def test_writes_members_and_manifest(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        manifest = read_manifest(manifest_path)
        assert manifest.dim == 2
        assert manifest.meta["k"] == 3
        assert manifest.meta["level"] == 0.2
        [group] = manifest.groups
        assert [p.name for p in group.members] == [
            "g000_m00.txt",
            "g000_m01.txt",
            "g000_m02.txt",
        ]
        for p in group.members:
            assert read_point_set(p).dim == 2

    def test_three_d_blobs(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path, dim=3, points=64, k=2, groups=2)
        capsys.readouterr()
        manifest = read_manifest(manifest_path)
        assert manifest.dim == 3
        assert len(manifest.groups) == 2
        ps = read_point_set(manifest.groups[0].members[0])
        assert ps.points.shape == (64, 3)
        # different groups deform different base blobs
        a = read_point_set(manifest.groups[0].members[0])
        b = read_point_set(manifest.groups[1].members[0])
        assert not np.array_equal(a.points, b.points)

    def test_custom_base_file(self, tmp_path, capsys):
        base = tmp_path / "base.txt"
        rng = np.random.default_rng(48)
        base.write_text(
            "\n".join(f"{x} {y}" for x, y in rng.normal(size=(30, 2))) + "\n"
        )
        manifest_path = _synth(tmp_path, base=base, level="0.0")
        capsys.readouterr()
        manifest = read_manifest(manifest_path)
        member = read_point_set(manifest.groups[0].members[0])
        # level 0 reproduces the normalized base
        radius = np.sqrt((member.points**2).sum(axis=1)).max()
        assert radius == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "flags",
        [["--groups", "0"], ["--k", "1"],
         ["--level", "-1"], ["--level", "nan"], ["--level", "inf"],
         # Finite, but the control shifts overflow and so do the warped points.
         ["--level", "1e308"], ["--level", "1e308", "--dim", "3", "--points", "64"]],
    )
    def test_bad_arguments_create_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "data"
        rc = main(["synth", "--out", str(out)] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if flags[:2] == ["--level", "1e308"]:
            assert "points contain non-finite values" in err
        elif flags[0] == "--level":
            assert "deformation level" in err
        assert not out.exists()

    def test_dim_must_match_the_base_file(self, tmp_path, capsys):
        """--dim defaults to the --base file's dimension; a --dim that
        differs from it is refused before anything is written."""
        base = tmp_path / "base.txt"
        rng = np.random.default_rng(49)
        base.write_text("\n".join(f"{x} {y}" for x, y in rng.normal(size=(30, 2))))
        out = tmp_path / "data"
        rc = main(["synth", "--out", str(out), "--base", str(base), "--dim", "3"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --dim 3, but {base} is 2D\n"
        assert not out.exists()
        assert read_manifest(_synth(tmp_path, name="implied", base=base)).dim == 2
        assert read_manifest(_synth(tmp_path, name="stated", base=base, dim=2)).dim == 2

    def test_points_need_a_3d_blob(self, tmp_path, capsys):
        """--points sizes the 3D blobs only; given where no blob is built
        (2D, or --base), it is refused before anything is written."""
        base = tmp_path / "base.txt"
        base.write_text("\n".join(f"{x} {y} {z}" for x, y, z in np.eye(3) - 0.5))
        for flags in (["--k", "2"], ["--dim", "2"], ["--base", str(base)],
                      ["--dim", "3", "--base", str(base)]):
            out = tmp_path / "data"
            rc = main(["synth", "--out", str(out), "--points", "64"] + flags)
            assert rc == 1
            assert capsys.readouterr().err == (
                "error: --points applies only to 3D blobs (--dim 3 without --base)\n"
            )
            assert not out.exists()
        manifest = read_manifest(_synth(tmp_path, dim=3, k=2))
        assert len(read_point_set(manifest.groups[0].members[0])) == 2048

    def test_deterministic(self, tmp_path, capsys):
        m1 = _synth(tmp_path, name="d1")
        m2 = _synth(tmp_path, name="d2")
        capsys.readouterr()
        for p1, p2 in zip(
            read_manifest(m1).groups[0].members,
            read_manifest(m2).groups[0].members,
        ):
            assert p1.read_bytes() == p2.read_bytes()


class TestNoise:
    @pytest.fixture()
    def manifest_path(self, tmp_path, capsys):
        path = _synth(tmp_path)
        capsys.readouterr()
        return path

    def test_outliers_grow_members(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "po"
        rc = main(
            ["noise", "--manifest", str(manifest_path), "--out", str(out),
             "--kind", "po", "--level", "0.4", "--seed", "1"]
        )
        capsys.readouterr()
        assert rc == 0
        noisy = read_manifest(out / "manifest.json")
        assert noisy.meta["noise"] == {"kind": "po", "level": 0.4, "seed": 1}
        for p in noisy.groups[0].members:
            assert len(read_point_set(p)) == 91 + 36  # round(0.4 * 91)

    def test_huge_outlier_level_creates_nothing(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "po"
        rc = main(
            ["noise", "--manifest", str(manifest_path), "--out", str(out),
             "--kind", "po", "--level", "1e300"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: outlier level")
        assert not out.exists()

    def test_removing_every_point_creates_nothing(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path, dim=3, points=96, k=3, seed=1)
        capsys.readouterr()
        out = tmp_path / "di"
        rc = main(
            ["noise", "--manifest", str(manifest_path), "--out", str(out),
             "--kind", "di", "--level", "0.995"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: removal level 0.995")
        assert "all 96 points" in err
        assert not out.exists()

    def test_patch_removal_shrinks_members(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "di"
        rc = main(
            ["noise", "--manifest", str(manifest_path), "--out", str(out),
             "--kind", "di", "--level", "0.2", "--seed", "1"]
        )
        capsys.readouterr()
        assert rc == 0
        for p in read_manifest(out / "manifest.json").groups[0].members:
            assert len(read_point_set(p)) == 91 - 18  # round(0.2 * 91)

    def test_member_selection(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "gd"
        rc = main(
            ["noise", "--manifest", str(manifest_path), "--out", str(out),
             "--kind", "gd", "--level", "0.05", "--seed", "1",
             "--members", "0"]
        )
        capsys.readouterr()
        assert rc == 0
        before = read_manifest(manifest_path).groups[0].members
        after = read_manifest(out / "manifest.json").groups[0].members
        assert not np.array_equal(
            read_point_set(after[0]).points, read_point_set(before[0]).points
        )
        np.testing.assert_array_equal(
            read_point_set(after[1]).points, read_point_set(before[1]).points
        )
        np.testing.assert_array_equal(
            read_point_set(after[2]).points, read_point_set(before[2]).points
        )

    def test_members_with_one_file_name_stay_apart(self, tmp_path, capsys):
        rng = np.random.default_rng(51)
        inputs = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            inputs.append(tmp_path / folder / "m.txt")
            write_point_set(PointSet(rng.normal(size=(20, 2))), inputs[-1])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"dim": 2, "groups": [{"id": "g", "members": ["a/m.txt", "b/m.txt"]}]}
        ))
        out = tmp_path / "noisy"
        rc = main(
            ["noise", "--manifest", str(manifest), "--out", str(out),
             "--kind", "gd", "--level", "0.05", "--members", "0"]
        )
        capsys.readouterr()
        assert rc == 0
        outputs = read_manifest(out / "manifest.json").groups[0].members
        assert len(set(outputs)) == 2
        assert outputs[0].read_bytes() != inputs[0].read_bytes()
        assert outputs[1].read_bytes() == inputs[1].read_bytes()


FAST_ALIGN = ["--steps", "40", "--latent-dim", "8", "--hidden", "12,6"]


class TestAlign:
    def test_outputs(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        out = tmp_path / "aligned"
        rc = main(
            ["align", "--manifest", str(manifest_path), "--out", str(out), "--svg"]
            + FAST_ALIGN
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "g000" in stdout
        report = _read_report(out / "report.csv")
        assert report[1][0] == "g000"
        assert (out / "loss_trace.csv").exists()
        assert (out / "g000_before.svg").exists()
        assert (out / "g000_after.svg").exists()
        aligned = read_manifest(out / "manifest.json")
        assert len(aligned.groups[0].members) == 3
        with open(out / "loss_trace.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 41

    def test_reduces_cd(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        out = tmp_path / "aligned"
        rc = main(
            ["align", "--manifest", str(manifest_path), "--out", str(out),
             "--steps", "150", "--latent-dim", "16", "--hidden", "16,8"]
        )
        capsys.readouterr()
        assert rc == 0
        report = _read_report(out / "report.csv")
        initial = float(report[1][2])
        final = float(report[1][3])
        assert final < 0.5 * initial

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 7, "lambda": 0.3, "latent_dim": 8,
                                   "hidden": [12, 6]}))
        out = tmp_path / "aligned"
        rc = main(
            ["align", "--manifest", str(manifest_path), "--out", str(out),
             "--config", str(cfg), "--steps", "9"]
        )
        capsys.readouterr()
        assert rc == 0
        with open(out / "loss_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # --steps wins over the config file
        assert len(rows) == 9
        # the config lambda shows up in the stored breakdown
        for row in rows:
            alignment, reg, total = (float(v) for v in row[1:])
            assert total == pytest.approx(alignment + 0.3 * reg, rel=1e-12)

    def test_unknown_config_key(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"momentum": 0.9}))
        rc = main(
            ["align", "--manifest", str(manifest_path),
             "--out", str(tmp_path / "x"), "--config", str(cfg)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err
        assert "momentum" in err

    def test_share_decoder_is_an_unknown_key(self, tmp_path, capsys):
        """A config file from before the decoder was always shared names the
        file and the key, and creates no --out."""
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"share_decoder": False}))
        rc = main(
            ["align", "--manifest", str(manifest_path),
             "--out", str(tmp_path / "x"), "--config", str(cfg)] + FAST_ALIGN
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert str(cfg) in err and "share_decoder" in err
        assert not (tmp_path / "x").exists()

    def test_per_group_decoder_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["align", "--manifest", str(tmp_path / "m.json"),
                  "--out", str(tmp_path / "x"), "--per-group-decoder"])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_lambda_and_its_alias_together(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.3, "reg_lambda": 0.5}))
        rc = main(
            ["align", "--manifest", str(manifest_path),
             "--out", str(tmp_path / "x"), "--config", str(cfg)] + FAST_ALIGN
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err
        assert "'lambda'" in err and "'reg_lambda'" in err
        assert not (tmp_path / "x").exists()

    def test_every_align_flag_is_stored_under_a_config_key(self):
        [subparsers] = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        for action in subparsers.choices["align"]._actions:
            if not {"-h", "--manifest", "--out", "--config", "--svg"} & set(
                action.option_strings
            ):
                assert action.dest in cli.CONFIG_KEYS, action.option_strings

    def test_every_config_field_is_a_config_key(self, tmp_path):
        defaults = OptimConfig()
        values = {
            f.name: getattr(defaults, f.name) for f in dataclasses.fields(OptimConfig)
        }
        values["hidden"] = list(values["hidden"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        args = build_parser().parse_args(
            ["align", "--manifest", "m.json", "--out", "o", "--config", str(cfg)]
        )
        assert dataclasses.asdict(_load_config(args)) == dataclasses.asdict(defaults)

    def test_wall_seconds_come_from_the_alignment(self, tmp_path, capsys, monkeypatch):
        results = []

        def spy(groups, cfg):
            results.append(align(groups, cfg))
            return results[-1]

        monkeypatch.setattr(cli, "align", spy)
        manifest_path = _synth(tmp_path, groups=2, k=2)
        out = tmp_path / "aligned"
        rc = main(
            ["align", "--manifest", str(manifest_path), "--out", str(out)] + FAST_ALIGN
        )
        capsys.readouterr()
        assert rc == 0
        [res] = results
        walls = [float(r[5]) for r in _read_report(out / "report.csv")[1:-1]]
        expected = [g.wall_seconds for g in res.groups]
        assert walls == pytest.approx(expected, abs=1e-6)
        # the time of the one joint run on both rows, not half of it
        assert expected[0] == expected[1]

    def test_deterministic_modulo_wall_time(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(
                ["align", "--manifest", str(manifest_path), "--out", str(out)]
                + FAST_ALIGN
            ) == 0
            outs.append(out)
        capsys.readouterr()
        r1 = _read_report(outs[0] / "report.csv")
        r2 = _read_report(outs[1] / "report.csv")
        wall_col = 5
        for a, b in zip(r1, r2):
            trimmed_a = [v for i, v in enumerate(a) if i != wall_col]
            trimmed_b = [v for i, v in enumerate(b) if i != wall_col]
            assert trimmed_a == trimmed_b
        assert (outs[0] / "loss_trace.csv").read_bytes() == (
            outs[1] / "loss_trace.csv"
        ).read_bytes()
        for m1, m2 in zip(
            read_manifest(outs[0] / "manifest.json").groups[0].members,
            read_manifest(outs[1] / "manifest.json").groups[0].members,
        ):
            assert m1.read_bytes() == m2.read_bytes()


class TestEvalAndPlot:
    def test_eval_zero_for_identical_members(self, tmp_path, capsys):
        pts = tmp_path / "p.txt"
        rng = np.random.default_rng(49)
        pts.write_text("\n".join(f"{x} {y}" for x, y in rng.normal(size=(10, 2))))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"dim": 2, "groups": [{"id": "g", "members": ["p.txt", "p.txt"]}]})
        )
        rc = main(["eval", "--manifest", str(manifest)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g,0"
        assert lines[1] == "mean,0"

    def test_plot(self, tmp_path, capsys):
        pts = tmp_path / "p.txt"
        pts.write_text("0 0\n1 1\n")
        out = tmp_path / "overlay.svg"
        rc = main(["plot", str(pts), "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert out.read_text().startswith("<?xml")


class TestErrorPaths:
    def test_missing_manifest_returns_one(self, tmp_path, capsys):
        rc = main(
            ["align", "--manifest", str(tmp_path / "none.json"),
             "--out", str(tmp_path / "x")]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_noise_kind_exits_two(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "n"
        with pytest.raises(SystemExit) as exc:
            main(["noise", "--manifest", str(manifest_path), "--out", str(out),
                  "--kind", "blur", "--level", "0.1"])
        assert exc.value.code == 2
        assert "invalid choice: 'blur'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_noise_level(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        for i, extra in enumerate(
            [
                ["--level", "1.5"],
                ["--level", "1.5", "--members", "1"],
                ["--level", "0.2", "--members", "0,x"],
                ["--level", "0.2", "--seed", "-1"],
                ["--level", "0.2", "--members", "3"],
                ["--level", "0.2", "--members", "0,-1"],
                # The last --kind wins; no kind takes a non-finite level.
                *(["--kind", kind, "--level", level]
                  for kind in ("po", "di", "gd") for level in ("nan", "inf")),
            ]
        ):
            out = tmp_path / f"n{i}"
            rc = main(
                ["noise", "--manifest", str(manifest_path),
                 "--out", str(out), "--kind", "di"] + extra
            )
            assert rc == 1
            assert capsys.readouterr().err.startswith("error:")
            assert not out.exists()

    def test_noise_reads_every_member_before_writing(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        (manifest_path.parent / "g000_m02.txt").write_text("1 2 3 4\n")
        out = tmp_path / "n"
        rc = main(
            ["noise", "--manifest", str(manifest_path), "--out", str(out),
             "--kind", "gd", "--level", "0.05"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_noise_corrupts_every_member_before_writing(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "n"
        # Members 0 and 1 are copied unchanged; member 2 overflows to inf.
        rc = main(
            ["noise", "--manifest", str(manifest_path), "--out", str(out),
             "--kind", "gd", "--level", "1e308", "--members", "2"]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: points contain non-finite values\n"
        assert not out.exists()

    def test_non_finite_member_is_named_and_nothing_is_written(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path, k=5)
        capsys.readouterr()
        bad = manifest_path.parent / "g000_m03.txt"
        bad.write_text("0.5 0.5\n1 nan\n")
        out = tmp_path / "x"
        rc = main(["align", "--manifest", str(manifest_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{bad}: line 2:" in err
        assert not out.exists()

    def test_bad_config_value_writes_nothing(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 2.5}))
        rc = main(
            ["align", "--manifest", str(manifest_path),
             "--out", str(tmp_path / "x"), "--config", str(cfg)]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "max_steps" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "setting", [["--lambda", "nan"], {"convergence_rel_tol": float("nan")}]
    )
    def test_non_finite_setting_writes_nothing(self, tmp_path, capsys, setting):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        if isinstance(setting, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(setting))  # written as NaN
            setting = ["--config", str(cfg)]
        rc = main(
            ["align", "--manifest", str(manifest_path), "--out", str(tmp_path / "x")]
            + FAST_ALIGN + setting
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 22.4 TiB", ""])
    def test_allocation_failure_exits_one(self, tmp_path, capsys, monkeypatch, message):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()

        def out_of_memory(groups, cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "align", out_of_memory)
        out = tmp_path / "x" / "out"
        rc = main(["align", "--manifest", str(manifest_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
        assert not (tmp_path / "x").exists()
        # An --out that was there before the run is left as it was.
        out.mkdir(parents=True)
        (out / "keep.txt").write_text("kept\n")
        assert main(["align", "--manifest", str(manifest_path), "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["keep.txt"]

    def test_malformed_hidden_exits_one(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        rc = main(
            ["align", "--manifest", str(manifest_path),
             "--out", str(tmp_path / "x"), "--hidden", "12,x"]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "--hidden" in err
        assert not (tmp_path / "x").exists()

    def test_diverging_run_keeps_its_loss_trace(self, tmp_path, capsys):
        """A run stopped by non-finite drifts writes the losses gathered
        before the failure, and nothing else, then exits 1."""
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        # At 1e100 the decoder overflows on the way to the non-finite
        # drifts; at 1e40 the drifts stay finite and the loss overflows.
        # The suite's filterwarnings = ["error"] asserts that neither run
        # prints a warning.
        for lr in ("1e100", "1e40"):
            out = tmp_path / f"x{lr}"
            rc = main(
                ["align", "--manifest", str(manifest_path), "--out", str(out),
                 "--lr-start", lr, "--lr-end", lr, "--steps", "20",
                 "--latent-dim", "8", "--hidden", "12,6"]
            )
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error:") and "non-finite" in err
            assert [p.name for p in out.iterdir()] == ["loss_trace.csv"]
            rows = _read_report(out / "loss_trace.csv")
            assert rows[0] == ["step", "alignment", "regularizer", "total"]
            assert 2 <= len(rows) <= 20
            assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)

    def test_failure_at_the_first_step_writes_a_header_only_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        real = decoder.run_layers

        def poisoned(*args):
            drifts, workspace = real(*args)
            drifts[0, 0] = np.nan
            return drifts, workspace

        monkeypatch.setattr(decoder, "run_layers", poisoned)
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        out = tmp_path / "x"
        rc = main(["align", "--manifest", str(manifest_path), "--out", str(out)] + FAST_ALIGN)
        assert rc == 1
        assert "step 0" in capsys.readouterr().err
        assert _read_report(out / "loss_trace.csv") == [
            ["step", "alignment", "regularizer", "total"]
        ]

    @pytest.mark.parametrize(
        "command",
        [
            ["noise", "--manifest", "{data}/manifest.json", "--out", "{data}",
             "--kind", "gd", "--level", "0.05"],
            ["align", "--manifest", "{data}/manifest.json", "--out", "{data}"]
            + FAST_ALIGN,
            ["synth", "--base", "{data}/g000_m00.txt", "--out", "{data}"],
            ["plot", "{data}/g000_m00.txt", "{data}/g000_m01.txt",
             "--out", "{data}/g000_m01.txt"],
        ],
    )
    def test_out_onto_the_inputs_is_refused(self, tmp_path, capsys, command):
        data = _synth(tmp_path).parent
        capsys.readouterr()
        before = {p: p.read_bytes() for p in data.iterdir()}
        rc = main([arg.format(data=data) for arg in command])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "input" in err
        assert {p: p.read_bytes() for p in data.iterdir()} == before


class TestUnreadableFiles:
    """An input file that is not UTF-8 or not JSON, or a manifest group of
    one member, exits 1 with the file's path after "error:", and nothing
    is written."""

    def _run(self, tmp_path, capsys, argv, bad):
        before = sorted(tmp_path.rglob("*"))
        rc = main([str(arg) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: ")
        assert sorted(tmp_path.rglob("*")) == before
        return err

    @pytest.mark.parametrize("command", ["eval", "align"])
    def test_non_utf8_member_file(self, tmp_path, capsys, command):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        bad = read_manifest(manifest_path).groups[0].members[1]
        bad.write_bytes(b"\xff\xfe0 1\n")
        extra = ["--out", tmp_path / "x"] if command == "align" else []
        self._run(tmp_path, capsys, [command, "--manifest", manifest_path, *extra], bad)

    def test_non_utf8_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_bytes(b'{"dim": 2, "groups": ["\xff"]}')
        argv = ["align", "--manifest", bad, "--out", tmp_path / "x"]
        self._run(tmp_path, capsys, argv, bad)

    def test_non_utf8_plot_file(self, tmp_path, capsys):
        good, bad = tmp_path / "a.txt", tmp_path / "b.txt"
        good.write_text("0 1\n1 0\n")
        bad.write_bytes(b"0 1\n\xff 0\n")
        self._run(tmp_path, capsys, ["plot", good, bad, "--out", tmp_path / "x.svg"], bad)

    def test_truncated_config(self, tmp_path, capsys):
        manifest_path = _synth(tmp_path)
        capsys.readouterr()
        bad = tmp_path / "bad.json"
        bad.write_text('{"max_steps": 5, ')
        argv = ["align", "--manifest", manifest_path, "--out", tmp_path / "x",
                "--config", bad]
        self._run(tmp_path, capsys, argv, bad)

    def test_one_member_group(self, tmp_path, capsys):
        (tmp_path / "p.txt").write_text("0 1\n1 0\n")
        bad = tmp_path / "manifest.json"
        group = {"id": "g", "members": ["p.txt"]}
        bad.write_text(json.dumps({"dim": 2, "groups": [group]}))
        argv = ["align", "--manifest", bad, "--out", tmp_path / "x"]
        err = self._run(tmp_path, capsys, argv, bad)
        assert "group 'g' lists 1 members, need at least 2" in err


class TestManifestValidation:
    """A malformed manifest exits 1 before anything is written."""

    def _run(self, tmp_path, capsys, payload, command="align"):
        rng = np.random.default_rng(50)
        (tmp_path / "p.txt").write_text(
            "\n".join(f"{x} {y}" for x, y in rng.normal(size=(6, 2)))
        )
        manifest = tmp_path / "data" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text(json.dumps(payload))
        before = sorted(tmp_path.rglob("*"))
        out = str(tmp_path / "data" / "out")
        extra = {
            "align": ["--out", out] + FAST_ALIGN,
            "noise": ["--out", out, "--kind", "po", "--level", "0.2"],
        }
        rc = main([command, "--manifest", str(manifest)] + extra.get(command, []))
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert sorted(tmp_path.rglob("*")) == before
        return captured

    @staticmethod
    def _group(gid):
        return {"id": gid, "members": ["../p.txt", "../p.txt"]}

    def test_non_integer_dim(self, tmp_path, capsys):
        payload = {"dim": 2.5, "groups": [self._group("g")]}
        err = self._run(tmp_path, capsys, payload).err
        assert "dim" in err

    def test_empty_group_list(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, {"dim": 2, "groups": []}, command="eval").out
        assert "mean" not in out

    def test_path_like_group_id(self, tmp_path, capsys):
        groups = [self._group("../escaped"), self._group("../escaped")]
        self._run(tmp_path, capsys, {"dim": 2, "groups": groups})
        assert not (tmp_path / "data" / "escaped_m00.txt").exists()

    @pytest.mark.parametrize("gid", ["", "a/b", "a\\b", "..", None, 7, ["a"]])
    def test_other_path_like_group_ids(self, tmp_path, capsys, gid):
        groups = [self._group(gid), self._group("ok")]
        self._run(tmp_path, capsys, {"dim": 2, "groups": groups})

    @pytest.mark.parametrize("gid", ["a\x00b", "a\nb", "a\x7fb"])
    def test_control_character_in_group_id(self, tmp_path, capsys, gid):
        groups = [self._group(gid), self._group("ok")]
        err = self._run(tmp_path, capsys, {"dim": 2, "groups": groups}).err
        assert str(tmp_path / "data" / "manifest.json") in err
        assert "control character" in err

    @pytest.mark.parametrize("command", ["align", "eval", "noise"])
    def test_nul_in_member_name(self, tmp_path, capsys, command):
        """No path can hold a NUL; the error names the manifest."""
        group = {"id": "g", "members": ["../p.txt", "p\x00.txt"]}
        err = self._run(tmp_path, capsys, {"dim": 2, "groups": [group]}, command).err
        assert str(tmp_path / "data" / "manifest.json") in err
        assert "NUL" in err

    def test_duplicate_group_ids(self, tmp_path, capsys):
        groups = [self._group("g"), self._group("g")]
        err = self._run(tmp_path, capsys, {"dim": 2, "groups": groups}).err
        assert "twice" in err

    def test_members_not_a_list(self, tmp_path, capsys):
        payload = {"dim": 2, "groups": [{"id": "g", "members": "ab.txt"}]}
        err = self._run(tmp_path, capsys, payload).err
        assert "members must be a list" in err and "'ab.txt'" in err

    def test_meta_not_an_object(self, tmp_path, capsys):
        payload = {"dim": 2, "groups": [self._group("g")], "meta": 5}
        err = self._run(tmp_path, capsys, payload, command="noise").err
        assert "meta" in err
