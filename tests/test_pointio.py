import csv
import json
import math

import numpy as np
import pytest

from groupalign.errors import ParseError
from groupalign.geometry import PointSet
from groupalign.optimizer import GroupAlignment
from groupalign.pointio import (
    REPORT_FIELDS,
    GroupManifest,
    ManifestGroup,
    RunReport,
    load_groups,
    read_manifest,
    read_point_set,
    write_loss_trace,
    write_manifest,
    write_point_set,
)


class TestPointFiles:
    def test_read_basic(self, tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text("# header comment\n1.0 2.0\n\n  3.5\t-4.0  \n")
        ps = read_point_set(p)
        np.testing.assert_array_equal(ps.points, [[1.0, 2.0], [3.5, -4.0]])

    def test_read_3d(self, tmp_path):
        p = tmp_path / "pts.txt"
        p.write_text("0 0 0\n1 2 3\n")
        assert read_point_set(p).dim == 3

    def test_mixed_columns_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n3 4 5\n")
        with pytest.raises(ParseError, match="3 columns, file started with 2") as exc:
            read_point_set(p)
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2 3 4\n")
        with pytest.raises(ParseError) as exc:
            read_point_set(p)
        assert exc.value.line == 1

    def test_unparsable_token(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\nx 4\n")
        with pytest.raises(ParseError) as exc:
            read_point_set(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_coordinate_names_file_and_line(self, tmp_path, token):
        p = tmp_path / "bad.txt"
        p.write_text(f"1 2\n# note\n1 {token}\n")
        with pytest.raises(ParseError) as exc:
            read_point_set(p)
        assert (exc.value.path, exc.value.line) == (p, 3)
        assert f"{p}: line 3:" in str(exc.value)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing but comments\n\n")
        with pytest.raises(ParseError, match="no data lines") as exc:
            read_point_set(p)
        assert exc.value.path == p

    def test_non_utf8_file_names_the_file(self, tmp_path):
        p = tmp_path / "binary.txt"
        p.write_bytes(b"\xff\xfe 1 2\n")
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            read_point_set(p)
        assert exc.value.path == p
        assert str(exc.value).startswith(f"{p}: ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_point_set(tmp_path / "nope.txt")

    def test_round_trip_is_bit_exact(self, tmp_path):
        vals = np.array(
            [
                [math.pi, -1.0 / 3.0],
                [1e-17, 1e300],
                [-0.0, 2.2250738585072014e-308],
            ]
        )
        p = tmp_path / "rt.txt"
        write_point_set(PointSet(vals), p)
        back = read_point_set(p)
        np.testing.assert_array_equal(back.points, vals)

    def test_random_round_trip(self, tmp_path):
        rng = np.random.default_rng(44)
        vals = rng.normal(size=(50, 3)) * 10.0 ** rng.integers(-12, 12, (50, 1))
        p = tmp_path / "rt.txt"
        write_point_set(PointSet(vals), p)
        np.testing.assert_array_equal(read_point_set(p).points, vals)


class TestManifest:
    def _write_members(self, tmp_path, names):
        paths = []
        rng = np.random.default_rng(45)
        for name in names:
            p = tmp_path / name
            write_point_set(PointSet(rng.normal(size=(4, 2))), p)
            paths.append(p)
        return paths

    def test_round_trip(self, tmp_path):
        members = self._write_members(tmp_path, ["a.txt", "b.txt"])
        manifest = GroupManifest(
            dim=2,
            groups=[ManifestGroup("g0", members)],
            meta={"level": 0.4},
        )
        mp = tmp_path / "manifest.json"
        write_manifest(manifest, mp)
        back = read_manifest(mp)
        assert back.dim == 2
        assert back.meta == {"level": 0.4}
        assert [g.group_id for g in back.groups] == ["g0"]
        assert [p.resolve() for p in back.groups[0].members] == [
            m.resolve() for m in members
        ]

    def test_paths_stored_relative(self, tmp_path):
        members = self._write_members(tmp_path, ["a.txt", "b.txt"])
        mp = tmp_path / "manifest.json"
        write_manifest(GroupManifest(2, [ManifestGroup("g0", members)]), mp)
        payload = json.loads(mp.read_text())
        assert payload["groups"][0]["members"] == ["a.txt", "b.txt"]

    def test_load_groups(self, tmp_path):
        members = self._write_members(tmp_path, ["a.txt", "b.txt", "c.txt"])
        mp = tmp_path / "manifest.json"
        write_manifest(GroupManifest(2, [ManifestGroup("g0", members)]), mp)
        groups = load_groups(read_manifest(mp))
        assert len(groups) == 1
        assert len(groups[0].members) == 3
        assert groups[0].group_id == "g0"

    def test_load_groups_dim_mismatch(self, tmp_path):
        members = self._write_members(tmp_path, ["a.txt", "b.txt"])
        mp = tmp_path / "manifest.json"
        write_manifest(GroupManifest(3, [ManifestGroup("g0", members)]), mp)
        with pytest.raises(ParseError, match="a.txt: file is 2D but manifest says 3D"):
            load_groups(read_manifest(mp))

    def test_load_groups_missing_member(self, tmp_path):
        members = self._write_members(tmp_path, ["a.txt", "b.txt"])
        mp = tmp_path / "manifest.json"
        write_manifest(GroupManifest(2, [ManifestGroup("g0", members)]), mp)
        members[1].unlink()
        with pytest.raises(FileNotFoundError):
            load_groups(read_manifest(mp))

    def test_invalid_json(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text("{not json")
        with pytest.raises(ParseError):
            read_manifest(mp)

    def test_bad_dim(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"dim": 4, "groups": []}))
        with pytest.raises(ParseError):
            read_manifest(mp)

    def test_single_member_group_rejected(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text(
            json.dumps({"dim": 2, "groups": [{"id": "g", "members": ["a.txt"]}]})
        )
        with pytest.raises(ParseError, match="'g' lists 1 members, need at least") as exc:
            read_manifest(mp)
        assert exc.value.path == mp

    @pytest.mark.parametrize("gid", ["a\x00b", "a\nb"])
    def test_control_character_in_group_id(self, tmp_path, gid):
        mp = tmp_path / "manifest.json"
        group = {"id": gid, "members": ["a.txt", "b.txt"]}
        mp.write_text(json.dumps({"dim": 2, "groups": [group]}))
        with pytest.raises(ParseError, match="control character") as exc:
            read_manifest(mp)
        assert exc.value.path == mp

    def test_non_utf8_manifest_names_the_file(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_bytes(b'{"dim": 2, "groups": ["\xff"]}')
        with pytest.raises(ParseError, match="invalid JSON: 'utf-8' codec") as exc:
            read_manifest(mp)
        assert exc.value.path == mp


class TestRunReport:
    @staticmethod
    def _group(gid, k, initial, final, steps, wall):
        members = tuple(PointSet(np.zeros((3, 2))) for _ in range(k))
        return GroupAlignment(
            group_id=gid,
            transformed=members,
            drifts=tuple(np.zeros((3, 2)) for _ in range(k)),
            latent=np.zeros(4),
            initial_normalized_cd=initial,
            final_normalized_cd=final,
            final_loss=None,
            steps_run=steps,
            wall_seconds=wall,
        )

    @staticmethod
    def _rows(groups, tmp_path):
        path = tmp_path / "report.csv"
        RunReport(groups).write_csv(path)
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def _groups(self):
        return [
            self._group("improved", 7, 0.02, 0.0005, 500, 12.5),
            self._group("equal", 3, 0.04, 0.04, 480, 11.0),
            self._group("worse", 2, 1.0 / 3.0, 0.5, 30, 0.25),
        ]

    def test_converged_flag(self, tmp_path):
        # converged: the final value is no worse than the initial one
        rows = self._rows(self._groups(), tmp_path)
        assert [r[6] for r in rows[1:4]] == ["true", "true", "false"]

    def test_aggregates(self, tmp_path):
        rows = self._rows(
            [
                self._group("g000", 7, 0.02, 0.0005, 500, 12.5),
                self._group("g001", 7, 0.04, 0.0010, 480, 11.0),
            ],
            tmp_path,
        )
        assert rows[3][0] == "mean"
        assert float(rows[3][2]) == pytest.approx(0.03, rel=1e-15)
        assert float(rows[3][3]) == pytest.approx(0.00075, rel=1e-15)
        assert rows[3][1] == rows[3][4] == rows[3][5] == rows[3][6] == ""

    def test_csv_layout(self, tmp_path):
        rows = self._rows(self._groups(), tmp_path)
        assert rows[0] == list(REPORT_FIELDS)
        assert rows[1] == [
            "improved", "7", "0.02", "0.00050000000000000001", "500", "12.500000", "true"
        ]
        assert [r[0] for r in rows[1:]] == ["improved", "equal", "worse", "mean"]
        assert [r[1] for r in rows[1:4]] == ["7", "3", "2"]
        assert [r[4] for r in rows[1:4]] == ["500", "480", "30"]
        # the CDs round-trip exactly, and the mean row is their mean
        assert float(rows[3][2]) == 1.0 / 3.0
        assert rows[4][1] == rows[4][4] == rows[4][5] == rows[4][6] == ""
        for col in (2, 3):
            assert float(rows[4][col]) == np.mean([float(r[col]) for r in rows[1:4]])


def test_loss_trace_csv(tmp_path):
    trace = np.array([[10.0, 2.0, 10.2], [5.0, 1.0, 5.1]])
    path = tmp_path / "trace.csv"
    write_loss_trace(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "alignment", "regularizer", "total"]
    assert [r[0] for r in rows[1:]] == ["0", "1"]
    back = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    np.testing.assert_array_equal(back, trace)


def _row_loop_point_set(ps, path):
    """The per-row writer that ``np.savetxt`` replaced, kept as the
    reference for ``write_point_set``'s bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in ps.points:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def _row_loop_loss_trace(trace, path):
    """The csv-module writer that ``np.savetxt`` replaced, kept as the
    reference for ``write_loss_trace``'s bytes."""
    trace = np.asarray(trace)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "alignment", "regularizer", "total"])
        for step, (alignment, regularizer, total) in enumerate(trace):
            writer.writerow(
                [step, f"{alignment:.17g}", f"{regularizer:.17g}", f"{total:.17g}"]
            )


# Signed zero, the smallest subnormal, and magnitudes near the top of float64.
EDGE_VALUES = [-0.0, 5e-324, 1e300, -1e300, math.pi, -1.0 / 3.0]


class TestWriterBytes:
    """The NumPy writers give the bytes of the loops they replaced."""

    @pytest.mark.parametrize(
        "points",
        [
            np.reshape(EDGE_VALUES, (3, 2)),
            np.reshape(EDGE_VALUES, (2, 3)),
            np.concatenate([
                np.reshape(EDGE_VALUES, (3, 2)),
                np.random.default_rng(47).normal(size=(40, 2))
                * 10.0 ** np.random.default_rng(48).integers(-300, 300, (40, 1)),
            ]),
            np.array([[-0.0, 5e-324]]),
            np.array([[1e300, -1e300, -0.0]]),
        ],
        ids=["2d", "3d", "2d-random", "1-row-2d", "1-row-3d"],
    )
    def test_point_file(self, tmp_path, points):
        ps = PointSet(points)
        _row_loop_point_set(ps, tmp_path / "ref.txt")
        # A ".gz" name changes nothing: the writer hands NumPy an open file.
        for name in ("new.txt", "new.txt.gz"):
            write_point_set(ps, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize(
        "trace",
        [
            np.concatenate([
                np.reshape(EDGE_VALUES * 2, (4, 3)),
                np.random.default_rng(49).lognormal(0.0, 20.0, (33, 3)),
            ]),
            [],
        ],
        ids=["37-rows", "header-only"],
    )
    def test_loss_trace(self, tmp_path, trace):
        _row_loop_loss_trace(trace, tmp_path / "ref.csv")
        for name in ("new.csv", "new.csv.gz"):
            write_loss_trace(trace, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()
