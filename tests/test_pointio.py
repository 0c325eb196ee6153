import csv
import json
import math

import numpy as np
import pytest

from groupalign.errors import (
    EmptyFileError,
    MixedDimensionalityError,
    ParseError,
    ShapeMismatchError,
    TooFewSetsError,
)
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
        with pytest.raises(MixedDimensionalityError) as exc:
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
        with pytest.raises(EmptyFileError):
            read_point_set(p)

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
        assert groups[0].k == 3
        assert groups[0].group_id == "g0"

    def test_load_groups_dim_mismatch(self, tmp_path):
        members = self._write_members(tmp_path, ["a.txt", "b.txt"])
        mp = tmp_path / "manifest.json"
        write_manifest(GroupManifest(3, [ManifestGroup("g0", members)]), mp)
        with pytest.raises(ShapeMismatchError):
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
        with pytest.raises(TooFewSetsError):
            read_manifest(mp)


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
