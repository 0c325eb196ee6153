"""tools/fingerprint.py's --compare, on small files written here; the
alignment runs themselves take about 20 s and are left to CI."""
import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

TOOL = Path(__file__).parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    # The tool pins BLAS threads in the environment, which later tests'
    # subprocesses would inherit.
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_compare_prints_each_arrays_largest_relative_difference(tool, tmp_path, capsys):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, same=np.arange(3.0), moved=np.array([0.0, 4.0, -2.0]))
    np.savez(b, same=np.arange(3.0), moved=np.array([0.0, 4.0, -2.0 * (1 + 2**-50)]))
    assert tool.main(["--compare", str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "same 0"
    name, value = lines[1].split()
    assert name == "moved" and float(value) == pytest.approx(2**-50, rel=1e-2)


def test_compare_fails_on_other_names_or_shapes(tool, tmp_path, capsys):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, x=np.zeros(2), only_a=np.zeros(1))
    np.savez(b, x=np.zeros(3), only_b=np.zeros(1))
    assert tool.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "x shapes differ" in out
    assert f"only_a only in {a}" in out and f"only_b only in {b}" in out
